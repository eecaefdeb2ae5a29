"""The construction pipeline: condition checks, divisors, bases, matrices.

Divisor and orbit invariants are checked exhaustively over every group
element of every built-in instance; expected parameter values were derived
by hand from the orbit structure and frozen here.
"""

import dataclasses

import pytest

from orbitcodes import (
    CheckFailure,
    CheckReport,
    Instance,
    ProjMap,
    PreconditionError,
    build_basis,
    build_divisor,
    builtin_generators,
    builtin_instance,
    check_condition_b,
    check_condition_d,
    close,
    diagonal_map,
    fermat_curve,
    make_field,
    point,
    projective_line,
    root_of_unity,
    run_construction,
)
from orbitcodes import construction
from orbitcodes.construction import Divisor, check_curve_preservation
from orbitcodes.gf import FieldElement, embedding, prime_power
from orbitcodes.geometry import poly_eval


# ---------------------------------------------------------------------------
# condition (b)


def test_condition_b_passes_on_builtins(built):
    for res in built.values():
        rep = check_condition_b(res.instance)
        assert rep.passed


def test_condition_b_fails_when_groups_equal():
    F9 = make_field(3, 2)
    g1, _ = builtin_generators("fermat", 3, F9)
    G = close(g1, label="G")
    curve = fermat_curve(3, F9)
    Q = curve.line_section_points(F9)[0]
    inst = Instance(curve, (G, G), Q, point(F9, 1, 1, 1), F9, F9)
    rep = check_condition_b(inst)
    assert not rep.passed
    assert rep.witness is not None  # a shared non-identity element


def _fermat3_with_third_group():
    """The built-in fermat q=3 instance with a third group of order 4, the
    scalings of Z by the powers of a primitive 4th root of unity."""
    inst = builtin_instance("fermat", 3)
    F9 = inst.working
    zeta = root_of_unity(F9, 4)
    G3 = close([diagonal_map(F9, F9.one(), F9.one(), zeta)], label="G3")
    return dataclasses.replace(inst, groups=inst.groups + (G3,))


def test_condition_b_with_three_groups():
    inst = _fermat3_with_third_group()
    rep = check_condition_b(inst)
    assert rep == CheckReport(
        "condition_b",
        True,
        {
            "orders": [4, 4, 4],
            "pairs": [
                {"pair": [0, 1], "intersection_order": 1},
                {"pair": [0, 2], "intersection_order": 1},
                {"pair": [1, 2], "intersection_order": 1},
            ],
        },
    )


@pytest.mark.parametrize(
    "copies,orders",
    [
        ((0, 0, 0), [4, 4, 4]),  # every pair shares all of G1
        ((0, 1, 0), [1, 4, 1]),  # one pair is trivial, which is enough
    ],
)
def test_condition_b_with_three_groups_passes_iff_a_pair_is_trivial(copies, orders):
    inst = builtin_instance("fermat", 3)
    inst = dataclasses.replace(inst, groups=tuple(inst.groups[i] for i in copies))
    rep = check_condition_b(inst)
    assert [p["intersection_order"] for p in rep.details["pairs"]] == orders
    assert rep.passed == (1 in orders)
    if rep.passed:
        assert rep.witness is None
    else:
        assert rep.witness == {"pair": [0, 1], "element": [1, 0, 0, 0, 6, 0, 0, 0, 6]}


def test_condition_d_with_three_groups_takes_the_first_good_pair():
    inst = _fermat3_with_third_group()
    D = run_construction(builtin_instance("fermat", 3)).divisor
    S, rep = check_condition_d(inst, D)
    assert len(S) == 16
    assert rep.passed
    assert rep.details["clauses"][-1] == {
        "clause": "orbit_size",
        "variant": "many_groups_pair",
        "orbit_size": 16,
        "designated_pair": [0, 1],
        "passed": True,
    }
    # Q's orbit under the third group is not the line section
    res = run_construction(inst, strict=False)
    assert [r.name for r in res.reports][-1] == "condition_c"
    assert not res.reports[-1].passed and res.code is None


@pytest.mark.parametrize("m,passed", [(3, True), (4, False)])
def test_condition_d_with_three_groups_keeps_the_designed_bound_positive(m, passed):
    # the designed bound #S - m*|G1| = 16 - 4m is positive only below m = 4,
    # as the two-group clause m*|G1| < #S asks; the pair alone passes at m = 4
    inst = dataclasses.replace(_fermat3_with_third_group(), m=m)
    D = run_construction(builtin_instance("fermat", 3)).divisor
    _, rep = check_condition_d(inst, D)
    assert rep.passed == passed
    assert rep.details["clauses"][-1] == {
        "clause": "orbit_size",
        "variant": "many_groups_pair",
        "orbit_size": 16,
        "designated_pair": [0, 1],
        "scaled_degree": 4 * m,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# divisors / condition (c)


def test_fermat_divisor_is_the_line_section(built):
    res = built[("fermat", 3)]
    D = res.divisor
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    assert D.points() == curve.line_section_points(F9)
    assert D.degree == 4 and D.e == 1
    assert D.field_of_definition == make_field(3, 1)
    rationality = next(r for r in res.reports if r.name == "rationality")
    assert rationality.passed and rationality.details["ground_rational"] is True


def test_projline_divisor_is_scaled_base_point(built):
    res = built[("projline", 5)]
    D = res.divisor
    F5 = make_field(5, 1)
    assert D.points() == (point(F5, 1, 0),)
    assert D.degree == 2 and D.e == 2
    assert dict(D.support) == {point(F5, 1, 0): 2}


def oracle_first_common_fiber_point(curve, field, groups):
    """The search for Q that the line section replaced on P^1: the first
    point whose orbit multisets agree across the groups, or None."""
    for pt in curve.rational_points(field):
        reference = groups[0].orbit_multiset(pt)
        if all(g.orbit_multiset(pt) == reference for g in groups[1:]):
            return pt
    return None


def test_projline_base_point_is_the_first_common_fiber_point(built):
    valid = []
    for q in range(5, 256, 2):
        try:
            p, s = prime_power(q)
        except PreconditionError:
            continue
        field = make_field(p, s)
        groups = [close(g) for g in builtin_generators("projline", q, field)]
        line = projective_line(field)
        Q = oracle_first_common_fiber_point(line, field, groups)
        assert Q == point(field, 1, 0) == line.line_section_points(field)[0]
        if ("projline", q) in built:
            assert built[("projline", q)].instance.Q == Q
        valid.append(q)
    assert len(valid) == 61


def test_bf_divisor_multiplicities(built):
    res = built[("bf", 2)]
    D = res.divisor
    assert len(D.support) == 3
    assert D.e == 4 and D.degree == 12
    assert D.field_of_definition == make_field(2, 1)


def test_condition_c_fails_off_the_common_fiber():
    # a point with all coordinates nonzero has different orbit multisets
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    curve = fermat_curve(3, F9)
    inst = Instance(
        curve, (close(g1), close(g2)), point(F9, 1, 1, 1), point(F9, 1, 1, 2), F9, F9
    )
    with pytest.raises(CheckFailure) as exc:
        build_divisor(inst)
    assert exc.value.report.name == "condition_c"


def test_divisor_invariant_under_every_group_element(built):
    for res in built.values():
        D = res.divisor.as_multiset()
        joint = res.instance.joint_group()
        for gamma in joint.elements:
            image = {gamma.apply(p): m for p, m in D.items()}
            assert image == D


# ---------------------------------------------------------------------------
# condition (d) and the evaluation set


def test_fermat_q3_evaluation_set(built):
    res = built[("fermat", 3)]
    assert len(res.points) == 16
    rep = next(r for r in res.reports if r.name == "condition_d")
    assert rep.passed
    assert rep.details["orbit_size"] == 16


def test_projline_evaluation_set_is_affine_line(built):
    res = built[("projline", 5)]
    F5 = make_field(5, 1)
    assert len(res.points) == 5
    assert point(F5, 1, 0) not in res.points


def test_evaluation_set_stable_under_every_group_element(built):
    for res in built.values():
        S = set(res.points)
        joint = res.instance.joint_group()
        for gamma in joint.elements:
            assert {gamma.apply(p) for p in S} == S


def test_fermat_q2_has_no_valid_seed():
    with pytest.raises(PreconditionError) as exc:
        builtin_instance("fermat", 2)
    assert exc.value.kind == "no_valid_qprime"
    assert exc.value.details["points_scanned"] == 9


@pytest.mark.parametrize(
    "family,q,kind",
    [
        ("fermat", 1, "not_prime_power"),
        ("fermat", 6, "not_prime_power"),
        ("projline", 1, "invalid_family_parameters"),
        ("projline", 3, "invalid_family_parameters"),
        ("projline", 4, "invalid_family_parameters"),
        ("projline", 6, "invalid_family_parameters"),  # the q rule runs before q is factored
        ("projline", 15, "not_prime_power"),
        ("bf", 1, "not_prime_power"),
        ("bf", 6, "not_prime_power"),
        ("klein", 3, "invalid_family_parameters"),
        ("fermat", 1000003, "order_overflow"),
        ("projline", 1000003, "order_overflow"),
    ],
)
def test_builtin_instance_error_kinds(family, q, kind):
    with pytest.raises(PreconditionError) as exc:
        builtin_instance(family, q)
    assert exc.value.kind == kind


def test_condition_d_rejects_seed_in_support():
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    curve = fermat_curve(3, F9)
    Q = curve.line_section_points(F9)[0]
    inst = Instance(curve, (close(g1), close(g2)), Q, Q, F9, F9)
    D = build_divisor(inst)
    S, rep = check_condition_d(inst, D)
    assert not rep.passed
    clauses = {c["clause"]: c["passed"] for c in rep.details["clauses"]}
    assert clauses["qprime_outside_support"] is False


def test_condition_d_rejects_small_orbit():
    # seeds with a zero coordinate have orbits of size 4 < 5 on this curve
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    curve = fermat_curve(3, F9)
    Q = curve.line_section_points(F9)[0]
    seed = next(p for p in curve.rational_points(F9) if p.coords[-1] and not all(p.coords))
    inst = Instance(curve, (close(g1), close(g2)), Q, seed, F9, F9)
    D = build_divisor(inst)
    S, rep = check_condition_d(inst, D)
    assert len(S) == 4
    assert not rep.passed


# ---------------------------------------------------------------------------
# basis synthesis


def test_fermat_m1_basis_is_z_x_y(built):
    res = built[("fermat", 3)]
    basis = build_basis(res.instance, res.divisor, res.code.n)
    assert basis.degree == 1
    assert [sorted(f.items()) for f in basis.forms] == [
        [((0, 0, 1), res.instance.working.one())],
        [((1, 0, 0), res.instance.working.one())],
        [((0, 1, 0), res.instance.working.one())],
    ]


def test_fermat_m2_basis_has_six_monomials():
    inst = builtin_instance("fermat", 3, m=2)
    D = build_divisor(inst)
    basis = build_basis(inst, D, 16)
    assert basis.degree == 2
    assert len(basis.forms) == 6
    exps = [next(iter(f)) for f in basis.forms]
    assert exps == [(0, 0, 2), (1, 0, 1), (0, 1, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)]


def test_projline_basis_monomials(built):
    res = built[("projline", 5)]
    basis = build_basis(res.instance, res.divisor, res.code.n)
    assert basis.degree == 2
    exps = [next(iter(f)) for f in basis.forms]
    assert exps == [(0, 2), (1, 1), (2, 0)]  # t^2, st, s^2


@pytest.mark.parametrize("family,q,m,forms", [("fermat", 3, 5, 21), ("fermat", 3, 10**7, None),
                                              ("projline", 5, 3, 7), ("projline", 5, 10**7, None)])
def test_a_basis_with_more_forms_than_points_fails_before_it_is_listed(built, family, q, m, forms):
    # (m+1)(m+2)/2 forms on the plane, m*deg(D) + 1 on the line; at
    # m = 10^7 listing them would not fit in memory
    res = built[(family, q)]
    inst = dataclasses.replace(res.instance, m=m)
    n, degree = res.code.n, res.divisor.degree
    want = (m + 1) * (m + 2) // 2 if family == "fermat" else m * degree + 1
    with pytest.raises(CheckFailure) as exc:
        build_basis(inst, res.divisor, n)
    assert exc.value.report == CheckReport("injectivity", False, {
        "reason": "more basis functions than evaluation points", "functions": want, "points": n})
    if forms is not None:  # with a point for each form, every form is listed
        assert len(build_basis(inst, res.divisor, want).forms) == forms == want


def test_unsupported_divisor_shape_needs_explicit_functions():
    F5 = make_field(5, 1)
    line = projective_line(F5)
    z = root_of_unity(F5, 2)
    one, zero = F5.one(), F5.zero()
    from orbitcodes import ProjMap

    g1 = close([ProjMap(((z, zero), (zero, one)), F5)], label="G1")
    g2 = close([ProjMap(((z, one - z), (zero, one)), F5)], label="G2")
    inst = Instance(line, (g1, g2), point(F5, 1, 0), point(F5, 0, 1), F5, F5)
    wrong = Divisor(((point(F5, 0, 1), 2),), F5)
    with pytest.raises(PreconditionError) as exc:
        build_basis(inst, wrong, 2)
    assert exc.value.kind == "unsupported_basis"


# ---------------------------------------------------------------------------
# code assembly


def test_fermat_code_shape(built):
    code = built[("fermat", 3)].code
    assert (code.n, code.rank, code.distance_bound) == (16, 3, 12)
    assert len(code.matrix) == 3
    assert all(any(row) for row in code.matrix)
    # the constant function evaluates to 1 everywhere
    one = code.field.one()
    assert all(v == one for v in code.matrix[0])


def test_projline_code_shape(built):
    code = built[("projline", 5)].code
    assert (code.n, code.rank, code.distance_bound) == (5, 3, 3)


def test_bf_code_shape(built):
    res = built[("bf", 2)]
    code = res.code
    assert code.n == 48
    assert code.rank == 3
    assert code.distance_bound == 48 - 12
    assert res.joint_order == 144


def test_rank_is_three_for_unit_scale_plane_families(built):
    for (family, q), res in built.items():
        if family in ("fermat", "bf"):
            assert res.code.rank == 3


def test_one_row_reduction_per_code(monkeypatch):
    # a code is built without its rank: the rank, the code document and the
    # analyses read one reduction, and the verify path, which reports no
    # rank, makes none
    from orbitcodes import min_distance_exact, serialize, verify_faithful
    from orbitcodes.errors import report_to_dict

    calls = []
    reduce = construction.rank_and_rref

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(construction, "rank_and_rref", counted)
    res = run_construction(builtin_instance("fermat", 3))
    assert serialize.result_to_dict(res)["k"] == 3 and len(calls) == 1
    assert min_distance_exact(res.code) == 12 and len(calls) == 1

    calls.clear()  # verify
    res = run_construction(builtin_instance("fermat", 3), strict=False)
    report_to_dict(res.reports, {})
    assert res.passed and calls == []

    calls.clear()  # automorphisms
    inst = builtin_instance("fermat", 3)
    res = run_construction(inst)
    rep = verify_faithful(inst.joint_group(), res.points, res.code)
    report_to_dict([rep], {})
    assert rep.passed and len(calls) == 1


def test_builtin_q_and_seed_choices(built):
    F9 = make_field(3, 2)
    res = built[("fermat", 3)]
    assert res.instance.Q == point(F9, 1, 4, 0)  # first line-section point
    assert res.instance.Qprime == point(F9, 1, 1, 1)
    F5 = make_field(5, 1)
    res5 = built[("projline", 5)]
    assert res5.instance.Q == point(F5, 1, 0)
    assert res5.instance.Qprime == point(F5, 0, 1)
    resb = built[("bf", 2)]
    assert not resb.instance.Qprime.coords[1]  # (x : 0 : 1) shape
    assert resb.instance.Qprime.coords[2]


def test_scaled_instance_parameters():
    inst = builtin_instance("fermat", 3, m=2)
    res = run_construction(inst)
    assert (res.code.n, res.code.rank, res.code.distance_bound) == (16, 6, 8)


def test_run_construction_reports_all_pass(built):
    for res in built.values():
        assert res.passed
        names = [r.name for r in res.reports]
        assert names == [
            "condition_a",
            "curve_preservation",
            "condition_b",
            "condition_c",
            "rationality",
            "condition_d",
        ]


# ---------------------------------------------------------------------------
# custom instances and ground-field coercion


def _affine_f3_line_instance(working):
    """Order-2 scaling and its translate over GF(3), optionally viewed
    inside a bigger working field."""
    from orbitcodes import ProjMap, embedding

    F3 = make_field(3, 1)
    emb = embedding(F3, working) if working != F3 else None

    def lift(c):
        return emb.apply(c) if emb else c

    two, one, zero = lift(F3.from_int(2)), lift(F3.one()), lift(F3.zero())
    g1 = close([ProjMap(((two, zero), (zero, one)), working)], label="G1")
    g2 = close([ProjMap(((two, two), (zero, one)), working)], label="G2")
    line = projective_line(working)
    from orbitcodes import ProjPoint

    Q = ProjPoint((one, zero))
    Qp = ProjPoint((zero, one))
    return Instance(line, (g1, g2), Q, Qp, F3, working, family="custom")


def test_custom_instance_same_fields():
    inst = _affine_f3_line_instance(make_field(3, 1))
    res = run_construction(inst)
    assert res.passed
    assert (res.code.n, res.code.rank, res.code.distance_bound) == (3, 3, 1)


def test_custom_instance_coerces_to_subfield_ground():
    # same construction, but carried out inside GF(9); every evaluation is
    # Frobenius-fixed and lands back in GF(3)
    inst = _affine_f3_line_instance(make_field(3, 2))
    res = run_construction(inst)
    assert res.passed
    assert res.code.field == make_field(3, 1)
    assert (res.code.n, res.code.rank) == (3, 3)


def oracle_code_rows(inst, S, basis):
    """The code rows as the per-entry evaluation built them before the
    matrix was built on encodings: each entry rebuilds its form's terms and
    its point's chart, and a value is mapped into a smaller ground field
    through `Embedding.section`."""
    emb = None if inst.ground == inst.working else embedding(inst.ground, inst.working)
    rows = []
    for form in basis.forms:
        row = []
        for pt in S:
            terms = tuple((e, c.enc) for e, c in form.items())
            chart = tuple(c.enc for c in pt.dehomogenized())
            value = FieldElement(pt.spec, poly_eval(terms, pt.spec, chart))
            row.append(value if emb is None else emb.section(value))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("working", [(3, 1), (3, 2), (3, 4)], ids=["F3", "F9", "F81"])
def test_code_rows_match_the_per_entry_evaluation_on_a_subfield(working):
    inst = _affine_f3_line_instance(make_field(*working))
    res = run_construction(inst)
    basis = build_basis(inst, res.divisor, res.code.n)
    assert res.code.matrix == oracle_code_rows(inst, res.points, basis)


def test_code_rows_match_the_per_entry_evaluation_on_builtins(built):
    for (family, q), res in built.items():
        inst = res.instance
        for m in (1, 2):
            if m != inst.m:
                inst = dataclasses.replace(inst, m=m)
                res = run_construction(inst)
            basis = build_basis(inst, res.divisor, res.code.n)
            assert res.code.matrix == oracle_code_rows(inst, res.points, basis), (family, q, m)


def test_the_code_path_builds_no_field_element(monkeypatch):
    """On bf q=4 the rows stay encodings from the basis to the code
    document, the distance and the faithful-action certificate; `matrix`
    is the one place they become field elements."""
    from orbitcodes import serialize
    from orbitcodes.code_analysis import min_distance_exact, verify_faithful

    inst = builtin_instance("bf", 4)
    res = run_construction(inst)
    basis = build_basis(inst, res.divisor, res.code.n)
    joint = inst.joint_group()
    made = []
    init = FieldElement.__init__

    def counted(self, spec, enc):
        made.append(enc)
        init(self, spec, enc)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    code = construction._assemble_code(inst, res.points, basis)
    serialize.result_to_dict(construction.ConstructionResult(
        inst, res.reports, res.divisor, res.points, res.joint_order, code))
    assert min_distance_exact(code) == 1200
    assert verify_faithful(joint, code.points, code).passed
    assert made == []
    monkeypatch.undo()
    assert code.encodings == res.code.encodings
    assert code.matrix == tuple(
        tuple(FieldElement(code.field, v) for v in row) for row in code.encodings)


def test_ground_coercion_failure_signals_nonrational_data():
    # grid evaluations lie in GF(9) but not GF(3): building over ground
    # GF(3) must fail at the rationality stage or the coercion stage
    F9 = make_field(3, 2)
    F3 = make_field(3, 1)
    g1, g2 = builtin_generators("fermat", 3, F9)
    curve = fermat_curve(3, F9)
    Q = curve.line_section_points(F9)[0]
    inst = Instance(curve, (close(g1), close(g2)), Q, point(F9, 1, 1, 1), F3, F9)
    with pytest.raises(CheckFailure) as exc:
        run_construction(inst).code
    assert exc.value.report.name in ("condition_d", "ground_coercion")


def test_ground_coercion_report_names_the_first_value_off_the_ground():
    # the projline q=9 groups on the line over GF(9), built over ground GF(3):
    # conditions a-d hold, and the basis takes the value 6 outside GF(3)
    F9 = make_field(3, 2)
    F3 = make_field(3, 1)
    g1, g2 = builtin_generators("projline", 9, F9)
    groups = (close(g1, label="G1"), close(g2, label="G2"))
    inst = Instance(projective_line(F9), groups, point(F9, 1, 0), point(F9, 1, 1), F3, F9)
    res = run_construction(inst, strict=False)
    assert res.code is None and res.joint_order == 36 and len(res.points) == 9
    assert [(r.name, r.passed) for r in res.reports] == [
        ("condition_a", True),
        ("curve_preservation", True),
        ("condition_b", True),
        ("condition_c", True),
        ("rationality", True),
        ("condition_d", True),
        ("ground_coercion", False),
    ]
    assert res.reports[-1] == CheckReport(
        "ground_coercion", False, {"reason": "evaluation leaves the ground field", "value": 6}
    )
    with pytest.raises(CheckFailure) as exc:
        run_construction(inst)
    assert exc.value.report == res.reports[-1]


def test_joint_group_is_closed_once_per_instance():
    inst = _affine_f3_line_instance(make_field(3, 1))
    assert inst.joint_group() is inst.joint_group()
    assert inst.joint_group().order == 6


@pytest.mark.parametrize("family,q", [("fermat", 3), ("projline", 7), ("bf", 2)])
def test_builtin_job_closes_each_group_once(monkeypatch, family, q):
    labels = []

    def counting_close(generators, **kwargs):
        labels.append(kwargs.get("label"))
        return close(generators, **kwargs)

    monkeypatch.setattr(construction, "close", counting_close)
    inst = builtin_instance(family, q)
    res = run_construction(inst)
    assert inst.joint_group() is inst.joint_group()
    assert res.joint_order == inst.joint_group().order
    assert labels == ["G1", "G2", "joint"]


def test_instance_rejects_points_off_curve():
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    curve = fermat_curve(3, F9)
    with pytest.raises(ValueError):
        Instance(
            curve, (close(g1), close(g2)), point(F9, 1, 0, 0), point(F9, 1, 1, 1), F9, F9
        )


# ---------------------------------------------------------------------------
# curve preservation


def oracle_check_curve_preservation(inst):
    """The element loop: every element of every group against the curve
    equation, in order."""
    checked = 0
    for grp in inst.groups:
        for mapel in grp.elements:
            if not mapel.preserves_curve(inst.curve):
                return CheckReport(
                    "curve_preservation",
                    False,
                    {"group": grp.label},
                    witness={"element": list(mapel.key)},
                )
            checked += 1
    return CheckReport("curve_preservation", True, {"elements_checked": checked})


def test_curve_check_matches_the_element_loop_on_builtins(built, monkeypatch):
    tested = []
    preserves_curve = ProjMap.preserves_curve

    def recording(self, curve):
        tested.append(self)
        return preserves_curve(self, curve)

    for res in built.values():
        inst = res.instance
        tested.clear()
        with monkeypatch.context() as mp:
            mp.setattr(ProjMap, "preserves_curve", recording)
            rep = check_curve_preservation(inst)
        # the generators alone are tested, never another element
        assert tested == [g for grp in inst.groups for g in grp.generators]
        assert rep == oracle_check_curve_preservation(inst)
        assert rep.details["elements_checked"] == sum(g.order for g in inst.groups)


def test_curve_check_on_hand_built_groups_matches_the_element_loop(built):
    inst = built[("fermat", 3)].instance
    G1, G2 = inst.groups
    F9 = inst.working
    o, z = F9.one(), F9.zero()
    shear = ProjMap(((o, z, o), (z, o, z), (z, z, o)), F9)  # breaks the curve
    assert not shear.preserves_curve(inst.curve)
    cases = [
        (G1, close([shear], label="shears")),  # the only generator breaks it
        (G1, close(G2.generators + (shear,), label="G2")),  # one of two generators does
    ]
    reports = []
    for groups in cases:
        case = dataclasses.replace(inst, groups=groups)
        assert not all(g.preserves_curve(case.curve) for grp in groups for g in grp.generators)
        rep = check_curve_preservation(case)
        assert rep == oracle_check_curve_preservation(case)
        reports.append(rep)
    assert [r.passed for r in reports] == [False, False]
    assert [r.details for r in reports] == [{"group": "shears"}, {"group": "G2"}]
    assert reports[0].witness == reports[1].witness == {"element": list(shear.key)}


def test_curve_check_on_an_intersection_matches_the_element_loop(built):
    # X -> X - Z and the X scaling generate the maps X -> aX + bZ; their
    # intersection with themselves lists them in close's order, where
    # X -> X - Z is the first to break the curve, while ordered by key
    # X -> X + Z would come first
    inst = built[("fermat", 3)].instance
    G1 = inst.groups[0]
    F9 = inst.working
    o, z = F9.one(), F9.zero()
    shear = ProjMap(((o, z, -o), (z, o, z), (z, z, o)), F9)
    H = close(G1.generators + (shear,), label="H")
    common = H.intersect(H)
    breaking = [m for m in common.elements if not m.preserves_curve(inst.curve)]
    assert breaking[0] == shear != min(breaking, key=lambda m: m.key)
    case = dataclasses.replace(inst, groups=(G1, common))
    rep = check_curve_preservation(case)
    assert rep == oracle_check_curve_preservation(case)
    assert (rep.details, rep.witness) == ({"group": "H & H"}, {"element": list(shear.key)})
