"""Group closure, orbits, curve preservation, the generator families,
projective frames, and the rule that every group is the closure of its
generators.

The bf and projline generators are compared with
`oracle_builtin_generators`, the FieldElement code that formed them before
they moved to encodings.  The `confined` fixture wraps the FieldElement
operators so that they fail outside `ProjMap.preserves_curve`: built-in
constructions, the GF(3)-in-GF(9) goldens and the embedding search must
run under it, so the curve certificate is the last FieldElement
arithmetic."""

import itertools
import random

import pytest

from orbitcodes import (
    AutGroup,
    FieldElement,
    PreconditionError,
    ProjMap,
    builtin_generators,
    builtin_instance,
    close,
    diagonal_map,
    embedding,
    fermat_curve,
    identity_map,
    make_field,
    point,
    root_of_unity,
    run_construction,
    trace_fermat_curve,
)
from orbitcodes import autgroup
from orbitcodes.autgroup import _det, check_joint_fits, find_frame
from orbitcodes.geometry import projective_reps
from orbitcodes.gf import prime_power
from test_golden import SUBFIELD_GOLDEN, subfield_job


@pytest.fixture(scope="module")
def fermat3():
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    return F9, g1, g2


# ---------------------------------------------------------------------------
# ProjMap basics


def test_map_normalization_mod_scalars():
    F9 = make_field(3, 2)
    two = F9.from_int(2)
    a = diagonal_map(F9, two, two, two)
    assert a.is_identity()


def test_singular_map_rejected():
    F5 = make_field(5, 1)
    z, o = F5.zero(), F5.one()
    with pytest.raises(ValueError):
        ProjMap(((o, o), (o, o)), F5)
    _ = ProjMap(((o, o), (z, o)), F5)  # invertible shear is fine


def test_map_refuses_assignment():
    F5 = make_field(5, 1)
    m = diagonal_map(F5, F5.from_int(2), F5.one())
    for name, value in [("key", (1, 0, 0, 1)), ("field", make_field(7, 1)), ("n", 3)]:
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert m.key == (1, 0, 0, 3) and m.n == 2 and m.field == F5


def test_inverse_and_composition():
    F9 = make_field(3, 2)
    z = root_of_unity(F9, 4)
    m = ProjMap(((z, F9.one(), F9.zero()),
                 (F9.zero(), z, F9.from_int(2)),
                 (F9.zero(), F9.zero(), F9.one())), F9)
    assert (m @ m.inverse()).is_identity()
    assert (m.inverse() @ m).is_identity()


def test_apply_identity_fixes_points():
    F9 = make_field(3, 2)
    ident = identity_map(F9, 3)
    p = point(F9, 1, 5, 2)
    assert ident.apply(p) == p


def test_apply_diagonal_on_line_point(fermat3):
    F9, g1, _ = fermat3
    z = root_of_unity(F9, 4)
    b = F9.from_enc(4)
    p = point(F9, 1, 4, 0)  # (1 : b : 0)
    image = g1[0].apply(p)
    # (zeta : b : 0) normalizes to (1 : b/zeta : 0)
    assert image.coords[1] == b * z.inv()
    assert not image.coords[2]


def test_apply_projline_translation():
    F5 = make_field(5, 1)
    _, g2 = builtin_generators("projline", 5, F5)
    z = root_of_unity(F5, 2)
    image = g2[0].apply(point(F5, 0, 1))
    assert image == point(F5, (F5.one() - z).enc, 1)


def test_dimension_mismatch():
    F9 = make_field(3, 2)
    with pytest.raises(ValueError):
        identity_map(F9, 3).apply(point(F9, 1, 0))


# ---------------------------------------------------------------------------
# closure


def test_close_identity_only(monkeypatch):
    monkeypatch.setattr(autgroup, "CLOSURE_CAP", 1)  # the identity alone fits
    F5 = make_field(5, 1)
    g = close([identity_map(F5, 2)])
    assert g.order == 1


def test_close_fermat_joint_order(fermat3):
    _, g1, g2 = fermat3
    assert close(g1).order == 4
    assert close(g2).order == 4
    assert close(g1 + g2).order == 16


@pytest.mark.parametrize("q,expected", [(5, 10), (7, 21), (9, 36)])
def test_close_projline_orders(q, expected):
    p = 3 if q == 9 else q
    k = 2 if q == 9 else 1
    field = make_field(p, k)
    g1, g2 = builtin_generators("projline", q, field)
    m = (q - 1) // 2
    assert close(g1).order == m
    assert close(g2).order == m
    assert close(g1 + g2).order == expected == q * (q - 1) // 2


def test_close_cap_exceeded(monkeypatch):
    monkeypatch.setattr(autgroup, "CLOSURE_CAP", 7)  # read at each call
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    with pytest.raises(PreconditionError) as exc:
        close(g1 + g2)
    assert exc.value.kind == "closure_cap_exceeded"
    assert exc.value.details == {"cap": 7}


@pytest.mark.parametrize("same,cap", [(False, 15), (False, 16), (True, 4)])
def test_joint_fit_check_refuses_exactly_when_the_closure_would(monkeypatch, same, cap):
    # fermat q=3: G1 x G2 is the joint group of order 16; G1 with itself
    # forms 16 products of only 4 distinct elements, so it fits a cap of 4
    monkeypatch.setattr(autgroup, "CLOSURE_CAP", cap)
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    if same:
        g2 = g1
    G1, G2 = close(g1), close(g2)
    try:
        close(g1 + g2)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as early:
            check_joint_fits(G1, G2)
        assert (early.value.kind, str(early.value), early.value.details) == (
            exc.kind, str(exc), exc.details)
    else:
        check_joint_fits(G1, G2)


def test_closure_contains_generators_and_identity(fermat3):
    _, g1, g2 = fermat3
    grp = close(g1 + g2)
    assert grp.elements[0].is_identity()
    for g in g1 + g2:
        assert g in grp


def test_closure_closed_under_product_and_inverse(fermat3):
    _, g1, g2 = fermat3
    grp = close(g1 + g2)
    for a in grp.elements:
        assert a.inverse() in grp
        for b in grp.elements:
            assert (a @ b) in grp


def brute_force_closure(generators):
    """The generated group found by multiplying every pair of elements found
    so far until no new element appears."""
    found = {identity_map(generators[0].field, generators[0].n), *generators}
    while True:
        products = {a @ b for a in found for b in found}
        if products <= found:
            return found
        found |= products


def test_close_matches_brute_force_closure(built, fermat3):
    _, g1, g2 = fermat3
    groups = [close(g1 + g2)]
    for res in built.values():
        groups += res.instance.groups
    for grp in groups:
        assert len(set(grp.elements)) == grp.order
        assert set(grp.elements) == brute_force_closure(grp.generators)


def oracle_product_key(a, b):
    """The normalized key of a @ b, from FieldElement arithmetic."""
    ra, rb, n = a.rows, b.rows, a.n
    prod = [sum((ra[i][t] * rb[t][j] for t in range(1, n)), ra[i][0] * rb[0][j])
            for i in range(n) for j in range(n)]
    inv = next(x for x in prod if x).inv()
    return tuple((x * inv).enc for x in prod)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (3, 4)])
def test_products_match_the_element_oracle(p, k):
    """Random invertible maps, with zero entries and cancelling sums."""
    field = make_field(p, k)
    els = list(field.elements())
    rng = random.Random(900 + p**k)
    maps = []
    while len(maps) < 24:
        n = rng.choice((2, 3))
        rows = [[rng.choice(els) if rng.random() < 0.6 else field.zero() for _ in range(n)]
                for _ in range(n)]
        try:
            maps.append(ProjMap(tuple(map(tuple, rows)), field))
        except ValueError:
            pass
    for a, b in itertools.product(maps, repeat=2):
        if a.n == b.n:
            assert (a @ b).key == oracle_product_key(a, b)


def test_close_keeps_the_breadth_first_order(built, fermat3):
    """The elements, in order, of a breadth-first search that multiplies
    each kept element by the generators in turn with the element oracle."""
    _, g1, g2 = fermat3
    groups = [close(g1 + g2)]
    for res in built.values():
        groups += res.instance.groups
    for grp in groups:
        gens = grp.generators
        field, n = gens[0].field, gens[0].n
        keys = [identity_map(field, n).key]
        seen = set(keys)
        for key in keys:
            a = ProjMap.from_key(field, n, key)
            for g in gens:
                product = oracle_product_key(a, g)
                if product not in seen:
                    seen.add(product)
                    keys.append(product)
        assert [e.key for e in grp.elements] == keys


def distinct_non_identity(generators) -> list:
    """The generators less the identity and repeats, in the order given."""
    out = []
    for g in generators:
        if not g.is_identity() and g not in out:
            out.append(g)
    return out


def random_generator_lists(count: int):
    """Seeded lists of one to three random maps of PGL(2) over GF(4), GF(5),
    GF(7) or GF(9), or of PGL(3) over GF(2), each with the identity, a
    repeated generator or both put in at random places."""
    rng = random.Random(2211)
    for _ in range(count):
        p, k, n = rng.choice([(2, 2, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (2, 1, 3)])
        field = make_field(p, k)
        els = list(field.elements())
        gens = []
        while len(gens) < rng.randint(1, 3):
            rows = tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n))
            try:
                gens.append(ProjMap(rows, field))
            except ValueError:  # singular
                pass
        extra = rng.choice([["identity"], ["repeat"], ["identity", "repeat"]])
        for what in extra:
            g = identity_map(field, n) if what == "identity" else rng.choice(gens)
            gens.insert(rng.randint(0, len(gens)), g)
        yield gens


def test_a_group_lists_its_generators_in_its_element_order(built):
    """`close` puts the distinct non-identity generators, in the order
    given, right after the identity, and an intersection's generators are
    its elements, in the element order of the first group."""
    groups = [g for res in built.values()
              for g in res.instance.groups + (res.instance.joint_group(),)]
    groups += [close(gens) for gens in random_generator_lists(60)]
    with_repeats = 0
    for grp in groups:
        gens = distinct_non_identity(grp.generators)
        assert list(grp.elements[1 : 1 + len(gens)]) == gens
        with_repeats += len(gens) < len(grp.generators)
    assert with_repeats >= 60
    for grp in groups:
        for other in (grp, close(grp.generators[:1])):
            common = grp.intersect(other)
            assert common.generators == common.elements
            assert list(common.elements) == [m for m in grp.elements if m in other]


def test_lagrange_divisibility(fermat3):
    _, g1, g2 = fermat3
    joint = close(g1 + g2)
    assert joint.order % close(g1).order == 0
    assert joint.order % close(g2).order == 0


# ---------------------------------------------------------------------------
# orbits


def test_orbit_under_trivial_group():
    F5 = make_field(5, 1)
    g = close([identity_map(F5, 2)])
    p = point(F5, 1, 3)
    assert g.orbit(p) == (p,)


def test_fermat_orbit_is_the_full_grid(fermat3):
    F9, g1, g2 = fermat3
    joint = close(g1 + g2)
    z = root_of_unity(F9, 4)
    one = F9.one()
    orbit = joint.orbit(point(F9, 1, 1, 1))
    expected = {
        point(F9, (z**i).enc, (z**j).enc, 1).key
        for i in range(4)
        for j in range(4)
    }
    assert {p.key for p in orbit} == expected
    assert len(orbit) == 16
    keys = [p.key for p in orbit]
    assert keys == sorted(keys)


def test_projline_orbit_avoids_only_base_point():
    F5 = make_field(5, 1)
    g1, g2 = builtin_generators("projline", 5, F5)
    joint = close(g1 + g2)
    orbit = joint.orbit(point(F5, 0, 1))
    assert len(orbit) == 5
    assert point(F5, 1, 0) not in orbit


def test_orbit_sizes_divide_group_order(fermat3):
    F9, g1, g2 = fermat3
    joint = close(g1 + g2)
    curve = fermat_curve(3, F9)
    for p in curve.rational_points(F9):
        assert joint.order % len(joint.orbit(p)) == 0


# ---------------------------------------------------------------------------
# intersection


def test_intersect_with_self(fermat3):
    _, g1, _ = fermat3
    G1 = close(g1)
    assert G1.intersect(G1).element_set == G1.element_set


def test_fermat_groups_intersect_trivially(fermat3):
    _, g1, g2 = fermat3
    assert close(g1).intersect(close(g2)).order == 1


def test_projline_groups_intersect_trivially():
    F5 = make_field(5, 1)
    g1, g2 = builtin_generators("projline", 5, F5)
    assert close(g1).intersect(close(g2)).order == 1


def test_intersect_requires_same_field():
    a = close([identity_map(make_field(5, 1), 2)])
    b = close([identity_map(make_field(7, 1), 2)])
    with pytest.raises(ValueError):
        a.intersect(b)


# ---------------------------------------------------------------------------
# curve preservation


def test_identity_preserves_any_curve():
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    assert identity_map(F9, 3).preserves_curve(curve)


def test_diagonal_preserves_fermat(fermat3):
    F9, g1, _ = fermat3
    assert g1[0].preserves_curve(fermat_curve(3, F9))


def test_shear_does_not_preserve_fermat():
    F9 = make_field(3, 2)
    o, z = F9.one(), F9.zero()
    shear = ProjMap(((o, z, o), (z, o, z), (z, z, o)), F9)  # X -> X + Z
    assert not shear.preserves_curve(fermat_curve(3, F9))


def test_every_joint_element_preserves_curve(fermat3):
    F9, g1, g2 = fermat3
    curve = fermat_curve(3, F9)
    for m in close(g1 + g2).elements:
        assert m.preserves_curve(curve)


# ---------------------------------------------------------------------------
# builtin generator families


def test_fermat_generators_have_order_q_plus_one(fermat3):
    _, g1, g2 = fermat3
    assert close(g1).order == 4
    assert close(g2).order == 4


def test_projline_rejects_even_or_small_q():
    with pytest.raises(PreconditionError):
        builtin_generators("projline", 4, make_field(2, 2))
    with pytest.raises(PreconditionError):
        builtin_generators("projline", 3, make_field(3, 1))


def test_unknown_family_rejected():
    with pytest.raises(PreconditionError):
        builtin_generators("klein", 2, make_field(2, 2))


def test_wrong_field_rejected():
    with pytest.raises(PreconditionError):
        builtin_generators("fermat", 3, make_field(3, 1))  # needs GF(9)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_bf_generators_certified_against_curve(q):
    p, s = prime_power(q)
    field = make_field(p, 4 * s)
    g1, g2 = builtin_generators("bf", q, field)
    curve = trace_fermat_curve(q, field)
    for g in g1 + g2:
        assert g.preserves_curve(curve)
    # x-translations act trivially on y and vice versa
    assert close(g1).order == q**3 + q**2
    assert close(g2).order == q**3 + q**2


def oracle_builtin_generators(family, q, spec):
    """The bf and projline generator lists as `autgroup` formed them on
    FieldElements, before they moved to encodings: the translation basis
    is the greedy basis, in encoding order, of the roots of mu^(q^2) + mu,
    spanned by FieldElement sums, and projline's shift is one - zeta."""
    one, zero = spec.one(), spec.zero()
    if family == "projline":
        zeta = root_of_unity(spec, (q - 1) // 2)
        return ([ProjMap(((zeta, zero), (zero, one)), spec)],
                [ProjMap(((zeta, one - zeta), (zero, one)), spec)])
    basis, span = [], {zero}
    for v in sorted((a for a in spec.elements() if not (a ** (q * q) + a)), key=lambda a: a.enc):
        if v not in span and v:
            basis.append(v)
            span |= {s + spec.from_int(c) * v for s in span for c in range(spec.p)}
    zeta = root_of_unity(spec, q + 1)

    def maps(i):
        scale = [one, one, one]
        scale[i] = zeta
        out = [diagonal_map(spec, *scale)]
        for c in basis:
            rows = [[one if r == j else zero for j in range(3)] for r in range(3)]
            rows[i][2] = c
            out.append(ProjMap(tuple(map(tuple, rows)), spec))
        return out

    return maps(0), maps(1)


ORACLE_FAMILIES = [("bf", q, 4) for q in (2, 3, 4, 5)] + [
    ("projline", q, 1) for q in range(5, 26, 2) if q not in (15, 21)
]


@pytest.mark.parametrize("family,q,degree", ORACLE_FAMILIES, ids=lambda v: str(v))
def test_builtin_generators_are_the_field_element_oracle(family, q, degree):
    p, s = prime_power(q)
    spec = make_field(p, degree * s)
    got = builtin_generators(family, q, spec)
    want = oracle_builtin_generators(family, q, spec)
    assert [[g.key for g in grp] for grp in got] == [[g.key for g in grp] for grp in want]


def test_bf_joint_group():
    F16 = make_field(2, 4)
    g1, g2 = builtin_generators("bf", 2, F16)
    G1, G2 = close(g1), close(g2)
    assert G1.intersect(G2).order == 1
    joint = close(g1 + g2)
    assert joint.order == 144
    curve = trace_fermat_curve(2, F16)
    for m in joint.elements:
        assert m.preserves_curve(curve)


# ---------------------------------------------------------------------------
# projective frames, and groups as the closures of their generators


def oracle_independent(keys, field):
    """Linear independence of encoding vectors, by element elimination."""
    rows = [[field.from_enc(e) for e in k] for k in keys]
    rank = 0
    for col in range(len(rows[0])):
        src = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        inv = rows[rank][col].inv()
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == len(rows)


def oracle_find_frame(points):
    """The greedy frame, restarted from the first point at every step: the
    first point that leaves every min(size, n) of the chosen points
    linearly independent."""
    field, n = points[0].spec, len(points[0].key)
    chosen = []
    for _ in range(n + 1):
        for i, p in enumerate(points):
            cand = [points[j].key for j in chosen] + [p.key]
            if i not in chosen and all(
                oracle_independent(sub, field)
                for sub in itertools.combinations(cand, min(len(cand), n))
            ):
                chosen.append(i)
                break
        else:
            return None
    return tuple(chosen)


def test_find_frame_on_crafted_point_lists():
    F5 = make_field(5, 1)
    # (1:1:0) and (1:2:0) lie on the line Z = 0 through (1:0:0) and
    # (0:1:0); (0:0:1) is off it; (1:0:1) and (0:1:2) lie on the lines
    # Y = 0 and X = 0 of the three points taken, and (1:1:1) is off all three
    pts = [point(F5, *k) for k in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0),
                                   (0, 0, 1), (1, 0, 1), (0, 1, 2), (1, 1, 1)]]
    assert find_frame(pts) == (0, 1, 4, 7)
    assert find_frame(pts[:7]) is None
    assert find_frame(pts[:4]) is None  # all on one line
    assert find_frame([pts[0], pts[0], pts[1], pts[4], pts[7]]) == (0, 2, 3, 4)
    line = [point(F5, 1, c) for c in range(5)]
    assert find_frame(line) == (0, 1, 2)
    assert find_frame([line[0], line[0], line[3]]) is None
    assert find_frame([]) is None
    # the unit points and (1 : ... : 1)
    assert find_frame([point(F5, *k) for k in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]) \
        == (0, 1, 2, 3)
    assert find_frame([point(F5, *k) for k in [(1, 0), (0, 1), (1, 1)]]) == (0, 1, 2)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (5, 1), (3, 2)])
def test_find_frame_matches_the_greedy_oracle(p, k):
    field = make_field(p, k)
    rng = random.Random(300 + p**k)
    found = 0
    for n in (2, 3):
        reps = list(projective_reps(field, n))
        for _ in range(150):
            if rng.random() < 0.3:  # points on one line, or at most two lines
                a, b = rng.sample(reps, 2) if n == 3 else (reps[0], reps[0])
                pool = [p for p in reps if n == 2 or not _det(field, 3, a.key + b.key + p.key)]
                if rng.random() < 0.5:
                    pool += rng.sample(reps, 1)
            else:
                pool = reps
            pts = [rng.choice(pool) for _ in range(rng.randint(1, 9))]
            got = find_frame(pts)
            assert got == oracle_find_frame(pts)
            found += got is not None
    assert 0 < found < 300


def oracle_generated_exactly(group):
    """Every listed element once, and the list is the closure of the
    generators."""
    whole = close(group.generators).elements if group.generators else (group.elements[0],)
    return len(set(group.elements)) == group.order and set(group.elements) == set(whole)


def test_every_group_is_the_closure_of_its_generators(built):
    G1 = built[("fermat", 3)].instance.groups[0]
    with pytest.raises(TypeError):
        AutGroup(G1.generators, G1.elements, "G1")  # only close and intersect build one
    checked = 0
    for res in built.values():
        groups = res.instance.groups + (res.instance.joint_group(),)
        pairs = [a.intersect(b) for a, b in itertools.combinations(groups, 2)]
        for grp in groups + tuple(pairs):
            assert oracle_generated_exactly(grp), grp.label
            checked += 1
    assert checked == 6 * len(built)


# ---------------------------------------------------------------------------
# the curve certificate is the last FieldElement arithmetic

ELEMENT_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "inv")


@pytest.fixture
def confined(monkeypatch):
    """FieldElement operators that raise AssertionError unless
    `ProjMap.preserves_curve` is running.  Yields the names of the
    operators called inside it.  The embedding cache is emptied, so each
    embedding is found again under the wrap."""
    inside, calls = [0], []
    certificate = ProjMap.preserves_curve

    def preserves_curve(self, curve):
        inside[0] += 1
        try:
            return certificate(self, curve)
        finally:
            inside[0] -= 1

    def confine(name, op):
        def wrapped(*args):
            if not inside[0]:
                raise AssertionError(f"FieldElement.{name} outside ProjMap.preserves_curve")
            calls.append(name)
            return op(*args)
        return wrapped

    monkeypatch.setattr(ProjMap, "preserves_curve", preserves_curve)
    for name in ELEMENT_OPERATORS:
        monkeypatch.setattr(FieldElement, name, confine(name, getattr(FieldElement, name)))
    embedding.cache_clear()
    yield calls
    embedding.cache_clear()


def test_the_wrap_refuses_every_operator_outside_the_certificate(confined):
    a = make_field(3, 2).gen()
    for op in (lambda: a + a, lambda: a - a, lambda: -a, lambda: a * a, lambda: a**2, a.inv):
        with pytest.raises(AssertionError, match="outside ProjMap.preserves_curve"):
            op()


@pytest.mark.parametrize("family,q", [("fermat", 3), ("fermat", 4), ("projline", 9), ("bf", 2),
                                      ("bf", 3)])
def test_a_builtin_construction_runs_operators_only_in_the_certificate(confined, family, q):
    assert run_construction(builtin_instance(family, q)).passed
    # a plane curve is certified on elements; every map preserves P^1 unread
    assert bool(confined) == (family != "projline")


@pytest.mark.parametrize("command,case", sorted(SUBFIELD_GOLDEN),
                         ids=map("-".join, sorted(SUBFIELD_GOLDEN)))
def test_a_subfield_ground_runs_no_operator(confined, tmp_path, capsys, command, case):
    assert subfield_job(tmp_path, capsys, command, case) == SUBFIELD_GOLDEN[(command, case)]
    assert not confined


def test_the_embedding_search_runs_no_operator(confined):
    src, dst = make_field(2, 2), make_field(2, 16)
    emb = embedding(src, dst)
    assert [emb.section(emb.apply(a)) for a in src.elements()] == list(src.elements())
    assert not confined
