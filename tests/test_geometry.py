"""Point normalization, curve membership, and enumeration counts.

The enumeration oracle below builds projective points from raw coordinate
triples and dedupes by scalar classes, independently of the library's
normalized-representative generator.  The value join that enumerates
curves without a mixed XY term is compared with the brute scan it
replaced, kept here as `oracle_rational_points`; the line section,
solved on its line, is compared with the filter of that scan it
replaced, kept as `oracle_line_section`.  The bf curve, written from the
Frobenius identity, is compared with the `poly_pow` expansion it
replaced, kept as `oracle_trace_fermat_curve`.
"""

import itertools
import random

import pytest

from orbitcodes import (
    PreconditionError,
    ProjPoint,
    fermat_curve,
    make_field,
    point,
    projective_line,
    trace_fermat_curve,
)
from orbitcodes import geometry
from orbitcodes.autgroup import FAMILIES
from orbitcodes.geometry import (
    PlaneCurve,
    plane_curve,
    poly_add,
    poly_degree,
    poly_eval,
    poly_pow,
    projective_reps,
)
from orbitcodes.gf import prime_power


def oracle_curve_points(curve, field):
    """Independent enumeration: scan all nonzero coordinate tuples, keep the
    ones on the curve, dedupe by the full scalar class."""
    n = curve.n_coords
    classes = set()
    for encs in itertools.product(range(field.order), repeat=n):
        if not any(encs):
            continue
        coords = tuple(field.from_enc(e) for e in encs)
        if not curve.contains(ProjPoint(coords)):
            continue
        cls = frozenset(
            tuple((field.from_enc(s) * c).enc for c in coords)
            for s in range(1, field.order)
        )
        classes.add(cls)
    return classes


# ---------------------------------------------------------------------------
# points


def test_normalization_scales_first_nonzero_to_one():
    F9 = make_field(3, 2)
    p = ProjPoint((F9.from_enc(6), F9.from_enc(3), F9.one()))
    assert p.coords[0] == F9.one()
    # renormalizing is a no-op
    assert ProjPoint(p.coords) == p


def test_equal_points_from_different_representatives():
    F5 = make_field(5, 1)
    a = ProjPoint((F5.from_int(2), F5.from_int(4)))
    b = ProjPoint((F5.from_int(3), F5.from_int(6)))
    assert a == b and hash(a) == hash(b)
    assert a.key == (1, 2)


def test_zero_point_rejected():
    F5 = make_field(5, 1)
    with pytest.raises(ValueError):
        ProjPoint((F5.zero(), F5.zero()))


def test_point_refuses_assignment():
    p = point(make_field(5, 1), 1, 2)
    for name, value in [("key", (1, 3)), ("spec", make_field(7, 1)), ("other", 0)]:
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert p.key == (1, 2) and p.spec == make_field(5, 1)


def test_projective_reps_count_and_order():
    F5 = make_field(5, 1)
    pts = list(projective_reps(F5, 3))
    assert len(pts) == 25 + 5 + 1
    keys = [p.key for p in pts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# curve membership


def test_projective_line_contains_everything():
    F5 = make_field(5, 1)
    line = projective_line(F5)
    pts = line.rational_points(F5)
    assert len(pts) == 6
    assert all(line.contains(p) for p in pts)


def test_fermat_contains_line_point_and_rejects_vertex():
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    b = F9.from_enc(4)  # 1+x, a 4th root of -1
    assert b**4 == F9.from_int(-1)
    assert curve.contains(ProjPoint((F9.one(), b, F9.zero())))
    assert not curve.contains(point(F9, 1, 0, 0))  # F = 1 there


def test_dimension_mismatch_rejected():
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    with pytest.raises(ValueError):
        curve.contains(point(F9, 1, 0))


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("q,kk,count", [(2, 2, 9), (3, 2, 28), (4, 4, 65)])
def test_hermitian_point_counts(q, kk, count):
    field = make_field(2 if q in (2, 4) else 3, kk)
    curve = fermat_curve(q, field)
    pts = curve.rational_points(field)
    assert len(pts) == count == q**3 + 1


def test_enumeration_matches_scalar_class_oracle():
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    pts = curve.rational_points(F9)
    assert len(oracle_curve_points(curve, F9)) == len(pts)
    # each library point's scalar class appears in the oracle set
    oracle = oracle_curve_points(curve, F9)
    for p in pts:
        cls = frozenset(
            tuple((F9.from_enc(s) * c).enc for c in p.coords)
            for s in range(1, 9)
        )
        assert cls in oracle


def test_enumeration_is_canonical_and_duplicate_free():
    F16 = make_field(2, 4)
    curve = fermat_curve(4, F16)
    pts = curve.rational_points(F16)
    keys = [p.key for p in pts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_fermat_q2_has_no_point_with_all_coordinates_nonzero():
    F4 = make_field(2, 2)
    curve = fermat_curve(2, F4)
    pts = curve.rational_points(F4)
    assert len(pts) == 9
    assert not [p for p in pts if all(p.coords)]


def test_enumeration_requires_compatible_field():
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    with pytest.raises(PreconditionError):
        curve.rational_points(make_field(2, 4))


def test_enumeration_is_kept_per_field():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    curve = fermat_curve(2, F4)
    small = curve.rational_points(F4)
    assert curve.rational_points(F4) is small
    large = curve.rational_points(F16)
    assert curve.rational_points(F16) is large
    assert len(small) == 9 and large != small
    assert large == tuple(p for p in projective_reps(F16, 3) if curve.contains(p))
    with pytest.raises(PreconditionError):
        curve.rational_points(make_field(3, 2))


def oracle_rational_points(curve, field):
    """The brute scan: every point of the ambient space, in canonical order,
    tested on the equation."""
    terms = curve.encoded_terms(field)
    return tuple(
        p for p in projective_reps(field, curve.n_coords) if not poly_eval(terms, field, p.key)
    )


def assert_join_matches_scan(curve, field):
    pts = PlaneCurve(curve.n_coords, curve.field, curve.terms).rational_points(field)
    assert pts == oracle_rational_points(curve, field)
    return pts


@pytest.mark.parametrize(
    "make,q,p,k",
    [
        *[(fermat_curve, q, p, 2 * s) for q, p, s in [
            (2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2),
            (11, 11, 1), (13, 13, 1), (16, 2, 4)]],
        (trace_fermat_curve, 2, 2, 4), (trace_fermat_curve, 3, 3, 4), (trace_fermat_curve, 4, 2, 8),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_join_matches_the_scan_on_builtin_curves(make, q, p, k):
    field = make_field(p, k)
    assert_join_matches_scan(make(q, field), field)


def test_join_matches_the_scan_over_an_extension():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    assert_join_matches_scan(fermat_curve(2, F4), F16)


def separated_curve(field, terms):
    return PlaneCurve(3, field, tuple((e, field.from_enc(c)) for e, c in terms))


def test_join_matches_the_scan_on_crafted_curves():
    F3, F9 = make_field(3, 1), make_field(3, 2)
    cases = [
        # X^2 + Z^2 over GF(3): x^2 = -1 has no root, so only (0 : 1 : 0)
        (F3, [((2, 0, 0), 1), ((0, 0, 2), 1)], [(0, 1, 0)]),
        # Z^3: no affine point, and every point of the line Z = 0
        (F3, [((0, 0, 3), 2)], [(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)]),
        # degree 1: the line X + 2Y + Z
        (F3, [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 1)],
         [(0, 1, 1), (1, 0, 2), (1, 1, 0), (1, 2, 1)]),
        # Y^2 - Z^2 = (Y - Z)(Y + Z): two lines through (1 : 0 : 0)
        (F3, [((0, 2, 0), 1), ((0, 0, 2), 2)],
         [(0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]),
    ]
    for field, terms, keys in cases:
        pts = assert_join_matches_scan(separated_curve(field, terms), field)
        assert [p.key for p in pts] == keys
    # a pure-Z term and a Y term with a Z factor, over GF(9)
    curve = separated_curve(F9, [((4, 0, 0), 5), ((0, 1, 3), 7), ((0, 0, 4), 2)])
    assert_join_matches_scan(curve, F9)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_join_matches_the_scan_on_random_separated_curves(p, k):
    rng = random.Random(100 * p + k)
    field = make_field(p, k)
    shapes = {"no affine point": 0, "affine": 0, "pure Z": 0}
    for _ in range(40):
        d = rng.randint(1, 6)
        monomials = [(i, 0, d - i) for i in range(d + 1)] + [(0, j, d - j) for j in range(1, d + 1)]
        chosen = rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
        terms = [(e, rng.randrange(1, field.order)) for e in chosen]
        pts = assert_join_matches_scan(separated_curve(field, terms), field)
        shapes["affine" if any(pt.key[-1] for pt in pts) else "no affine point"] += 1
        shapes["pure Z"] += (0, 0, d) in chosen
    assert all(shapes.values()), shapes


def test_a_mixed_term_takes_the_scan(monkeypatch):
    F9 = make_field(3, 2)
    one = F9.one()
    mixed = PlaneCurve(3, F9, (((4, 0, 0), one), ((1, 1, 2), one), ((0, 0, 4), one)))
    separated = fermat_curve(3, F9)

    def refuse(*args):
        raise AssertionError("the join ran on a curve with a mixed term")

    monkeypatch.setattr(geometry, "_separated_points", refuse)
    assert mixed.rational_points(F9) == oracle_rational_points(mixed, F9)
    with pytest.raises(AssertionError):
        separated.rational_points(F9)


# ---------------------------------------------------------------------------
# line sections


def test_fermat_q3_line_section():
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    section = curve.line_section_points(F9)
    assert len(section) == 4
    minus_one = F9.from_int(-1)
    for p in section:
        assert not p.coords[2]
        assert p.coords[0] == F9.one()
        assert p.coords[1] ** 4 == minus_one


def test_fermat_q2_line_section():
    F4 = make_field(2, 2)
    assert len(fermat_curve(2, F4).line_section_points(F4)) == 3


def oracle_line_section(curve, field):
    """The filter the line section replaced, on the brute scan of the
    ambient space: every point with last coordinate zero on which the whole
    equation vanishes."""
    terms = curve.encoded_terms(field)
    return tuple(
        p for p in projective_reps(field, curve.n_coords)
        if not p.key[-1] and not poly_eval(terms, field, p.key)
    )


def assert_section_matches_the_filter(curve, field):
    section = PlaneCurve(curve.n_coords, curve.field, curve.terms).line_section_points(field)
    assert section == oracle_line_section(curve, field)
    assert section == tuple(p for p in curve.rational_points(field) if not p.key[-1])
    return section


BUILTIN_CURVES = [
    *[("fermat", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)],
    *[("bf", q) for q in (2, 3, 4)],
    *[("projline", q) for q in (5, 7, 9, 11, 13, 25)],
]


@pytest.mark.parametrize("family,q", BUILTIN_CURVES)
def test_section_matches_the_filter_on_builtin_curves(family, q):
    p, s = prime_power(q)
    fam = FAMILIES[family]
    field = make_field(p, fam.degree * s)
    curve = fam.curve(q, field)
    section = assert_section_matches_the_filter(curve, field)
    assert curve.line_section_points(field) is curve.line_section_points(field)
    # the line at infinity meets the curve in the fiber of both Galois points
    assert len(section) == {"fermat": q + 1, "bf": q + 1, "projline": 1}[family]


@pytest.mark.parametrize("mixed", [False, True], ids=["separated", "mixed"])
@pytest.mark.parametrize("p,k,ext", [(3, 1, 1), (2, 2, 1), (5, 1, 1), (3, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_section_matches_the_filter_on_random_plane_curves(p, k, ext, mixed):
    rng = random.Random(1000 * p + 10 * k + ext + 5 * mixed)
    field, points_field = make_field(p, k), make_field(p, k * ext)
    sizes = set()
    for _ in range(30):
        d = rng.randint(2, 6)
        monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        cross = [e for e in monomials if e[0] and e[1]]
        chosen = rng.sample([e for e in monomials if e not in cross], rng.randint(1, 3))
        # the terms without Z are the ones the section is solved on
        chosen += [e for e in ((d, 0, 0), (0, d, 0)) if e not in chosen and rng.random() < 0.7]
        if mixed:
            chosen.append(rng.choice(cross))
        terms = [(e, rng.randrange(1, field.order)) for e in chosen]
        curve = PlaneCurve(3, field, tuple((e, field.from_enc(c)) for e, c in terms))
        sizes.add(len(assert_section_matches_the_filter(curve, points_field)))
    # some section is more than one point and less than the whole line
    assert any(1 < n < points_field.order + 1 for n in sizes), sizes


def test_a_section_may_be_empty():
    # x^2 + y^2 = 0 has no root (x : y) over GF(3), since -1 is not a square
    F3 = make_field(3, 1)
    curve = separated_curve(F3, [((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)])
    assert assert_section_matches_the_filter(curve, F3) == ()
    assert curve.rational_points(F3)


def test_the_line_section_of_p1_is_the_point_at_infinity():
    F3, F5, F8, F9 = make_field(3, 1), make_field(5, 1), make_field(2, 3), make_field(3, 2)
    for field in (F5, F8, F9):
        assert projective_line(field).line_section_points(field) == (point(field, 1, 0),)
    assert projective_line(F3).line_section_points(F9) == (point(F9, 1, 0),)
    with pytest.raises(PreconditionError):
        projective_line(F5).line_section_points(F9)


def test_trace_curve_shape_and_line_section():
    F16 = make_field(2, 4)
    curve = trace_fermat_curve(2, F16)
    assert curve.degree == 12
    assert poly_degree(curve.poly()) == 12
    section = curve.line_section_points(F16)
    assert len(section) == 3
    # ratio of the first two coordinates is a cube root of unity
    for p in section:
        ratio = p.coords[1]  # normalized (1 : w : 0)
        assert ratio**3 == F16.one()


def oracle_trace_fermat_curve(q, field):
    """The bf curve with each block (V^(q^2) + V Z^(q^2-1))^(q+1) expanded
    by repeated polynomial products."""
    one = field.one()
    qq = q * q

    def trace_block(var):
        e_hi, e_lo = [0, 0, 0], [0, 0, qq - 1]
        e_hi[var] = qq
        e_lo[var] = 1
        return poly_pow({tuple(e_hi): one, tuple(e_lo): one}, q + 1, 3, field)

    f = poly_add(poly_add(trace_block(0), trace_block(1)), {(0, 0, q**3 + qq): one})
    return plane_curve(field, f)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_trace_curve_matches_the_power_expansion(q):
    p, s = prime_power(q)
    field = make_field(p, 4 * s)
    curve = trace_fermat_curve(q, field)
    assert curve == oracle_trace_fermat_curve(q, field)
    assert len(curve.terms) == 9 and curve.degree == q**3 + q**2


def test_trace_curve_point_split():
    F16 = make_field(2, 4)
    curve = trace_fermat_curve(2, F16)
    pts = curve.rational_points(F16)
    affine = [p for p in pts if p.coords[-1]]
    assert len(pts) == 99
    assert len(affine) == 96
    assert len([p for p in affine if not p.coords[1]]) == 12  # (x : 0 : 1) shape
