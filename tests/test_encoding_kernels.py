"""Points and maps computed on encoding tuples, against the FieldElement
versions they replace.

The oracles below are the element-level code of ProjPoint and ProjMap
before points and maps were held as encoding tuples: normalization by the
inverse of the first nonzero entry, the matrix-vector and matrix-matrix
products, the determinant, the curve equation evaluated with FieldElement
powers, and the breadth-first closure over those products.  Every element
of G1, G2 and the joint group of each built-in instance below is checked
against them, on every rational point of the instance's curve; seeded
random matrices, singular ones among them, cover the constructor.
"""

import random

import pytest

from orbitcodes import ProjMap, ProjPoint, builtin_instance, close, make_field
from orbitcodes.geometry import poly_eval, projective_reps

INSTANCES = [("fermat", 3), ("fermat", 4), ("fermat", 5), ("projline", 5),
             ("projline", 7), ("projline", 9), ("projline", 11), ("projline", 13),
             ("bf", 2)]


# ---------------------------------------------------------------------------
# oracles: FieldElement arithmetic throughout


def oracle_normalize_point(coords):
    spec = coords[0].spec
    pivot = next(c for c in coords if c)
    if pivot == spec.one():
        return tuple(coords)
    inv = pivot.inv()
    return tuple(c * inv for c in coords)


def oracle_normalize_map(rows, field):
    pivot = next(c for r in rows for c in r if c)
    if pivot == field.one():
        return tuple(tuple(r) for r in rows)
    inv = pivot.inv()
    return tuple(tuple(c * inv for c in r) for r in rows)


def oracle_apply(rows, coords):
    zero = coords[0].spec.zero()
    n = len(rows)
    image = tuple(sum((row[j] * coords[j] for j in range(n)), zero) for row in rows)
    return oracle_normalize_point(image)


def oracle_matmul(a, b, field):
    zero = field.zero()
    n = len(a)
    rows = tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(n)), zero) for j in range(n))
        for i in range(n)
    )
    return oracle_normalize_map(rows, field)


def oracle_det(rows):
    r = rows
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def oracle_poly_eval(poly, coords):
    field = coords[0].spec
    acc = field.zero()
    for exps, c in poly.items():
        term = c
        for x, e in zip(coords, exps):
            if e:
                term = term * x**e
        acc = acc + term
    return acc


def oracle_close(generators):
    """Breadth-first closure on FieldElement rows; the keys in insertion order."""
    field, n = generators[0].field, generators[0].n
    one, zero = field.one(), field.zero()
    ident = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    elements, seen = [ident], {ident}
    for m in elements:
        for g in generators:
            prod = oracle_matmul(m, g.rows, field)
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
    return [enc_key(rows) for rows in elements]


def enc_key(rows):
    return tuple(c.enc for r in rows for c in r)


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=INSTANCES, ids=lambda fq: f"{fq[0]}-q{fq[1]}")
def instance(request):
    return builtin_instance(*request.param)


def groups_of(inst):
    return (*inst.groups, inst.joint_group())


def test_apply_matches_oracle_on_every_element_and_point(instance):
    points = instance.curve.rational_points(instance.working)
    for group in groups_of(instance):
        for m in group.elements:
            rows = m.rows
            for p in points:
                expected = tuple(c.enc for c in oracle_apply(rows, p.coords))
                assert m.apply(p).key == expected
                assert m.image(p.key) == expected


def test_matmul_matches_oracle_on_every_element(instance):
    field = instance.working
    for group in groups_of(instance):
        for m in group.elements:
            for g in group.generators:
                assert (m @ g).key == enc_key(oracle_matmul(m.rows, g.rows, field))
            assert (m @ m.inverse()).is_identity()


def test_map_normalization_matches_oracle(instance):
    field = instance.working
    units = [field.from_enc(e) for e in range(1, field.order)]
    for group in groups_of(instance):
        for m in group.elements:
            for c in units[:: max(1, len(units) // 5)]:
                scaled = tuple(tuple(c * x for x in r) for r in m.rows)
                expected = enc_key(oracle_normalize_map(scaled, field))
                assert ProjMap(scaled, field).key == expected == m.key


def test_point_normalization_matches_oracle(instance):
    field = instance.working
    units = [field.from_enc(e) for e in range(1, field.order)]
    for p in instance.curve.rational_points(field):
        for c in units:
            scaled = tuple(c * x for x in p.coords)
            expected = tuple(x.enc for x in oracle_normalize_point(scaled))
            assert ProjPoint(scaled).key == expected == p.key


def test_curve_equation_matches_oracle(instance):
    """poly_eval on every point of the ambient space, on and off the curve."""
    curve, field = instance.curve, instance.working
    poly = curve.coefficients_over(field)
    terms = curve.encoded_terms(field)
    for p in projective_reps(field, curve.n_coords):
        expected = oracle_poly_eval(poly, p.coords).enc if poly else 0
        assert poly_eval(terms, field, p.key) == expected


def test_close_matches_oracle_closure_order(instance):
    for group in groups_of(instance):
        closed = close(group.generators)
        assert [m.key for m in closed.elements] == oracle_close(group.generators)


@pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (3, 2), (2, 4)])
def test_random_matrices_match_oracle(p, k):
    """Seeded 2x2 and 3x3 matrices, a third of the entries zero so that
    singular ones occur: the constructor refuses exactly the singular ones,
    and det, normalization, inverse and application agree with the oracles."""
    field = make_field(p, k)
    rng = random.Random(p**k)
    singular = 0
    for _ in range(400):
        n = rng.choice((2, 3))
        encs = [0 if rng.random() < 1 / 3 else rng.randrange(field.order) for _ in range(n * n)]
        rows = tuple(tuple(field.from_enc(e) for e in encs[i : i + n]) for i in range(0, n * n, n))
        if not oracle_det(rows):
            singular += 1
            with pytest.raises(ValueError, match="invertible"):
                ProjMap(rows, field)
            continue
        m = ProjMap(rows, field)
        normal = oracle_normalize_map(rows, field)
        assert m.key == enc_key(normal)
        assert m.det() == oracle_det(normal)
        assert (m @ m.inverse()).is_identity() and (m.inverse() @ m).is_identity()
        coords = tuple(field.from_enc(rng.randrange(field.order)) for _ in range(n))
        if any(coords):
            pt = ProjPoint(coords)
            assert m.apply(pt).key == tuple(c.enc for c in oracle_apply(normal, pt.coords))
    assert singular > 0
