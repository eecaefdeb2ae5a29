"""Group closure, orbits, curve preservation, and the generator families."""

import pytest

from orbitcodes import (
    PreconditionError,
    ProjMap,
    builtin_generators,
    close,
    diagonal_map,
    fermat_curve,
    identity_map,
    make_field,
    point,
    root_of_unity,
    trace_fermat_curve,
)


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


def test_close_identity_only():
    F5 = make_field(5, 1)
    g = close([identity_map(F5, 2)], cap=10)
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


def test_close_cap_exceeded():
    F9 = make_field(3, 2)
    g1, g2 = builtin_generators("fermat", 3, F9)
    with pytest.raises(PreconditionError):
        close(g1 + g2, cap=7)


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


def test_bf_generators_certified_against_curve():
    F16 = make_field(2, 4)
    g1, g2 = builtin_generators("bf", 2, F16)
    curve = trace_fermat_curve(2, F16)
    for g in g1 + g2:
        assert g.preserves_curve(curve)
    # x-translations act trivially on y and vice versa
    assert close(g1).order == 12 == 2**3 + 2**2
    assert close(g2).order == 12


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
