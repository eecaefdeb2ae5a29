"""Field arithmetic: deterministic moduli, exact axioms, the table
arithmetic, roots of unity, embeddings, Frobenius.

The oracles here are independent of the library: naive polynomial division
for irreducibility, naive polynomial products reduced by the modulus for
the exp/log/Zech table arithmetic, and raw scans for roots of unity and
fixed points.
"""

import itertools
import random

import pytest

from orbitcodes import PreconditionError, embedding, frobenius, make_field, root_of_unity
from orbitcodes.gf import MAX_ORDER, FieldSpec

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4)]


# ---------------------------------------------------------------------------
# oracle: naive polynomial arithmetic over GF(p)


def oracle_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def oracle_divides(d, f, p):
    """Does monic d divide f in GF(p)[x]?"""
    f = list(f)
    while len(f) >= len(d):
        c = f[-1] % p
        if c:
            shift = len(f) - len(d)
            for i, di in enumerate(d):
                f[shift + i] = (f[shift + i] - c * di) % p
        f.pop()
    return not any(c % p for c in f)


def oracle_is_irreducible(coeffs, p):
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if oracle_divides(list(lower) + [1], coeffs, p):
                return False
    return True


def oracle_lex_min_irreducible(p, k):
    for lower in itertools.product(*(range(p) for _ in range(k))):
        cand = tuple(lower) + (1,)
        if oracle_is_irreducible(cand, p):
            return cand
    raise AssertionError


# ---------------------------------------------------------------------------
# modulus selection


def test_make_field_prime_field_modulus_is_x():
    assert make_field(2, 1).modulus == (0, 1)


def test_make_field_f9_modulus():
    # x^2 + 1 is irreducible over GF(3) and lexicographically first
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 2).modulus == oracle_lex_min_irreducible(3, 2)


def test_make_field_f16_modulus():
    quartics = [
        tuple(lower) + (1,)
        for lower in itertools.product(range(2), repeat=4)
        if oracle_is_irreducible(tuple(lower) + (1,), 2)
    ]
    assert len(quartics) == 3
    assert make_field(2, 4).modulus == min(quartics) == (1, 0, 0, 1, 1)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_make_field_matches_oracle(p, k):
    assert make_field(p, k).modulus == oracle_lex_min_irreducible(p, k)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(PreconditionError):
        make_field(6, 1)


def test_make_field_rejects_overflow():
    with pytest.raises(PreconditionError):
        make_field(2, 64)


@pytest.mark.parametrize("p,k", [(2, 17), (257, 2), (2**61 - 1, 1), (2, 10**9)])
def test_field_above_the_table_cap_is_refused_first(p, k):
    # refused by the order alone: no primality test of p, no 2**k power
    with pytest.raises(PreconditionError) as exc:
        make_field(p, k)
    assert exc.value.kind == "order_overflow"
    with pytest.raises(PreconditionError) as exc:
        FieldSpec(p, k, (0, 1))
    assert exc.value.kind == "order_overflow"


def test_table_cap_admits_its_own_order():
    assert make_field(2, 16).order == MAX_ORDER == 2**16


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (0, 0, 1))  # x^2 is reducible


# ---------------------------------------------------------------------------
# arithmetic axioms


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    spec = make_field(p, k)
    els = list(spec.elements())
    one, zero = spec.one(), spec.zero()
    for a in els:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inv() == one
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a and a * b == b * a


def test_field_axioms_sampled_f256():
    spec = make_field(2, 8)
    rng = random.Random(20240808)
    els = [spec.from_enc(rng.randrange(spec.order)) for _ in range(60)]
    sampled = 0
    for a, b, c in itertools.product(els[:12], els[12:24], els[24:36]):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        sampled += 1
    assert sampled >= 1000


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(2, 8)])
def test_enc_bijection(p, k):
    spec = make_field(p, k)
    seen = set()
    for a in spec.elements():
        assert spec.from_enc(a.enc) == a
        seen.add(a.enc)
    assert seen == set(range(spec.order))


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(2, 8)])
def test_hash_is_the_dataclass_value(p, k):
    # set and dict orders, and with them the outputs, depend on these values
    spec = make_field(p, k)
    twin = FieldSpec(p, k, spec.modulus)
    assert twin is not spec and twin == spec
    assert hash(spec) == hash(twin) == hash((p, k, spec.modulus))
    a = spec.from_enc(spec.order - 1)
    assert hash(a) == hash((spec, a.enc)) == hash(((p, k, spec.modulus), a.enc))


# ---------------------------------------------------------------------------
# differential: the table arithmetic against the polynomial oracle


def oracle_poly_mod(f, modulus, p):
    """Remainder of f modulo the monic modulus, as deg(modulus) coefficients."""
    f = [c % p for c in f]
    k = len(modulus) - 1
    for i in range(len(f) - 1, k - 1, -1):
        c = f[i]
        if c:
            for j, m in enumerate(modulus):
                f[i - k + j] = (f[i - k + j] - c * m) % p
    return tuple((f + [0] * k)[:k])


def oracle_mul(spec, a, b):
    return oracle_poly_mod(oracle_poly_mul(a, b, spec.p), spec.modulus, spec.p)


def assert_ops_match_oracle(spec, a, b):
    p, one = spec.p, spec.one().coeffs
    ac, bc = a.coeffs, b.coeffs
    assert (a * b).coeffs == oracle_mul(spec, ac, bc)
    assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(ac, bc))
    assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(ac, bc))
    assert (-a).coeffs == tuple(-x % p for x in ac)
    if a:
        assert oracle_mul(spec, ac, a.inv().coeffs) == one


def assert_powers_match_oracle(spec, a):
    """a**n for n in 0..2q against repeated oracle products, and a**-n for
    n in 1..3 as the oracle inverse of a**n."""
    one = spec.one().coeffs
    power = one
    for n in range(2 * spec.order + 1):
        assert (a**n).coeffs == power
        if a and 1 <= n <= 3:
            assert oracle_mul(spec, (a**-n).coeffs, power) == one
        power = oracle_mul(spec, power, a.coeffs)


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(3, 4)])
def test_table_arithmetic_matches_oracle_exhaustive(p, k):
    spec = make_field(p, k)
    els = list(spec.elements())
    for a, b in itertools.product(els, repeat=2):
        assert_ops_match_oracle(spec, a, b)
    for a in els:
        assert_powers_match_oracle(spec, a)


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5)])
def test_table_arithmetic_matches_oracle_sampled(p, k):
    spec = make_field(p, k)
    rng = random.Random(p**k)
    for _ in range(5000):
        a, b = (spec.from_enc(rng.randrange(spec.order)) for _ in range(2))
        assert_ops_match_oracle(spec, a, b)
    for _ in range(20):
        assert_powers_match_oracle(spec, spec.from_enc(rng.randrange(spec.order)))


def oracle_matvec(spec, rows, xs):
    """Each entry sum(r[j] * xs[j]) as coefficient tuples, from oracle products."""
    p = spec.p
    out = []
    for r in rows:
        acc = (0,) * spec.k
        for a, x in zip(r, xs):
            prod = oracle_mul(spec, spec.from_enc(a).coeffs, spec.from_enc(x).coeffs)
            acc = tuple((s + t) % p for s, t in zip(acc, prod))
        out.append(acc)
    return out


def assert_matvec_matches_oracle(spec, rows, xs):
    got = spec.matvec(rows, xs)
    assert [spec.from_enc(e).coeffs for e in got] == oracle_matvec(spec, rows, xs)


@pytest.mark.parametrize("p,k", [f for f in SMALL_FIELDS if f[0] ** f[1] <= 9])
def test_matvec_matches_oracle_exhaustive_2x2(p, k):
    """Every 1x2 row against every 2-vector: every cancelling sum included."""
    spec = make_field(p, k)
    pairs = list(itertools.product(range(spec.order), repeat=2))
    for r in pairs:
        for xs in pairs:
            assert_matvec_matches_oracle(spec, [r], xs)


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(3, 4), (2, 8), (3, 5)])
def test_matvec_and_scale_match_oracle_sampled(p, k):
    spec = make_field(p, k)
    rng = random.Random(1000 + p**k)

    def entry():  # zero a third of the time, so partial and empty sums occur
        return 0 if rng.random() < 1 / 3 else rng.randrange(spec.order)

    for _ in range(500):
        n = rng.choice((1, 2, 3, 4))
        rows = [tuple(entry() for _ in range(n)) for _ in range(rng.choice((1, 2, 3)))]
        xs = tuple(entry() for _ in range(n))
        assert_matvec_matches_oracle(spec, rows, xs)
        c = rng.randrange(1, spec.order)
        assert spec.scale(c, xs) == tuple(spec.mul(c, x) for x in xs)
        assert [spec.from_enc(e).coeffs for e in spec.scale(c, xs)] == [
            oracle_mul(spec, spec.from_enc(c).coeffs, spec.from_enc(x).coeffs) for x in xs
        ]


def assert_axpy_matches_oracle(spec, c, xs, ys):
    """y + c*x entry by entry, from oracle products and digit-wise sums."""
    p, cc = spec.p, spec.from_enc(c).coeffs
    want = [
        tuple((s + t) % p for s, t in zip(
            spec.from_enc(y).coeffs, oracle_mul(spec, cc, spec.from_enc(x).coeffs)
        ))
        for x, y in zip(xs, ys)
    ]
    assert [spec.from_enc(e).coeffs for e in spec.axpy(c, xs, ys)] == want


@pytest.mark.parametrize("p,k", [f for f in SMALL_FIELDS if f[0] ** f[1] <= 9])
def test_axpy_matches_oracle_exhaustive(p, k):
    """Every scalar against every pair (x, y): every cancelling sum included."""
    spec = make_field(p, k)
    xs, ys = zip(*itertools.product(range(spec.order), repeat=2))
    for c in range(1, spec.order):
        assert_axpy_matches_oracle(spec, c, xs, ys)


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(3, 4), (2, 8), (3, 5)])
def test_axpy_matches_oracle_sampled(p, k):
    spec = make_field(p, k)
    rng = random.Random(2000 + p**k)

    def entry():  # zero a third of the time
        return 0 if rng.random() < 1 / 3 else rng.randrange(spec.order)

    for _ in range(300):
        n = rng.randint(0, 6)
        xs = tuple(entry() for _ in range(n))
        c = rng.randrange(1, spec.order)
        # y = -c*x on a random subset of entries, so some sums cancel
        ys = tuple(
            spec.neg(spec.mul(c, x)) if rng.random() < 0.3 else entry() for x in xs
        )
        assert_axpy_matches_oracle(spec, c, xs, ys)


def test_powers_of_zero():
    for p, k in SMALL_FIELDS:
        spec = make_field(p, k)
        zero = spec.zero()
        assert zero**0 == spec.one()
        assert all(zero**n == zero for n in range(1, 2 * spec.order))
        with pytest.raises(ZeroDivisionError):
            zero**-1


def test_inv_of_one_and_zero():
    for p, k in SMALL_FIELDS:
        spec = make_field(p, k)
        assert spec.one().inv() == spec.one()
        with pytest.raises(ZeroDivisionError):
            spec.zero().inv()


def test_f9_generator_squares_to_minus_one():
    F9 = make_field(3, 2)
    x = F9.gen()
    assert x * x == F9.from_int(-1) == F9.from_int(2)


def test_pow_lagrange_f16():
    F16 = make_field(2, 4)
    for a in F16.units():
        assert a**15 == F16.one()


def test_mixed_spec_arithmetic_rejected():
    a = make_field(3, 1).one()
    b = make_field(3, 2).one()
    with pytest.raises(ValueError):
        a + b


# ---------------------------------------------------------------------------
# roots of unity


def oracle_primitive_roots(spec, n):
    one = spec.one()
    out = []
    for a in spec.units():
        if a**n == one and all(a**i != one for i in range(1, n)):
            out.append(a)
    return out


def test_root_of_unity_f9_order_4():
    F9 = make_field(3, 2)
    z = root_of_unity(F9, 4)
    assert z.enc == 3  # the generator x itself
    assert z**4 == F9.one() and z**2 != F9.one()
    assert z == min(oracle_primitive_roots(F9, 4), key=lambda a: a.enc)


def test_root_of_unity_trivial():
    for p, k in SMALL_FIELDS:
        spec = make_field(p, k)
        assert root_of_unity(spec, 1) == spec.one()


def test_root_of_unity_f4_order_3():
    F4 = make_field(2, 2)
    candidates = oracle_primitive_roots(F4, 3)
    assert len(candidates) == 2  # both non-identity units generate
    assert root_of_unity(F4, 3).enc == min(c.enc for c in candidates) == 2


def test_root_of_unity_powers_not_one():
    F16 = make_field(2, 4)
    z = root_of_unity(F16, 5)
    for i in range(1, 5):
        assert z**i != F16.one()
    assert z**5 == F16.one()


def test_root_of_unity_bad_order():
    with pytest.raises(PreconditionError):
        root_of_unity(make_field(3, 2), 5)  # 5 does not divide 8


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_fixes_prime_subfield():
    F3, F9 = make_field(3, 1), make_field(3, 2)
    emb = embedding(F3, F9)
    assert emb.apply(F3.zero()) == F9.zero()
    assert emb.apply(F3.one()) == F9.one()
    assert emb.apply(F3.from_int(2)) == F9.from_int(2)


def test_embedding_is_ring_homomorphism_f4_to_f16():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    emb = embedding(F4, F16)
    els = list(F4.elements())
    for a in els:
        for b in els:
            assert emb.apply(a * b) == emb.apply(a) * emb.apply(b)
            assert emb.apply(a + b) == emb.apply(a) + emb.apply(b)


def test_embedding_section_roundtrip():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    emb = embedding(F4, F16)
    for a in F4.elements():
        assert emb.section(emb.apply(a)) == a
    outside = next(b for b in F16.elements() if frobenius(b, 4) != b)
    with pytest.raises(ValueError):
        emb.section(outside)


def test_embedding_incompatible_fields():
    with pytest.raises(PreconditionError):
        embedding(make_field(3, 2), make_field(2, 4))
    with pytest.raises(PreconditionError):
        embedding(make_field(2, 4), make_field(2, 2))


def test_embedding_image_choice_is_smallest_root():
    F2, F16 = make_field(2, 1), make_field(2, 4)
    F4 = make_field(2, 2)
    emb = embedding(F4, F16)
    # oracle: scan all roots of the F4 modulus inside F16
    roots = []
    for b in F16.elements():
        acc = F16.zero()
        for c in reversed(F4.modulus):
            acc = acc * b + F16.from_int(c)
        if not acc:
            roots.append(b)
    assert emb.image_of_generator == min(roots, key=lambda r: r.enc)


# ---------------------------------------------------------------------------
# Frobenius


def test_frobenius_squares_to_identity_on_f9():
    F9 = make_field(3, 2)
    for a in F9.elements():
        assert frobenius(frobenius(a, 3), 3) == a


def test_frobenius_full_field_is_identity():
    for p, k in SMALL_FIELDS:
        spec = make_field(p, k)
        for a in spec.elements():
            assert frobenius(a, spec.order) == a


def test_frobenius_fixed_points_are_prime_field():
    F9 = make_field(3, 2)
    fixed = [a for a in F9.elements() if frobenius(a, 3) == a]
    assert sorted(a.enc for a in fixed) == [0, 1, 2]


def test_frobenius_is_field_automorphism():
    F16 = make_field(2, 4)
    els = list(F16.elements())
    for a in els:
        for b in els:
            assert frobenius(a + b, 4) == frobenius(a, 4) + frobenius(b, 4)
            assert frobenius(a * b, 4) == frobenius(a, 4) * frobenius(b, 4)


def test_frobenius_invalid_sub_order():
    F9 = make_field(3, 2)
    a = F9.gen()
    with pytest.raises(PreconditionError):
        frobenius(a, 2)  # not a power of 3
    with pytest.raises(PreconditionError):
        frobenius(a, 27)  # exponent does not divide k
