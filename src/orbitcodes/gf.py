"""Exact arithmetic in small prime-power finite fields GF(p^k).

A field is described by a FieldSpec: characteristic p, extension degree k,
and a monic irreducible modulus polynomial over GF(p) stored as k+1
coefficients in ascending degree.  An element is its canonical integer
encoding, over its coefficients in the polynomial basis

    enc(a) = sum(coeffs[i] * p**i)

a bijection onto range(p**k).  This encoding is the tiebreaker for every
deterministic choice in the package (modulus selection, roots of unity,
embeddings, point and matrix orderings) and the wire format for files.

Arithmetic reads three tables per field, built on its first operation
from polynomial products reduced by the modulus: the powers (exp) and
logarithms (log) of the primitive element of smallest encoding, and its
Zech logarithms.  They hold O(p**k) ints; every operator is a few reads.
The arithmetic lives on FieldSpec and works on encodings (add, neg, mul,
inv, pow, scale, axpy, matvec, frobenius), so points, maps, curve equations
and matrix rows compute on int tuples; FieldElement wraps it at the API edge.

Subfield relations are explicit Embedding values, checked by evaluating
the small field's modulus at the chosen image of its generator; there is
no global table of compatible moduli.
"""

from __future__ import annotations

import functools
import itertools
from functools import cached_property

from .errors import PreconditionError

# The largest field order served: every field keeps tables of O(order)
# ints, and building them takes seconds from about this size on.
MAX_ORDER = 2**16


def check_order(base: int, degree: int):
    """Refuse a field of order base**degree above MAX_ORDER, before any work
    that grows with base or degree; bases below 2 and degrees below 1 are
    left to the checks that name them."""
    # base**degree >= 2**degree, so a long degree is refused without the power
    if base >= 2 and degree >= 1 and (
        degree >= MAX_ORDER.bit_length() or base**degree > MAX_ORDER
    ):
        raise PreconditionError(
            "order_overflow",
            f"field order {base}^{degree} exceeds {MAX_ORDER}",
            {"base": base, "degree": degree, "max_order": MAX_ORDER},
        )


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Factor q as p**s with p prime, or raise PreconditionError."""
    if q >= 2:
        for p in range(2, q + 1):
            if p * p > q:
                p = q
            if q % p == 0:
                s = 0
                n = q
                while n % p == 0:
                    n //= p
                    s += 1
                if n == 1 and is_prime(p):
                    return p, s
                break
    raise PreconditionError("not_prime_power", f"{q} is not a prime power")


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder in GF(p)[x]; den must be monic, ascending coeffs."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dj) % p
    rem = [c % p for c in num[:dd]]
    return quot, rem


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Exhaustive check: no monic divisor of degree 1..deg/2.

    Fine at desk scale (deg <= 8, small p); degree-1 polynomials are
    irreducible by definition.
    """
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            den = list(lower) + [1]
            _, rem = _poly_divmod(list(coeffs), den, p)
            if not any(rem):
                return False
    return True


_set = object.__setattr__


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its compared attributes in `_fields` and sets them
    with `_init` in its constructor.  Instances compare equal when they are
    of the same class with equal fields, hash the tuple of the fields and
    print as `Name(field=value, ...)`, as a frozen dataclass with those
    fields does; assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Memo(dict):
    """key -> fn(key), computed on first use and kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class FieldSpec(_Value):
    """GF(p^k) presented as GF(p)[x] / (modulus)."""

    _fields = ("p", "k", "modulus")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        check_order(p, k)
        if not is_prime(p):
            raise PreconditionError("not_prime", f"{p} is not prime")
        if k < 1 or len(modulus) != k + 1:
            raise ValueError("modulus length must be k+1")
        if any(not (0 <= c < p) for c in modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is not monic irreducible over GF({p})")
        self._init(p, k, modulus)
        # every FieldElement hash hashes its spec: compute the value once
        _set(self, "_hash", hash((p, k, modulus)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p**self.k

    def from_int(self, c: int) -> FieldElement:
        """The prime-field constant c, as an element of this field."""
        return FieldElement(self, c % self.p)

    def from_enc(self, n: int) -> FieldElement:
        if not (0 <= n < self.order):
            raise ValueError(f"encoding {n} out of range for order {self.order}")
        return FieldElement(self, n)

    def zero(self) -> FieldElement:
        return self.from_int(0)

    def one(self) -> FieldElement:
        return self.from_int(1)

    def gen(self) -> FieldElement:
        """The residue class of x (equals 0 in a prime field where modulus = x)."""
        return self.from_enc(self.p) if self.k > 1 else self.zero()

    def elements(self):
        """All elements in canonical encoding order."""
        return (self.from_enc(n) for n in range(self.order))

    def units(self):
        return (self.from_enc(n) for n in range(1, self.order))

    @cached_property
    def _tables(self) -> tuple[list[int], list[int], list]:
        """exp, log and Zech tables of g, the primitive element of smallest
        encoding: exp[i] = g^i for i < 2(q-1), log[g^i] = i, and zech[i] =
        log(1 + g^i), None where 1 + g^i = 0."""
        for candidate in range(1, self.order):
            g = self.from_enc(candidate).coeffs
            exp, power = [1], g
            while (a := sum(c * self.p**i for i, c in enumerate(power))) != 1:
                exp.append(a)
                prod = [0] * (2 * self.k - 1)
                for i, x in enumerate(power):
                    for j, y in enumerate(g):
                        prod[i + j] += x * y
                power = _poly_divmod(prod, self.modulus, self.p)[1]
            if len(exp) == self.order - 1:
                break
        log = [0] * self.order
        for i, a in enumerate(exp):
            log[a] = i
        # 1 + a differs from a only in its lowest digit, the constant term
        p = self.p
        zech = [log[b] if (b := a - a % p + (a + 1) % p) else None for a in exp]
        return exp + exp, log, zech

    # Arithmetic on encodings.  Every FieldElement operator wraps one of
    # these, and the kernels over encoding tuples (points, maps, curve
    # equations) call them directly, so no FieldElement is built there.

    def add(self, a: int, b: int) -> int:
        """a + b on encodings: g^i + g^j = g^(i + zech[j - i])."""
        if not (a and b):
            return a or b
        exp, log, zech = self._tables
        z = zech[(log[b] - log[a]) % (len(log) - 1)]
        return 0 if z is None else exp[log[a] + z]

    def neg(self, a: int) -> int:
        if not a or self.p == 2:
            return a
        exp, log, _ = self._tables  # -1 = g^((q-1)/2) in odd characteristic
        return exp[log[a] + (len(log) - 1) // 2]

    def mul(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inversion of zero")
        exp, log, _ = self._tables
        return exp[len(log) - 1 - log[a]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if not a:
            return 1 if n == 0 else 0
        exp, log, _ = self._tables
        return exp[log[a] * n % (len(log) - 1)]

    def scale(self, c: int, xs) -> tuple[int, ...]:
        """The tuple c * x for x in xs, for a nonzero c."""
        exp, log, _ = self._tables
        lc = log[c]
        return tuple([exp[log[x] + lc] if x else 0 for x in xs])

    def axpy(self, c: int, xs, ys) -> tuple[int, ...]:
        """The tuple y + c * x over the pairs of xs and ys, for a nonzero c:
        y + c*x = y * (1 + c*x/y), one Zech read per pair with both nonzero."""
        exp, log, zech = self._tables
        m = len(log) - 1
        lc = log[c]
        out = []
        for x, y in zip(xs, ys):
            if not x:
                out.append(y)
            elif not y:
                out.append(exp[log[x] + lc])
            else:
                ly = log[y]
                z = zech[(log[x] + lc - ly) % m]
                out.append(0 if z is None else exp[ly + z])
        return tuple(out)

    def matvec(self, rows, xs) -> tuple[int, ...]:
        """The matrix with rows `rows` times the column `xs`, on encodings.

        Each entry is sum(r[j] * xs[j]); the products stay logarithms, the
        sum runs on Zech logarithms, and the logarithms of xs are read
        once, so one call replaces len(rows) * len(xs) calls of mul and add.
        """
        exp, log, zech = self._tables
        m = len(log) - 1
        lx = [(j, log[x]) for j, x in enumerate(xs) if x]
        out = []
        for r in rows:
            acc = None  # log of the running sum; None while it is zero
            for j, lj in lx:
                if r[j]:
                    t = log[r[j]] + lj
                    if acc is None:
                        acc = t
                    else:
                        z = zech[(t - acc) % m]
                        acc = None if z is None else acc + z
            out.append(0 if acc is None else exp[acc % m])
        return tuple(out)

    def frobenius(self, a: int, sub_order: int) -> int:
        """a ** sub_order, for sub_order = p^m with m dividing k.

        This is the Frobenius of the subfield of that order; its fixed
        points inside GF(p^k) are exactly that subfield.
        """
        n, m = sub_order, 0
        while n % self.p == 0 and n > 1:
            n //= self.p
            m += 1
        if n != 1 or m == 0 or self.k % m != 0:
            raise PreconditionError(
                "bad_sub_order",
                f"{sub_order} is not p^m with m dividing {self.k} (p={self.p})",
            )
        return self.pow(a, sub_order)

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


class FieldElement(_Value):
    """An element of GF(p^k), held as its canonical encoding; every
    operator wraps the encoding arithmetic of its FieldSpec."""

    __slots__ = ("spec", "enc")
    _fields = __slots__

    def __init__(self, spec: FieldSpec, enc: int):
        _set(self, "spec", spec)
        _set(self, "enc", enc)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.enc // self.spec.p**i % self.spec.p for i in range(self.spec.k))

    def __bool__(self) -> bool:
        return self.enc != 0

    def _check_same(self, other: FieldElement):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError(f"field mismatch: {self.spec} vs {other.spec}")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check_same(other)
        return FieldElement(self.spec, self.spec.add(self.enc, other.enc))

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check_same(other)
        return FieldElement(self.spec, self.spec.add(self.enc, self.spec.neg(other.enc)))

    def __neg__(self) -> FieldElement:
        return FieldElement(self.spec, self.spec.neg(self.enc))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check_same(other)
        return FieldElement(self.spec, self.spec.mul(self.enc, other.enc))

    def __pow__(self, n: int) -> FieldElement:
        return FieldElement(self.spec, self.spec.pow(self.enc, n))

    def inv(self) -> FieldElement:
        return FieldElement(self.spec, self.spec.inv(self.enc))

    def __repr__(self):
        return f"{self.spec}[{self.enc}]"


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the deterministic modulus choice.

    The modulus is the monic irreducible polynomial of degree k over GF(p)
    whose coefficient tuple, read from the constant term upward, is
    lexicographically smallest.  Found by exhaustive scan, which is the
    point: the choice is reproducible without any table.
    """
    check_order(p, k)
    if not is_prime(p):
        raise PreconditionError("not_prime", f"{p} is not prime")
    if k < 1:
        raise PreconditionError("bad_degree", "extension degree must be >= 1")
    for lower in itertools.product(*(range(p) for _ in range(k))):
        coeffs = tuple(lower) + (1,)
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, k, coeffs)
    raise AssertionError("no irreducible polynomial found (unreachable)")


def root_of_unity(spec: FieldSpec, n: int) -> FieldElement:
    """The primitive n-th root of unity with smallest canonical encoding.

    Requires n to divide the unit-group order p^k - 1.
    """
    if n < 1:
        raise PreconditionError("bad_order", "n must be positive")
    if (spec.order - 1) % n != 0:
        raise PreconditionError(
            "bad_order", f"{n} does not divide the unit group order {spec.order - 1}"
        )
    one = spec.one()
    for a in spec.units():
        if a**n == one and all(a**i != one for i in range(1, n)):
            return a
    raise AssertionError("unit group of a finite field is cyclic (unreachable)")


class Embedding(_Value):
    """A field homomorphism GF(p^k) -> GF(p^K) with k | K.

    Determined by the image of the small field's generator, which must be a
    root of the small modulus in the big field; apply() extends it linearly
    over the polynomial basis.
    """

    _fields = ("src", "dst", "image_of_generator")

    def __init__(self, src: FieldSpec, dst: FieldSpec, image_of_generator: FieldElement):
        if src.p != dst.p or dst.k % src.k != 0:
            raise PreconditionError("no_embedding", f"no embedding {src} -> {dst}")
        if image_of_generator.spec != dst:
            raise ValueError("image_of_generator must live in the destination field")
        if _eval_poly_at(src.modulus, image_of_generator):
            raise ValueError("image_of_generator is not a root of the source modulus")
        self._init(src, dst, image_of_generator)

    def apply(self, a: FieldElement) -> FieldElement:
        if a.spec != self.src:
            raise ValueError(f"element of {a.spec} fed to embedding from {self.src}")
        return _eval_poly_at(a.coeffs, self.image_of_generator)

    @cached_property
    def _section(self) -> dict[int, FieldElement]:
        return {self.apply(a).enc: a for a in self.src.elements()}

    def section(self, b: FieldElement) -> FieldElement:
        """Preimage of b under the embedding; raises if b is not in the image."""
        if b.spec != self.dst:
            raise ValueError("element does not live in the destination field")
        try:
            return self._section[b.enc]
        except KeyError:
            raise ValueError(f"{b!r} is not in the image of {self.src}") from None


def _eval_poly_at(coeffs: tuple[int, ...], x: FieldElement) -> FieldElement:
    acc = x.spec.zero()
    for c in reversed(coeffs):
        acc = acc * x + x.spec.from_int(c)
    return acc


@functools.lru_cache(maxsize=None)
def embedding(src: FieldSpec, dst: FieldSpec) -> Embedding:
    """The canonical embedding: generator maps to the root of src.modulus
    in dst with smallest canonical encoding."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise PreconditionError("no_embedding", f"no embedding {src} -> {dst}")
    for b in dst.elements():
        if not _eval_poly_at(src.modulus, b):
            return Embedding(src, dst, b)
    raise AssertionError("a subfield always exists when k | K (unreachable)")


def frobenius(a: FieldElement, sub_order: int) -> FieldElement:
    """a ** sub_order, for sub_order = p^m with m dividing k (see
    FieldSpec.frobenius)."""
    return FieldElement(a.spec, a.spec.frobenius(a.enc, sub_order))
