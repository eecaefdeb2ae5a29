"""Projective-linear maps modulo scalars, group closure, and orbits.

Maps are invertible 2x2 or 3x3 matrices with the first nonzero entry (in
row-major order) scaled to 1, held as the row-major tuple of the canonical
encodings of that normalized matrix (`key`) with its FieldSpec: a
`gf._Value` compared on both and hashed on the key alone, so set
membership and equality are exact int-tuple operations.  Each map also
keeps its size and the logarithms of its rows, outside the comparison.
Composition and point images run one kernel, `_compose`: a point is a
one-column matrix, so a map times a point, normalized, is the point's
image.  That kernel, the determinant and the inverse read the field's
tables and build no FieldElement; FieldElement stays at the API edge:
ProjMap takes rows of elements and checks them, and `rows` gives them
back.

Groups are stored as their full element sets.  Only `close` and
`AutGroup.intersect` make one (calling `AutGroup` raises TypeError), so
every group lists each element of the group its generators generate
exactly once.  The closure runs on encoding tuples and lists at most
`CLOSURE_CAP` (10,000) elements, which keeps intersection and orbit
computations trivial.

The breadth-first closure is its own exact certificate (Holt, Eick &
O'Brien, *Handbook of Computational Group Theory*, ch. 4).  It forms m*g
for every kept element m and every generator g and keeps the product, so
the final set holds the identity and is closed under right multiplication
by each generator: it contains every word in the generators.  Each kept
element is itself such a word, and in a finite group inverses are positive
powers, so the set is exactly the generated group; no sampled product or
inverse check is needed.  The intersection of two groups is a group, and
`intersect` takes all of it as its generators, so it too is the closure of
its generators.  A group therefore preserves whatever its generators
preserve, which is all the curve and faithful-action checks test.

A group lists its generators in its element order: `close` keeps the
distinct non-identity generators, in the order given, right after the
identity, and `intersect` takes its elements, in element order, as its
generators.  So the first generator that breaks a property is the first
element that does, and a check that tests the generators in order reports
what a check of every element in order reports.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import combinations

from .errors import PreconditionError
from .gf import FieldElement, FieldSpec, _Value, root_of_unity
from .geometry import (
    PlaneCurve,
    Poly,
    ProjPoint,
    fermat_curve,
    normalized,
    poly_scale,
    projective_line,
    substitute_linear,
    trace_fermat_curve,
)

CLOSURE_CAP = 10000


def _det(f: FieldSpec, n: int, a: tuple[int, ...]) -> int:
    """Determinant of the row-major n x n matrix of encodings `a`."""
    mul, add, neg = f.mul, f.add, f.neg
    if n == 2:
        return add(mul(a[0], a[3]), neg(mul(a[1], a[2])))
    return add(
        add(
            mul(a[0], add(mul(a[4], a[8]), neg(mul(a[5], a[7])))),
            neg(mul(a[1], add(mul(a[3], a[8]), neg(mul(a[5], a[6]))))),
        ),
        mul(a[2], add(mul(a[3], a[7]), neg(mul(a[4], a[6])))),
    )


def _identity_key(n: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n) for j in range(n))


def _row_logs(f: FieldSpec, n: int, a: tuple[int, ...]) -> list:
    """Per row of the row-major n x n key a, the (column, logarithm) pairs
    of its nonzero entries."""
    log = f._tables[1]
    return [[(t, log[x]) for t, x in enumerate(a[i : i + n]) if x] for i in range(0, n * n, n)]


def _column_logs(f: FieldSpec, n: int, b: tuple[int, ...]) -> list:
    """The logarithms of the columns of the row-major matrix b with n
    columns, None for a zero entry: n x n for a map's key, and n = 1 for a
    point's key, a one-column matrix."""
    log = f._tables[1]
    return [[log[x] if x else None for x in b[j::n]] for j in range(n)]


def _product_logs(f: FieldSpec, rows, cols) -> list:
    """The logarithms of the entries of the product of the matrix whose
    `_row_logs` are `rows` and the matrix whose `_column_logs` are `cols`,
    row-major, None for a zero entry.  Each entry sums its products as Zech
    logarithms: g^a + g^b = g^(a + zech[b - a])."""
    exp, _, zech = f._tables
    m = len(exp) // 2
    logs = []
    for row in rows:
        for col in cols:
            acc = None  # log of the running sum; None while it is zero
            for t, la in row:
                lb = col[t]
                if lb is not None:
                    if acc is None:
                        acc = la + lb
                    else:
                        z = zech[(la + lb - acc) % m]
                        acc = None if z is None else acc + z
            logs.append(acc)
    return logs


def _compose(f: FieldSpec, rows, cols) -> tuple[int, ...]:
    """The normalized key of the product of `_product_logs`, a nonzero
    matrix: every entry's logarithm drops by that of the first nonzero
    entry.  With the `_column_logs(f, 1, key)` of a point, this is the
    normalized key of the point's image."""
    exp = f._tables[0]
    m = len(exp) // 2
    logs = _product_logs(f, rows, cols)
    lead = next(x for x in logs if x is not None)
    return tuple([0 if x is None else exp[(x - lead) % m] for x in logs])


class ProjMap(_Value):
    """An element of PGL(2) or PGL(3): a matrix up to scalars, held as the
    row-major encodings `key` of its normalized form over `field`, with
    the `_row_logs` of that key, filled once, for `_compose`."""

    __slots__ = ("field", "n", "key", "_logs")
    _fields = ("field", "key")

    def __init__(self, rows: tuple[tuple[FieldElement, ...], ...], field: FieldSpec):
        n = len(rows)
        if n not in (2, 3) or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square, 2x2 or 3x3")
        if any(c.spec != field for r in rows for c in r):
            raise ValueError("matrix entries must live in the declared field")
        key = tuple(c.enc for r in rows for c in r)
        if not _det(field, n, key):
            raise ValueError("projective map must be invertible")
        self._set(field, n, normalized(field, key))

    @classmethod
    def from_key(cls, field: FieldSpec, n: int, key: tuple[int, ...]) -> ProjMap:
        """The map with the normalized invertible key `key`, unchecked."""
        m = object.__new__(cls)
        m._set(field, n, key)
        return m

    def _set(self, field: FieldSpec, n: int, key: tuple[int, ...]):
        self._init(field, key)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_logs", _row_logs(field, n, key))

    @property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        f, n, key = self.field, self.n, self.key
        return tuple(tuple(FieldElement(f, c) for c in key[i : i + n]) for i in range(0, n * n, n))

    # on the key alone, which equal maps share: hashing the field as well
    # costs several times more, once per element of each `element_set`
    def __hash__(self) -> int:
        return hash(self.key)

    def det(self) -> FieldElement:
        return FieldElement(self.field, _det(self.field, self.n, self.key))

    def __matmul__(self, other: ProjMap) -> ProjMap:
        if self.field != other.field or self.n != other.n:
            raise ValueError("cannot compose maps over different spaces")
        f, n = self.field, self.n
        return ProjMap.from_key(f, n, _compose(f, self._logs, _column_logs(f, n, other.key)))

    def inverse(self) -> ProjMap:
        f, a = self.field, self.key
        mul, add, neg = f.mul, f.add, f.neg
        if self.n == 2:
            adj = (a[3], neg(a[1]), neg(a[2]), a[0])
        else:
            def cof(i, j):
                r0, r1 = [r for r in range(3) if r != i]
                c0, c1 = [c for c in range(3) if c != j]
                m = add(
                    mul(a[3 * r0 + c0], a[3 * r1 + c1]), neg(mul(a[3 * r0 + c1], a[3 * r1 + c0]))
                )
                return m if (i + j) % 2 == 0 else neg(m)

            adj = tuple(cof(j, i) for i in range(3) for j in range(3))
        return ProjMap.from_key(f, self.n, normalized(f, adj))

    def check_point(self, pt: ProjPoint):
        """Raise ValueError unless pt lies in the space this map acts on."""
        if len(pt.key) != self.n:
            raise ValueError("point/map dimension mismatch")
        if pt.spec is not self.field and pt.spec != self.field:
            raise ValueError("point and map must share a field")

    def image(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """The normalized key of the image of the point with key `key`."""
        return _compose(self.field, self._logs, _column_logs(self.field, 1, key))

    def apply(self, pt: ProjPoint) -> ProjPoint:
        self.check_point(pt)
        return ProjPoint.from_key(self.field, self.image(pt.key))

    def is_identity(self) -> bool:
        return self.key == _identity_key(self.n)

    def preserves_curve(self, curve: PlaneCurve) -> bool:
        """True iff composing the curve equation with this map reproduces it
        up to a nonzero scalar (every map preserves P^1).  The package's last
        FieldElement arithmetic, in `substitute_linear`: the benchmark's
        self-tests pin `gf.mul.calls > 0` on it until ROADMAP item 1."""
        if curve.n_coords != self.n:
            raise ValueError("curve/map dimension mismatch")
        if not curve.terms:
            return True
        f: Poly = curve.coefficients_over(self.field)
        g = substitute_linear(f, self.rows, self.field)
        probe = next(iter(f))
        if probe not in g:
            return False
        scale = g[probe] * f[probe].inv()
        return g == poly_scale(f, scale)

    def __repr__(self):
        return f"ProjMap{self.key}"


def identity_map(field: FieldSpec, n: int) -> ProjMap:
    one, zero = field.one(), field.zero()
    return ProjMap(
        tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
        field,
    )


def diagonal_map(field: FieldSpec, *entries: FieldElement) -> ProjMap:
    zero = field.zero()
    n = len(entries)
    return ProjMap(
        tuple(tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)),
        field,
    )


class AutGroup(_Value):
    """A finite subgroup of PGL, stored as its full element set.

    `elements` is in deterministic insertion order (identity first, then
    breadth-first products of generators); `element_set`, derived from it
    and left out of comparisons, backs membership.  Only `close` and
    `intersect` build one, through `_group`.
    """

    __slots__ = ("generators", "elements", "label", "element_set")
    _fields = ("generators", "elements", "label")

    def __init__(self, *args, **kwargs):
        raise TypeError("an AutGroup is built only by close() or AutGroup.intersect()")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def field(self) -> FieldSpec:
        return self.elements[0].field

    def __contains__(self, m: ProjMap) -> bool:
        return m in self.element_set

    def _images(self, pt: ProjPoint) -> list[tuple[int, ...]]:
        """The key of m(pt) for every element m, in element order; the
        point's logarithms are read once."""
        self.elements[0].check_point(pt)
        f = self.field
        col = _column_logs(f, 1, pt.key)
        return [_compose(f, m._logs, col) for m in self.elements]

    def orbit(self, pt: ProjPoint) -> tuple[ProjPoint, ...]:
        """The orbit of pt, duplicate-free, in canonical point order."""
        return tuple(ProjPoint.from_key(pt.spec, k) for k in sorted(set(self._images(pt))))

    def orbit_multiset(self, pt: ProjPoint) -> dict[ProjPoint, int]:
        """Image multiset {g(pt) for g in the group} with multiplicities."""
        counts = Counter(self._images(pt))
        return {ProjPoint.from_key(pt.spec, k): c for k, c in counts.items()}

    def intersect(self, other: AutGroup) -> AutGroup:
        if self.field != other.field:
            raise ValueError("cannot intersect groups over different fields")
        common = tuple(m for m in self.elements if m in other.element_set)
        label = f"{self.label or 'G'} & {other.label or 'H'}"
        return _group(common, common, label)


def _group(generators: tuple[ProjMap, ...], elements: tuple[ProjMap, ...], label: str) -> AutGroup:
    """The group `elements`, unchecked: each element of the group that
    `generators` generate, listed once, the identity first."""
    grp = object.__new__(AutGroup)
    grp._init(generators, elements, label)
    object.__setattr__(grp, "element_set", frozenset(elements))
    return grp


def close(generators, label: str = "") -> AutGroup:
    """Breadth-first closure of a generator list under composition.

    The element order is insertion order: identity, then products explored
    first-in-first-out with generators applied in the given order.  Every
    product m @ g of a kept element and a generator is formed and kept, so
    the result is exactly the generated group (see the module docstring).
    Each product reads the kept map's row logarithms, filled once per map.
    Raises when more than `CLOSURE_CAP` elements appear (the group is too
    large, or not finite as given).
    """
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    f = generators[0].field
    n = generators[0].n
    if any(g.field != f or g.n != n for g in generators):
        raise ValueError("generators must share one field and dimension")
    elements = [ProjMap.from_key(f, n, _identity_key(n))]
    seen = {elements[0].key}
    columns = [_column_logs(f, n, g.key) for g in generators]
    for m in elements:
        for cols in columns:
            prod = _compose(f, m._logs, cols)
            if prod not in seen:
                if len(elements) >= CLOSURE_CAP:
                    raise _cap_exceeded()
                seen.add(prod)
                elements.append(ProjMap.from_key(f, n, prod))
    return _group(generators, tuple(elements), label)


def check_joint_fits(g: AutGroup, h: AutGroup) -> None:
    """Raise `close`'s `closure_cap_exceeded` error when the group that g
    and h generate together cannot fit under `CLOSURE_CAP`.

    The products a*b (a in g, b in h) are |g|*|h| / |g & h| distinct
    elements of that group, so when they alone pass the cap, closing it
    would raise the same error after listing `CLOSURE_CAP` elements.
    """
    if g.order * h.order > CLOSURE_CAP * g.intersect(h).order:
        raise _cap_exceeded()


def _cap_exceeded() -> PreconditionError:
    return PreconditionError(
        "closure_cap_exceeded", f"group closure exceeded cap {CLOSURE_CAP}", {"cap": CLOSURE_CAP}
    )


def find_frame(points: Sequence[ProjPoint]) -> tuple[int, ...] | None:
    """Indices of a projective frame among `points`, or None.

    A frame is 3 distinct points of P^1 or 4 points of P^2 with no three
    collinear.  The search is greedy in point order: the first point, then
    the first point distinct from it, then (on P^2) the first point off
    their line, then the first point off all three lines.  A candidate is
    taken iff, for every set T of n-1 points already taken, the n x n
    determinant of T and the candidate is nonzero; a point refused at one
    step is refused at every later one, so one pass finds the frame.
    """
    frame: list[tuple[int, ...]] = []
    indices = []
    for i, p in enumerate(points):
        k, n = p.key, len(p.key)
        # sum(t, k) is the row-major matrix with rows k and the points of t
        if k not in frame and all(
            _det(p.spec, n, sum(t, k)) for t in combinations(frame, n - 1)
        ):
            frame.append(k)
            indices.append(i)
            if len(frame) == n + 1:
                return tuple(indices)
    return None


# ---------------------------------------------------------------------------
# built-in generator families


def builtin_generators(family: str, q: int, spec: FieldSpec):
    """Generator lists (G1, G2) for the named family over `spec`, which
    must be GF(q^degree) for the family's degree in `FAMILIES`.

    fermat  : X -> zeta*X and Y -> zeta*Y for a primitive (q+1)-th root of
              unity zeta; spec = GF(q^2).
    projline: s -> zeta*s and s -> zeta*s + (1-zeta)*t for a primitive
              ((q-1)/2)-th root of unity; odd q >= 5 and spec = GF(q).
    bf      : the fermat scalings over GF(q^4), each followed by the
              translations x -> x + mu (y -> y + mu in G2), mu in the greedy
              encoding-order basis of the additive group {mu^(q^2) + mu = 0}.
    No generator is tested against the curve here: every construction job
    certifies its generators against its curve equation in
    `construction.check_curve_preservation`.
    """
    fam = family_entry(family, q)
    if q < 2 or spec.order != q**fam.degree:
        raise PreconditionError(
            "invalid_family_parameters",
            f"{family} family needs GF(q^{fam.degree}), got {spec} for q={q}",
        )
    return fam.generators(q, spec)


def family_entry(family: str, q: int) -> Family:
    """The `FAMILIES` entry of `family`.  Refuses an unknown name, and a q
    that projline cannot take, before q is factored."""
    if family not in FAMILIES:
        raise PreconditionError("invalid_family_parameters", f"unknown family {family!r}")
    if family == "projline" and (q % 2 == 0 or q < 5):
        raise PreconditionError(
            "invalid_family_parameters", f"projline family needs odd q >= 5, got q={q}"
        )
    return FAMILIES[family]


def _scalings_and_shifts(q: int, spec: FieldSpec, shifts=()) -> tuple[list, list]:
    """G1: X -> zeta*X for a primitive (q+1)-th root of unity zeta, then
    X -> X + c*Z for each encoding c in `shifts`; G2 the same in Y."""
    zeta = root_of_unity(spec, q + 1)
    one, zero = spec.one(), spec.zero()

    def maps(i: int) -> list[ProjMap]:
        scale = [one, one, one]
        scale[i] = zeta
        out = [diagonal_map(spec, *scale)]
        for c in shifts:
            rows = [[one if r == j else zero for j in range(3)] for r in range(3)]
            rows[i][2] = spec.from_enc(c)
            out.append(ProjMap(tuple(map(tuple, rows)), spec))
        return out

    return maps(0), maps(1)


def _bf_generators(q: int, spec: FieldSpec):
    basis, span = [], {0}
    for mu in range(spec.order):
        if mu not in span and not spec.add(spec.pow(mu, q * q), mu):
            basis.append(mu)
            span |= {spec.add(s, spec.mul(c, mu)) for s in span for c in range(spec.p)}
    return _scalings_and_shifts(q, spec, basis)


def _projline_generators(q: int, spec: FieldSpec):
    zeta = root_of_unity(spec, (q - 1) // 2)
    one, zero = spec.one(), spec.zero()
    g1 = [ProjMap(((zeta, zero), (zero, one)), spec)]
    g2 = [ProjMap(((zeta, spec.from_enc(spec.add(1, spec.neg(zeta.enc)))), (zero, one)), spec)]
    return g1, g2


class Family(_Value):
    """A built-in family: its working field is GF(q^degree); `curve(q, field)`
    and `generators(q, field)` give its curve and generator lists (G1, G2)
    over that field, and `qprime_shape(point)` says which curve points may
    seed the evaluation set."""

    __slots__ = ("degree", "curve", "generators", "qprime_shape")
    _fields = __slots__

    def __init__(self, degree: int, curve, generators, qprime_shape):
        self._init(degree, curve, generators, qprime_shape)


FAMILIES = {
    "fermat": Family(2, fermat_curve, _scalings_and_shifts, lambda pt: all(pt.key)),
    "projline": Family(1, lambda q, field: projective_line(field), _projline_generators,
                       lambda pt: True),
    "bf": Family(4, trace_fermat_curve, _bf_generators,
                 lambda pt: bool(pt.key[-1]) and not pt.key[1]),
}
