"""Projective points, homogeneous plane curves, and point enumeration.

Points of P^1 and P^2 are held as normalized encoding tuples: the first
nonzero coordinate is scaled to 1, and the point keeps the tuple of the
canonical encodings of its coordinates (`key`) with its FieldSpec.  A
point is a `gf._Value` compared on its spec and key and hashed on its key
alone, so equality and hashing are plain int-tuple operations, and the
key gives a total order (the "canonical point order" used for evaluation
sets and generator-matrix columns).  FieldElement stays at the API edge:
ProjPoint takes elements and checks them, and `coords` gives them back.

Curves are homogeneous polynomials kept as {exponent tuple: coefficient}
maps.  P^1 is represented by the degenerate curve with no terms: every
point lies on it.  Membership evaluates the equation on encodings, with
the coefficients pushed into the point's field once per field.

The line section of a curve, its points with last coordinate zero, is
solved on that line: |F| + 1 points in the plane, the one point (1:0) on
P^1.  Rational points of a curve with no term in both X and Y, such as the
fermat and bf curves, are that section and the affine points of a value
join of its two halves on Z = 1, in O(|F|) evaluations
(`_separated_points`); a curve with a mixed XY term, and P^1, keep the
scan of every point of the ambient space.
"""

from __future__ import annotations

import itertools

from .gf import FieldElement, FieldSpec, _Value, embedding

Poly = dict  # {tuple[int, ...]: FieldElement}, homogeneous in use


# ---------------------------------------------------------------------------
# polynomial helpers


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out[e] + c if e in out else c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            if e in out:
                c = out[e] + c
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def poly_pow(a: Poly, n: int, nvars: int, field: FieldSpec) -> Poly:
    out: Poly = {(0,) * nvars: field.one()}
    base = dict(a)
    while n:
        if n & 1:
            out = poly_mul(out, base)
        n >>= 1
        if n:
            base = poly_mul(base, base)
    return out


def poly_scale(a: Poly, c: FieldElement) -> Poly:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def poly_eval(terms, spec: FieldSpec, key: tuple[int, ...]) -> int:
    """Value, as an encoding, of the polynomial with (exponent tuple,
    coefficient encoding) pairs `terms` at the encoding tuple `key`."""
    acc = 0
    for exps, c in terms:
        for x, e in zip(key, exps):
            if e:
                c = spec.mul(c, spec.pow(x, e))
        acc = spec.add(acc, c)
    return acc


def poly_degree(a: Poly) -> int:
    """Common total degree; raises if the polynomial is not homogeneous."""
    degs = {sum(e) for e in a}
    if len(degs) != 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def substitute_linear(a: Poly, rows: tuple[tuple[FieldElement, ...], ...], field: FieldSpec) -> Poly:
    """Compose with a linear change of coordinates: variable i becomes the
    linear form rows[i].  Returns the polynomial p(M x)."""
    n = len(rows)
    forms = []
    for row in rows:
        form = {}
        for j, c in enumerate(row):
            if c:
                e = tuple(1 if t == j else 0 for t in range(n))
                form[e] = c
        forms.append(form)
    out: Poly = {}
    for exps, c in a.items():
        term: Poly = {(0,) * n: c}
        for i, e in enumerate(exps):
            if e:
                term = poly_mul(term, poly_pow(forms[i], e, n, field))
        out = poly_add(out, term)
    return out


# ---------------------------------------------------------------------------
# points


def normalized(spec: FieldSpec, key: tuple[int, ...]) -> tuple[int, ...]:
    """The scalar multiple of a nonzero encoding tuple whose first nonzero
    entry is 1."""
    pivot = next(c for c in key if c)
    return key if pivot == 1 else spec.scale(spec.inv(pivot), key)


class ProjPoint(_Value):
    """A point of P^1 or P^2, held as the normalized encoding tuple `key`
    (first nonzero coordinate 1) over the FieldSpec `spec`."""

    __slots__ = ("spec", "key")
    _fields = __slots__

    def __init__(self, coords: tuple[FieldElement, ...]):
        if len(coords) not in (2, 3):
            raise ValueError("only P^1 and P^2 points are supported")
        spec = coords[0].spec
        if any(c.spec != spec for c in coords):
            raise ValueError("point coordinates must share one field")
        key = tuple(c.enc for c in coords)
        if not any(key):
            raise ValueError("projective point cannot be all zeros")
        self._init(spec, normalized(spec, key))

    @classmethod
    def from_key(cls, spec: FieldSpec, key: tuple[int, ...]) -> ProjPoint:
        """The point with the normalized encoding tuple `key`, unchecked."""
        pt = object.__new__(cls)
        object.__setattr__(pt, "spec", spec)
        object.__setattr__(pt, "key", key)
        return pt

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, c) for c in self.key)

    # on the key alone, which equal points share: hashing the spec as well
    # costs several times more
    def __hash__(self) -> int:
        return hash(self.key)

    def dehomogenized(self) -> tuple[FieldElement, ...]:
        """Representative scaled so the last coordinate is 1 (the affine
        chart used for evaluation); raises if the point is at infinity."""
        last = self.key[-1]
        if not last:
            raise ValueError(f"point {self.key} lies on the hyperplane at infinity")
        inv = self.spec.inv(last)
        return tuple(FieldElement(self.spec, self.spec.mul(c, inv)) for c in self.key)

    def frobenius_image(self, sub_order: int) -> ProjPoint:
        # the Frobenius fixes 0 and 1, so the image stays normalized
        return ProjPoint.from_key(
            self.spec, tuple(self.spec.frobenius(c, sub_order) for c in self.key)
        )

    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.key) + ")"


def point(field: FieldSpec, *encs: int) -> ProjPoint:
    """Convenience constructor from canonical encodings."""
    return ProjPoint(tuple(field.from_enc(e) for e in encs))


def projective_reps(field: FieldSpec, n_coords: int):
    """All normalized points of P^(n_coords-1) over `field`, in canonical order."""
    for lead in range(n_coords - 1, -1, -1):
        tail = n_coords - lead - 1
        for rest in itertools.product(range(field.order), repeat=tail):
            yield ProjPoint.from_key(field, (0,) * lead + (1,) + rest)


# ---------------------------------------------------------------------------
# curves


class PlaneCurve(_Value):
    """A homogeneous plane curve (or the whole of P^1 when terms is empty).

    `terms` is a canonically ordered tuple of (exponent tuple, coefficient)
    pairs with nonzero coefficients, all of one total degree.
    `rational_points` and `line_section_points` keep their points per field
    on the curve object, so a curve built for one job enumerates each field
    once.
    """

    __slots__ = ("n_coords", "field", "terms", "_points", "_sections")
    _fields = ("n_coords", "field", "terms")

    def __init__(
        self,
        n_coords: int,
        field: FieldSpec,
        terms: tuple[tuple[tuple[int, ...], FieldElement], ...],
    ):
        if n_coords not in (2, 3):
            raise ValueError("ambient space must be P^1 or P^2")
        if n_coords == 2 and terms:
            raise ValueError("P^1 instances use the empty curve (every point lies on it)")
        if n_coords == 3 and not terms:
            raise ValueError("a plane curve needs at least one term")
        if terms:
            degs = set()
            for exps, c in terms:
                if len(exps) != n_coords:
                    raise ValueError("exponent tuple arity mismatch")
                if min(exps) < 0:
                    raise ValueError("curve exponents must be nonnegative")
                if not c or c.spec != field:
                    raise ValueError("curve coefficients must be nonzero elements of the curve field")
                degs.add(sum(exps))
            if len(degs) != 1:
                raise ValueError("curve polynomial must be homogeneous")
        self._init(n_coords, field, tuple(sorted(terms, key=lambda t: t[0])))
        object.__setattr__(self, "_points", {})
        object.__setattr__(self, "_sections", {})

    @property
    def degree(self) -> int:
        return sum(self.terms[0][0]) if self.terms else 0

    def poly(self) -> Poly:
        return {e: c for e, c in self.terms}

    def coefficients_over(self, field: FieldSpec) -> Poly:
        """The defining polynomial with coefficients pushed into `field`
        through the canonical embedding."""
        if field == self.field:
            return self.poly()
        emb = embedding(self.field, field)
        return {e: emb.apply(c) for e, c in self.terms}

    def encoded_terms(self, field: FieldSpec) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The (exponent tuple, coefficient encoding) pairs of the defining
        polynomial over `field`, pushed through the canonical embedding."""
        return tuple((e, c.enc) for e, c in self.coefficients_over(field).items())

    def contains(self, pt: ProjPoint) -> bool:
        """True iff the defining polynomial vanishes at pt (always true on P^1)."""
        if len(pt.key) != self.n_coords:
            raise ValueError("point/curve dimension mismatch")
        if not self.terms:
            return True
        return not poly_eval(self.encoded_terms(pt.spec), pt.spec, pt.key)

    def rational_points(self, field: FieldSpec) -> tuple[ProjPoint, ...]:
        """All points over `field`, canonical order, no duplicates; found
        once per field, and later calls return the same tuple.

        A plane curve with no term in both X and Y is its line section
        (`line_section_points`) and the affine points of a value join
        (`_separated_points`), in O(|F|) evaluations.  A curve with such a
        mixed term, and P^1, are scanned: the equation is evaluated at all
        |F|^2 + |F| + 1 (or |F| + 1) points of the ambient space.
        """
        if field not in self._points:
            terms = self.encoded_terms(field)  # raises PreconditionError if incompatible
            if self.n_coords == 3 and not any(e[0] and e[1] for e, _ in terms):
                keys = _separated_points(field, terms)
                keys += (p.key for p in self.line_section_points(field))
                keys.sort()
                points = tuple(ProjPoint.from_key(field, k) for k in keys)
            else:
                points = tuple(
                    p for p in projective_reps(field, self.n_coords)
                    if not poly_eval(terms, field, p.key)
                )
            self._points[field] = points
        return self._points[field]

    def line_section_points(self, field: FieldSpec) -> tuple[ProjPoint, ...]:
        """The points over `field` with last coordinate zero, canonical
        order, kept per field: the points of the line itself, those of
        `projective_reps` one dimension down with 0 appended, tested on the
        terms without the last coordinate, the others vanishing there."""
        if field not in self._sections:
            at_infinity = [(e, c) for e, c in self.encoded_terms(field) if not e[-1]]
            keys = (p.key + (0,) for p in projective_reps(field, self.n_coords - 1))
            self._sections[field] = tuple(
                ProjPoint.from_key(field, k) for k in keys if not poly_eval(at_infinity, field, k)
            )
        return self._sections[field]


def _separated_points(spec: FieldSpec, terms) -> list[tuple[int, ...]]:
    """Keys of the affine points (last coordinate nonzero) of a plane
    curve whose encoded terms `terms` have no monomial in both X and Y.

    On the chart Z = 1 the equation reads a(x) + b(y) = 0, where a takes
    the terms without Y (pure powers of Z included) and b the terms with Y.
    The values of -b over the field are bucketed by value, and each x meets
    the bucket of a(x): those (x, y, 1) are the affine points.
    """
    def values(pairs):
        """[sum of c * v^e over (e, c) in pairs, for each encoding v]"""
        univariate = [((e,), c) for e, c in pairs]
        return [poly_eval(univariate, spec, (v,)) for v in range(spec.order)]

    roots: dict[int, list[int]] = {}
    for y, value in enumerate(values([(e[1], c) for e, c in terms if e[1]])):
        roots.setdefault(spec.neg(value), []).append(y)
    return [
        normalized(spec, (x, y, 1))
        for x, value in enumerate(values([(e[0], c) for e, c in terms if not e[1]]))
        for y in roots.get(value, ())
    ]


def plane_curve(field: FieldSpec, coeffs: Poly) -> PlaneCurve:
    terms = tuple((e, c) for e, c in coeffs.items() if c)
    return PlaneCurve(3, field, terms)


def projective_line(field: FieldSpec) -> PlaneCurve:
    return PlaneCurve(2, field, ())


def fermat_curve(q: int, field: FieldSpec) -> PlaneCurve:
    """X^(q+1) + Y^(q+1) + Z^(q+1) = 0, the Hermitian curve when the field
    is GF(q^2)."""
    one = field.one()
    d = q + 1
    return plane_curve(field, {(d, 0, 0): one, (0, d, 0): one, (0, 0, d): one})


def trace_fermat_curve(q: int, field: FieldSpec) -> PlaneCurve:
    """The homogenized curve (x^(q^2)+x)^(q+1) + (y^(q^2)+y)^(q+1) + 1 = 0.

    Degree q^3 + q^2; its affine chart Z=1 recovers the defining equation
    in the subfield traces x^(q^2)+x and y^(q^2)+y.  In characteristic p,
    with q a power of p, (a + b)^(q+1) = a^(q+1) + a^q b + a b^q + b^(q+1),
    so each block (V^(q^2) + V Z^(q^2-1))^(q+1), V = X or Y, is four
    monomials with coefficient 1.
    """
    one = field.one()
    qq = q * q
    # (V, Z) exponents of a^(q+1), a^q b, a b^q and b^(q+1) for a = V^(q^2), b = V Z^(q^2-1)
    block = ((qq * (q + 1), 0), (qq * q + 1, qq - 1), (qq + q, q * (qq - 1)),
             (q + 1, (q + 1) * (qq - 1)))
    f = {(0, 0, q**3 + qq): one}
    for v, z in block:
        f[(v, 0, z)] = f[(0, v, z)] = one
    return plane_curve(field, f)
