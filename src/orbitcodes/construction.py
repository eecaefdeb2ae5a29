"""Build evaluation codes from pairs (or families) of curve automorphism
groups: verify the construction conditions, assemble the coincident orbit
divisor and the evaluation set, synthesize a function basis, and produce
the generator matrix.

Pipeline per instance (groups G1, G2, ..., base point Q, evaluation seed Q'):

  1. the groups must share one order and intersect trivially,
  2. the orbit multisets of Q under each group must coincide; the common
     multiset is the divisor D (all multiplicities equal, D = e * D0), and
     D must be stable under the ground-field Frobenius,
  3. the evaluation set S is the orbit of Q' under the group generated by
     all G_i together; Q' must be ground-rational, avoid supp(D), and S
     must be large enough for the designed distance bound to be positive.

The code evaluates the functions of L(m*D) at S; its designed minimum
distance bound is #S - m*|G1|.  With the scale written against D0 (the
support of D taken once), the code is L((m*e) * D0) with bound
#S - (m*e)*|G1|/e, and the size condition on S reads m*e < e*#S/|G1|.

The code value, `EvalCode`, the exact row reduction that gives its rank,
`rank_and_rref`, and the membership test `in_row_space` are defined here
rather than in `code_analysis`, so that `construct` and `verify` do not
load the distance and faithful-action modules.  A code is built without
its rank: `EvalCode.rank` reads the code's one reduction, made on first
use, so `verify`, which reports no rank, reduces nothing.  The package
exports `EvalCode` and `rank_and_rref` from here, and `code_analysis` and
`enumeration` import them.

`certified_distance` proves the minimum distance from the geometry, with
no enumeration, when the bound is the root count on P^1 or Bezout's
theorem on a certified-smooth diagonal curve, and a witness codeword
meets it; `distance` loads `code_analysis` and `enumeration` only when it
does not apply.  Whichever gives the exact distance, `check_distance_bound`
alone decides whether it meets the designed bound.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from itertools import combinations

from .errors import CheckFailure, CheckReport, PreconditionError
from .gf import (
    FieldElement,
    FieldSpec,
    _Value,
    check_order,
    embedding,
    make_field,
    prime_power,
)
from .geometry import (
    PlaneCurve,
    Poly,
    ProjPoint,
    poly_degree,
    poly_eval,
)
from .autgroup import (
    FAMILIES,
    AutGroup,
    builtin_generators,
    check_joint_fits,
    close,
    family_entry,
)


class Divisor(_Value):
    """A finite multiset of curve points with positive multiplicities.

    `field_of_definition` is the smallest field in the coefficient tower
    whose Frobenius leaves the support multiset invariant.
    """

    __slots__ = ("support", "field_of_definition")
    _fields = __slots__

    def __init__(
        self,
        support: tuple[tuple[ProjPoint, int], ...],
        field_of_definition: FieldSpec,
    ):
        if not support:
            raise ValueError("divisor must have nonempty support")
        if any(m < 1 for _, m in support):
            raise ValueError("multiplicities must be positive")
        support = tuple(sorted(support, key=lambda t: t[0].key))
        self._init(support, field_of_definition)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.support)

    @property
    def e(self) -> int:
        """The common multiplicity (the divisor is e times its support)."""
        mults = {m for _, m in self.support}
        if len(mults) != 1:
            raise ValueError("divisor is not a uniform multiple of its support")
        return mults.pop()

    def points(self) -> tuple[ProjPoint, ...]:
        return tuple(p for p, _ in self.support)

    def as_multiset(self) -> dict[ProjPoint, int]:
        return {p: m for p, m in self.support}


class EvalBasis(_Value):
    """Homogeneous forms of one common degree, the degree of the first
    nonzero form, evaluated in the affine chart where the last coordinate
    is 1 (division by that power of the last coordinate is understood)."""

    __slots__ = ("forms", "degree")
    _fields = __slots__

    def __init__(self, forms: tuple[Poly, ...], n_coords: int):
        degree = next((poly_degree(f) for f in forms if f), 0)
        for f in forms:
            if not f:
                raise ValueError("basis forms must be nonzero")
            if poly_degree(f) != degree:
                raise ValueError("basis forms must share one total degree")
            if any(len(e) != n_coords for e in f):
                raise ValueError("basis form arity mismatch")
            if any(x < 0 for e in f for x in e):
                raise ValueError("basis form exponents must be nonnegative")
        self._init(forms, degree)


class EvalCode(_Value):
    """A linear code presented by evaluations of functions at ordered points.

    `encodings` holds one row of encodings per nominal function (there may
    be more rows than the rank) and `matrix` is their field-element view;
    `distance_bound` is the designed lower bound on the minimum distance.
    The rank, the code dimension, is read from their one reduction, `reduced`.
    """

    _fields = ("field", "points", "encodings", "distance_bound")

    def __init__(
        self,
        field: FieldSpec,
        points: tuple[ProjPoint, ...],
        encodings: tuple[tuple[int, ...], ...],
        distance_bound: int,
    ):
        n = len(points)
        if any(len(row) != n for row in encodings):
            raise ValueError("matrix rows must match the number of points")
        if any(row and (min(row) < 0 or max(row) >= field.order) for row in encodings):
            raise ValueError("matrix entries must live in the code field")
        if len(encodings) > n:
            raise ValueError("need nominal rows <= length")
        self._init(field, points, encodings, distance_bound)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def matrix(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The rows of `encodings` as field elements."""
        return tuple(tuple(FieldElement(self.field, v) for v in row) for row in self.encodings)

    @cached_property
    def reduced(self):
        """`rank_and_rref` of `encodings`, computed once per code: (rank,
        rref rows, pivot columns).  The rank, the distance scan and every
        code-preservation test read it."""
        return rank_and_rref(self.field, self.encodings)

    @property
    def rank(self) -> int:
        return self.reduced[0]


def rank_and_rref(spec: FieldSpec, rows: Sequence[Sequence[int]]):
    """Exact reduced row echelon form of rows of encodings over `spec`,
    with deterministic pivoting.

    Scans columns left to right and picks the first row with a nonzero
    entry; returns (rank, rref rows as tuples of encodings, pivot column
    indices).  Each pivot row is scaled by the pivot's inverse, and each
    other row with a nonzero entry f in the pivot column takes -f times
    the pivot row, one `FieldSpec.axpy` per row.
    """
    work = [tuple(r) for r in rows]
    if not work:
        return 0, (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for col in range(ncols):
        src = next((i for i in range(r, len(work)) if work[i][col]), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        pivot = work[r] = spec.scale(spec.inv(work[r][col]), work[r])
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = spec.axpy(spec.neg(work[i][col]), pivot, work[i])
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return r, tuple(work[:r]), tuple(pivots)


def in_row_space(spec: FieldSpec, vector: Sequence[int], rref, pivots) -> bool:
    """Membership test of a vector of encodings against a precomputed
    reduced matrix."""
    residue = vector
    for row, col in zip(rref, pivots):
        c = residue[col]
        if c:
            residue = spec.axpy(spec.neg(c), row, residue)
    return not any(residue)


@dataclass(frozen=True)
class Instance:
    """Everything the constructor needs: curve, groups, base point Q,
    evaluation seed Q', the ground (code alphabet) and working fields, and
    the divisor scale m.

    Custom instances may carry an explicit function list, refused here
    unless it makes an `EvalBasis`; built-in families synthesize monomial
    bases.  The quotient-rationality hypothesis on each group (its curve
    quotient being a line) is declared, not computed.  The joint group is
    closed on first use and kept on the instance.
    """

    curve: PlaneCurve
    groups: tuple[AutGroup, ...]
    Q: ProjPoint
    Qprime: ProjPoint
    ground: FieldSpec
    working: FieldSpec
    m: int = 1
    functions: tuple[Poly, ...] | None = None
    condition_a_declared: bool = True
    family: str = "custom"
    q: int | None = None
    _joint: AutGroup | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.groups) < 2:
            raise ValueError("need at least two groups")
        if self.m < 1:
            raise ValueError("divisor scale m must be >= 1")
        if self.working.p != self.ground.p or self.working.k % self.ground.k != 0:
            raise PreconditionError(
                "no_embedding", f"ground {self.ground} does not embed in working {self.working}"
            )
        if any(g.field != self.working for g in self.groups):
            raise ValueError("groups must act over the working field")
        if self.Q.spec != self.working or self.Qprime.spec != self.working:
            raise ValueError("Q and Q' must have working-field coordinates")
        if not self.curve.contains(self.Q):
            raise ValueError("Q must lie on the curve")
        if not self.curve.contains(self.Qprime):
            raise ValueError("Q' must lie on the curve")
        if self.functions is not None:
            EvalBasis(self.functions, self.curve.n_coords)

    def joint_group(self) -> AutGroup:
        """The group generated by every group's generators, closed once."""
        if self._joint is None:
            gens = tuple(g for grp in self.groups for g in grp.generators)
            object.__setattr__(self, "_joint", close(gens, label="joint"))
        return self._joint

    def with_qprime(self, Qprime: ProjPoint) -> Instance:
        """This instance with another evaluation seed.  The joint group does
        not depend on Q', so a group already closed carries over."""
        out = replace(self, Qprime=Qprime)
        object.__setattr__(out, "_joint", self._joint)
        return out


# ---------------------------------------------------------------------------
# condition checks


def check_condition_b(inst: Instance) -> CheckReport:
    """Groups must share one order and some pair must intersect trivially
    (with two groups, the pair is just (G1, G2))."""
    orders = [g.order for g in inst.groups]
    details: dict = {"orders": orders}
    if len(set(orders)) != 1:
        return CheckReport("condition_b", False, {**details, "reason": "group orders differ"})
    pair_results = []
    witness = None
    passed = False
    for i, j in combinations(range(len(inst.groups)), 2):
        inter = inst.groups[i].intersect(inst.groups[j])
        pair_results.append({"pair": [i, j], "intersection_order": inter.order})
        if inter.order == 1:
            passed = True
        elif witness is None:
            nontrivial = next(m for m in inter.elements if not m.is_identity())
            witness = {"pair": [i, j], "element": list(nontrivial.key)}
    details["pairs"] = pair_results
    return CheckReport("condition_b", passed, details, witness=None if passed else witness)


def build_divisor(inst: Instance) -> Divisor:
    """The common orbit multiset of Q under every group.

    Fails if the multisets disagree (the groups do not cut the same fiber
    through Q) or if the resulting divisor is not stable under the
    ground-field Frobenius.
    """
    reference = inst.groups[0].orbit_multiset(inst.Q)
    for idx, grp in enumerate(inst.groups[1:], start=1):
        other = grp.orbit_multiset(inst.Q)
        if other != reference:
            diff = set(reference) | set(other)
            only_ref = [p.key for p in diff if reference.get(p) != other.get(p)]
            raise CheckFailure(
                CheckReport(
                    "condition_c",
                    False,
                    {
                        "reason": "orbit multisets of Q differ",
                        "groups": [0, idx],
                        "differing_points": [list(k) for k in sorted(only_ref)[:8]],
                    },
                )
            )
    fod = _field_of_definition(reference, inst.working)
    if inst.ground.k % fod.k:
        raise CheckFailure(
            CheckReport(
                "rationality",
                False,
                {
                    "reason": "divisor is not stable under the ground-field Frobenius",
                    "field_of_definition": {"p": fod.p, "k": fod.k},
                    "ground": {"p": inst.ground.p, "k": inst.ground.k},
                },
            )
        )
    return Divisor(tuple(reference.items()), fod)


def _field_of_definition(multiset: dict[ProjPoint, int], working: FieldSpec) -> FieldSpec:
    """Smallest subfield GF(p^d), d | working.k, whose Frobenius preserves
    the multiset."""
    for d in sorted(x for x in range(1, working.k + 1) if working.k % x == 0):
        sub_order = working.p**d
        image = {p.frobenius_image(sub_order): m for p, m in multiset.items()}
        if image == multiset:
            return make_field(working.p, d)
    raise AssertionError("full-field Frobenius always fixes the multiset (unreachable)")


def check_condition_d(inst: Instance, D: Divisor):
    """Build the evaluation set S (the joint orbit of Q') and check the
    eligibility clauses: Q' ground-rational, Q' outside supp(D), and S
    large enough.

    The size clause is m*|G1| < #S, so that the designed bound #S - m*|G1|
    is positive; with two groups at m = 1 its report names the threshold
    |G1| + 1.  With more groups it also asks for one pair (i, j) whose
    orbit of Q' has more than |G_i| points (`_pair_orbit_exceeds`), and at
    m = 1 for that pair alone.  Returns (S, report).
    """
    S = inst.joint_group().orbit(inst.Qprime)
    n_groups, g1 = len(inst.groups), inst.groups[0].order
    scaled = inst.m * g1
    size = {"clause": "orbit_size", "orbit_size": len(S), "passed": scaled < len(S)}
    if n_groups == 2 and inst.m == 1:
        size.update(variant="two_groups_unit_scale", threshold=g1 + 1)
    elif n_groups == 2:
        size.update(variant="two_groups_scaled", scaled_degree=scaled)
    else:
        pairs = combinations(range(n_groups), 2)
        pair = next(([i, j] for i, j in pairs if _pair_orbit_exceeds(inst, i, j)), None)
        size.update(variant="many_groups_pair", designated_pair=pair)
        if inst.m > 1:
            size["scaled_degree"] = scaled
        size["passed"] = pair is not None and (inst.m == 1 or size["passed"])
    clauses = [
        {"clause": "qprime_rational", "passed": _point_is_rational(inst.Qprime, inst.ground)},
        {"clause": "qprime_outside_support", "passed": inst.Qprime not in D.points()},
        size,
    ]
    passed = all(c["passed"] for c in clauses)
    details = {"clauses": clauses, "orbit_size": len(S), "group_order": g1, "m": inst.m}
    witness = None if passed else {"qprime": list(inst.Qprime.key)}
    return S, CheckReport("condition_d", passed, details, witness=witness)


def _pair_orbit_exceeds(inst: Instance, i: int, j: int) -> bool:
    """Whether G_i and G_j intersect trivially and the group they generate
    moves Q' through more than |G_i| points."""
    if inst.groups[i].intersect(inst.groups[j]).order != 1:
        return False
    sub = close(inst.groups[i].generators + inst.groups[j].generators, label=f"pair{i}{j}")
    return len(sub.orbit(inst.Qprime)) > inst.groups[i].order


def _point_is_rational(pt: ProjPoint, ground: FieldSpec) -> bool:
    sub_order = ground.order
    return pt.frobenius_image(sub_order) == pt


def check_curve_preservation(inst: Instance) -> CheckReport:
    """Every element of every group must map the curve onto itself.

    Every group is generated by its generators (see `autgroup`), and a
    generated group preserves whatever its generators preserve.  So only
    the generators are tested against the equation, and `elements_checked`
    is the sum of the group orders.  The generators are tested in group
    order and, within a group, in the order the group lists them, which is
    its element order; so a failed report names the first generator that
    breaks the curve, which is the first element that does.
    """
    for grp in inst.groups:
        for gen in grp.generators:
            if not gen.preserves_curve(inst.curve):
                return CheckReport(
                    "curve_preservation",
                    False,
                    {"group": grp.label},
                    witness={"element": list(gen.key)},
                )
    checked = sum(grp.order for grp in inst.groups)
    return CheckReport("curve_preservation", True, {"elements_checked": checked})


# ---------------------------------------------------------------------------
# basis synthesis and the generator matrix


def build_basis(inst: Instance, D: Divisor, n: int) -> EvalBasis:
    """Monomial basis of L(m*D) for the supported divisor shape, D
    supported on the whole line section (`line_section_points`).

    On a plane curve that is all monomials of degree <= m in the affine
    chart, written as forms X^i Y^j Z^(m-i-j); on the line, whose section
    is the one point (1:0), it is s^i t^(m'-i) with m' = deg(m*D).  Other
    shapes must come with explicit functions; the code dimension is always
    the evaluation rank, never the nominal count.  A basis of more forms
    than the n evaluation points fails the `injectivity` check, counted
    before any form is listed.
    """
    if inst.functions is not None:
        _check_basis_fits(len(inst.functions), n)
        return EvalBasis(inst.functions, inst.curve.n_coords)
    plane = inst.curve.n_coords == 3
    if D.points() != inst.curve.line_section_points(inst.working):
        shape = "needs the divisor supported on the full line section" if plane else (
            "on the line needs the divisor supported at (1:0)")
        raise PreconditionError(
            "unsupported_basis", f"automatic basis {shape}; supply explicit functions")
    one = inst.working.one()
    if plane:
        m = inst.m
        _check_basis_fits((m + 1) * (m + 2) // 2, n)
        forms = []
        for total in range(m + 1):
            for j in range(total + 1):
                i = total - j
                forms.append({(i, j, m - total): one})
        return EvalBasis(tuple(forms), 3)
    mprime = inst.m * D.degree
    _check_basis_fits(mprime + 1, n)
    forms = [{(i, mprime - i): one} for i in range(mprime + 1)]
    return EvalBasis(tuple(forms), 2)


def _check_basis_fits(functions: int, n: int):
    """Refuse more basis functions than evaluation points: their evaluation
    cannot be injective, and `EvalCode` takes no more rows than points."""
    if functions > n:
        report = {"reason": "more basis functions than evaluation points",
                  "functions": functions, "points": n}
        raise CheckFailure(CheckReport("injectivity", False, report))


def _assemble_code(inst: Instance, S, basis: EvalBasis) -> EvalCode:
    """The code of the basis forms evaluated on S, one row per form.  Each
    point's affine chart (last coordinate 1) and each form's terms are read
    once, and the rows stay encodings into the `EvalCode`."""
    if any(not p.key[-1] for p in S):
        raise PreconditionError(
            "unsupported_basis",
            "evaluation set touches the hyperplane at infinity; functions are not regular there",
        )
    spec = inst.working
    charts = [spec.scale(spec.inv(p.key[-1]), p.key) for p in S]
    rows = []
    for form in basis.forms:
        terms = tuple((e, c.enc) for e, c in form.items())
        row = _to_ground(inst, (poly_eval(terms, spec, x) for x in charts))
        if not any(row):
            raise CheckFailure(
                CheckReport(
                    "injectivity",
                    False,
                    {"reason": "a basis function vanishes on all of S"},
                )
            )
        rows.append(row)
    bound = len(S) - inst.m * inst.groups[0].order
    return EvalCode(inst.ground, tuple(S), tuple(rows), bound)


def _to_ground(inst: Instance, values: Iterable[int]) -> tuple[int, ...]:
    """Working-field encodings as ground-field encodings, through the
    section of the canonical embedding; the report names the first value
    outside the ground field, and no value after it is read."""
    if inst.ground == inst.working:
        return tuple(values)
    lift = embedding(inst.ground, inst.working).section_enc
    row = []
    for v in values:
        try:
            row.append(lift(v))
        except ValueError:
            report = {"reason": "evaluation leaves the ground field", "value": v}
            raise CheckFailure(CheckReport("ground_coercion", False, report)) from None
    return tuple(row)


# ---------------------------------------------------------------------------
# full pipeline with reports


class ConstructionResult(_Value):
    """The instance, every check report in order, and what the construction
    built before it stopped: the divisor, the evaluation set, the joint
    group order and the code."""

    __slots__ = ("instance", "reports", "divisor", "points", "joint_order", "code")
    _fields = __slots__

    def __init__(
        self,
        instance: Instance,
        reports: tuple[CheckReport, ...],
        divisor: Divisor | None,
        points: tuple[ProjPoint, ...],
        joint_order: int,
        code: EvalCode | None,
    ):
        self._init(instance, reports, divisor, points, joint_order, code)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and self.code is not None


def run_construction(inst: Instance, strict: bool = True) -> ConstructionResult:
    """Execute every check in order and build the code.

    With strict=True the first failed check raises CheckFailure; otherwise
    the failure is recorded in the reports and later stages are skipped.
    """
    reports = [
        CheckReport(
            "condition_a",
            inst.condition_a_declared,
            {"status": "assumed" if inst.family in FAMILIES else "declared"},
        ),
        check_curve_preservation(inst),
        check_condition_b(inst),
    ]
    D = code = None
    S, joint_order = (), 0
    try:
        if all(r.passed for r in reports):
            D = build_divisor(inst)
            fod = D.field_of_definition
            reports.append(CheckReport(
                "condition_c", True, {"degree": D.degree, "support_size": len(D.support), "e": D.e}
            ))
            # build_divisor returns only divisors that the ground Frobenius fixes
            reports.append(CheckReport(
                "rationality", True,
                {"field_of_definition": {"p": fod.p, "k": fod.k}, "ground_rational": True},
            ))
            S, rep_d = check_condition_d(inst, D)
            reports.append(rep_d)
            joint_order = inst.joint_group().order
            if rep_d.passed:
                code = _assemble_code(inst, S, build_basis(inst, D, len(S)))
    except CheckFailure as exc:
        reports.append(exc.report)
    failed = next((r for r in reports if not r.passed), None)
    if strict and failed is not None:
        raise CheckFailure(failed)
    return ConstructionResult(inst, tuple(reports), D, tuple(S), joint_order, code)


# ---------------------------------------------------------------------------
# the distance the geometry proves


def certified_distance(result: ConstructionResult) -> int | None:
    """The minimum distance of a built code when the geometry proves it
    exact, else None; the checks are linear in the length n.

    A codeword is the evaluation on S of a nonzero form F of the basis
    degree t, or the zero word: the ground coercion is linear, so a ground
    combination of the rows evaluates the same combination of the basis
    forms pushed into the working field.  S lies on the curve, which the
    construction certified.
      - On P^1 a nonzero binary form of degree t has at most t roots, so
        every nonzero codeword weighs at least n - t.  With rank t + 1,
        Singleton's d <= n - k + 1 makes n - t exact.
      - A plane curve aX^d + bY^d + cZ^d with abc != 0 and p not dividing
        d has partial derivatives that are monomials in one variable each,
        so it is smooth, and a smooth plane curve is irreducible.  By
        Bezout, a form of degree t that the equation does not divide meets
        it in at most t*d points, so every nonzero codeword weighs at least
        n - t*d (`_plane_distance`).
    None when a hypothesis fails or no witness of positive weight is
    found; the enumeration of `enumeration` then decides the distance.  A
    proved distance goes through `check_distance_bound`, so one below the
    designed bound is reported from the proof, as the enumeration would.
    """
    code = result.code
    t = build_basis(result.instance, result.divisor, code.n).degree
    if result.instance.curve.n_coords == 2:
        d = code.n - t if code.rank == t + 1 else None
    else:
        d = _plane_distance(result.instance, code, t)
    return None if d is None or d < 1 else check_distance_bound(code, d)


def check_distance_bound(code: EvalCode, d: int) -> int:
    """The exact minimum distance d of `code` when it meets the designed
    bound; else CheckFailure with the `distance_bound` report, which names
    d.  The one place the bound is decided, for a distance proved from the
    geometry and for one enumerated by either method alike."""
    if d < code.distance_bound:
        raise CheckFailure(
            CheckReport("distance_bound", False, {"weight": d, "bound": code.distance_bound})
        )
    return d


def _plane_distance(inst: Instance, code: EvalCode, t: int) -> int | None:
    """n - t*d for a certified-smooth curve of degree d, when the code
    holds a word of exactly that weight; else None.

    The witness is the product of Y - cZ over the first t values c, in
    encoding order, whose line through (1:0:0) holds d points of S.  The
    lines meet S in disjoint sets, so the product, evaluated on S and put
    through the ground coercion, weighs n - t*d; `in_row_space` checks
    that it is a codeword.
    """
    curve, spec = inst.curve, inst.working
    d = curve.degree
    diagonal = ((0, 0, d), (0, d, 0), (d, 0, 0))  # the order of `curve.terms`
    if tuple(e for e, _ in curve.terms) != diagonal or d % spec.p == 0:
        return None
    # the y of each point in the chart Z = 1: the line Y = yZ holds it
    ys = [spec.mul(pt.key[1], spec.inv(pt.key[2])) for pt in code.points]
    lines = sorted(c for c, count in Counter(ys).items() if count == d)[:t]
    if len(lines) < t:
        return None
    word = []
    for y in ys:
        value = 1
        for c in lines:
            value = spec.mul(value, spec.add(y, spec.neg(c)))
        word.append(value)
    try:
        word = _to_ground(inst, word)
    except CheckFailure:  # the witness leaves the ground field
        return None
    _, rref, pivots = code.reduced
    if word.count(0) != t * d or not in_row_space(code.field, word, rref, pivots):
        return None
    return code.n - t * d


# ---------------------------------------------------------------------------
# built-in instances


def builtin_instance(family: str, q: int, m: int = 1) -> Instance:
    """Assemble a built-in instance from its `FAMILIES` entry, with the
    deterministic choices of Q and Q'.

    Once G1 and G2 are closed, an instance whose joint group cannot fit
    under `CLOSURE_CAP` is refused (`check_joint_fits`) before any point is
    enumerated.  Q is the first point of `line_section_points`, the
    curve's points at infinity: for every family the line at infinity
    joins the two Galois points, so the section is a fiber of both groups,
    and on P^1 it is the point (1:0).  Q' is the first curve point in
    canonical order that meets the family's shape rule and passes
    `check_condition_d`.  The generators are not checked against the curve
    here: `run_construction` certifies them in `check_curve_preservation`.
    """
    fam = family_entry(family, q)
    field = _family_field(q, fam.degree)
    curve = fam.curve(q, field)
    g1, g2 = builtin_generators(family, q, field)
    groups = (close(g1, label="G1"), close(g2, label="G2"))
    check_joint_fits(*groups)
    Q = curve.line_section_points(field)[0]
    return _with_first_valid_qprime(curve, field, groups, Q, m, fam.qprime_shape, family, q)


def _family_field(q: int, degree: int) -> FieldSpec:
    """GF(q^degree), the working field of a family; its order is checked
    against the table cap before q is factored or a modulus is sought."""
    check_order(q, degree)
    p, s = prime_power(q)
    return make_field(p, degree * s)


def _with_first_valid_qprime(curve, field, groups, Q, m, shape, family, q) -> Instance:
    """The instance whose evaluation seed is the first curve point matching
    the family's shape rule that passes `check_condition_d`.  Each
    candidate is derived from the one before, so the joint group is closed
    once for the search."""
    candidates = [pt for pt in curve.rational_points(field) if shape(pt)]
    if candidates:
        inst = Instance(curve, groups, Q, candidates[0], field, field, m, family=family, q=q)
        D = build_divisor(inst)
        for pt in candidates:
            inst = inst.with_qprime(pt)
            if check_condition_d(inst, D)[1].passed:
                return inst
    raise PreconditionError(
        "no_valid_qprime",
        f"no valid evaluation seed exists for family {family!r} "
        f"(scanned {len(curve.rational_points(field))} rational points)",
        {"points_scanned": len(curve.rational_points(field)), "family": family},
    )
