"""Linear-code analytics over small finite fields.

Exact Gaussian elimination, exact minimum distance by enumerating the
message space up to nonzero scalars, and certification that a matrix group
acting on the evaluation set embeds faithfully into the code's permutation
automorphism group.  The elimination and the membership test work on rows
of canonical encodings with the field's `scale` and `axpy` kernels;
`EvalCode.matrix` keeps the field elements as the public view.

The faithful-action certificate reads the generators' permutations and the
images of one projective frame in the evaluation set under each element
(see `verify_faithful`); the element-by-element scan is its fallback.

The distance scan is exact up to scalars: a message and its nonzero
multiples give codewords of the same weight, so it visits one message per
scalar class, (q^k - 1)/(q - 1) in all.  It works on integer-encoded
symbols, with an addition table and scaled rows built by the field's
encoding kernels.  It enumerates all but the last two coefficients and
counts the rest in one pass: for each position, the cells (s2, s) of the
q^2 codewords below a node where that position is zero form a line, all
of the grid, or nothing, so one Counter over the n positions gives the
weights of all q^2 codewords at once.  A node whose lightest codeword
breaks the designed bound walks its cells in message order, which keeps
the first violating message, and so every report, the one the full
enumeration gives.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from functools import cached_property
from itertools import chain
from operator import getitem

from .errors import CheckFailure, CheckReport, PreconditionError
from .gf import FieldElement, FieldSpec, _Memo, _Value
from .geometry import ProjPoint
from .autgroup import AutGroup, ProjMap, certify_generated, find_frame

DEFAULT_MESSAGE_GUARD = 2**24


class EvalCode(_Value):
    """A linear code presented by evaluations of functions at ordered points.

    `matrix` holds one row per nominal function (there may be more rows than
    the rank); `rank` is the code dimension; `distance_bound` is the designed
    lower bound on the minimum distance; `distance_exact` is filled in only
    after an exhaustive scan.
    """

    _fields = ("field", "points", "matrix", "rank", "distance_bound", "distance_exact")

    def __init__(
        self,
        field: FieldSpec,
        points: tuple[ProjPoint, ...],
        matrix: tuple[tuple[FieldElement, ...], ...],
        rank: int,
        distance_bound: int,
        distance_exact: int | None = None,
    ):
        n = len(points)
        if any(len(row) != n for row in matrix):
            raise ValueError("matrix rows must match the number of points")
        if any(c.spec != field for row in matrix for c in row):
            raise ValueError("matrix entries must live in the code field")
        if not (rank <= len(matrix) <= n):
            raise ValueError("need rank <= nominal rows <= length")
        if distance_exact is not None and distance_exact < distance_bound:
            raise ValueError("exact distance below the designed bound")
        self._init(field, points, matrix, rank, distance_bound, distance_exact)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def encodings(self) -> tuple[tuple[int, ...], ...]:
        """The rows of `matrix` as tuples of canonical encodings, the form
        the row reduction and the distance scan work on."""
        return tuple(tuple(c.enc for c in row) for row in self.matrix)

    @cached_property
    def reduced(self):
        """`rank_and_rref` of `encodings`, computed once per code: (rank,
        rref rows, pivot columns).  The distance scan and every
        code-preservation test read it."""
        return rank_and_rref(self.field, self.encodings)


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


def min_distance_exact(code: EvalCode, max_messages: int = DEFAULT_MESSAGE_GUARD) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumerating the
    messages of F^rank up to nonzero scalars.

    A message and its nonzero multiples give codewords of the same weight,
    so one message per scalar class, (q^rank - 1)/(q - 1) of them, yields
    the exact minimum.  The scan keeps the lexicographic message order of
    the full enumeration and takes from each class the member whose leading
    coefficient is 1, which is the class's first member in that order.

    The recursion stops one level early, at a parent node that has fixed
    all but the last two coefficients (s2, s), and one Counter pass over
    the n positions counts the zeros of all q^2 codewords acc + s2*r + s*l
    below it, where r and l are the last two reduced rows.  Each position
    is zero on a known set of cells s2*q + s: the q cells of the line
    s2*r[j] + s*l[j] = -acc[j] when (r[j], l[j]) != (0, 0), every cell
    when r[j] = l[j] = acc[j] = 0, and none when only acc[j] is nonzero.
    The parent's minimum is then the nonzero count minus the largest cell
    count.

    Every codeword weight is checked against the designed bound; a
    violation means the code was built from a broken construction and
    raises CheckFailure rather than returning a too-small distance quietly.
    Only a parent whose minimum breaks the bound walks its cells in message
    order, (0, 1) and then (1, s) for the parent with no nonzero
    coefficient yet, every cell from (0, 0) for any other, so the first
    violating message, and the report, is the one the full enumeration
    would meet first.  The guard still counts all q^rank - 1 nonzero
    messages.
    """
    spec = code.field
    q = spec.order
    k, rows, _ = code.reduced
    if k != code.rank:
        raise ValueError("stored rank disagrees with the matrix")
    if k == 0:
        raise ValueError("cannot measure the distance of the zero code")
    total = q**k - 1
    if total > max_messages:
        raise PreconditionError(
            "enumeration_guard_exceeded",
            f"{total} messages exceed the guard {max_messages}; raise max_messages to force",
            {"messages": total, "guard": max_messages},
        )
    n = code.n
    bound = code.distance_bound
    if k == 1:
        w = n - rows[0].count(0)
        if w < bound:
            raise CheckFailure(CheckReport("distance_bound", False, {"weight": w, "bound": bound}))
        return w

    add = [[spec.add(a, b) for b in range(q)] for a in range(q)]
    # level 0 has no nonzero coefficient before it, so it takes only 0 and 1
    scaled = [
        [spec.scale(s, row) if s else (0,) * n for s in range(q if level else 2)]
        for level, row in enumerate(rows[:-2])
    ]
    EVERY = q * q  # the sentinel of _zero_cells: zero in every cell
    cells = _zero_cells(spec, add, rows[-2], rows[-1])
    best = n + 1

    def scan(level: int, acc: list[int], started: bool):
        nonlocal best
        if level == k - 2:
            zeros = Counter(chain.from_iterable(map(getitem, cells, acc)))
            nonzero = n - zeros.pop(EVERY, 0)
            if not started:
                del zeros[0]  # acc is zero: cell (0, 0) is the zero message
            w = nonzero - max(zeros.values(), default=0)
            if w < bound:
                for c in range(q * q) if started else (1, *range(q, 2 * q)):
                    w = nonzero - zeros[c]
                    if w < bound:
                        raise CheckFailure(
                            CheckReport("distance_bound", False, {"weight": w, "bound": bound})
                        )
            if w < best:
                best = w
            return
        sums = [add[a] for a in acc]  # sums[j][x] is acc[j] + x
        for s in range(q) if started else (0, 1):
            scan(level + 1, list(map(getitem, sums, scaled[level][s])), started or s != 0)

    scan(0, [0] * n, False)
    return best


def _zero_cells(spec: FieldSpec, add, r: Sequence[int], l: Sequence[int]) -> list:
    """Per position j, the table of its column pair (r[j], l[j]): a `_Memo`
    from acc value to the cells s2*q + s where acc + s2*r[j] + s*l[j] is
    zero.  Positions with the same pair share one table.  A zero pair maps
    acc value 0 to the sentinel q*q (zero in every cell) and any other value
    to no cell."""
    q = spec.order
    ints = list(range(q * q))  # every cell tuple shares these int objects
    offsets = ints[::q]  # s2*q for each s2
    mul = spec.mul
    multiples = {0: (0,) * q}  # c -> c*s2 for each s2, shared by the pairs

    def table(rj: int, lj: int) -> _Memo:
        if lj:
            # s = u*acc + (u*rj)*s2 with u = -1/lj
            u = spec.neg(spec.inv(lj))
            c = mul(u, rj)
            if c not in multiples:
                multiples[c] = spec.scale(c, range(q))
            steps = multiples[c]

            def cells_of(a):
                flat = map(operator.add, offsets, map(add[mul(u, a)].__getitem__, steps))
                return tuple(map(ints.__getitem__, flat))
        elif rj:
            u = spec.neg(spec.inv(rj))  # s2 = -acc/rj, any s

            def cells_of(a):
                s2 = mul(u, a)
                return tuple(ints[s2 * q:(s2 + 1) * q])
        else:
            every = (q * q,)
            return _Memo(lambda a: () if a else every)
        return _Memo(cells_of)

    tables = {pair: table(*pair) for pair in set(zip(r, l))}
    return [tables[pair] for pair in zip(r, l)]


class CoordPermutation(_Value):
    """A permutation of code coordinates; perm[j] is where position j goes."""

    __slots__ = ("perm",)
    _fields = __slots__

    def __init__(self, perm: tuple[int, ...]):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        self._init(perm)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def apply_to(self, vector: Sequence) -> tuple:
        out = [None] * len(self.perm)
        for j, v in zip(self.perm, vector):
            out[j] = v
        return tuple(out)


def permutation_of(gamma: ProjMap, points: Sequence[ProjPoint]) -> CoordPermutation:
    """The coordinate permutation induced by gamma on an ordered point set,
    computed on the points' keys.

    Raises if gamma does not stabilize the set.
    """
    index = {p.key: i for i, p in enumerate(points)}
    perm = []
    for p in points:
        gamma.check_point(p)
        q = gamma.image(p.key)
        if q not in index:
            raise ValueError(f"map sends {p.key} outside the evaluation set (to {q})")
        perm.append(index[q])
    return CoordPermutation(tuple(perm))


def preserves_code(perm: CoordPermutation, code: EvalCode) -> bool:
    """True iff permuting coordinates maps the code onto itself, checked by
    reducing every permuted generator row against the row space."""
    _, rref, pivots = code.reduced
    if len(perm.perm) != code.n:
        raise ValueError("permutation length must match the code length")
    return all(
        in_row_space(code.field, perm.apply_to(row), rref, pivots) for row in code.encodings
    )


def verify_faithful(group: AutGroup, points: Sequence[ProjPoint], code: EvalCode) -> CheckReport:
    """Certify that the group acts on the code through distinct coordinate
    permutations that all preserve the code.

    Passes iff every induced permutation preserves the code and only the
    identity element induces the identity permutation; on success the image
    of the permutation representation has order exactly |group|.

    The certificate works on the generators and a projective frame in the
    evaluation set, and builds no element's permutation.  The generators
    must map the points onto themselves and preserve the code; a
    permutation group preserves a code iff its generators do.  A frame (3
    distinct points of P^1, or 4 points of P^2 with no three collinear)
    fixes a projective map, so `certify_generated` can show from the
    frame's images alone that `group.elements` lists each element of the
    generated group once.  Then every element preserves the code, and
    distinct elements move the frame differently, so they induce distinct
    permutations: the image has order |group|.  This is exact for any
    AutGroup.  When a step fails (no frame in the points, an element
    outside the generated group, an element listed twice, a generator
    that breaks the code), the elements are scanned in order for the first
    witness, so a failed report names the same element and reason as an
    element-by-element check.
    """
    if _certified_on_generators(group, points, code):
        return CheckReport(
            "faithful_embedding",
            True,
            {"group_order": group.order, "image_order": group.order},
        )
    return _scan_elements(group, points, code)


def _certified_on_generators(group: AutGroup, points, code: EvalCode) -> bool:
    try:
        generators = [permutation_of(g, points) for g in group.generators]
        if not all(preserves_code(sigma, code) for sigma in generators):
            return False
    except ValueError:  # a map leaves the evaluation set; the scan reports it
        return False
    frame = find_frame(points)
    return frame is not None and certify_generated(group, [points[i] for i in frame])


def _scan_elements(group: AutGroup, points, code: EvalCode) -> CheckReport:
    """Element-by-element check in element order."""
    images = set()
    for gamma in group.elements:
        sigma = permutation_of(gamma, points)
        if not preserves_code(sigma, code):
            return CheckReport(
                "faithful_embedding",
                False,
                {"reason": "induced permutation does not preserve the code"},
                witness={"element": list(gamma.key)},
            )
        if sigma.is_identity() and not gamma.is_identity():
            return CheckReport(
                "faithful_embedding",
                False,
                {"reason": "non-identity element acts trivially on the evaluation set"},
                witness={"element": list(gamma.key)},
            )
        images.add(sigma.perm)
    passed = len(images) == group.order
    return CheckReport(
        "faithful_embedding",
        passed,
        {"group_order": group.order, "image_order": len(images)},
    )
