"""Linear-code analytics over small finite fields.

Exact minimum distance by the cheaper of two exact methods, and
certification that a matrix group acting on the evaluation set embeds
faithfully into the code's permutation automorphism group.  The code,
`EvalCode`, and its row reduction, `rank_and_rref`, live in `construction`,
which builds the code and reports its rank, so that `construct` and
`verify` never load this module.  Every method here reads the code's one
reduction, `EvalCode.reduced`, which also gives its rank.  The membership
test works, like the reduction, on rows of canonical encodings with the
field's `axpy` kernel; `EvalCode.matrix` keeps the field elements as the
public view.

The faithful-action certificate reads the generators' permutations and
looks for one projective frame in the evaluation set (see
`verify_faithful`); the element-by-element scan is its fallback.

Both distance methods work up to scalars, since a codeword and its nonzero
multiples have the same weight, on integer-encoded symbols.  The scan
visits one message per scalar class, (q^k - 1)/(q - 1) in all.  It
enumerates all but the last two coefficients and counts the rest in one
pass: for each position, the cells (s2, s) of the q^2 codewords below a
node where that position is zero form a line, all of the grid, or nothing,
so one Counter over the n positions gives the weights of all q^2 codewords
at once.  A node whose lightest codeword breaks the designed bound walks
its cells in message order, which keeps the first violating message, and
so every report, the one the full enumeration gives.

The Brouwer-Zimmermann search (Zimmermann 1996; Grassl 2006) forms only
the codewords of low information weight on greedy disjoint information
sets, and stops once the lower bound this proves on every other codeword
reaches the lightest weight found.  It counts the q - 1 multiples of the
last row of each message in one pass, the scan's trick one level deep.
It wins on high-rate codes and loses on small ranks over large fields, so
`min_distance_exact` estimates both costs from q, the rank, the designed
bound and the information-set ranks, and runs the cheaper method.  When
BZ meets a weight below the designed bound, the scan runs again if the
guard allows it, so that the report is the scan's.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from itertools import chain, repeat
from math import comb, inf
from operator import getitem

from .errors import CheckFailure, CheckReport, PreconditionError
from .gf import FieldSpec, _Memo, _Value
from .geometry import ProjPoint
from .autgroup import AutGroup, ProjMap, find_frame
from .construction import EvalCode, rank_and_rref

DEFAULT_MESSAGE_GUARD = 2**24


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
    """Minimum Hamming weight over all nonzero codewords, by the cheaper of
    two exact methods.

    Both form codewords up to nonzero scalars, since a codeword and its
    multiples have the same weight.  The scan (`_scan_distance`) forms one
    codeword per scalar class of messages, (q^rank - 1)/(q - 1) of them.
    Brouwer-Zimmermann (`_bz_distance`) forms only the codewords of low
    information weight on a few disjoint information sets, until the lower
    bound it has proved on every other codeword reaches the lightest weight
    it found.  The choice is made before either runs, from q, the rank, the
    length, the designed bound and the ranks of the information sets
    (`_information_sets`).  A rank of at most 3 always takes the scan,
    which then reads at most two parent nodes.

    `max_messages` caps the codewords the chosen method forms: the scalar
    classes for the scan; for BZ its codewords, estimated before the run
    up to the designed bound and counted again before each weight round,
    since a distance above the designed bound takes it further.  When BZ
    passes the scan's count, the scan runs instead if it fits the guard.

    Every codeword weight met is checked against the designed bound; a
    violation means the code was built from a broken construction and
    raises CheckFailure rather than returning a too-small distance quietly.
    The report names the first violating weight in the scan's message
    order: when BZ meets a violation, the scan runs again if it fits the
    guard.  Outside the guard the report gives the lightest weight of the
    first BZ round that broke the bound.
    """
    q, k = code.field.order, code.rank
    if k == 0:
        raise ValueError("cannot measure the distance of the zero code")
    classes = (q**k - 1) // (q - 1)
    sets, estimate = _information_sets(code, classes) if k > 3 else ((), 0)
    if sets:
        _check_guard(estimate, max_messages)
        try:
            return _bz_distance(code, sets, min(classes, max_messages))
        except (CheckFailure, PreconditionError):
            if classes > max_messages:
                raise
    _check_guard(classes, max_messages)
    return _scan_distance(code)


def _check_guard(codewords: int, guard: int):
    if codewords > guard:
        raise PreconditionError(
            "enumeration_guard_exceeded",
            f"{codewords} codewords up to scalars exceed the guard {guard}; "
            "raise max_messages to force",
            {"messages": codewords, "guard": guard},
        )


def _information_sets(code: EvalCode, classes: int):
    """The first sets of `_greedy_sets` that BZ runs on and its estimated
    codewords, or ((), 0) when the scan of `classes` scalar classes is the
    cheaper method.

    The search stops when the sets found, or as many sets of full rank as
    the unused columns could still hold, cannot beat the cost found so far
    or the scan's (`_bz_plan`).
    """
    q, k, target = code.field.order, code.rank, max(code.distance_bound, 1)
    scan = classes / 4  # in BZ codewords, each about four scan classes
    free = sum(map(any, zip(*code.reduced[1])))  # the nonzero columns
    sets = []
    for rows, r in _greedy_sets(code):
        sets.append((rows, r))
        free -= r
        ranks = [r for _, r in sets]
        found = _bz_plan(q, k, ranks, target, cap=scan)[0]
        if _bz_plan(q, k, ranks, target, -(-free // k), scan)[0] >= min(found, scan):
            break
    cost, codewords, t = _bz_plan(q, k, [r for _, r in sets], target, cap=scan)
    return (sets[:t], codewords) if cost < scan else ((), 0)


def _greedy_sets(code: EvalCode):
    """Disjoint information sets, as (rows, r): rows systematic on k pivots,
    r of them in columns no earlier set used.

    The first set is `code.reduced`, of rank k.  Each next one reduces the
    rows with the unused nonzero columns first: its pivots among them are
    the r new positions, and its other k - r pivots reuse earlier columns.
    """
    spec, n = code.field, code.n
    k, rows, pivots = code.reduced
    yield rows, k
    unused = [j for j in range(n) if j not in pivots and any(row[j] for row in rows)]
    while unused:
        rest = set(unused)
        order = unused + [j for j in range(n) if j not in rest]
        _, reduced, piv = rank_and_rref(spec, [[row[j] for j in order] for row in rows])
        place = sorted(range(n), key=order.__getitem__)  # column j sits at place[j]
        new = {order[c] for c in piv if c < len(unused)}
        yield [tuple(row[c] for c in place) for row in reduced], len(new)
        unused = [j for j in unused if j not in new]


def _bz_plan(q: int, k: int, ranks, target: int, more: int = 0, cap=inf):
    """(cost, codewords, sets) of the cheapest prefix of the information
    sets of ranks `ranks`, then `more` sets of full rank, on which BZ
    proves the lower bound `target` before the weight k; cost is inf when
    no prefix does below `cap`.

    A set of rank r adds max(0, w + 1 - (k - r)) to the bound once the
    messages of weight up to w are formed on it, and is walked only from
    the first w where that is positive; by then it has formed c[w], the
    sum of C(k, u) (q - 1)^(u - 1) over u <= w.  The cost adds k^2 q
    codewords per set, about the price of its row reduction, and the
    set-up of its tables.
    """
    c = [0]
    for u in range(1, k):
        c.append(c[-1] + comb(k, u) * (q - 1) ** (u - 1))
    per_set = k * k * q
    lower, active = [0] * k, [0] * k
    best = (inf, 0, 0)
    for t, r in enumerate(chain(ranks, repeat(k, more)), 1):
        if t * per_set >= min(best[0], cap):
            break
        for w in range(max(1, k - r), k):
            lower[w] += w + 1 - k + r
            active[w] += 1
        w = next((w for w in range(1, k) if lower[w] >= target), None)
        if w is not None and active[w] * c[w] + t * per_set < best[0]:
            best = (active[w] * c[w] + t * per_set, active[w] * c[w], t)
    return best


def _bz_distance(code: EvalCode, sets, budget: int) -> int:
    """Brouwer-Zimmermann: the exact minimum weight from the codewords of
    low information weight on disjoint information sets.

    In set j the rows are systematic on k pivots, r_j of them new.  A
    codeword whose message has weight above w on every set j has at least
    w + 1 - (k - r_j) nonzeros on the new pivots of each, so after the
    weights up to w it weighs at least the sum of max(0, w + 1 - (k - r_j)).
    Round w forms the weight-w messages on each set where that term is
    positive, and the lower weights of a set whose term just became
    positive; the search stops once the bound reaches the lightest weight
    found, or after the weight k on the first set, which forms every
    codeword.  Raises the guard error once the codewords formed pass
    `budget`, counted before each round.
    """
    spec, q, k, bound = code.field, code.field.order, code.rank, code.distance_bound
    ranks = [r for _, r in sets]
    # tables[v][a] is the s != 0 with a + s*v = 0, q when a = v = 0, else 0
    tables = _Memo(
        lambda v: spec.scale(spec.neg(spec.inv(v)), range(q)) if v else (q,) + (0,) * (q - 1)
    )
    cells = [[[tables[v] for v in row] for row in rows] for rows, _ in sets]
    done = [0] * len(sets)
    best, formed = code.n + 1, 0
    for w in range(1, k + 1):
        todo = [
            (j, u)
            for j, r in enumerate(ranks if w < k else ranks[:1])
            if w + r >= k
            for u in range(done[j] + 1, w + 1)
        ]
        formed += sum(comb(k, u) * (q - 1) ** (u - 1) for _, u in todo)
        _check_guard(formed, budget)
        for j, u in todo:
            done[j] = u
            light = _lightest(spec, sets[j][0], cells[j], u)
            if light < bound:
                raise CheckFailure(
                    CheckReport("distance_bound", False, {"weight": light, "bound": bound})
                )
            best = min(best, light)
        if w == k or sum(max(0, w + 1 - k + r) for r in ranks) >= best:
            return best


def _lightest(spec: FieldSpec, rows, cells, w: int) -> int:
    """The lightest codeword whose message on `rows` has weight w, over one
    message per scalar class: the one whose first nonzero coefficient is 1.

    Each tree node adds one row with one `FieldSpec.axpy`, and the last row
    is counted for all q - 1 multiples in one pass: position j of acc + s*r
    is zero for the one s = -acc[j]/r[j] when r[j] != 0, and for every s
    when r[j] = acc[j] = 0, which `cells[i][j][acc[j]]` names (q for every
    s, 0 for none).
    """
    k, n, q = len(rows), len(rows[0]), spec.order
    if w == 1:
        return n - max(row.count(0) for row in rows)
    best = n + 1

    def walk(start: int, acc, left: int):
        nonlocal best
        if left:
            for i in range(start, k - left):
                for c in range(1, q):
                    walk(i + 1, spec.axpy(c, rows[i], acc), left - 1)
            return
        for i in range(start, k):
            zeros = Counter(map(getitem, cells[i], acc))
            every = zeros.pop(q, 0)
            zeros.pop(0, None)
            best = min(best, n - every - max(zeros.values(), default=0))

    for i in range(k - w + 1):
        walk(i + 1, rows[i], w - 2)
    return best


def _scan_distance(code: EvalCode) -> int:
    """The exact minimum weight from one message per scalar class, in the
    lexicographic order of the full enumeration.

    The scan takes from each class the member whose leading coefficient is
    1, which is the class's first member in that order.  The recursion
    stops one level early, at a parent node that has fixed all but the last
    two coefficients (s2, s), and one Counter pass over the n positions
    counts the zeros of all q^2 codewords acc + s2*r + s*l below it, where
    r and l are the last two reduced rows.  Each position is zero on a
    known set of cells s2*q + s: the q cells of the line
    s2*r[j] + s*l[j] = -acc[j] when (r[j], l[j]) != (0, 0), every cell
    when r[j] = l[j] = acc[j] = 0, and none when only acc[j] is nonzero.
    The parent's minimum is then the nonzero count minus the largest cell
    count.

    Only a parent whose minimum breaks the designed bound walks its cells
    in message order, (0, 1) and then (1, s) for the parent with no nonzero
    coefficient yet, every cell from (0, 0) for any other, so the first
    violating message, and the report, is the one the full enumeration
    would meet first.
    """
    spec = code.field
    q = spec.order
    k, rows, _ = code.reduced
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
    must map the points onto themselves and preserve the code;
    `group.elements` lists the group they generate, each element once (see
    `autgroup`), so every element preserves the code.  A frame (3 distinct
    points of P^1, or 4 points of P^2 with no three collinear) fixes a
    projective map, so with a frame in the points only the identity acts
    trivially on them, and the image has order |group|.  When a step fails
    (a generator that breaks the code, no frame in the points), the
    elements are scanned in order for the first witness, so a failed
    report names the same element and reason as an element-by-element
    check.  A map that sends a point outside the evaluation set gets no
    report: the scan raises the ValueError of `permutation_of` for the
    first element that does, as that check does.
    """
    if not _certified_on_generators(group, points, code):
        failure = _scan_elements(group, points, code)
        if failure:
            return failure
    details = {"group_order": group.order, "image_order": group.order}
    return CheckReport("faithful_embedding", True, details)


def _certified_on_generators(group: AutGroup, points, code: EvalCode) -> bool:
    try:
        if not all(preserves_code(permutation_of(g, points), code) for g in group.generators):
            return False
    except ValueError:  # a map leaves the evaluation set; the scan raises it
        return False
    return find_frame(points) is not None


def _scan_elements(group: AutGroup, points, code: EvalCode) -> CheckReport | None:
    """Element-by-element check in element order: the report of the first
    element that fails, or None.  When every element passes, only the
    identity acts trivially, so the action on the points is injective and
    its image has order |group|."""
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
    return None
