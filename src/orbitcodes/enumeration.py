"""The exact minimum distance by enumeration: a scan of messages up to
scalars, and the Brouwer-Zimmermann search.

`code_analysis.min_distance_exact` imports this module when it is called,
so only a `distance` whose geometry does not prove the distance
(`construction.certified_distance`) compiles it; `automorphisms`, which
loads `code_analysis` for the faithful-action certificate, never does.
Both methods read the code's rows of canonical encodings,
`EvalCode.encodings`, and its one reduction of them, `EvalCode.reduced`.

Both work up to scalars, since a codeword and its nonzero multiples have
the same weight, on integer-encoded symbols.  The scan visits one message
per scalar class, (q^k - 1)/(q - 1) in all.  It enumerates all but the
last two coefficients and counts the rest in one pass: for each position,
the cells (s2, s) of the q^2 codewords below a node where that position is
zero form a line, all of the grid, or nothing, so one Counter over the n
positions gives the weights of all q^2 codewords at once.

The Brouwer-Zimmermann search (Zimmermann 1996; Grassl 2006) forms only
the codewords of low information weight on greedy disjoint information
sets, and stops once the lower bound this proves on every other codeword
reaches the lightest weight found.  It counts the q - 1 multiples of the
last row of each message in one pass, the scan's trick one level deep.
It wins on high-rate codes and loses on small ranks over large fields, so
`min_distance_exact` estimates both costs from q, the rank, the designed
bound and the information-set ranks, and runs the cheaper method.

Neither method reads the designed bound: each only computes the minimum
distance d, and `min_distance_exact` passes d to
`construction.check_distance_bound`, so a `distance_bound` report names d
whichever method ran and whatever the guard.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from itertools import chain, repeat
from math import comb, inf
from operator import getitem

from .errors import PreconditionError
from .gf import FieldSpec, _Memo
from .construction import EvalCode, check_distance_bound, rank_and_rref


def min_distance_exact(code: EvalCode, max_messages: int) -> int:
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

    The distance found, by either method, goes through
    `construction.check_distance_bound`: a distance below the designed
    bound means the code was built from a broken construction, and raises
    CheckFailure with a `distance_bound` report naming it, rather than
    being returned quietly.
    """
    q, k = code.field.order, code.rank
    if k == 0:
        raise ValueError("cannot measure the distance of the zero code")
    classes = (q**k - 1) // (q - 1)
    sets, estimate = _information_sets(code, classes) if k > 3 else ((), 0)
    d = None
    if sets:
        _check_guard(estimate, max_messages)
        try:
            d = _bz_distance(code, sets, min(classes, max_messages))
        except PreconditionError:
            if classes > max_messages:
                raise
    if d is None:
        _check_guard(classes, max_messages)
        d = _scan_distance(code)
    return check_distance_bound(code, d)


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
        cost, codewords, t = _bz_plan(q, k, ranks, target, cap=scan)
        if _bz_plan(q, k, ranks, target, -(-free // k), scan)[0] >= min(cost, scan):
            break
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
    spec, q, k = code.field, code.field.order, code.rank
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
            best = min(best, _lightest(spec, sets[j][0], cells[j], u))
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
    """The exact minimum weight from one message per scalar class, the
    member whose leading coefficient is 1.

    The recursion stops one level early, at a parent node that has fixed
    all but the last two coefficients (s2, s), and one Counter pass over
    the n positions counts the zeros of all q^2 codewords acc + s2*r + s*l
    below it, where r and l are the last two reduced rows.  Each position
    is zero on a known set of cells s2*q + s: the q cells of the line
    s2*r[j] + s*l[j] = -acc[j] when (r[j], l[j]) != (0, 0), every cell
    when r[j] = l[j] = acc[j] = 0, and none when only acc[j] is nonzero.
    The parent's minimum is then the nonzero count minus the largest cell
    count.

    The scan reads no bound: it visits every class and returns their
    minimum, which `min_distance_exact` alone checks against the designed
    bound.
    """
    spec = code.field
    q = spec.order
    k, rows, _ = code.reduced
    n = code.n
    if k == 1:
        return n - rows[0].count(0)

    # add[a][b] is a + b; a row is built when an acc value a first needs it
    add = _Memo(lambda a: [spec.add(a, b) for b in range(q)])
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
            best = min(best, nonzero - max(zeros.values(), default=0))
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
    to no cell.

    The cells are those of a line s = b + c*s2 or of a row s2 = b, and each
    cell tuple is made once, when a table first needs it, and shared by
    every table that meets it; a scan which reads few cells, as a rank-2
    code over a large field does, never makes q^2 of them."""
    q = spec.order
    offsets = range(0, q * q, q)  # s2*q for each s2
    mul = spec.mul
    steps = _Memo(lambda c: spec.scale(c, range(q)) if c else (0,) * q)  # c*s2 for each s2

    def line(cb):
        c, b = cb
        return tuple(map(operator.add, offsets, map(add[b].__getitem__, steps[c])))

    lines = _Memo(line)
    rows = _Memo(lambda s2: tuple(range(s2 * q, (s2 + 1) * q)))

    def table(rj: int, lj: int) -> _Memo:
        if lj:
            # s = u*acc + (u*rj)*s2 with u = -1/lj
            u = spec.neg(spec.inv(lj))
            c = mul(u, rj)
            return _Memo(lambda a: lines[c, mul(u, a)])
        if rj:
            u = spec.neg(spec.inv(rj))  # s2 = -acc/rj, any s
            return _Memo(lambda a: rows[mul(u, a)])
        every = (q * q,)
        return _Memo(lambda a: () if a else every)

    tables = {pair: table(*pair) for pair in set(zip(r, l))}
    return [tables[pair] for pair in zip(r, l)]
