"""Rank, exact distance, induced coordinate permutations, and the faithful
embedding certificate.

Rank values are cross-checked with an independent cofactor-expansion
determinant oracle, and the elimination on encodings against the
FieldElement elimination it replaced; distances are cross-checked against
closed forms (maximum-distance-separable values on the line, the grid
structure on the plane instances) and, with the bound reports, against the
full enumeration of every nonzero message, kept here as an oracle.  The
faithful-action certificate is compared with the element-by-element
check, kept here as `oracle_verify_faithful`, on the built-in groups and
on hand-built groups that leave the certificate for the fallback scan.
"""

import itertools
import random

import pytest

from orbitcodes import (
    CheckFailure,
    CheckReport,
    CoordPermutation,
    EvalCode,
    PreconditionError,
    builtin_instance,
    close,
    identity_map,
    make_field,
    min_distance_exact,
    permutation_of,
    point,
    preserves_code,
    rank_and_rref,
    root_of_unity,
    run_construction,
    verify_faithful,
)
from orbitcodes import code_analysis
from orbitcodes.code_analysis import DEFAULT_MESSAGE_GUARD, in_row_space
from orbitcodes.geometry import projective_reps


# ---------------------------------------------------------------------------
# determinant oracle (cofactor expansion, independent of Gaussian elimination)


def oracle_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[row[t] for t in range(n) if t != j] for row in rows[1:]]
        term = rows[0][j] * oracle_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def oracle_full_row_rank(rows):
    """True iff some square column-minor of full height is nonsingular."""
    k = len(rows)
    n = len(rows[0])
    for cols in itertools.combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        if oracle_det(sub):
            return True
    return False


# ---------------------------------------------------------------------------
# rank / rref


def oracle_rank_and_rref(rows):
    """The elimination on FieldElement rows that the encoding version
    replaced: same pivoting, element operators throughout."""
    work = [list(r) for r in rows]
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
        inv = work[r][col].inv()
        work[r] = [c * inv for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return r, tuple(tuple(row) for row in work[:r]), tuple(pivots)


def oracle_in_row_space(vector, rref, pivots):
    residue = list(vector)
    for row, col in zip(rref, pivots):
        c = residue[col]
        if c:
            residue = [a - c * b for a, b in zip(residue, row)]
    return not any(residue)


def encs(rows):
    return [[c.enc for c in row] for row in rows]


def test_rank_of_identity():
    F5 = make_field(5, 1)
    one, zero = F5.one(), F5.zero()
    rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
    rank, rref, pivots = rank_and_rref(F5, encs(rows))
    assert rank == 4
    assert pivots == (0, 1, 2, 3)


def test_rank_fermat_matrix(built):
    code = built[("fermat", 3)].code
    rank, _, _ = rank_and_rref(code.field, code.encodings)
    assert rank == 3
    assert oracle_full_row_rank(code.matrix)


def test_rank_fermat_m2_matrix():
    res = run_construction(builtin_instance("fermat", 3, m=2))
    rank, _, _ = rank_and_rref(res.code.field, res.code.encodings)
    assert rank == 6
    assert oracle_full_row_rank(res.code.matrix)


def test_rank_detects_dependent_rows():
    F5 = make_field(5, 1)
    two = F5.from_int(2)
    row = [F5.one(), two, F5.from_int(4)]
    rows = [row, [two * c for c in row]]
    rank, _, _ = rank_and_rref(F5, encs(rows))
    assert rank == 1


def test_row_space_membership():
    F5 = make_field(5, 1)
    one, zero, two = F5.one(), F5.zero(), F5.from_int(2)
    rows = [[one, zero, two], [zero, one, one]]
    rank, rref, pivots = rank_and_rref(F5, encs(rows))
    assert in_row_space(F5, (2, 1, 0), rref, pivots)
    assert not in_row_space(F5, (0, 0, 1), rref, pivots)


def random_matrix(rng, field):
    """Rows of elements in a tall, square or wide shape, with zero rows,
    repeated rows, multiples and sums of earlier rows, so that most of
    them are rank deficient."""
    els = list(field.elements())
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([field.zero()] * ncols)
        elif rows and kind < 0.25:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.45:
            c, a, b = rng.choice(els), rng.choice(rows), rng.choice(rows)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([rng.choice(els) if rng.random() < 0.7 else field.zero()
                         for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4), (3, 4)])
def test_rref_and_membership_match_the_element_oracle(p, k):
    """The encoding elimination gives the element oracle's rank, reduced
    rows and pivots, and the same membership answers, on seeded random
    matrices over every small field and GF(81)."""
    field = make_field(p, k)
    rng = random.Random(7000 + p**k)
    els = list(field.elements())
    deficient = 0
    for _ in range(150):
        rows = random_matrix(rng, field)
        rank, rref, pivots = rank_and_rref(field, encs(rows))
        want = oracle_rank_and_rref(rows)
        assert (rank, rref, pivots) == (want[0], tuple(map(tuple, encs(want[1]))), want[2])
        deficient += rank < min(len(rows), len(rows[0]))
        ncols = len(rows[0])
        probes = [[rng.choice(els) for _ in range(ncols)] for _ in range(3)]
        c = rng.choice(els)
        probes.append([x + c * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
        for v in probes:
            got = in_row_space(field, encs([v])[0], rref, pivots)
            assert got == oracle_in_row_space(v, want[1], want[2])
    assert 20 < deficient < 150  # both full-rank and deficient shapes occur


# ---------------------------------------------------------------------------
# exact distance


def test_distance_fermat_q3(built):
    code = built[("fermat", 3)].code
    assert min_distance_exact(code) == 12 == (3 + 1) * 3


@pytest.mark.parametrize("q,expected", [(5, 3), (7, 4), (9, 5)])
def test_distance_projline_matches_mds_value(q, expected, built):
    code = built[("projline", q)].code
    d = min_distance_exact(code)
    # the line codes are maximum distance separable: d = n - k + 1
    assert d == expected == code.n - code.rank + 1


def test_distance_weight_witness_fermat(built):
    # the function y - b vanishes exactly on one grid row of the evaluation set
    res = built[("fermat", 3)]
    code = res.code
    F9 = res.instance.working
    b = res.instance.Qprime.coords[1]
    weights = []
    row_y = code.matrix[2]
    row_const = code.matrix[0]
    word = [y - b * c for y, c in zip(row_y, row_const)]
    zeros = [i for i, v in enumerate(word) if not v]
    assert len(zeros) == 4
    assert sum(1 for v in word if v) == 12
    # all zeros sit at points whose second affine coordinate equals b
    for i in zeros:
        aff = code.points[i].dehomogenized()
        assert aff[1] == b


def test_distance_scan_enforces_bound():
    F5 = make_field(5, 1)
    one, zero = F5.one(), F5.zero()
    pts = (point(F5, 0, 1), point(F5, 1, 1), point(F5, 1, 2))
    rows = ((one, one, one), (zero, one, F5.from_int(2)))
    bad = EvalCode(F5, pts, rows, distance_bound=3)  # true distance is 1
    with pytest.raises(CheckFailure) as exc:
        min_distance_exact(bad)
    assert exc.value.report.name == "distance_bound"


def test_distance_guard(built):
    """The guard caps the codewords up to scalars that the chosen method
    forms: the scan's scalar classes, and BZ's codewords, estimated before
    the run from the designed bound."""
    # fermat q=3 is [16, 3]_9: the scan forms its (9^3 - 1)/8 = 91 classes.
    # projline q=9 is [9, 5, 5]_9 on information sets of ranks 5 and 4:
    # BZ proves (w + 1) + w >= 5 at w = 2, after 5 + C(5, 2)*8 = 85
    # codewords on each set.
    for key, formed, d in [(("fermat", 3), 91, 12), (("projline", 9), 2 * 85, 5)]:
        code = built[key].code
        with pytest.raises(PreconditionError) as exc:
            min_distance_exact(code, max_messages=formed - 1)
        assert exc.value.kind == "enumeration_guard_exceeded"
        assert exc.value.details == {"messages": formed, "guard": formed - 1}
        assert min_distance_exact(code, max_messages=formed) == d


def test_distance_guard_counts_bz_during_the_run(built):
    # with the designed bound 1 the estimate is the 5 rows of the first set,
    # but d = 5 takes BZ to w = 4 on that set: 5 + 80 + 640 + 2560 codewords
    loose = with_bound(built[("projline", 9)].code, 1)
    sets, estimate = code_analysis._information_sets(loose, 7381)
    assert ([r for _, r in sets], estimate) == ([5], 5)
    for guard, formed in [(169, 725), (3284, 3285)]:
        with pytest.raises(PreconditionError) as exc:
            min_distance_exact(loose, max_messages=guard)
        assert exc.value.details == {"messages": formed, "guard": guard}
    assert min_distance_exact(loose, max_messages=3285) == 5


# ---------------------------------------------------------------------------
# the scan up to scalars against the full enumeration


def oracle_min_distance_exact(code, max_messages=DEFAULT_MESSAGE_GUARD):
    """The full enumeration: every one of the q^rank - 1 nonzero messages,
    in lexicographic order, with its weight checked against the bound."""
    q = code.field.order
    k, rref, _ = oracle_rank_and_rref(code.matrix)
    if k != code.rank:
        raise ValueError("the code's rank disagrees with the oracle reduction")
    if k == 0:
        raise ValueError("cannot measure the distance of the zero code")
    total = q**k - 1
    if total > max_messages:
        raise PreconditionError(
            "enumeration_guard_exceeded",
            f"{total} messages exceed the guard {max_messages}; raise max_messages to force",
            {"messages": total, "guard": max_messages},
        )
    els = list(code.field.elements())
    add = [[(a + b).enc for b in els] for a in els]
    neg = [(-a).enc for a in els]
    scaled = [[[(s * c).enc for c in row] for s in els] for row in rref]
    n = code.n
    bound = code.distance_bound
    best = n + 1

    def scan(level: int, acc: list[int], started: bool):
        nonlocal best
        if level == k - 1:
            # acc + c*row == 0 at position j iff row[j] == -acc[j]
            neg_acc = [neg[a] for a in acc]
            leaf = scaled[level]
            for s in range(0 if started else 1, q):
                row = leaf[s]
                w = sum(1 for x, y in zip(neg_acc, row) if x != y)
                if w < bound:
                    raise CheckFailure(
                        CheckReport("distance_bound", False, {"weight": w, "bound": bound})
                    )
                if w < best:
                    best = w
            return
        for s in range(q):
            row = scaled[level][s]
            scan(level + 1, [add[aj][rj] for aj, rj in zip(acc, row)], started or s != 0)

    scan(0, [0] * n, False)
    return best


def distance_or_report(scan, code):
    try:
        return scan(code)
    except CheckFailure as exc:
        return exc.report


def assert_distance_matches_oracle(code):
    got = distance_or_report(min_distance_exact, code)
    assert got == distance_or_report(oracle_min_distance_exact, code)
    return got


def random_code(rng, field, max_messages=2**16):
    """A code of length <= 10 and rank 1..5, with at most `max_messages`
    nonzero messages, whose nominal rows include zero entries, repeated
    rows and scalar multiples of earlier rows."""
    els = list(field.elements())
    while True:
        n = rng.randint(1, 10)
        rows = []
        for _ in range(rng.randint(1, min(n, 7))):
            kind = rng.random()
            if rows and kind < 0.2:
                rows.append(rng.choice(rows))
            elif rows and kind < 0.35:
                c = rng.choice(els[1:])
                rows.append(tuple(c * x for x in rng.choice(rows)))
            else:
                rows.append(tuple(
                    rng.choice(els) if rng.random() < 0.7 else field.zero() for _ in range(n)
                ))
        rank = oracle_rank_and_rref(rows)[0]
        if 1 <= rank <= 5 and field.order**rank - 1 <= max_messages:
            return code_of(field, rows)


def code_of(field, rows, distance_bound=0):
    # the scan reads only the matrix; the points fix the length
    reps = list(projective_reps(field, 3))
    pts = tuple(reps[j % len(reps)] for j in range(len(rows[0])))
    return EvalCode(field, pts, tuple(rows), distance_bound=distance_bound)


def with_bound(code, distance_bound):
    """The same code with another designed bound."""
    return EvalCode(code.field, code.points, code.matrix, distance_bound)


def encoded_code(field, encodings, distance_bound):
    rows = tuple(tuple(field.from_enc(e) for e in row) for row in encodings)
    return code_of(field, rows, distance_bound)


def test_first_violating_message_is_reported():
    # over GF(3) the messages (0, 1) and (1, 0) meet the bound 7; the first
    # one to break it is (1, 1), of weight 4, and then (1, 2), of weight 6
    F3 = make_field(3, 1)
    r0 = (1, 0, 1, 1, 1, 1, 1, 1)
    r1 = (0, 1, 2, 2, 2, 2, 1, 1)
    code = encoded_code(F3, (r0, r1), distance_bound=7)
    rep = assert_distance_matches_oracle(code)
    assert rep.details == {"weight": 4, "bound": 7}


def test_first_violation_at_the_start_of_a_started_parent():
    # rank 3 over GF(3): every message (0, a, b) meets the bound 5, and the
    # first one to break it is (1, 0, 0), of weight 3, the cell (0, 0) of
    # the parent (1, *, *); the next is (1, 1, 0), of weight 4.  The last
    # column is zero in every row, so it is zero in every codeword.
    F3 = make_field(3, 1)
    r0 = (1, 0, 0, 0, 2, 1, 0, 0, 0)
    r1 = (0, 1, 0, 1, 1, 2, 0, 1, 0)
    r2 = (0, 0, 1, 1, 0, 1, 1, 2, 0)
    code = encoded_code(F3, (r0, r1, r2), distance_bound=5)
    assert assert_distance_matches_oracle(code).details == {"weight": 3, "bound": 5}
    assert assert_distance_matches_oracle(with_bound(code, 3)) == 3
    # without the first row the code is [9, 2, 5], and the root is the
    # parent with no nonzero coefficient: it takes the cells (0, 1), (1, s)
    pair = encoded_code(F3, (r1, r2), distance_bound=5)
    assert assert_distance_matches_oracle(pair) == 5


def test_rank_two_root_is_the_parent():
    # over GF(5) the first message, (0, 1), has weight 2 and breaks the
    # bound 3; the messages (1, s) all have weight at least 3
    F5 = make_field(5, 1)
    r0 = (1, 0, 1, 2, 3, 0)
    r1 = (0, 1, 0, 0, 4, 0)
    code = encoded_code(F5, (r0, r1), distance_bound=3)
    assert assert_distance_matches_oracle(code).details == {"weight": 2, "bound": 3}
    assert assert_distance_matches_oracle(with_bound(code, 2)) == 2
    # here (0, 1), (1, 0) and (1, 1) meet the bound 4 and (1, 2) is the
    # first to break it, with weight 3
    r1 = (0, 1, 2, 4, 1, 1)
    code = encoded_code(F5, (r0, r1), distance_bound=4)
    assert assert_distance_matches_oracle(code).details == {"weight": 3, "bound": 4}


@pytest.mark.parametrize("bound", [0, 4, 5])
def test_rank_one_is_the_weight_of_its_row(bound):
    # repeated rows and multiples reduce to one row of weight 4
    F9 = make_field(3, 2)
    row = (0, 3, 0, 1, 8, 0, 2)
    rows = (row, row, tuple(F9.mul(5, e) for e in row))
    got = assert_distance_matches_oracle(encoded_code(F9, rows, distance_bound=bound))
    if bound <= 4:
        assert got == 4
    else:
        assert got.details == {"weight": 4, "bound": 5}


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_scan_matches_full_enumeration_on_random_codes(p, k):
    rng = random.Random(1000 * p + k)
    field = make_field(p, k)
    failures = 0
    for _ in range(60):
        code = random_code(rng, field)
        d = assert_distance_matches_oracle(code)
        assert isinstance(d, int)
        bounded = with_bound(code, rng.randint(0, code.n + 1))
        failures += isinstance(assert_distance_matches_oracle(bounded), CheckReport)
    assert 0 < failures < 60  # both outcomes are exercised


def test_scan_matches_full_enumeration_on_builtins(built):
    for res in built.values():
        code = res.code
        if code.field.order**code.rank - 1 > DEFAULT_MESSAGE_GUARD:
            continue
        d = assert_distance_matches_oracle(code)
        assert d >= code.distance_bound
        for bound in (d + 1, code.n + 1):
            rep = assert_distance_matches_oracle(with_bound(code, bound))
            assert rep.name == "distance_bound" and not rep.passed


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann and the choice of method, against the scan and the
# full enumeration


def bz_on_every_set(code, budget=DEFAULT_MESSAGE_GUARD):
    """BZ on all the greedy information sets, whatever their cost."""
    return code_analysis._bz_distance(code, list(code_analysis._greedy_sets(code)), budget)


def assert_bz_matches_oracle(code):
    """BZ gives the exact distance, or a weight of the code below the bound
    (its own report, not necessarily the scan's first violation)."""
    want = distance_or_report(oracle_min_distance_exact, code)
    got = distance_or_report(bz_on_every_set, code)
    if isinstance(want, int):
        assert got == want
    else:
        d = oracle_min_distance_exact(with_bound(code, 0))
        assert got.name == "distance_bound" and not got.passed
        assert d <= got.details["weight"] < got.details["bound"] == code.distance_bound
    return want


def methods_taken(code, monkeypatch, **kwargs):
    """The distance and the methods `min_distance_exact` ran, in order."""
    taken = []
    for name in ("_scan_distance", "_bz_distance"):
        fn = getattr(code_analysis, name)

        def spy(*args, fn=fn, name=name):
            taken.append(name.strip("_").split("_")[0])
            return fn(*args)

        monkeypatch.setattr(code_analysis, name, spy)
    return distance_or_report(lambda c: min_distance_exact(c, **kwargs), code), taken


@pytest.mark.parametrize("family,q,m,method,d", [
    # rank 3: the scan, at most two parent nodes, whatever the field
    ("fermat", 3, 1, "scan", 12), ("fermat", 9, 1, "scan", 90), ("fermat", 16, 1, "scan", 272),
    ("bf", 2, 1, "scan", 36), ("bf", 3, 1, "scan", 288), ("projline", 5, 1, "scan", 3),
    # [7, 4]_7: 400 classes against BZ's 184 codewords and one set
    ("projline", 7, 1, "scan", 4),
    ("projline", 7, 2, "bz", 1), ("projline", 9, 1, "bz", 5), ("projline", 11, 1, "bz", 6),
    ("projline", 13, 1, "bz", 7), ("fermat", 3, 2, "bz", 8), ("fermat", 3, 3, "bz", 4),
    ("fermat", 4, 2, "bz", 15), ("bf", 2, 3, "bz", 12),
])
def test_method_taken_by_each_builtin(family, q, m, method, d, monkeypatch):
    code = run_construction(builtin_instance(family, q, m=m)).code
    assert methods_taken(code, monkeypatch) == (d, [method])


def test_greedy_sets_are_disjoint_and_systematic():
    F4 = make_field(2, 2)
    for code in [random_code(random.Random(seed), F4) for seed in range(40)]:
        k, n, used = code.rank, code.n, set()
        for rows, r in code_analysis._greedy_sets(code):
            # the rows span the code and are systematic: each row i has a
            # column e_i, and the first unused one is its new pivot if any
            assert rank_and_rref(F4, rows)[0] == k
            assert all(in_row_space(F4, row, *code.reduced[1:]) for row in rows)
            units = [[j for j in range(n) if all(row[j] == (i == t) for t, row in enumerate(rows))]
                     for i in range(k)]
            assert all(units)
            new = {min(set(cols) - used) for cols in units if set(cols) - used}
            assert len(new) == r >= 1
            used |= new
        # every nonzero column ends up in some set
        assert used == {j for j in range(n) if any(row[j] for row in code.encodings)}


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_bz_matches_full_enumeration_on_random_codes(p, k):
    rng = random.Random(3000 * p + k)
    field = make_field(p, k)
    partial = failures = 0
    for _ in range(60):
        code = random_code(rng, field)
        assert isinstance(assert_bz_matches_oracle(code), int)
        partial += any(r < code.rank for _, r in code_analysis._greedy_sets(code))
        bounded = with_bound(code, rng.randint(0, code.n + 1))
        failures += isinstance(assert_bz_matches_oracle(bounded), CheckReport)
    assert partial and 0 < failures < 60


def high_rate_code(rng, field):
    """A code of rank 4 to 6 and length at most 3k, systematic on its first
    k columns, with zero and repeated columns, and at most 2^15 messages."""
    els = list(field.elements())
    while True:
        k = rng.randint(4, 6)
        if field.order**k <= 2**17:
            break
    n = rng.randint(k + 1, 3 * k)
    cols = [tuple(els[1] if i == j else els[0] for i in range(k)) for j in range(k)]
    for _ in range(n - k):
        kind = rng.random()
        if kind < 0.1:
            cols.append((els[0],) * k)
        elif kind < 0.2:
            cols.append(rng.choice(cols))
        else:
            cols.append(tuple(rng.choice(els) for _ in range(k)))
    return code_of(field, tuple(zip(*cols)))


@pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_choice_matches_scan_and_full_enumeration(p, k, monkeypatch):
    """The chosen method gives the scan's distance or report, which is the
    full enumeration's, with bounds at and above d; both methods are taken."""
    rng = random.Random(5000 * p + k)
    field = make_field(p, k)
    seen = set()
    for _ in range(20):
        code = high_rate_code(rng, field)
        d = oracle_min_distance_exact(code)
        for bound in (0, d, d + 1, d + 3):
            bounded = with_bound(code, bound)
            want = d if bound <= d else distance_or_report(oracle_min_distance_exact, bounded)
            assert distance_or_report(code_analysis._scan_distance, bounded) == want
            got, taken = methods_taken(bounded, monkeypatch)
            assert got == want
            seen.add(taken[0])
            assert taken in (["scan"], ["bz"], ["bz", "scan"])
            assert (taken == ["bz", "scan"]) == (taken[0] == "bz" and bound > d)
    assert seen == {"scan", "bz"}


def test_bz_catches_up_the_lower_weights_of_a_partial_set():
    # information sets of ranks 5, 3 and 1 over GF(4), d = 3: the set of
    # rank 3 adds to the bound from w = 2 on, and a weight-3 codeword is
    # found only on its messages of weight 1
    F4 = make_field(2, 2)
    rows = [
        (1, 2, 0, 2, 1, 0, 0, 1, 1),
        (0, 1, 0, 0, 3, 3, 1, 3, 2),
        (2, 0, 1, 0, 0, 0, 3, 1, 0),
        (0, 0, 0, 1, 2, 2, 0, 2, 0),
        (2, 0, 0, 1, 0, 1, 0, 1, 0),
    ]
    code = encoded_code(F4, rows, distance_bound=0)
    assert [r for _, r in code_analysis._greedy_sets(code)] == [5, 3, 1]
    assert assert_bz_matches_oracle(code) == 3


@pytest.mark.parametrize("rows,rank,ranks,d", [
    # GF(2), three sets of ranks 3, 2 and 1
    ([(0, 1, 0, 1, 1, 1), (1, 1, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0)], 3, [3, 2, 1], 2),
    # two all-zero columns and a zero row
    ([(0, 0, 0, 1, 0, 0, 0, 1, 1, 1), (0, 0, 1, 0, 0, 0, 1, 1, 0, 0),
      (0, 0, 0, 1, 1, 0, 0, 0, 0, 1), (0, 0, 1, 1, 0, 1, 1, 1, 0, 0),
      (0,) * 10], 4, [4, 3, 1], 2),
])
def test_bz_on_partial_sets_and_zero_columns(rows, rank, ranks, d):
    F2 = make_field(2, 1)
    code = encoded_code(F2, rows, distance_bound=0)
    assert code.rank == rank
    assert [r for _, r in code_analysis._greedy_sets(code)] == ranks
    assert assert_bz_matches_oracle(code) == d
    for bound in (d, d + 1):
        assert_bz_matches_oracle(with_bound(code, bound))
        assert_distance_matches_oracle(with_bound(code, bound))


def test_sub_bound_weight_met_by_bz_gets_the_scan_report(monkeypatch):
    # over GF(5) the first row has weight 1 and the last weight 2; BZ meets
    # the first one, the scan's first violating message is (0, 0, 0, 0, 1)
    F5 = make_field(5, 1)
    rows = [
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 1, 1, 1, 1, 1),
        (0, 0, 1, 0, 0, 1, 2, 3, 4, 1),
        (0, 0, 0, 1, 0, 1, 3, 4, 2, 2),
        (0, 0, 0, 0, 1, 1, 0, 0, 0, 0),
    ]
    code = encoded_code(F5, rows, distance_bound=3)
    rep, taken = methods_taken(code, monkeypatch)
    assert taken == ["bz", "scan"]
    assert rep == distance_or_report(oracle_min_distance_exact, code)
    assert rep.details == {"weight": 2, "bound": 3}
    # outside the guard the scan does not run, and BZ's weight is reported
    classes = (5**5 - 1) // 4
    rep, taken = methods_taken(code, monkeypatch, max_messages=classes - 1)
    assert taken == ["bz"]
    assert rep.details == {"weight": 1, "bound": 3}


def test_bz_past_the_scan_count_hands_over_to_the_scan(monkeypatch):
    # the [12, 4, 9] Reed-Solomon code over GF(13) with the designed bound 5:
    # BZ plans two sets and w = 2, but d = 9 takes it to w = 4, where it
    # would form 2*652 + 12^3 = 3032 codewords, past the 2380 classes
    F13 = make_field(13, 1)
    xs = range(1, 13)
    rows = [tuple(F13.pow(x, e) for x in xs) for e in range(4)]
    code = encoded_code(F13, rows, distance_bound=5)
    assert methods_taken(code, monkeypatch) == (9, ["bz", "scan"])
    assert methods_taken(code, monkeypatch, max_messages=2380) == (9, ["bz", "scan"])
    # below the scan's count, BZ's own count is what passes the guard
    with pytest.raises(PreconditionError) as exc:
        min_distance_exact(code, max_messages=2379)
    assert exc.value.details == {"messages": 3032, "guard": 2379}


# ---------------------------------------------------------------------------
# permutations


def test_identity_permutation(built):
    res = built[("fermat", 3)]
    ident = identity_map(res.instance.working, 3)
    sigma = permutation_of(ident, res.points)
    assert sigma.is_identity()


def test_fermat_diagonal_induces_fixed_point_free_4_cycles(built):
    res = built[("fermat", 3)]
    gamma = res.instance.groups[0].generators[0]
    sigma = permutation_of(gamma, res.points)
    assert all(sigma.perm[j] != j for j in range(16))
    # order 4: applying four times is the identity
    perm = list(range(16))
    for _ in range(4):
        perm = [sigma.perm[i] for i in perm]
    assert perm == list(range(16))


def test_projline_translation_permutes_points(built):
    res = built[("projline", 5)]
    joint = res.instance.joint_group()
    translation = next(
        m for m in joint.elements
        if m.rows[0][0] == res.instance.working.one() and m.rows[0][1]
    )
    sigma = permutation_of(translation, res.points)
    assert sorted(sigma.perm) == list(range(5))
    assert not sigma.is_identity()


def test_permutation_requires_stable_set(built):
    res = built[("fermat", 3)]
    F9 = res.instance.working
    o, z = F9.one(), F9.zero()
    from orbitcodes import ProjMap

    shear = ProjMap(((o, z, o), (z, o, z), (z, z, o)), F9)
    with pytest.raises(ValueError):
        permutation_of(shear, res.points)


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        CoordPermutation((0, 0, 1))


def test_apply_to_moves_coordinates():
    sigma = CoordPermutation((1, 2, 0))
    assert sigma.apply_to(("a", "b", "c")) == ("c", "a", "b")


# ---------------------------------------------------------------------------
# code preservation


def test_identity_preserves_code(built):
    code = built[("fermat", 3)].code
    assert preserves_code(CoordPermutation(tuple(range(16))), code)


def test_every_group_permutation_preserves_code(built):
    for res in built.values():
        joint = res.instance.joint_group()
        for gamma in joint.elements:
            sigma = permutation_of(gamma, res.points)
            assert preserves_code(sigma, res.code)


def test_every_transposition_breaks_fermat3_code(built):
    """No transposition of the [16, 3]_9 code's coordinates, (0 1) among
    them, maps the code onto itself."""
    code = built[("fermat", 3)].code
    for i, j in itertools.combinations(range(16), 2):
        perm = list(range(16))
        perm[i], perm[j] = j, i
        assert not preserves_code(CoordPermutation(tuple(perm)), code), (i, j)


# ---------------------------------------------------------------------------
# faithfulness


def oracle_verify_faithful(group, points, code):
    """The element-by-element certificate: every element's permutation is
    checked against the code, with its own row reduction, in element order."""
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


def assert_matches_oracle(group, points, code):
    rep = verify_faithful(group, points, code)
    assert rep == oracle_verify_faithful(group, points, code)
    return rep


def test_faithful_matches_oracle_on_every_builtin_group(built):
    for res in built.values():
        for grp in res.instance.groups + (res.instance.joint_group(),):
            assert_matches_oracle(grp, res.points, res.code)


def _fermat3_shifted_y_code(res):
    """The one-row code spanned by y + 1 on the fermat q=3 evaluation set:
    the X scaling preserves it, the Y scaling does not."""
    one_row, _, y_row = res.code.matrix
    row = tuple(a + b for a, b in zip(y_row, one_row))
    return EvalCode(res.code.field, res.code.points, (row,), distance_bound=0)


def test_generator_that_breaks_the_code_gives_the_oracle_witness(built):
    res = built[("fermat", 3)]
    code = _fermat3_shifted_y_code(res)
    joint = res.instance.joint_group()
    rep = assert_matches_oracle(joint, res.points, code)
    assert not rep.passed
    assert rep.witness == {"element": list(joint.generators[1].key)}


def test_builtins_pass_on_the_certificate_without_the_scan(built, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the element scan ran")

    monkeypatch.setattr(code_analysis, "_scan_elements", no_scan)
    for res in built.values():
        for grp in res.instance.groups + (res.instance.joint_group(),):
            rep = verify_faithful(grp, res.points, res.code)
            assert rep.passed and rep.details["image_order"] == grp.order


def test_evaluation_set_without_a_frame_falls_back_to_the_scan():
    # the points (z^i : 0 : 1) all lie on the line Y = 0, so they hold no
    # frame of P^2; the X scaling permutes them regularly, and the Y
    # scaling fixes each of them
    F9 = make_field(3, 2)
    z = root_of_unity(F9, 4)
    one, zero = F9.one(), F9.zero()
    from orbitcodes import diagonal_map

    x_scaling, y_scaling = diagonal_map(F9, z, one, one), diagonal_map(F9, one, z, one)
    pts = close([x_scaling]).orbit(point(F9, 1, 0, 1))
    assert len(pts) == 4
    code = EvalCode(F9, pts, ((one,) * 4, tuple(p.dehomogenized()[0] for p in pts)),
                    distance_bound=3)
    for gens, passed in [([x_scaling], True), ([x_scaling, y_scaling], False)]:
        group = close(gens)
        assert not code_analysis._certified_on_generators(group, pts, code)
        rep = assert_matches_oracle(group, pts, code)
        assert rep.passed == passed
    assert rep.details == {
        "reason": "non-identity element acts trivially on the evaluation set"
    }


def test_a_generator_that_leaves_the_points_raises(built):
    # the shear X -> X + Z joined to G2 sends a point of the fermat q=3
    # evaluation set outside it: no report, the ValueError of the first
    # element that does, from the certificate and the oracle alike
    res = built[("fermat", 3)]
    F9 = res.instance.working
    o, z = F9.one(), F9.zero()
    from orbitcodes import ProjMap

    shear = ProjMap(((o, z, o), (z, o, z), (z, z, o)), F9)
    group = close(res.instance.groups[1].generators + (shear,))
    want = r"map sends \(1, 1, 2\) outside the evaluation set \(to \(0, 1, 2\)\)"
    for check in (verify_faithful, oracle_verify_faithful):
        with pytest.raises(ValueError, match=want):
            check(group, res.points, res.code)


def test_faithful_fermat_q3(built):
    res = built[("fermat", 3)]
    rep = verify_faithful(res.instance.joint_group(), res.points, res.code)
    assert rep.passed
    assert rep.details["image_order"] == 16


def test_faithful_projline(built):
    for q, order in [(5, 10), (7, 21), (9, 36)]:
        res = built[("projline", q)]
        rep = verify_faithful(res.instance.joint_group(), res.points, res.code)
        assert rep.passed
        assert rep.details["image_order"] == order == q * (q - 1) // 2


def test_faithful_bf(built):
    res = built[("bf", 2)]
    rep = verify_faithful(res.instance.joint_group(), res.points, res.code)
    assert rep.passed
    assert rep.details["image_order"] == 144


def test_faithful_on_every_builtin(built):
    for res in built.values():
        joint = res.instance.joint_group()
        rep = verify_faithful(joint, res.points, res.code)
        assert rep.passed
        assert rep.details["image_order"] == joint.order


def test_unfaithful_action_reports_witness():
    # a scaling that fixes a coordinate-axis point cannot be told apart from
    # the identity on that orbit
    F9 = make_field(3, 2)
    z = root_of_unity(F9, 4)
    one = F9.one()
    from orbitcodes import ProjMap

    gamma = ProjMap(
        ((z, F9.zero(), F9.zero()),
         (F9.zero(), one, F9.zero()),
         (F9.zero(), F9.zero(), one)),
        F9,
    )
    group = close([gamma], label="scalings")
    seed = point(F9, 0, 1, 2)  # fixed by every element of the group
    pts = group.orbit(seed)
    assert pts == (seed,)
    code = EvalCode(F9, pts, ((one,),), distance_bound=1)
    rep = assert_matches_oracle(group, pts, code)
    assert not rep.passed
    assert rep.witness is not None
