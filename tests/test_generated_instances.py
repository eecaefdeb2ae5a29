"""Valid instances drawn from a seeded generator, each checked against the
oracles of every fast path it runs.

An instance is a diagonal curve aX^d + bY^d + cZ^d over a small GF(p^k)
with d | p^k - 1 (so p does not divide d and the d-th roots of unity lie
in the field) and -a/b a d-th power (so the line Z = 0 meets the curve in
d points).  G1 = <diag(zeta, 1, 1)> and G2 = <diag(1, zeta, 1)> for the
primitive d-th root zeta of `root_of_unity`, Q is the first point of the
line section, Q' the first curve point with xyz != 0, and 1 <= m < d.
The divisor is then the whole line section and the evaluation set the
d^2 points of the joint orbit of Q', so each instance builds a code with
the designed bound d^2 - m*d, which Bezout makes the distance.

The generator draws from `random.Random(SEED)`, so every run checks the
same instances; the X^4 + 4Y^4 + 2Z^4 instance over GF(13), whose outputs
`tests/test_golden.py` pins, comes first.  On each instance:
`certified_distance` is `min_distance_exact`, and the full enumeration
`oracle_min_distance_exact` where q^rank is small; `rational_points` is
the brute scan `oracle_rational_points`; the joint group has order d^2,
as has the sympy `PermutationGroup` of the generators' permutations of S;
`verify_faithful` passes on G1, G2 and the joint group and gives the
report of the element scan `oracle_verify_faithful`; `distance` prints the same document when the
certificate is patched out, so the enumeration decides; G2 appended as a
third group changes neither the code matrix nor the distance; and m
raised to d fails condition_d with exit 1.

Each instance is also lifted to a working field GF(p^(k j)) with its own
field GF(p^k) as the ground (`lifted`): j = 2 for every instance, and
j = 4 for GF(9) and GF(16), the last over GF(2^16).  The lift builds the
same code: n, rank, designed bound, every check report, the joint order
and the certified distance, and the matrix once each lifted column is
matched, through `section_enc`, to the point it lies over.

Sixty more draws are cyclic pairs on P^1 (`cyclic_pair_document`):
G1 = <s -> zeta s> and G2 = <s -> zeta s + b> for a random zeta of random
order r | q - 1 and b != 0, Q = (1:0), a random affine Q' and m in {1, 2}.
Every draw's `construct` exits 0 or 1 without a traceback.  On the draws
that pass, `certified_distance` is `min_distance_exact` (where its guard
admits the code) and `oracle_min_distance_exact` (where q^rank is small),
the joint order is the sympy order, and `verify_faithful` gives the report
of the element scan on G1, G2 and the joint group.
"""

import json
import random
from math import gcd

import pytest

from orbitcodes import (
    PreconditionError,
    cli,
    construction,
    embedding,
    make_field,
    min_distance_exact,
    permutation_of,
    plane_curve,
    root_of_unity,
    run_construction,
    serialize,
)
from orbitcodes.cli import EXIT_CHECK_FAILED, EXIT_OK
from test_code_analysis import assert_matches_oracle, oracle_min_distance_exact
from test_geometry import oracle_rational_points
from test_golden import GF13_DOC

SEED = 3
COUNT = 6
# the fields drawn from, as (p, k), and the largest curve degree d
FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (2, 4)]
MAX_DEGREE = 4
# the largest q^rank the full enumeration is run on
ORACLE_MESSAGES = 2 * 10**5


def diagonal_document(rng):
    """The instance.v1 document of one valid diagonal instance, or None when
    the drawn curve has no point with xyz != 0."""
    d = rng.randrange(2, MAX_DEGREE + 1)
    p, k = rng.choice([(p, k) for p, k in FIELDS if (p**k - 1) % d == 0])
    F = make_field(p, k)
    q = F.order
    m = rng.randrange(1, d)
    a, c, w = (rng.randrange(1, q) for _ in range(3))
    b = F.neg(F.mul(a, F.inv(F.pow(w, d))))  # -a/b = w^d
    coeffs = {(d, 0, 0): a, (0, d, 0): b, (0, 0, d): c}
    curve = plane_curve(F, {e: F.from_enc(v) for e, v in coeffs.items()})
    Qprime = next((pt for pt in curve.rational_points(F) if all(pt.key)), None)
    if Qprime is None:
        return None
    zeta = root_of_unity(F, d).enc
    return {
        "schema": "orbitcodes.instance.v1",
        "ground_field": serialize.field_to_dict(F),
        "working_field": serialize.field_to_dict(F),
        "curve": serialize.curve_to_dict(curve),
        "groups": [{"label": "G1", "generators": [[zeta, 0, 0, 0, 1, 0, 0, 0, 1]]},
                   {"label": "G2", "generators": [[1, 0, 0, 0, zeta, 0, 0, 0, 1]]}],
        "Q": list(curve.line_section_points(F)[0].key),
        "Qprime": list(Qprime.key),
        "m": m,
        "condition_a_holds": True,
    }


def degree(doc):
    return sum(doc["curve"]["terms"][0][0])


def doc_id(doc):
    field = doc["working_field"]
    return f"GF({field['p']}^{field['k']})-d{degree(doc)}-m{doc['m']}"


def generated_documents():
    """The GF(13) instance, then COUNT drawn instances, no two with the same
    field, degree and scale."""
    rng = random.Random(SEED)
    docs = {doc_id(GF13_DOC): GF13_DOC}
    while len(docs) < COUNT + 1:
        doc = diagonal_document(rng)
        if doc is not None:
            docs.setdefault(doc_id(doc), doc)
    return list(docs.values())


DOCS = generated_documents()


def built(doc):
    return run_construction(serialize.instance_from_dict(doc))


def run_cli(tmp_path, capsys, command, doc):
    """(exit status, stdout document, stderr) of one job on `doc`."""
    path, output = tmp_path / "inst.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    status = cli.main([command, "--family", "custom", "--input", str(path),
                       "--output", str(output)])
    out, err = capsys.readouterr()
    return status, json.loads(out), err


def test_the_generator_draws_several_fields_degrees_and_scales():
    assert len({doc["working_field"]["p"] for doc in DOCS}) >= 3
    assert any(doc["working_field"]["k"] > 1 for doc in DOCS)
    assert {degree(doc) for doc in DOCS} >= {2, 3, 4}
    assert max(doc["m"] for doc in DOCS) >= 2


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_the_certificates_are_their_oracles(doc):
    res = built(doc)
    code, inst, d = res.code, res.instance, degree(doc)
    assert res.passed and code.n == d * d
    assert code.distance_bound == d * d - doc["m"] * d
    proved = construction.certified_distance(res)
    assert proved == min_distance_exact(code) == code.distance_bound
    if code.field.order**code.rank <= ORACLE_MESSAGES:
        assert proved == oracle_min_distance_exact(code)
    assert inst.curve.rational_points(inst.working) == oracle_rational_points(
        inst.curve, inst.working
    )
    joint = inst.joint_group()
    assert joint.order == res.joint_order == d * d
    for group in inst.groups + (joint,):
        assert assert_matches_oracle(group, res.points, code).passed


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_the_joint_order_is_the_sympy_order(doc):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    res = built(doc)
    gens = res.instance.joint_group().generators
    perms = [combinatorics.Permutation(list(permutation_of(g, res.points).perm)) for g in gens]
    assert combinatorics.PermutationGroup(perms).order() == res.joint_order == degree(doc) ** 2


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_the_enumeration_prints_the_proved_distance(tmp_path, capsys, monkeypatch, doc):
    proved = run_cli(tmp_path, capsys, "distance", doc)
    monkeypatch.setattr(construction, "certified_distance", lambda result: None)
    enumerated = run_cli(tmp_path, capsys, "distance", doc)
    assert proved[:2] == enumerated[:2]
    assert proved[0] == EXIT_OK


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_a_copy_of_g2_as_a_third_group_changes_no_code(tmp_path, capsys, doc):
    three = {**doc, "groups": doc["groups"] + [doc["groups"][1]]}
    for command in ("construct", "distance"):
        status, got, _ = run_cli(tmp_path, capsys, command, three)
        want = run_cli(tmp_path, capsys, command, doc)[1]
        assert status == EXIT_OK
        assert got["matrix"] == want["matrix"]
        assert got["distance_exact"] == want["distance_exact"]


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_m_raised_to_the_degree_fails_condition_d(tmp_path, capsys, doc):
    status, report, err = run_cli(tmp_path, capsys, "construct", {**doc, "m": degree(doc)})
    assert status == EXIT_CHECK_FAILED
    assert report["checks"][-1]["name"] == "condition_d"
    assert report["checks"][-1]["passed"] is False
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# a proper subfield as the ground field


def lifted(doc, j):
    """`doc` over the working field GF(p^(k j)), with its own field GF(p^k)
    kept as the ground: the curve coefficients, the generator entries, Q
    and Q' are pushed through `embedding`."""
    small = serialize.field_from_dict(doc["working_field"])
    emb = embedding(small, make_field(small.p, small.k * j))

    def lift(encs):
        return [emb.apply(small.from_enc(c)).enc for c in encs]

    return {
        **doc,
        "working_field": serialize.field_to_dict(emb.dst),
        "curve": {"coords": 3, "terms": [[e, *lift([c])] for e, c in doc["curve"]["terms"]]},
        "groups": [{**g, "generators": [lift(m) for m in g["generators"]]} for g in doc["groups"]],
        "Q": lift(doc["Q"]),
        "Qprime": lift(doc["Qprime"]),
    }


def lift_id(lift):
    doc, j = lift
    return f"{doc_id(doc)}-x{j}"


# every instance lifted to the field of twice its degree; GF(9) also to
# GF(3^8), where the canonical column order changes, and GF(16) to GF(2^16)
LIFTS = [(doc, 2) for doc in DOCS] + [
    (doc, 4) for doc in DOCS if doc["working_field"]["p"] ** doc["working_field"]["k"] in (9, 16)
]


def test_the_lifts_reach_gf_3_8_and_gf_2_16():
    assert {(doc["working_field"]["p"], doc["working_field"]["k"] * j) for doc, j in LIFTS} >= {
        (3, 8), (2, 16)
    }


@pytest.mark.parametrize("lift", LIFTS, ids=map(lift_id, LIFTS))
def test_a_lifted_instance_builds_the_same_code(lift):
    doc, j = lift
    res, big = built(doc), built(lifted(doc, j))
    code, big_code = res.code, big.code
    assert (big_code.n, big_code.rank, big_code.distance_bound) == (
        code.n, code.rank, code.distance_bound
    )
    assert [(r.name, r.passed, r.details) for r in big.reports] == [
        (r.name, r.passed, r.details) for r in res.reports
    ]
    assert big.joint_order == res.joint_order
    assert construction.certified_distance(big) == construction.certified_distance(res)
    # column i of the lifted code is the point whose coordinates lie over
    # those of column columns[i] of the code itself
    emb = embedding(code.field, big.instance.working)
    position = {p.key: i for i, p in enumerate(code.points)}
    columns = [position[tuple(map(emb.section_enc, p.key))] for p in big_code.points]
    assert sorted(columns) == list(range(code.n))
    assert [tuple(row[c] for c in columns) for row in code.encodings] == list(big_code.encodings)


# ---------------------------------------------------------------------------
# random cyclic pairs on P^1

PAIR_COUNT = 60


def cyclic_pair_document(rng):
    """G1 = <s -> zeta s> and G2 = <s -> zeta s + b> on P^1 over a drawn
    field, for a random zeta of random order r | q - 1 and b != 0, with
    Q = (1:0), a random affine Q' and m in {1, 2}."""
    p, k = rng.choice(FIELDS)
    F = make_field(p, k)
    q = F.order
    r = rng.choice([r for r in range(1, q) if (q - 1) % r == 0])
    g = root_of_unity(F, q - 1).enc
    zeta = F.pow(g, (q - 1) // r * rng.choice([j for j in range(r) if gcd(j, r) == 1]))
    return {
        "schema": "orbitcodes.instance.v1",
        "ground_field": serialize.field_to_dict(F),
        "working_field": serialize.field_to_dict(F),
        "curve": {"coords": 2, "terms": []},
        "groups": [{"label": "G1", "generators": [[zeta, 0, 0, 1]]},
                   {"label": "G2", "generators": [[zeta, rng.randrange(1, q), 0, 1]]}],
        "Q": [1, 0],
        "Qprime": [rng.randrange(q), 1],
        "m": rng.randrange(1, 3),
        "condition_a_holds": True,
    }


def pair_id(doc):
    field, (g1, g2) = doc["working_field"], doc["groups"]
    return (f"GF({field['p']}^{field['k']})-zeta{g1['generators'][0][0]}"
            f"-b{g2['generators'][0][1]}-x{doc['Qprime'][0]}-m{doc['m']}")


_pairs = random.Random(SEED)
PAIR_DOCS = [cyclic_pair_document(_pairs) for _ in range(PAIR_COUNT)]
PASSING_PAIRS = [
    doc for doc in PAIR_DOCS
    if run_construction(serialize.instance_from_dict(doc), strict=False).passed
]


def test_the_cyclic_pairs_pass_and_fail_in_several_fields():
    assert PAIR_COUNT // 3 < len(PASSING_PAIRS) < PAIR_COUNT
    assert len({json.dumps(doc["working_field"]) for doc in PASSING_PAIRS}) == len(FIELDS)


@pytest.mark.parametrize("doc", PAIR_DOCS, ids=map(pair_id, PAIR_DOCS))
def test_a_cyclic_pair_exits_0_or_1_without_a_traceback(tmp_path, capsys, doc):
    status, report, err = run_cli(tmp_path, capsys, "construct", doc)
    assert status == (EXIT_OK if report["passed"] else EXIT_CHECK_FAILED)
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", PASSING_PAIRS, ids=map(pair_id, PASSING_PAIRS))
def test_a_passing_cyclic_pair_meets_its_oracles(doc):
    res = built(doc)
    code, inst = res.code, res.instance
    proved = construction.certified_distance(res)
    try:
        exact = min_distance_exact(code)
    except PreconditionError as exc:  # past the guard, the certificate stands alone
        assert exc.kind == "enumeration_guard_exceeded"
        exact = proved
    assert proved == exact
    if code.field.order**code.rank <= ORACLE_MESSAGES:
        assert proved == oracle_min_distance_exact(code)
    for group in inst.groups + (inst.joint_group(),):
        assert assert_matches_oracle(group, res.points, code).passed


@pytest.mark.parametrize("doc", PASSING_PAIRS, ids=map(pair_id, PASSING_PAIRS))
def test_a_passing_cyclic_pairs_joint_order_is_the_sympy_order(doc):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    res = built(doc)
    gens = res.instance.joint_group().generators
    perms = [combinatorics.Permutation(list(permutation_of(g, res.points).perm)) for g in gens]
    assert combinatorics.PermutationGroup(perms).order() == res.joint_order
