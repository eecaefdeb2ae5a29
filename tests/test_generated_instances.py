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
"""

import json
import random

import pytest

from orbitcodes import (
    cli,
    construction,
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
