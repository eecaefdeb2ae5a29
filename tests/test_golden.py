"""Golden outputs: the sha256 of the stdout of one CLI job per case.

The hashes of the construct, automorphisms and verify jobs and of distance
projline q=7 were recorded by running these jobs on the commit just before
the field layer moved to encoding-valued elements with exp/log/Zech
tables, and before any change to `gf.py`.  The other three distance jobs
are the benchmark's; their hashes come from `perfbench/data/goldens.json`
and were confirmed on the commit before the distance scan moved to
enumeration up to scalars.  The two large-field scans, bf q=3 ([324, 3]
over GF(81)) and fermat q=16 (over GF(256)), were recorded on the commit
before the scan counted its last two message coordinates in one pass.
The automorphisms jobs for bf q=2, projline q=19 and fermat q=5 are the
benchmark's certify jobs; their hashes come from `perfbench/data/goldens.json`
and were confirmed on the commit before the faithful-action certificate
moved to the generators and a projective frame.  The construct jobs for
fermat q=9, 16 and 25 were recorded on the commit before curve points
were found by a value join instead of a scan of the plane (fermat q=9 is
also a benchmark construct job).  The distance jobs projline q=13, fermat
q=4 at m=2 and fermat q=3 at m=3 were recorded on the commit before the
distance moved to the cheaper of the scan and Brouwer-Zimmermann, with the
guard raised there (fermat q=3 m=3, [16, 10] over GF(9), took 82 s); the
default guard admits them now.  That commit cannot run distance bf q=2 at
m=3 ([48, 10] over GF(16), 7*10^10 scalar classes), so its hash was
recorded from the change itself; `test_bf2_m3_distance_is_its_designed_bound`
checks its distance with a witness instead.  The verify jobs for bf q=2,
bf q=3, fermat q=9 and projline q=19 and automorphisms bf q=3 (also a CI
hash) were recorded on the commit before map products and point images
moved to one log-domain kernel.  The bf q=4 construct, distance,
automorphisms and verify jobs, until then checked only by the CI
workflow's sha256 steps, were recorded on the commit before the code's
rank came to be read from its one row reduction; they match those steps.
The distance jobs fermat q=7, 8 and 9 at m=2, fermat q=5 at m=3 and
projline q=25 became reachable when the distance came to be proved from
the curve (`construction.certified_distance`); the commit before it
refused each with `enumeration_guard_exceeded`.  fermat q=7 m=2 was
recorded there with `--max-messages 100000000`.  No run of that commit
can finish the other four (5*10^7 to 3*10^10 codewords up to scalars), so
each is pinned as that commit's `construct` document with `distance_exact`
set to its designed bound, written by `errors.dumps`.
A refactor of the arithmetic or of any layer above it must leave every
one of them unchanged.  The benchmark's goldens cover further jobs;
together they are the check that a change does the same work.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from orbitcodes import builtin_instance, cli, make_field, min_distance_exact, run_construction, serialize
from orbitcodes.autgroup import builtin_generators
from orbitcodes.cli import EXIT_CHECK_FAILED, EXIT_OK

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN = {
    ("construct", "fermat", 3, 1): "91c78de2d60b2cfd5647ed7b3b8b05711726520f1b6c1cd057199b3675eec0ad",
    ("construct", "fermat", 4, 1): "d3d71661890c798e3e9c4a58fbe736f7a49f239af6983e7e8ec610574f844919",
    ("construct", "fermat", 5, 1): "03e1aae23a0dbd9de8c058c077039b6b458a196696971ae8f61a76b35aebf872",
    ("construct", "projline", 5, 1): "cd5cfaa88cc6173c18b641af49384089181aeaa1fe315aff4ff7b2d419921a33",
    ("construct", "projline", 7, 1): "423239c3c27bdfe79af9736280c3145c9f7483a0888070e23387b45b1ef4d9e1",
    ("construct", "projline", 9, 1): "723439fb1589c7556a4674e1395d1a68700f6a7d3d06e676527052fc31d0fc6a",
    ("construct", "projline", 11, 1): "ccb94c2ace83920c61bc26a070543f6e1bbb1a66d4634cc14741d4380bf44b4c",
    ("construct", "projline", 13, 1): "2680d76340d7cc0c73a31a768cd2aaf6b35a666fae3a0d83d8eb8a8975b23f00",
    ("construct", "fermat", 9, 1): "bdb1e8a3a1f189bd4098f712c53dbd50a195049d5890bbdebd3e3551c0b07a83",
    ("construct", "fermat", 16, 1): "30afbe09e97443b13f0cafa40a5a558a35257bb5b677101a8d31b8ca51900712",
    ("construct", "fermat", 25, 1): "167931d4ccf45b3678fe9c96d8026b5e422b736282dbc5d0ab945684b1558f13",
    ("construct", "bf", 2, 1): "bbd6c112592853de6fd8c4c7a32c0a981aace13efcff36dad04a60c4fb0a63c2",
    ("distance", "bf", 3, 1): "9d01f9c05c980b8f46690109266b54c627a2d11c0e6a0faa4f08c502e9512e47",
    ("distance", "fermat", 3, 2): "e15c1394324902004ccac1d693b3f01c0c1a312a67666e394ffa274dcf21f8bf",
    ("distance", "fermat", 16, 1): "5cfff8fa5afb1a2df5ebe5ec8cc6ed4a8ef060d727b379d9d185d01fb490e5cd",
    ("distance", "fermat", 4, 2): "de17199888789eea079286edd595ea654bbf228fda0f4ab7bc504c9e6c349717",
    ("distance", "fermat", 3, 3): "c723c77dacde559073f62419b6cdad2644e2809681eb13f0e93d3a0672aa2f1e",
    ("distance", "projline", 13, 1): "73456aa72b75cae541119b90e1655aa6e2f959fa08291d711cfb910e3e953e70",
    ("distance", "bf", 2, 3): "2669e6550546d1e7f94a4abc83e897cfb06685a34bd95f99323830e23d196bae",
    ("distance", "projline", 7, 1): "c117c8e01cf839c9cb6a47b1fa9f7619f79559c26c4c5ab83424dedc2d317313",
    ("distance", "projline", 7, 2): "ccff2384573443873d7b4748718635f0b028e5b72fade214e92556788f4300a8",
    ("distance", "projline", 11, 1): "eacab62db47454276972a92746174e057ea07c66076dc7230b3097d1b9a652db",
    ("automorphisms", "bf", 2, 1): "667d00aeb0074a1d6e6143076d9250f7ebd18a6d4e44b4eb65ab84f6e562f02b",
    ("automorphisms", "bf", 3, 1): "c94270f18b008e299e5da4feaf50a83355c74e65821067d8953de0ead4f6b237",
    ("automorphisms", "fermat", 3, 1): "b813a31f75c5b9710aca7d8bbf8454a74fdc67aac4926d372654bf344911852c",
    ("automorphisms", "fermat", 5, 1): "4f15d40b26b362920267f562d1e72e11ca17dd76e5434319adecd26a1dbe5c7c",
    ("automorphisms", "projline", 19, 1): "239f0ea68cc59cc36c89530368cfb9f4393c88a3ad2a3fd62d07b1e210cd6705",
    ("verify", "projline", 5, 1): "c5c911a2468a85e51c9f71fecd9a7238405c608fcc40c2602aaf7936352ab314",
    ("verify", "bf", 2, 1): "a68eb437dc0586f5eba872422d4f9c56d3991e01fb5c437e49b51dfcdb811bd2",
    ("verify", "bf", 3, 1): "babff65389027e0ff9a206515e4ec79ac5b6c690cec8bef0a90941ec5c88ac46",
    ("verify", "fermat", 9, 1): "51ddba918e6a3b93350cca11066856c849ec8a349472141bbb71bc3fe0dc53d6",
    ("verify", "projline", 19, 1): "0e2f38768b4fddc420b2298d963029144b770f9d50a6453f3115702a39d7d602",
    ("construct", "bf", 4, 1): "fcfdd71009dd0a97b06baa6a30b2de00345839bed74da7ec2bad159266e8a3e6",
    ("distance", "bf", 4, 1): "e26efc8c3382d4d31f7f3d9d1c78727278f51523679665f3a2f3e851ddfca304",
    ("automorphisms", "bf", 4, 1): "847157f677a98f42b6ceeae842d87fbd7a7584582d4709bd3549e841ee8256a4",
    ("verify", "bf", 4, 1): "40bd9993826b46c63241c6d80d977f89b395726e03fa15d7dedd6b9ecc33db38",
    ("distance", "fermat", 7, 2): "76f4e9c03ce0ed72903bba98b3923b6a12dec7c6ee269387061be82d609bb1e8",
    ("distance", "fermat", 8, 2): "cba3c7d154ad89ac06db3282bedd2489aaddac054e8792acb0495a49681cf51c",
    ("distance", "fermat", 9, 2): "418131811428fb626a91cfe0819e36e61db6e0b206c01bbddb36d47542ec628e",
    ("distance", "fermat", 5, 3): "8a64c5230ef1af430b82873e48094d3a5805b29c94d6146620d6e8764199bcf6",
    ("distance", "projline", 25, 1): "cb947b46db421e3cbd5ac599324400a32e69f1724661a7f1cee96963eb27fe82",
}


def job_id(key):
    command, family, q, m = key
    return f"{command}-{family}-{q}" + (f"-m{m}" if m != 1 else "")


@pytest.mark.parametrize("command,family,q,m", sorted(GOLDEN), ids=map(job_id, sorted(GOLDEN)))
def test_stdout_matches_golden(tmp_path, capsys, command, family, q, m):
    out = tmp_path / "out.json"
    args = [command, "--family", family, "--q", str(q), "--m", str(m), "--output", str(out)]
    code = cli.main(args)
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.read_text() == stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN[(command, family, q, m)]


def test_bf2_m3_distance_is_its_designed_bound():
    """bf q=2 at m=3 is [48, 10] over GF(16) with designed bound 12, and the
    sum of its first and last basis rows has weight 12: so d = 12."""
    code = run_construction(builtin_instance("bf", 2, m=3)).code
    word = [a + b for a, b in zip(code.matrix[0], code.matrix[-1])]
    assert sum(map(bool, word)) == 12 == code.distance_bound
    assert min_distance_exact(code) == 12


# A custom diagonal instance: X^4 + 4Y^4 + 2Z^4 over GF(13), G1 = <X -> 5X>
# and G2 = <Y -> 5Y> of order 4, Q = (1:2:0) on the line Z = 0,
# Q' = (1:4:1) and m = 2, with no q.  It builds a [16, 6, >=8] code over
# GF(13) whose distance 8 the geometry proves, and its joint group of
# order 16 acts faithfully; `tests/test_generated_instances.py` draws more
# instances like it.  Recorded on the commit before `ProjPoint` and
# `ProjMap` became `gf._Value`s: stdout sha256 per command, each exit 0.
GF13_DOC = {
    "schema": "orbitcodes.instance.v1",
    "ground_field": {"p": 13, "k": 1, "modulus": [0, 1]},
    "working_field": {"p": 13, "k": 1, "modulus": [0, 1]},
    "curve": {"coords": 3, "terms": [[[4, 0, 0], 1], [[0, 4, 0], 4], [[0, 0, 4], 2]]},
    "groups": [{"label": "G1", "generators": [[5, 0, 0, 0, 1, 0, 0, 0, 1]]},
               {"label": "G2", "generators": [[1, 0, 0, 0, 5, 0, 0, 0, 1]]}],
    "Q": [1, 2, 0],
    "Qprime": [1, 4, 1],
    "m": 2,
    "condition_a_holds": True,
}
GF13_GOLDEN = {
    "construct": "ef5ecb369ff0a70c42e42a7f6dd5d9a2d37ecd9efcf28686da184ceaec0f0c18",
    "verify": "5de5ca40da1d11deec62309411db41c31d451feb48a94b226006a3685b72a606",
    "distance": "39cc736f7d2d2f223c92e1efedd3aaef702fa03ed3c0eb23e11b1c4f13048b53",
    "automorphisms": "c7d0aa9ce56a75260b86819120bffbc4784b6c934528aba78e0d748007eb587c",
}


@pytest.mark.parametrize("command", sorted(GF13_GOLDEN))
def test_gf13_diagonal_instance_matches_golden(tmp_path, capsys, command):
    path, out = tmp_path / "inst.json", tmp_path / "out.json"
    path.write_text(json.dumps(GF13_DOC))
    code = cli.main([command, "--family", "custom", "--input", str(path), "--output", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.read_text() == stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == GF13_GOLDEN[command]
    if command == "distance":
        assert json.loads(stdout)["distance_exact"] == 8


# Failure reports.  Each job runs on the built-in fermat q=3 instance
# written as an orbitcodes.instance.v1 document, changed so that a check
# fails: the shear X -> X + Z appended to G2's generators breaks the curve
# (curve_preservation fails in G2, with the shear as witness), and the one
# basis form Y + Z spans a code that the Y scaling does not preserve
# (faithful_embedding names it).  These are the reports of the element
# scans that a failed certificate falls back to.  Recorded on the commit
# before `certify_generated` was deleted: (stdout sha256, exit code).
SHEAR = [1, 0, 1, 0, 1, 0, 0, 0, 1]
Y_PLUS_Z = [[[0, 1, 0], 1], [[0, 0, 1], 1]]
FAILURE_GOLDEN = {
    ("verify", "g2_shear"): (
        "bb3fa360385026b4ee7064cbfe99233e8f634806d0edf0385bab29c2b14463a5", EXIT_CHECK_FAILED
    ),
    ("automorphisms", "g2_shear"): (
        "81bfde5d5f3109cd645f1ee1b4f0d623915b6e80f6bc4af73ea7f6f6c16685ee", EXIT_CHECK_FAILED
    ),
    ("automorphisms", "y_plus_z"): (
        "1323281ad1e884890279e0702a650de61603e23c64cf83b2330d5b0faed3c83f", EXIT_CHECK_FAILED
    ),
}


def fermat3_instance_doc(case=None):
    inst = builtin_instance("fermat", 3)
    doc = {
        "schema": "orbitcodes.instance.v1",
        "ground_field": serialize.field_to_dict(inst.ground),
        "working_field": serialize.field_to_dict(inst.working),
        "curve": serialize.curve_to_dict(inst.curve),
        "groups": [
            {"label": g.label, "generators": [serialize.map_to_list(m) for m in g.generators]}
            for g in inst.groups
        ],
        "Q": serialize.point_to_list(inst.Q),
        "Qprime": serialize.point_to_list(inst.Qprime),
        "m": inst.m,
        "q": inst.q,
        "condition_a_holds": True,
    }
    if case == "g2_shear":
        doc["groups"][1]["generators"].append(SHEAR)
    elif case == "y_plus_z":
        doc["functions"] = [Y_PLUS_Z]
    return doc


@pytest.mark.parametrize("command,case", sorted(FAILURE_GOLDEN),
                         ids=map("-".join, sorted(FAILURE_GOLDEN)))
def test_failure_report_matches_golden(tmp_path, capsys, command, case):
    path, out = tmp_path / "inst.json", tmp_path / "out.json"
    path.write_text(json.dumps(fermat3_instance_doc(case)))
    code = cli.main([command, "--family", "custom", "--input", str(path), "--output", str(out)])
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert (hashlib.sha256(stdout.encode()).hexdigest(), code) == FAILURE_GOLDEN[(command, case)]


# A ground field that is a proper subfield of the working field: the one
# path where each code value is mapped into the ground field through the
# section of the canonical embedding.  "affine" is the line x -> -x,
# x -> 2 - x instance of `tests/test_cli.py` with working field GF(9),
# whose values all land in GF(3); "projline" is the projline q=9 pair of
# groups over working GF(9) with ground GF(3), Q = (1:0) and Q' = (1:1),
# whose basis takes the value 6 outside GF(3), so the ground_coercion
# check fails.  Recorded on the commit before the code matrix was built
# on encodings: (stdout sha256, exit code).
F3_FIELD = {"p": 3, "k": 1, "modulus": [0, 1]}
F9_FIELD = {"p": 3, "k": 2, "modulus": [1, 0, 1]}
SUBFIELD_DOCS = {
    "affine": {
        "groups": [{"label": "G1", "generators": [[2, 0, 0, 1]]},
                   {"label": "G2", "generators": [[2, 2, 0, 1]]}],
        "Qprime": [0, 1],
    },
    "projline": {
        "groups": [{"label": "G1", "generators": [[1, 0, 0, 6]]},
                   {"label": "G2", "generators": [[1, 8, 0, 6]]}],
        "Qprime": [1, 1],
    },
}
SUBFIELD_GOLDEN = {
    ("construct", "affine"): (
        "3b24f6f0a86117126eece7d9dd8af2cbbcee3ec0de5ffa93dad762a08b65d980", EXIT_OK
    ),
    ("verify", "affine"): (
        "ef892374e8fa4b28c586506d07c0abdc91e33e4f4b55649547dba9f5ed52bc57", EXIT_OK
    ),
    ("construct", "projline"): (
        "e04df5778b3bd922b107aaf80a3481a7694e33269283b118f5b0bb78f2bc54c3", EXIT_CHECK_FAILED
    ),
    ("verify", "projline"): (
        "ce18cf4af42222ee1dd7e43ce5ff688f57d76056ba22c5c32e59b01ec92cd1e0", EXIT_CHECK_FAILED
    ),
}


def test_projline_subfield_groups_are_the_builtin_ones():
    gens = builtin_generators("projline", 9, make_field(3, 2))
    assert [[serialize.map_to_list(g) for g in grp] for grp in gens] == [
        g["generators"] for g in SUBFIELD_DOCS["projline"]["groups"]
    ]


@pytest.mark.parametrize("command,case", sorted(SUBFIELD_GOLDEN),
                         ids=map("-".join, sorted(SUBFIELD_GOLDEN)))
def test_subfield_ground_matches_golden(tmp_path, capsys, command, case):
    doc = {
        "schema": "orbitcodes.instance.v1",
        "ground_field": F3_FIELD,
        "working_field": F9_FIELD,
        "curve": {"coords": 2, "terms": []},
        "Q": [1, 0],
        "m": 1,
        "condition_a_holds": True,
        **SUBFIELD_DOCS[case],
    }
    path, out = tmp_path / "inst.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, "--family", "custom", "--input", str(path), "--output", str(out)])
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert (hashlib.sha256(stdout.encode()).hexdigest(), code) == SUBFIELD_GOLDEN[(command, case)]


# Codes that cannot fit their evaluation set: (stdout sha256, exit code).
# The first three documents are the GF(3) line instance of
# `tests/test_cli.py` (the pair x -> -x, x -> 2 - x, whose S has 3
# points), grown: "three_groups" appends the group of x -> 2x + 1 and sets
# m = 2, so the basis of L(2D) has 5 forms; "functions" gives the five
# forms s^i t^(4-i) explicitly; "huge_m" is "three_groups" at m = 10^7.
# The commit before the injectivity check ended the first two in a
# ValueError traceback, and listed the 2*10^7 + 1 forms of the third until
# memory ran out (a MemoryError under `ulimit -v 2000000`).  "functions"
# fails that check, exit 1, from construct and verify alike; its pins are
# the check's own bytes, recorded on the change that made it.  The
# three-group documents fail condition_d instead, before any form is
# counted (#S = 3 against m*|G1| = 4 and 2*10^7): for m > 1 its
# many-groups size clause asks m*|G1| < #S, as the two-group clause does.
# They were re-pinned on the change that added that requirement.
# "fermat_three_groups" is the built-in fermat q=3 instance with G2
# appended again as a third group and m = 4: #S = 16 = m*|G1|, so the
# designed bound would be 0.  The commit before that requirement built it
# as a [16, 13, >=0]_9 code, exit 0, and `distance` printed "designed
# bound 0 (met)"; its pins were recorded on the change.
LINE_DOC = {
    "schema": "orbitcodes.instance.v1",
    "ground_field": F3_FIELD,
    "working_field": F3_FIELD,
    "curve": {"coords": 2, "terms": []},
    "groups": [{"label": "G1", "generators": [[2, 0, 0, 1]]},
               {"label": "G2", "generators": [[2, 2, 0, 1]]}],
    "Q": [1, 0],
    "Qprime": [0, 1],
    "m": 1,
    "condition_a_holds": True,
}
THIRD_GROUP = {"label": "G3", "generators": [[2, 1, 0, 1]]}
OVERSIZED_DOCS = {
    "three_groups": {**LINE_DOC, "groups": LINE_DOC["groups"] + [THIRD_GROUP], "m": 2},
    "functions": {**LINE_DOC, "functions": [[[[i, 4 - i], 1]] for i in range(5)]},
    "huge_m": {**LINE_DOC, "groups": LINE_DOC["groups"] + [THIRD_GROUP], "m": 10**7},
}
FERMAT3_DOC = fermat3_instance_doc()
OVERSIZED_DOCS["fermat_three_groups"] = {
    **FERMAT3_DOC, "groups": FERMAT3_DOC["groups"] + [FERMAT3_DOC["groups"][1]], "m": 4,
}
# the check each document fails
OVERSIZED_FAILS = {"three_groups": "condition_d", "functions": "injectivity",
                   "huge_m": "condition_d", "fermat_three_groups": "condition_d"}
OVERSIZED_GOLDEN = {
    ("construct", "three_groups"): (
        "470ddf45a1fe0024954d300302ac9713a224f30658825f3e0b4e301def2b257e", EXIT_CHECK_FAILED
    ),
    ("verify", "three_groups"): (
        "d8a851471fda15302115518789769b87ed4575bba1e4338ff3193db95e33d830", EXIT_CHECK_FAILED
    ),
    ("construct", "functions"): (
        "1f1bea29354933a52ccef1841f411b9cb6e53c9aac5e767618243588078fd5c4", EXIT_CHECK_FAILED
    ),
    ("verify", "functions"): (
        "4499ce80e878c192c2207455fde69db0c8f6a2f6102d047e2e52fab5fabf1f8f", EXIT_CHECK_FAILED
    ),
    ("construct", "huge_m"): (
        "bd20adb2036848a7acf281c42f29721c1beead47e72ab99984a2a33e2bebeee0", EXIT_CHECK_FAILED
    ),
    ("verify", "huge_m"): (
        "0e44c8563f78a5628f74f9c770e783117a86572d504a71280a754c764fbd090f", EXIT_CHECK_FAILED
    ),
    ("construct", "fermat_three_groups"): (
        "cbab90516b5177eba42a3ee68a6fbeafd8d34850d0b208add23aba3507c61f03", EXIT_CHECK_FAILED
    ),
    ("verify", "fermat_three_groups"): (
        "81e2aca34289e784975c905b45dba25a854a1bf7774a08286c10a5d3aa9d1695", EXIT_CHECK_FAILED
    ),
    ("distance", "fermat_three_groups"): (
        "cbab90516b5177eba42a3ee68a6fbeafd8d34850d0b208add23aba3507c61f03", EXIT_CHECK_FAILED
    ),
}

OVERSIZED_IDS = ["-".join(key) for key in sorted(OVERSIZED_GOLDEN)]


def oversized_args(tmp_path, command, case):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(OVERSIZED_DOCS[case]))
    return [command, "--family", "custom", "--input", str(path)]


@pytest.mark.parametrize("command,case", sorted(OVERSIZED_GOLDEN), ids=OVERSIZED_IDS)
def test_oversized_basis_matches_golden(tmp_path, capsys, command, case):
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = cli.main(oversized_args(tmp_path, command, case) + ["--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert (hashlib.sha256(stdout.encode()).hexdigest(), code) == OVERSIZED_GOLDEN[(command, case)]
    report = json.loads(stdout)
    assert report["schema"] == "orbitcodes.verify.v1"
    assert report["checks"][-1]["name"] == OVERSIZED_FAILS[case]
    assert peak < 16 * 2**20  # no form of the basis is listed


@pytest.mark.parametrize("command,case", sorted(OVERSIZED_GOLDEN), ids=OVERSIZED_IDS)
def test_oversized_basis_process_matches_golden(tmp_path, command, case):
    res = subprocess.run(
        [sys.executable, "-m", "orbitcodes", *oversized_args(tmp_path, command, case)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=10,
    )
    assert b"Traceback" not in res.stderr
    want = OVERSIZED_GOLDEN[(command, case)]
    assert (hashlib.sha256(res.stdout).hexdigest(), res.returncode) == want
