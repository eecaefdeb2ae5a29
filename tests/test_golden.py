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
A refactor of the arithmetic or of any layer above it must leave every
one of them unchanged.  The benchmark's goldens cover further jobs;
together they are the check that a change does the same work.
"""

import hashlib
import json

import pytest

from orbitcodes import builtin_instance, cli, min_distance_exact, run_construction, serialize
from orbitcodes.cli import EXIT_CHECK_FAILED, EXIT_OK

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


def fermat3_instance_doc(case):
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
    else:
        doc["functions"] = [Y_PLUS_Z]
    return doc


@pytest.mark.parametrize("command,case", sorted(FAILURE_GOLDEN), ids="-".join)
def test_failure_report_matches_golden(tmp_path, capsys, command, case):
    path, out = tmp_path / "inst.json", tmp_path / "out.json"
    path.write_text(json.dumps(fermat3_instance_doc(case)))
    code = cli.main([command, "--family", "custom", "--input", str(path), "--output", str(out)])
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    assert (hashlib.sha256(stdout.encode()).hexdigest(), code) == FAILURE_GOLDEN[(command, case)]
