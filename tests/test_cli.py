"""Command-line behavior: exit codes, report schemas, and byte-determinism."""

import gc
import hashlib
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orbitcodes import (
    cli,
    construction,
    diagonal_map,
    fermat_curve,
    geometry,
    make_field,
    root_of_unity,
    serialize,
)
from orbitcodes.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PRECONDITION

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_DIR = SRC.parent / "perfbench"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_entry_point(*argv, timeout=60):
    """`python -m orbitcodes ARGV` in a fresh process on the source tree."""
    return subprocess.run(
        [sys.executable, "-m", "orbitcodes", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=timeout,
    )


def test_construct_fermat_writes_code_file(tmp_path, capsys):
    out = tmp_path / "f3.json"
    code, stdout, stderr = run_cli(
        capsys, "construct", "--family", "fermat", "--q", "3", "--output", str(out)
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == "orbitcodes.code.v1"
    assert (doc["n"], doc["k"], doc["distance_bound"]) == (16, 3, 12)
    assert doc["passed"] is True
    assert "constructed [16, 3, >=12]_9" in stderr
    assert json.loads(stdout) == doc


def test_construct_output_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "construct", "--family", "projline", "--q", "7", "--output", str(path)
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_rejects_even_q(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "--family", "projline", "--q", "4")
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert doc["error"] == "invalid_family_parameters"


def test_verify_rejects_small_q(capsys):
    code, _, _ = run_cli(capsys, "verify", "--family", "projline", "--q", "3")
    assert code == EXIT_PRECONDITION


def test_verify_passes_on_projline5(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "--family", "projline", "--q", "5")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["schema"] == "orbitcodes.verify.v1"
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "condition_b" in names and "condition_d" in names
    assert stderr.count("[pass]") == len(names)


def test_fermat_q2_degeneracy_exit_code(capsys):
    code, stdout, _ = run_cli(capsys, "construct", "--family", "fermat", "--q", "2")
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert doc["error"] == "no_valid_qprime"
    assert doc["details"]["points_scanned"] == 9


def test_distance_projline9(capsys):
    code, stdout, stderr = run_cli(capsys, "distance", "--family", "projline", "--q", "9")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["distance_exact"] == 5
    assert doc["distance_bound"] == 5
    assert "exact minimum distance 5" in stderr


@pytest.mark.parametrize("argv", [
    ("distance", "--max-messages", "0"),
    ("distance", "--max-messages", "-1"),
    ("distance", "--m", "0"),
    ("construct", "--m", "-2"),
])
def test_nonpositive_guard_or_scale_is_usage_error(capsys, argv):
    # a guard below 1 is not an enumeration that exceeds it
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert doc["error"] == "usage"
    assert argv[1] in doc["message"]


def test_guard_of_one_counts_the_scalar_classes(capsys):
    # bf q=2 is [48, 3]_16, whose singular curve leaves the distance to the
    # scan: (16^3 - 1)/15 classes
    code, stdout, _ = run_cli(
        capsys, "distance", "--family", "bf", "--q", "2", "--max-messages", "1"
    )
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert doc["error"] == "enumeration_guard_exceeded"
    assert doc["details"] == {"messages": (16**3 - 1) // 15, "guard": 1}


def test_automorphisms_fermat3(capsys):
    code, stdout, _ = run_cli(capsys, "automorphisms", "--family", "fermat", "--q", "3")
    assert code == EXIT_OK
    doc = json.loads(stdout)
    assert doc["joint_group_order"] == 16
    assert doc["checks"][0]["details"]["image_order"] == 16


def test_export_roundtrip(tmp_path, capsys):
    src = tmp_path / "src.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "fermat", "--q", "3", "--output", str(src)
    )
    assert code == EXIT_OK
    dst = tmp_path / "dst.json"
    code, _, _ = run_cli(capsys, "export", "--input", str(src), "--output", str(dst))
    assert code == EXIT_OK
    assert src.read_bytes() == dst.read_bytes()


def test_export_rejects_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something.else"}))
    code, _, _ = run_cli(capsys, "export", "--input", str(bad))
    assert code == EXIT_PRECONDITION


def test_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "construct", "--family", "klein")
    assert code == EXIT_PRECONDITION


# the affine order-2 scaling pair over GF(3) on the line, written by hand
AFFINE_F3_INSTANCE = {
    "schema": "orbitcodes.instance.v1",
    "ground_field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "working_field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "curve": {"coords": 2, "terms": []},
    "groups": [
        {"label": "G1", "generators": [[2, 0, 0, 1]]},
        {"label": "G2", "generators": [[2, 2, 0, 1]]},
    ],
    "Q": [1, 0],
    "Qprime": [0, 1],
    "m": 1,
    "condition_a_holds": True,
}


def test_custom_instance_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(AFFINE_F3_INSTANCE))
    out = tmp_path / "code.json"
    code, _, _ = run_cli(
        capsys, "construct", "--family", "custom", "--input", str(path), "--output", str(out)
    )
    assert code == EXIT_OK
    built = json.loads(out.read_text())
    assert (built["n"], built["k"]) == (3, 3)
    assert built["joint_group_order"] == 6


@pytest.mark.parametrize(
    "q,name",
    [("absent", "custom_m1.code.json"), (None, "custom_m1.code.json"), (3, "custom_q3_m1.code.json")],
    ids=["absent", "null", "three"],
)
def test_custom_default_output_names_q_only_when_given(tmp_path, capsys, monkeypatch, q, name):
    doc = dict(AFFINE_F3_INSTANCE)
    if q != "absent":
        doc["q"] = q
    (tmp_path / "inst.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, "construct", "--family", "custom", "--input", "inst.json")
    assert code == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["inst.json", name])
    assert (tmp_path / name).read_text() == stdout
    assert f"wrote {name}" in err


def _assert_bad_input(capsys, *argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert doc["schema"] == "orbitcodes.error.v1"
    assert doc["error"] == "bad_input"
    assert "Traceback" not in stderr
    return doc


INPUT_COMMANDS = [("construct", "--family", "custom"), ("export",)]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_missing_input_file_is_bad_input(tmp_path, capsys, command):
    _assert_bad_input(capsys, *command, "--input", str(tmp_path / "absent.json"))


@pytest.mark.parametrize("command", INPUT_COMMANDS)
@pytest.mark.parametrize(
    "text",
    [
        '{"schema": "orbitcodes.instance.v1", ',
        "[1, 2]",
        pytest.param("[" * 100000 + "]" * 100000, id="deep"),  # past the recursion limit
    ],
)
def test_malformed_json_is_bad_input(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _assert_bad_input(capsys, *command, "--input", str(path))


@pytest.mark.parametrize(
    "key,value",
    [("ground_field", None), ("groups", 5), ("Q", ["x", 1]), ("working_field", {"p": 3})],
)
def test_missing_or_mistyped_instance_key_is_bad_input(tmp_path, capsys, key, value):
    doc = dict(AFFINE_F3_INSTANCE)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    _assert_bad_input(capsys, "construct", "--family", "custom", "--input", str(path))


GF16 = {"p": 2, "k": 4, "modulus": [1, 1, 0, 0, 1]}
X2_Y2_Z2 = [[[2, 0, 0], 1], [[0, 2, 0], 1], [[0, 0, 2], 1]]


# instance.v1 documents with one bad map or point: (reason, changes)
BAD_MAPS_AND_POINTS = {
    "two_entry_map": (
        "matrix must be square",
        {"groups": [{"generators": [[2, 0]]}, {"generators": [[2, 2, 0, 1]]}]},
    ),
    "encoding_999_in_gf16": (
        "encoding 999 out of range for order 16",
        {
            "ground_field": GF16,
            "working_field": GF16,
            "groups": [{"generators": [[999, 0, 0, 1]]}, {"generators": [[1, 1, 0, 1]]}],
        },
    ),
    # every entry is in GF(3), so only the count is wrong
    "nine_entry_map_on_the_line": (
        "matrix must be square, 2x2: got 9 entries",
        {"groups": [{"generators": [[2, 0, 0, 1, 2, 2, 2, 2, 2]]}, {"generators": [[2, 2, 0, 1]]}]},
    ),
    "all_zero_map": (
        "projective map must be invertible",
        {"groups": [{"generators": [[0, 0, 0, 0]]}, {"generators": [[2, 2, 0, 1]]}]},
    ),
    "all_zero_q": ("projective point cannot be all zeros", {"Q": [0, 0]}),
    "two_coord_q_on_plane_curve": (
        "point/curve dimension mismatch",
        {
            "curve": {"coords": 3, "terms": X2_Y2_Z2},
            "groups": [
                {"generators": [[2, 0, 0, 0, 1, 0, 0, 0, 1]]},
                {"generators": [[1, 0, 0, 0, 2, 0, 0, 0, 1]]},
            ],
            "Q": [1, 0],
            "Qprime": [1, 1, 1],
        },
    ),
}


@pytest.mark.parametrize("case", BAD_MAPS_AND_POINTS)
def test_bad_map_or_point_is_bad_input(tmp_path, capsys, case):
    reason, changes = BAD_MAPS_AND_POINTS[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(AFFINE_F3_INSTANCE, **changes)))
    doc = _assert_bad_input(capsys, "construct", "--family", "custom", "--input", str(path))
    assert reason in doc["message"]

# instance.v1 documents with one bad curve: (reason, curve)
BAD_CURVES = {
    "four_coords": ("ambient space must be P^1 or P^2", {"coords": 4, "terms": []}),
    "terms_on_the_line": (
        "P^1 instances use the empty curve", {"coords": 2, "terms": [[[2, 0], 1], [[0, 2], 1]]}
    ),
    "negative_exponent": (
        "curve exponents must be nonnegative", {"coords": 3, "terms": [[[-1, 3, 0], 1]]}
    ),
    "repeated_exponent": (
        "exponent tuple [4, 0, 0] is listed twice",
        {"coords": 3, "terms": [[[4, 0, 0], 1], [[0, 4, 0], 1], [[4, 0, 0], 2]]},
    ),
}


@pytest.mark.parametrize("case", BAD_CURVES)
def test_bad_curve_is_bad_input(tmp_path, capsys, case):
    reason, curve = BAD_CURVES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(AFFINE_F3_INSTANCE, curve=curve)))
    doc = _assert_bad_input(capsys, "construct", "--family", "custom", "--input", str(path))
    assert reason in doc["message"]


@pytest.mark.parametrize("command", ["construct", "verify", "distance", "automorphisms"])
@pytest.mark.parametrize(
    "functions,reason",
    [
        ([[]], "basis forms must be nonzero"),
        ([[[[1, 0], 1], [[2, 0], 1]]], "polynomial is not homogeneous"),
        ([[[[1, 0], 1]], [[[2, 0], 1]]], "basis forms must share one total degree"),
        ([[[[1, 0, 0], 1]]], "basis form arity mismatch"),
        ([[[[-1, 2], 1]]], "basis form exponents must be nonnegative"),
        ([[[[1, 1], 1], [[2, 0], 1], [[1, 1], 2]]], "exponent tuple [1, 1] is listed twice"),
    ],
    ids=["zero", "non_homogeneous", "mixed_degrees", "arity", "negative_exponent",
         "repeated_exponent"],
)
def test_bad_explicit_functions_are_bad_input(tmp_path, capsys, command, functions, reason):
    # refused while the instance is built, not in the basis step of a command
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(AFFINE_F3_INSTANCE, functions=functions)))
    doc = _assert_bad_input(capsys, command, "--family", "custom", "--input", str(path))
    assert reason in doc["message"]


# one number or flag of the wrong JSON type: (changes, the value refused)
MISTYPED_VALUES = {
    "float_exponent": ({"functions": [[[[1.5, 0], 1]]]}, "1.5"),
    "float_m": ({"m": 1.9}, "1.9"),
    "float_qprime": ({"Qprime": [0.0, 1.2]}, "0.0"),
    "string_condition_a": ({"condition_a_holds": "false"}, "'false'"),
    # a q copied as is named construct's default output file, so "sub/x"
    # wrote into a subdirectory; a label was passed through str()
    "string_q": ({"q": "sub/x"}, "'sub/x'"),
    "float_q": ({"q": 1.5}, "1.5"),
    "list_q": ({"q": [1, 2]}, "[1, 2]"),
    "null_label": ({"groups": [{"label": None, "generators": [[2, 0, 0, 1]]},
                               {"label": "G2", "generators": [[2, 2, 0, 1]]}]}, "None"),
    "int_label": ({"groups": [{"label": "G1", "generators": [[2, 0, 0, 1]]},
                              {"label": 2, "generators": [[2, 2, 0, 1]]}]}, "2"),
    # a false or empty non-list was read as absent, the automatic basis
    "false_functions": ({"functions": False}, "False"),
    "zero_functions": ({"functions": 0}, "0"),
    "object_functions": ({"functions": {}}, "{}"),
    "object_terms": ({"curve": {"coords": 2, "terms": {}}}, "{}"),
}


@pytest.mark.parametrize("command", ["construct", "verify", "distance"])
@pytest.mark.parametrize("case", MISTYPED_VALUES)
def test_mistyped_number_or_flag_is_bad_input(tmp_path, capsys, command, case):
    # int() or bool() would turn each into a value that builds and runs
    changes, value = MISTYPED_VALUES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(AFFINE_F3_INSTANCE, **changes)))
    doc = _assert_bad_input(capsys, command, "--family", "custom", "--input", str(path))
    assert f"got {value}" in doc["message"]


def test_explicit_functions_of_the_automatic_basis_give_the_same_code(tmp_path, capsys):
    inst = serialize.instance_from_dict(AFFINE_F3_INSTANCE)
    basis = construction.build_basis(inst, construction.build_divisor(inst), 3)
    functions = [serialize.poly_to_list(f) for f in basis.forms]
    stdouts = []
    for doc in (AFFINE_F3_INSTANCE, dict(AFFINE_F3_INSTANCE, functions=functions)):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(capsys, "construct", "--family", "custom", "--input", str(path),
                                  "--output", str(tmp_path / "code.json"))
        assert code == EXIT_OK
        stdouts.append(stdout)
    assert stdouts[0] == stdouts[1]


def test_loader_precondition_keeps_its_kind(tmp_path, capsys):
    doc = dict(AFFINE_F3_INSTANCE, ground_field={"p": 4, "k": 1, "modulus": [0, 1]})
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "construct", "--family", "custom", "--input", str(path))
    assert code == EXIT_PRECONDITION
    assert json.loads(stdout)["error"] == "not_prime"


@pytest.mark.parametrize("family,q", [("fermat", 1000003), ("projline", 2**61 - 1)])
def test_field_above_the_table_cap_exits_2_at_once(family, q):
    # GF(q^2) and GF(q) are refused from q alone, before q is factored or
    # a modulus is sought; a fresh process, so that a spin meets the timeout
    res = run_entry_point("construct", "--family", family, "--q", str(q), timeout=10)
    assert res.returncode == EXIT_PRECONDITION
    assert json.loads(res.stdout)["error"] == "order_overflow"


def test_a_field_of_degree_zero_exits_2_at_once(tmp_path):
    # k = 0 is refused before p, the prime 2^61 - 1, is tested by trial
    # division; a fresh process, so that a spin meets the timeout
    doc = dict(AFFINE_F3_INSTANCE, ground_field={"p": 2**61 - 1, "k": 0, "modulus": [1]})
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    res = run_entry_point("construct", "--family", "custom", "--input", str(path), timeout=10)
    assert res.returncode == EXIT_PRECONDITION
    assert json.loads(res.stdout)["error"] == "bad_input"


# the stdout of closure_cap_exceeded, the same document for every command;
# recorded from construct and verify bf q=8 and construct fermat q=101 on
# the commit before the joint group's size was checked ahead of the points
CAP_EXCEEDED_SHA256 = "f5644787f76e93bacfcb1b596bd72fb73152f78265aad55be73a84b329a661bd"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "bf", "--q", "8"),
        ("construct", "--family", "fermat", "--q", "101"),
        ("verify", "--family", "bf", "--q", "8"),
    ],
    ids=["construct-bf-8", "construct-fermat-101", "verify-bf-8"],
)
def test_a_joint_group_past_the_cap_is_refused_before_any_point(capsys, monkeypatch, tmp_path, argv):
    def refuse(self, field):
        raise AssertionError("curve points were enumerated")

    monkeypatch.setattr(geometry.PlaneCurve, "rational_points", refuse)
    monkeypatch.setattr(geometry.PlaneCurve, "line_section_points", refuse)
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert hashlib.sha256(stdout.encode()).hexdigest() == CAP_EXCEEDED_SHA256


def plane_instance_off_the_section():
    """fermat q=3 with the X and Z scalings: both fix the line Y = 0, so D
    is the curve's section by Y = 0, not by Z = 0."""
    F9 = make_field(3, 2)
    curve = fermat_curve(3, F9)
    zeta = root_of_unity(F9, 4)
    one = F9.one()
    groups = {"G1": [diagonal_map(F9, zeta, one, one)], "G2": [diagonal_map(F9, one, one, zeta)]}
    Q = next(p for p in curve.rational_points(F9) if not p.key[1])
    return {
        "schema": "orbitcodes.instance.v1",
        "ground_field": serialize.field_to_dict(F9),
        "working_field": serialize.field_to_dict(F9),
        "curve": serialize.curve_to_dict(curve),
        "groups": [
            {"label": label, "generators": [serialize.map_to_list(g) for g in gens]}
            for label, gens in groups.items()
        ],
        "Q": serialize.point_to_list(Q),
        "Qprime": [1, 1, 1],
        "m": 1,
        "condition_a_holds": True,
    }


# the scaling s -> 2s and the map (s : t) -> (s : 2t + 2s) over GF(3) both
# fix (0 : 1), the divisor's one point, while the line's section is (1 : 0)
LINE_INSTANCE_OFF_THE_SECTION = dict(
    AFFINE_F3_INSTANCE,
    groups=[
        {"label": "G1", "generators": [[2, 0, 0, 1]]},
        {"label": "G2", "generators": [[1, 0, 2, 2]]},
    ],
    Q=[0, 1],
    Qprime=[1, 0],
)


@pytest.mark.parametrize(
    "make,message",
    [
        (plane_instance_off_the_section,
         "automatic basis needs the divisor supported on the full line section; "
         "supply explicit functions"),
        (lambda: LINE_INSTANCE_OFF_THE_SECTION,
         "automatic basis on the line needs the divisor supported at (1:0); "
         "supply explicit functions"),
    ],
    ids=["plane", "line"],
)
def test_a_divisor_off_the_line_section_needs_explicit_functions(tmp_path, capsys, make, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(make()))
    code, stdout, _ = run_cli(capsys, "construct", "--family", "custom", "--input", str(path))
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert (doc["error"], doc["message"]) == ("unsupported_basis", message)


def test_custom_requires_input(capsys):
    code, _, _ = run_cli(capsys, "construct", "--family", "custom")
    assert code == EXIT_PRECONDITION


# groups equal: the trivial-intersection check must fail with exit 1
BROKEN_INSTANCE = {
    "schema": "orbitcodes.instance.v1",
    "ground_field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "working_field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "curve": {"coords": 2, "terms": []},
    "groups": [
        {"label": "G1", "generators": [[2, 0, 0, 1]]},
        {"label": "G2", "generators": [[2, 0, 0, 1]]},
    ],
    "Q": [1, 0],
    "Qprime": [0, 1],
    "condition_a_holds": True,
}


def test_verify_fails_on_broken_custom_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(BROKEN_INSTANCE))
    code, stdout, _ = run_cli(capsys, "verify", "--family", "custom", "--input", str(path))
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(stdout)
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and failed[0]["name"] == "condition_b"


def _assert_bad_output(capsys, *argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)  # one document: the error alone
    assert doc["schema"] == "orbitcodes.error.v1"
    assert doc["error"] == "bad_output"
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "fermat", "--q", "3"),
        ("verify", "--family", "projline", "--q", "4"),  # fails, then writes its error
        ("distance", "--family", "projline", "--q", "5"),
    ],
)
def test_output_in_missing_directory_is_bad_output(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    _assert_bad_output(capsys, *argv, "--output", str(target))
    assert not target.parent.exists()


def test_unwritable_default_output_is_bad_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fermat_q3_m1.code.json").mkdir()  # the default path is a directory
    _assert_bad_output(capsys, "construct", "--family", "fermat", "--q", "3")


FULL_STDOUT = (
    "precondition error [bad_output]: cannot write stdout: [Errno 28] No space left on device"
)


class FullStream:
    """A stdout on which every write fails as on a full device."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_failed_stdout_is_not_tried_again(capsys, monkeypatch):
    stdout = FullStream()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["construct", "--m", "0"]) == EXIT_PRECONDITION
    assert stdout.writes == 1
    assert capsys.readouterr().err.splitlines() == [
        "precondition error [usage]: --m must be >= 1",
        FULL_STDOUT,
    ]


@pytest.mark.parametrize(
    "argv,status",
    [
        (("construct", "--family", "fermat", "--q", "3", "--output", "{tmp}/f3.code.json"),
         EXIT_OK),
        (("construct", "--m", "0"), EXIT_PRECONDITION),
    ],
    ids=["construct", "m-0"],
)
def test_failed_stderr_changes_nothing(tmp_path, capsys, monkeypatch, argv, status):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, want, _ = run_cli(capsys, *argv)
    assert code == status
    stderr = FullStream()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli.main(argv) == status
    assert capsys.readouterr().out == want
    assert stderr.writes > 0


@pytest.mark.parametrize("argv", [("--help",), ("distance", "--help")])
def test_help_to_a_failed_stdout_exits_2(monkeypatch, argv):
    stdout = FullStream()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(list(argv)) == EXIT_PRECONDITION
    assert stdout.writes == 1


# ---------------------------------------------------------------------------
# an output file is rewritten in place: no O_TRUNC on open, the old tail cut
# after the write, and otherwise what `open(path, "w")` did

CONSTRUCT_F3 = ("construct", "--family", "fermat", "--q", "3")


def test_output_over_a_longer_file_keeps_its_inode_mode_and_hard_links(tmp_path, capsys):
    out, twin = tmp_path / "f3.code.json", tmp_path / "twin.json"
    out.write_bytes(b"x" * 20000)
    out.chmod(0o640)
    os.link(out, twin)
    before = out.stat()
    code, stdout, _ = run_cli(capsys, *CONSTRUCT_F3, "--output", str(out))
    assert code == EXIT_OK
    after = out.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (
        before.st_ino, before.st_mode, 2
    )
    assert twin.read_text() == out.read_text() == stdout  # no stale tail
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FERMAT3_CONSTRUCT_SHA256


def test_symlinked_output_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 20000)
    link.symlink_to(target.name)
    code, stdout, _ = run_cli(capsys, *CONSTRUCT_F3, "--output", str(link))
    assert code == EXIT_OK
    assert link.is_symlink()
    assert target.read_text() == stdout


def test_output_to_dev_null_exits_0_with_the_golden_stdout(capsys):
    code, stdout, stderr = run_cli(capsys, *CONSTRUCT_F3, "--output", os.devnull)
    assert code == EXIT_OK
    assert hashlib.sha256(stdout.encode()).hexdigest() == FERMAT3_CONSTRUCT_SHA256
    assert stderr.splitlines()[-1] == f"wrote {os.devnull}"


def bad_output_bytes(path: str, reason: str) -> tuple[str, str]:
    """The stdout document and the stderr line of `construct` fermat q=3 when
    `path` cannot be written for `reason`."""
    message = f"cannot write {path}: {reason}"
    doc = {"schema": "orbitcodes.error.v1", "error": "bad_output", "message": message,
           "details": {}}
    return serialize.dumps(doc), f"precondition error [bad_output]: {message}"


@pytest.mark.parametrize(
    "name,reason",
    [
        ("directory", "[Errno 21] Is a directory: '{}'"),
        ("missing/out.json", "[Errno 2] No such file or directory: '{}'"),
    ],
    ids=["directory", "missing-directory"],
)
def test_unwritable_output_keeps_its_bad_output_bytes(tmp_path, capsys, name, reason):
    (tmp_path / "directory").mkdir()
    path = tmp_path / name
    code, stdout, stderr = run_cli(capsys, *CONSTRUCT_F3, "--output", str(path))
    assert code == EXIT_PRECONDITION
    want_stdout, want_line = bad_output_bytes(str(path), reason.format(path))
    assert stdout == want_stdout
    assert stderr.splitlines()[-1] == want_line


def test_read_only_output_behaves_as_before(tmp_path, capsys):
    # a process that may override file permissions (root) writes a read-only
    # file, as `open(path, "w")` did, and leaves its mode; any other process
    # gets the same bad_output bytes as before
    path = tmp_path / "read-only.json"
    path.write_bytes(b"x" * 20000)
    path.chmod(0o444)
    writable = os.access(path, os.W_OK)
    code, stdout, stderr = run_cli(capsys, *CONSTRUCT_F3, "--output", str(path))
    if writable:
        assert code == EXIT_OK
        assert path.read_text() == stdout
        assert path.stat().st_mode & 0o777 == 0o444
    else:
        assert code == EXIT_PRECONDITION
        want_stdout, want_line = bad_output_bytes(
            str(path), f"[Errno 13] Permission denied: '{path}'"
        )
        assert stdout == want_stdout
        assert stderr.splitlines()[-1] == want_line
        assert path.read_bytes() == b"x" * 20000


def test_output_is_opened_without_truncation(tmp_path, capsys, monkeypatch):
    # O_TRUNC on a file written shortly before waits for the write-back of
    # its previous contents, longer than a whole construction
    calls = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        calls.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    out = tmp_path / "f3.code.json"
    out.write_bytes(b"x" * 20000)
    for argv in (CONSTRUCT_F3, ("export", "--input", str(out))):
        assert run_cli(capsys, *argv, "--output", str(out))[0] == EXIT_OK
    assert [path for path, _ in calls] == [str(out)] * 2
    for _, flags in calls:
        assert flags & os.O_TRUNC == 0
        assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FERMAT3_CONSTRUCT_SHA256


# ---------------------------------------------------------------------------
# the process entry point of `python -m orbitcodes` and the `orbitcodes` script

# the sha256 that tests/test_golden.py pins for construct fermat q=3
FERMAT3_CONSTRUCT_SHA256 = "91c78de2d60b2cfd5647ed7b3b8b05711726520f1b6c1cd057199b3675eec0ad"


def test_entry_point_writes_the_golden_bytes(tmp_path):
    out = tmp_path / "f3.code.json"
    res = run_entry_point("construct", "--family", "fermat", "--q", "3", "--output", str(out))
    assert res.returncode == EXIT_OK
    assert res.stdout == out.read_bytes()
    assert hashlib.sha256(res.stdout).hexdigest() == FERMAT3_CONSTRUCT_SHA256


def test_entry_point_exits_1_when_a_check_fails(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(BROKEN_INSTANCE))
    res = run_entry_point("verify", "--family", "custom", "--input", str(path))
    assert res.returncode == EXIT_CHECK_FAILED
    assert json.loads(res.stdout)["passed"] is False


@pytest.mark.parametrize(
    "argv,error",
    [(("--m", "0"), "usage"), (("--output", "{tmp}/missing/x.json"), "bad_output")],
    ids=["m-0", "bad-output"],
)
def test_entry_point_exits_2_on_a_precondition(tmp_path, argv, error):
    argv = [a.format(tmp=tmp_path) for a in argv]
    res = run_entry_point("construct", "--family", "fermat", "--q", "3", *argv)
    assert res.returncode == EXIT_PRECONDITION
    assert json.loads(res.stdout)["error"] == error
    assert b"Traceback" not in res.stderr


def buffered_env() -> dict:
    """The environment of a job whose stdout is block-buffered, as it is by
    default when stdout is a file or a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(SRC)}


def stream_env(unbuffered: bool) -> dict:
    """`buffered_env`, with stdout and stderr unbuffered if `unbuffered`."""
    env = buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_entry_point_skips_interpreter_teardown():
    # an atexit hook runs at interpreter teardown, which the entry point's
    # os._exit skips; stdout is buffered, so it holds the whole error
    # document only if the entry point flushed it first
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('teardown ran\\n'))\n"
        "runpy.run_module('orbitcodes', run_name='__main__', alter_sys=True)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, "construct", "--m", "0"],
        capture_output=True,
        env=buffered_env(),
        timeout=60,
    )
    assert res.returncode == EXIT_PRECONDITION
    assert res.stdout.decode() == serialize.dumps(
        {"schema": "orbitcodes.error.v1", "error": "usage", "message": "--m must be >= 1",
         "details": {}}
    )
    assert res.stderr.decode() == "precondition error [usage]: --m must be >= 1\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        # a code document larger than the stdout buffer: the write fails
        ("construct", "--family", "fermat", "--q", "3", "--output", "{tmp}/f3.code.json"),
        # an error document smaller than it: the flush fails
        ("construct", "--m", "0"),
    ],
    ids=["construct", "m-0"],
)
def test_unwritable_stdout_is_bad_output(tmp_path, argv, unbuffered):
    with open("/dev/full", "wb") as full:
        res = subprocess.run(
            [sys.executable, "-m", "orbitcodes", *(a.format(tmp=tmp_path) for a in argv)],
            stdout=full,
            stderr=subprocess.PIPE,
            env=stream_env(unbuffered),
            timeout=60,
        )
    assert res.returncode == EXIT_PRECONDITION
    stderr = res.stderr.decode()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert [line for line in stderr.splitlines() if "bad_output" in line] == [FULL_STDOUT]
    if "--output" in argv:  # the file is written before stdout
        assert hashlib.sha256((tmp_path / "f3.code.json").read_bytes()).hexdigest() == (
            FERMAT3_CONSTRUCT_SHA256
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv,status",
    [
        (("construct", "--family", "fermat", "--q", "3", "--output", "{tmp}/f3.code.json"),
         EXIT_OK),
        (("construct", "--m", "0"), EXIT_PRECONDITION),
    ],
    ids=["construct", "m-0"],
)
def test_unwritable_stderr_changes_nothing(tmp_path, argv, status, unbuffered):
    argv = [a.format(tmp=tmp_path) for a in argv]
    command = [sys.executable, "-m", "orbitcodes", *argv]
    env = stream_env(unbuffered)
    want = subprocess.run(command, capture_output=True, env=env, timeout=60)
    with open("/dev/full", "wb") as full:
        res = subprocess.run(command, stdout=subprocess.PIPE, stderr=full, env=env, timeout=60)
    assert res.returncode == want.returncode == status
    assert res.stdout == want.stdout
    if status == EXIT_OK:
        assert hashlib.sha256(res.stdout).hexdigest() == FERMAT3_CONSTRUCT_SHA256


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("distance", "--help")])
def test_help_to_an_unwritable_stdout_exits_2(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        res = subprocess.run(
            [sys.executable, "-m", "orbitcodes", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=stream_env(unbuffered),
            timeout=60,
        )
    assert res.returncode == EXIT_PRECONDITION
    assert b"Traceback" not in res.stderr


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    before = gc.get_freeze_count()
    out = tmp_path / "f3.code.json"
    argv = ("construct", "--family", "fermat", "--q", "3", "--output", str(out))
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert run_cli(capsys, "construct", "--m", "0")[0] == EXIT_PRECONDITION
    assert gc.get_freeze_count() == before


# ---------------------------------------------------------------------------
# the plain-argv reader: wherever it accepts an argv, argparse builds the
# same namespace

OPTIONS = sorted({option for _, options in cli.COMMANDS.values() for option, _ in options})
# values of every kind: plain and of each type, and the ones argparse and
# int() read in their own way
VALUES = ["3", "5", "fermat", "projline", "bf", "custom", "out.json", "-3", "\u0663", "1_0",
          " 3", "", "nope"]
TOKENS = (
    list(cli.COMMANDS)
    + OPTIONS
    + [option[:n] for option in OPTIONS for n in range(3, len(option))]  # abbreviations
    + [f"{option}={value}" for option in OPTIONS for value in ("3", "bf")]
    + ["-h", "--help", "--"]
    + VALUES
)


def sample_argv(rng: random.Random) -> list:
    """An argv of up to 6 tokens, mostly shaped as a command and option
    pairs so that many are plain, each token drawn from all of TOKENS with
    probability 1/8."""
    argv = []
    for i in range(rng.randint(0, 6)):
        pool = list(cli.COMMANDS) if i == 0 else OPTIONS if i % 2 else VALUES
        argv.append(rng.choice(TOKENS if rng.random() < 0.125 else pool))
    return argv


def test_plain_args_agree_with_argparse():
    parser = cli.build_parser()
    rng = random.Random(20221130)
    accepted = 0
    for _ in range(5000):
        argv = sample_argv(rng)
        ns = cli._plain_args(argv)
        if ns is None:
            continue
        accepted += 1
        try:
            want = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects the plain argv {argv!r}")
        assert vars(ns) == vars(want), argv
    assert accepted >= 500


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"], ["construct", "-h"], ["construct", "--fam", "bf"],
        ["construct", "--q=3"], ["construct", "--q", "-3"], ["construct", "construct"],
        ["construct", "--q"], ["export", "--q", "3"], ["construct", "--", "--q", "3"],
        ["construct", "--q", "x"], ["construct", "--family", "klein"], [],
    ],
)
def test_plain_args_leave_every_other_argv_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_plain_args_hold_exactly_the_attributes_argparse_gives():
    assert vars(cli._plain_args(["export"])) == {"command": "export", "input": None,
                                                  "output": None}
    assert vars(cli._plain_args(["distance"])) == {
        "command": "distance", "family": "fermat", "q": 3, "m": 1, "input": None,
        "output": None, "max_messages": None,
    }


def test_family_choices_are_the_builtin_families_then_custom():
    # cli writes the list out, so that the usage checks load no math
    from orbitcodes.autgroup import FAMILIES

    with_family = [name for name, (_, options) in cli.COMMANDS.items()
                   if dict(options).get("--family", {}).get("choices") == [*FAMILIES, "custom"]]
    assert with_family == ["construct", "verify", "distance", "automorphisms"]


def load_benchmark_harness():
    spec = importlib.util.spec_from_file_location("harness", BENCH_DIR / "harness.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("harness", module)
    spec.loader.exec_module(module)
    return module


def ci_argvs() -> list:
    """The argv of every orbitcodes call in the CI workflow."""
    text = (SRC.parent / ".github" / "workflows" / "tests.yml").read_text()
    commands = "|".join(cli.COMMANDS)
    calls = re.findall(rf"\borbitcodes ((?:{commands}) [^>]*)>", text)
    return [shlex.split(args) for args in calls]


def test_benchmark_and_ci_argv_are_plain():
    harness = load_benchmark_harness()
    argvs = [list(job.args) for jobs in harness.WORKLOADS.values() for job in jobs]
    argvs += ci_argvs()
    assert len(argvs) >= 16 + 8
    for argv in argvs:
        ns = cli._plain_args(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(cli.build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# output bytes and the hash seed: set and dict orders may depend on it

BENCH_DATA = BENCH_DIR / "data"


def fermat4_custom_instance():
    """The benchmark's seeded fermat q=4 instance, with its first seed as Q'."""
    doc = json.loads((BENCH_DATA / "fermat4_instance.json").read_text())
    doc["Qprime"] = json.loads((BENCH_DATA / "fermat4_seeds.json").read_text())[0]
    return doc


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "bf", "--q", "2"),
        ("verify", "--family", "fermat", "--q", "5"),
        ("construct", "--family", "custom", "--input", "inst.json"),
    ],
    ids=["construct-bf-2", "verify-fermat-5", "construct-custom-fermat4"],
)
def test_stdout_does_not_depend_on_the_hash_seed(tmp_path, argv):
    (tmp_path / "inst.json").write_text(json.dumps(fermat4_custom_instance()))
    outs = []
    for seed in ("0", "1"):
        res = subprocess.run(
            [sys.executable, "-m", "orbitcodes", *argv],
            capture_output=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert res.returncode == EXIT_OK
        outs.append(res.stdout)
    assert outs[0] == outs[1]
