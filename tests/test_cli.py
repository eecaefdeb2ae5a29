"""Command-line behavior: exit codes, report schemas, and byte-determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitcodes import cli
from orbitcodes.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PRECONDITION


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # fermat q=3 is [16, 3]_9, which takes the scan: (9^3 - 1)/8 classes
    code, stdout, _ = run_cli(capsys, "distance", "--max-messages", "1")
    assert code == EXIT_PRECONDITION
    doc = json.loads(stdout)
    assert doc["error"] == "enumeration_guard_exceeded"
    assert doc["details"] == {"messages": (9**3 - 1) // 8, "guard": 1}


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
@pytest.mark.parametrize("text", ['{"schema": "orbitcodes.instance.v1", ', "[1, 2]"])
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
    res = subprocess.run(
        [sys.executable, "-m", "orbitcodes", "construct", "--family", family, "--q", str(q)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        timeout=10,
    )
    assert res.returncode == EXIT_PRECONDITION
    assert json.loads(res.stdout)["error"] == "order_overflow"


def test_custom_requires_input(capsys):
    code, _, _ = run_cli(capsys, "construct", "--family", "custom")
    assert code == EXIT_PRECONDITION


def test_verify_fails_on_broken_custom_instance(tmp_path, capsys):
    # groups equal: the trivial-intersection check must fail with exit 1
    doc = {
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
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
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
