"""Start-up: what `--help`, a usage error, `import orbitcodes` and each
command load (argparse only where the argv is not plain), the package
names that resolve on first use, and the plain-class CheckReport that
keeps `dataclasses` off that path."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import pytest

import orbitcodes
from orbitcodes import cli, errors, serialize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# sha256 of the help text at 80 columns, recorded before the CLI imported
# its math on the command path; the same bytes on Python 3.10 to 3.13
HELP_SHA256 = {
    # re-recorded when the distance command's help came to say that the
    # geometry proves the distance where it applies, and that the cheaper
    # of the two enumerations runs otherwise
    ("--help",): "7ef249f725b7b204bdcdca6e33bedd0a39fcebedabd6fbbed1eafeb4a97e9346",
    # re-recorded when the --max-messages help came to say that the guard
    # counts only what an enumeration forms
    ("distance", "--help"): "0045a1c25c9cdbdd2af838eae5c8e4851f244792a4b24aeca919ee1664f927cc",
    # recorded before the commands and options moved into one table that
    # argparse and the plain-argv reader both read
    ("construct", "--help"): "6c595b85e2c6a40a13923f07f4dfdc473069a85c18a998d7da37868a8c38ff2e",
    ("verify", "--help"): "b6599eb226d6ea843c9519553315218e457adc2e0bca6670df4f30a925d34bdd",
    ("automorphisms", "--help"): "7fc0248c8139b0d24bd4e395adea9fe0ddebbca39825dbad91d79e3208b8b463",
    ("export", "--help"): "74f5b0ab4a83e25aa71ae3d9ede12e874ba8ef509f2997fd85d763425c54f8b3",
}

# what start-up must not load: the math and the decorator machinery
HEAVY = {
    "orbitcodes.gf",
    "orbitcodes.geometry",
    "orbitcodes.autgroup",
    "orbitcodes.construction",
    "orbitcodes.code_analysis",
    "orbitcodes.enumeration",
    "orbitcodes.serialize",
    "dataclasses",
    "inspect",
}

# what argparse loads; a plain argv (a command and option pairs) loads none
PARSER = {"argparse", "gettext", "locale"}

# the names the package exported when it imported every submodule up front,
# less `build_code`, which is deleted (it returned `run_construction(inst).code`);
# `EvalCode` and `rank_and_rref` resolve from `construction`, where they are defined
EXPORTS = {
    "errors": ["CheckFailure", "CheckReport", "OrbitCodesError", "PreconditionError"],
    "gf": ["Embedding", "FieldElement", "FieldSpec", "embedding", "frobenius", "make_field",
           "root_of_unity"],
    "geometry": ["PlaneCurve", "ProjPoint", "fermat_curve", "plane_curve", "point",
                 "projective_line", "trace_fermat_curve"],
    "autgroup": ["AutGroup", "ProjMap", "builtin_generators", "close", "diagonal_map",
                 "identity_map"],
    "code_analysis": ["CoordPermutation", "min_distance_exact", "permutation_of",
                      "preserves_code", "verify_faithful"],
    "construction": ["ConstructionResult", "Divisor", "EvalBasis", "EvalCode", "Instance",
                     "build_basis", "build_divisor", "builtin_instance", "check_condition_b",
                     "check_condition_d", "rank_and_rref", "run_construction"],
}


def run_fresh(*args):
    """Run `python -S -X importtime -v ARGS` on the source tree.  importtime
    lists the modules that import statements load; -v also names those
    loaded through importlib, such as `from package import submodule`."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-v", *args],
        capture_output=True,
        env=env,
        timeout=60,
    )


def loaded_modules(stderr: bytes) -> set:
    text = stderr.decode(errors="replace")
    timed = re.findall(r"^import time:[^|]*\|[^|]*\|\s*([\w.]+)\s*$", text, re.MULTILINE)
    verbose = re.findall(r"^import '([\w.]+)'", text, re.MULTILINE)
    return set(timed) | set(verbose)


@pytest.mark.parametrize(
    "argv,status,parsed",
    [
        (("--help",), 0, True),
        (("distance", "--help"), 0, True),
        (("construct", "--no-such-option"), 2, True),  # an argparse usage error
        (("construct", "--m", "0"), 2, False),  # a usage check of the CLI
        (("construct", "--help"), 0, True),
        (("verify", "--help"), 0, True),
        (("automorphisms", "--help"), 0, True),
        (("export", "--help"), 0, True),
    ],
    ids=["help", "distance-help", "argparse-usage", "m-0", "construct-help", "verify-help",
         "automorphisms-help", "export-help"],
)
def test_start_up_loads_no_math(argv, status, parsed):
    res = run_fresh("-m", "orbitcodes", *argv)
    assert res.returncode == status
    loaded = loaded_modules(res.stderr)
    assert "orbitcodes.cli" in loaded  # the listing works
    assert not loaded & HEAVY
    assert (loaded & PARSER == PARSER) if parsed else not loaded & PARSER
    if argv in HELP_SHA256:
        assert hashlib.sha256(res.stdout).hexdigest() == HELP_SHA256[argv]


@pytest.mark.parametrize(
    "command,family,q,analysis,enumeration,serialize",
    [
        ("construct", "fermat", 3, False, False, True),
        ("verify", "fermat", 3, False, False, False),
        ("distance", "fermat", 3, False, False, True),  # the geometry proves the distance
        ("distance", "bf", 2, True, True, True),  # a singular curve: the distance is enumerated
        ("automorphisms", "fermat", 3, True, False, False),
    ],
    ids=["construct-False", "verify-False", "distance-False", "distance-True",
         "automorphisms-True"],
)
def test_code_analysis_loads_only_for_the_commands_that_run_it(tmp_path, command, family, q,
                                                               analysis, enumeration, serialize):
    res = run_fresh("-m", "orbitcodes", command, "--family", family, "--q", str(q),
                    "--output", str(tmp_path / "out.json"))
    assert res.returncode == 0
    loaded = loaded_modules(res.stderr)
    assert "orbitcodes.construction" in loaded  # the listing works
    assert ("orbitcodes.code_analysis" in loaded) == analysis
    assert ("orbitcodes.enumeration" in loaded) == enumeration
    assert ("orbitcodes.serialize" in loaded) == serialize
    assert not loaded & PARSER


def test_traced_enumeration_keeps_its_code_analysis_names(tmp_path):
    # perfbench wraps `min_distance_exact` by its name in `code_analysis`,
    # which forwards to `enumeration`: the span and its message count stay
    out = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(out), "bf2-m3", "--",
         "distance", "--family", "bf", "--q", "2", "--m", "3", "--output",
         str(tmp_path / "out.json")],
        capture_output=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    trace = json.loads(out.read_text())
    assert [s[0] for s in trace["spans"]].count("code_analysis.min_distance_exact") == 1
    assert trace["counts"]["code_analysis.messages"] == 16**10 - 1  # [48, 10] over GF(16)


def test_export_loads_no_math(tmp_path):
    doc = tmp_path / "in.json"
    doc.write_text('{"schema": "orbitcodes.verify.v1", "passed": true, "checks": []}')
    res = run_fresh("-m", "orbitcodes", "export", "--input", str(doc))
    assert res.returncode == 0
    assert res.stdout == (
        b'{\n "checks": [],\n "passed": true,\n "schema": "orbitcodes.verify.v1"\n}\n'
    )
    loaded = loaded_modules(res.stderr)
    assert "orbitcodes.cli" in loaded  # the listing works
    assert not loaded & (HEAVY | PARSER)


def test_import_package_loads_no_submodule():
    res = run_fresh("-c", "import orbitcodes")
    assert res.returncode == 0
    loaded = loaded_modules(res.stderr)
    assert "orbitcodes" in loaded
    assert not {name for name in loaded if name.startswith("orbitcodes.")}


def test_resolving_the_code_value_loads_no_code_analysis():
    res = run_fresh("-c", "import orbitcodes; orbitcodes.EvalCode; orbitcodes.rank_and_rref")
    assert res.returncode == 0
    loaded = loaded_modules(res.stderr)
    assert "orbitcodes.construction" in loaded  # the listing works
    assert "orbitcodes.code_analysis" not in loaded


def test_usage_error_document_is_the_canonical_text(capsys):
    assert cli.main(["construct", "--m", "0"]) == cli.EXIT_PRECONDITION
    stdout = capsys.readouterr().out
    doc = {"schema": "orbitcodes.error.v1", "error": "usage", "message": "--m must be >= 1",
           "details": {}}
    assert stdout == serialize.dumps(doc)
    assert serialize.dumps is errors.dumps is cli.dumps


def test_every_public_name_resolves_to_its_submodule_object():
    want = {name: module for module, names in EXPORTS.items() for name in names}
    assert sorted(orbitcodes.__all__) == sorted(want)
    listed = dir(orbitcodes)
    for name, module in want.items():
        home = importlib.import_module(f"orbitcodes.{module}")
        assert getattr(orbitcodes, name) is getattr(home, name), name
        assert name in listed, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orbitcodes.no_such_name
    with pytest.raises(ImportError):
        from orbitcodes import no_such_name  # noqa: F401


@dataclass
class CheckReport:
    """The dataclass that `errors.CheckReport` replaced: the oracle."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    witness: Any = None


@pytest.mark.parametrize(
    "args,kwargs",
    [
        (("condition_b", True), {}),
        (("condition_b", False, {"orders": [3, 3]}), {}),
        (("faithful_embedding", False, {"reason": "x"}), {"witness": {"element": [1, 2]}}),
        (("distance_bound",), {"passed": False, "details": {"weight": 3}, "witness": [0]}),
    ],
)
def test_check_report_matches_the_dataclass(args, kwargs):
    new, old = errors.CheckReport(*args, **kwargs), CheckReport(*args, **kwargs)
    assert repr(new) == repr(old)
    assert vars(new) == vars(old)
    assert new.as_dict() == {"name": old.name, "passed": old.passed, "details": old.details,
                             **({"witness": old.witness} if old.witness is not None else {})}
    assert new == errors.CheckReport(*args, **kwargs)
    assert (new == errors.CheckReport("other", True)) == (old == CheckReport("other", True))
    with pytest.raises(TypeError):
        hash(new)


def test_check_report_equality_and_defaults():
    a, b = errors.CheckReport("x", True), errors.CheckReport("x", True)
    assert a == b and a.details == {} and a.details is not b.details
    assert a != errors.CheckReport("x", True, {"k": 1})
    assert a != errors.CheckReport("x", True, witness=0)
    assert a.__eq__(CheckReport("x", True)) is NotImplemented
    assert a.__eq__(("x", True, {}, None)) is NotImplemented
    assert a != "x"
