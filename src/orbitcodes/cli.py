"""Command-line front end.

Commands
  construct      build a code and write the code JSON
  verify         run the condition checks and print per-condition reports
  distance       compute the exact minimum distance and compare to the bound
  automorphisms  certify the faithful group action on the code
  export         re-serialize a code or instance file in canonical form

Human-readable progress goes to stderr; the machine-readable JSON report
goes to stdout and, when --output is given, to that file as well.  Output
bytes are deterministic for a fixed configuration: there is no flag to
reorder points or rows, and all internal choices are canonical.

Exit codes: 0 success, 1 a mathematical check failed, 2 precondition or
usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import CheckFailure, OrbitCodesError, PreconditionError

# The math (construction, serialize) is imported in the command path, after
# the usage checks, and json where a document is read or written, so that
# --help, a usage error and `import orbitcodes.cli` load none of the math.
# code_analysis is imported only by the commands that run it, distance and
# automorphisms.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2


def _say(msg: str):
    print(msg, file=sys.stderr)


def _emit(doc: dict, output: str | None):
    """Write a command's report to `output` first, then to stdout."""
    from .serialize import dumps

    _write(dumps(doc), output)


def _write(text: str, output: str | None):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError("bad_output", f"cannot write {output}: {exc}") from None
    sys.stdout.write(text)


def _failure_text(doc: dict) -> str:
    """The canonical text of `serialize.dumps`, from json alone: a command
    can stop before any math is imported."""
    import json

    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _read_document(path: str) -> dict:
    """The JSON object in `path`; a missing or unreadable file and malformed
    JSON are bad input."""
    import json

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PreconditionError("bad_input", f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise PreconditionError("bad_input", f"{path} does not hold a JSON object")
    return doc


def _load_instance(ns: argparse.Namespace):
    from .construction import builtin_instance

    if ns.family != "custom":
        return builtin_instance(ns.family, ns.q, ns.m)
    from .serialize import instance_from_dict

    doc = _read_document(ns.input)
    try:
        return instance_from_dict(doc)
    except (LookupError, TypeError, ValueError) as exc:
        raise PreconditionError(
            "bad_input", f"malformed instance document: {type(exc).__name__}: {exc}"
        ) from None


def run(ns: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        return _dispatch(ns)
    except CheckFailure as exc:
        _say(f"check failed: {exc}")
        doc = {"schema": "orbitcodes.verify.v1", "passed": False, "checks": [exc.report.as_dict()]}
        return _report(doc, ns.output, EXIT_CHECK_FAILED)
    except PreconditionError as exc:
        _say(f"precondition error [{exc.kind}]: {exc}")
        output = None if exc.kind == "bad_output" else ns.output  # never retry it
        return _report(_error_doc(exc), output, EXIT_PRECONDITION)
    except OrbitCodesError as exc:
        _say(f"error: {exc}")
        return EXIT_PRECONDITION


def _error_doc(exc: PreconditionError) -> dict:
    return {"schema": "orbitcodes.error.v1", "error": exc.kind, "message": str(exc),
            "details": exc.details}


def _report(doc: dict, output: str | None, status: int) -> int:
    """Write a failure document, or the bad_output error if `output` fails."""
    try:
        _write(_failure_text(doc), output)
    except PreconditionError as exc:
        _say(f"precondition error [{exc.kind}]: {exc}")
        _write(_failure_text(_error_doc(exc)), None)
        return EXIT_PRECONDITION
    return status


def _dispatch(ns: argparse.Namespace) -> int:
    # the checks on the arguments alone come before any math is imported
    if getattr(ns, "m", 1) < 1:
        raise PreconditionError("usage", "--m must be >= 1")
    if getattr(ns, "max_messages", None) is not None and ns.max_messages < 1:
        raise PreconditionError("usage", "--max-messages must be >= 1")
    if ns.command == "export" and not ns.input:
        raise PreconditionError("usage", "export requires --input")
    if getattr(ns, "family", None) == "custom" and not ns.input:
        raise PreconditionError("usage", "family 'custom' requires --input")
    if ns.command == "export":
        doc = _read_document(ns.input)
        if doc.get("schema") not in (
            "orbitcodes.code.v1",
            "orbitcodes.instance.v1",
            "orbitcodes.verify.v1",
        ):
            raise PreconditionError("usage", "unrecognized schema in input document")
        _emit(doc, ns.output)
        _say(f"re-serialized {doc['schema']} document")
        return EXIT_OK

    from . import serialize
    from .construction import ConstructionResult, EvalCode, run_construction

    inst = _load_instance(ns)
    strict = ns.command != "verify"
    result = run_construction(inst, strict=strict)
    meta = {"family": inst.family, "q": inst.q, "m": inst.m}

    if ns.command == "verify":
        for rep in result.reports:
            _say(f"  [{'pass' if rep.passed else 'FAIL'}] {rep.name}")
        _emit(serialize.report_to_dict(result.reports, meta), ns.output)
        return EXIT_OK if result.passed else EXIT_CHECK_FAILED

    if ns.command == "construct":
        code = result.code
        _say(
            f"constructed [{code.n}, {code.rank}, >={code.distance_bound}]_"
            f"{inst.ground.order} code; joint group order {result.joint_order}"
        )
        q_part = "" if inst.q is None else f"_q{inst.q}"
        output = ns.output or f"{inst.family}{q_part}_m{inst.m}.code.json"
        _emit(serialize.result_to_dict(result), output)
        _say(f"wrote {output}")
        return EXIT_OK

    if ns.command == "distance":
        from .code_analysis import DEFAULT_MESSAGE_GUARD, min_distance_exact

        guard = DEFAULT_MESSAGE_GUARD if ns.max_messages is None else ns.max_messages
        c = result.code
        d = min_distance_exact(c, guard)
        code = EvalCode(c.field, c.points, c.matrix, c.rank, c.distance_bound, d)
        result = ConstructionResult(
            result.instance, result.reports, result.divisor, result.points, result.joint_order, code
        )
        ok = d >= code.distance_bound
        _say(
            f"exact minimum distance {d}, designed bound {code.distance_bound} "
            f"({'met' if ok else 'VIOLATED'})"
        )
        _emit(serialize.result_to_dict(result), ns.output)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if ns.command == "automorphisms":
        from .code_analysis import verify_faithful

        joint = inst.joint_group()
        rep = verify_faithful(joint, result.points, result.code)
        _say(
            f"faithful action: {'yes' if rep.passed else 'NO'}; "
            f"group order {joint.order}, image order {rep.details.get('image_order')}"
        )
        doc = serialize.report_to_dict([rep], meta)
        doc["joint_group_order"] = joint.order
        _emit(doc, ns.output)
        return EXIT_OK if rep.passed else EXIT_CHECK_FAILED

    raise PreconditionError("usage", f"unknown command {ns.command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcodes",
        description=(
            "Construct evaluation codes on plane curves with prescribed "
            "automorphism groups, verify the construction conditions, and "
            "compute exact code parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("construct", "build a code and write the code JSON"),
        ("verify", "run the condition checks and report pass/fail"),
        (
            "distance",
            "compute the exact minimum distance by the cheaper of two exact "
            "methods: a scan of messages up to scalars or a Brouwer-Zimmermann search",
        ),
        ("automorphisms", "certify the faithful group action on the code"),
        ("export", "re-serialize a JSON document in canonical form"),
    ]:
        cmd = sub.add_parser(name, help=desc)
        if name != "export":
            cmd.add_argument(
                "--family",
                choices=["fermat", "projline", "bf", "custom"],
                default="fermat",
            )
            cmd.add_argument("--q", type=int, default=3, help="family size parameter")
            cmd.add_argument("--m", type=int, default=1, help="divisor scale (>= 1)")
        cmd.add_argument("--input", help="input JSON (custom instance or export source)")
        cmd.add_argument("--output", help="write the JSON report to this file")
        if name == "distance":
            cmd.add_argument(
                "--max-messages",
                type=int,
                help=(
                    "guard on the codewords up to scalars the chosen method forms: "
                    "(|F|^k - 1)/(|F| - 1) for the scan, the estimate and then the "
                    "count for Brouwer-Zimmermann; at least 1 (raise to force)"
                ),
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PRECONDITION if exc.code not in (0, None) else EXIT_OK
    return run(ns)


def process_main():
    """The process entry point of `python -m orbitcodes` and the `orbitcodes`
    script: run `main`, then exit with its status."""
    status = main()
    # The process is about to exit, so the full collections of interpreter
    # shutdown would only walk the objects left from the import and the job
    # for cycles the exit frees anyway.  Freezing moves every tracked object
    # out of the collector's generations, so shutdown skips them.  `main`
    # itself has no gc side effect, since tests call it in-process.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    process_main()
