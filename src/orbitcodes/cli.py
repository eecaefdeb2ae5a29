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
usage error, or a report or help that cannot be written to stdout.  A
stderr that cannot be written changes neither stdout nor the exit code.

One table, COMMANDS, defines every command and option.  A plain argv -- a
command, then pairs of an exact long option and a value that does not
start with "-" -- is read from that table directly; every other argv
(help, abbreviations, --opt=value, negative numbers, usage errors) goes to
the argparse parser that `build_parser` builds from the same table.  The
process entry point flushes stdout and stderr and leaves with os._exit,
without interpreter teardown.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from .errors import CheckFailure, OrbitCodesError, PreconditionError, dumps, report_to_dict

# The math (construction) is imported in the command path, after the usage
# checks and export, and json where a document is read or written, so that
# --help, a usage error, export and `import orbitcodes.cli` load none of the
# math.  The other modules are imported only where they run: serialize by
# construct, distance and a custom instance; code_analysis by automorphisms;
# code_analysis and enumeration by distance when the geometry does not prove
# the distance (`construction.certified_distance`).

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2


def _say(msg: str):
    """Print a progress line to stderr; a stderr that cannot be written
    changes neither the report nor the exit status."""
    try:
        print(msg, file=sys.stderr)
    except OSError:
        pass


def _emit(doc: dict, output: str | None):
    """Write a command's report to `output` first, then to stdout, and flush
    stdout, so that a stdout that cannot be written is bad output too.

    The file is rewritten in place: it is opened without O_TRUNC and any
    old tail is cut after the write, since truncating a file on open can
    wait for the write-back of its previous contents.  Only a regular file
    is cut; a device such as /dev/null cannot be."""
    text = dumps(doc)
    if output:
        try:
            with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
        except OSError as exc:
            raise PreconditionError("bad_output", f"cannot write {output}: {exc}") from None
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise PreconditionError(
            "bad_output", f"cannot write stdout: {exc}", {"stream": "stdout"}
        ) from None


def _read_document(path: str) -> dict:
    """The JSON object in `path`; a missing or unreadable file and malformed
    JSON are bad input."""
    import json

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        raise PreconditionError("bad_input", f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise PreconditionError("bad_input", f"{path} does not hold a JSON object")
    return doc


def _load_instance(ns):
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


def run(ns) -> int:
    """Execute one parsed command, the namespace of `_plain_args` or of
    `build_parser`; returns the process exit code."""
    try:
        return _dispatch(ns)
    except CheckFailure as exc:
        _say(f"check failed: {exc}")
        return _report(report_to_dict([exc.report], {}), ns.output, EXIT_CHECK_FAILED)
    except PreconditionError as exc:
        return _fail(exc, ns.output)
    except OrbitCodesError as exc:
        _say(f"error: {exc}")
        return EXIT_PRECONDITION


def _error_doc(exc: PreconditionError) -> dict:
    return {"schema": "orbitcodes.error.v1", "error": exc.kind, "message": str(exc),
            "details": exc.details}


def _fail(exc: PreconditionError, output: str | None) -> int:
    """Say a precondition error and write its document.  An output that
    failed is never retried: the document of a failed file goes to stdout
    alone, and a failed stdout gets no document."""
    _say(f"precondition error [{exc.kind}]: {exc}")
    if exc.details.get("stream") == "stdout":
        return EXIT_PRECONDITION
    return _report(_error_doc(exc), None if exc.kind == "bad_output" else output,
                   EXIT_PRECONDITION)


def _report(doc: dict, output: str | None, status: int) -> int:
    """Write a failure document, or the bad_output error if an output fails."""
    try:
        _emit(doc, output)
    except PreconditionError as exc:
        return _fail(exc, output)
    return status


def _dispatch(ns) -> int:
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

    from .construction import certified_distance, run_construction

    inst = _load_instance(ns)
    strict = ns.command != "verify"
    result = run_construction(inst, strict=strict)
    meta = {"family": inst.family, "q": inst.q, "m": inst.m}

    if ns.command == "verify":
        for rep in result.reports:
            _say(f"  [{'pass' if rep.passed else 'FAIL'}] {rep.name}")
        _emit(report_to_dict(result.reports, meta), ns.output)
        return EXIT_OK if result.passed else EXIT_CHECK_FAILED

    if ns.command == "construct":
        from .serialize import result_to_dict

        code = result.code
        _say(
            f"constructed [{code.n}, {code.rank}, >={code.distance_bound}]_"
            f"{inst.ground.order} code; joint group order {result.joint_order}"
        )
        q_part = "" if inst.q is None else f"_q{inst.q}"
        output = ns.output or f"{inst.family}{q_part}_m{inst.m}.code.json"
        _emit(result_to_dict(result), output)
        _say(f"wrote {output}")
        return EXIT_OK

    if ns.command == "distance":
        from .serialize import result_to_dict

        # both raise CheckFailure on a distance below the designed bound
        d = certified_distance(result)
        if d is None:
            from .code_analysis import DEFAULT_MESSAGE_GUARD, min_distance_exact

            guard = DEFAULT_MESSAGE_GUARD if ns.max_messages is None else ns.max_messages
            d = min_distance_exact(result.code, guard)
        _say(f"exact minimum distance {d}, designed bound {result.code.distance_bound} (met)")
        doc = result_to_dict(result)
        doc["distance_exact"] = d
        _emit(doc, ns.output)
        return EXIT_OK

    if ns.command == "automorphisms":
        from .code_analysis import verify_faithful

        joint = inst.joint_group()
        rep = verify_faithful(joint, result.points, result.code)
        _say(
            f"faithful action: {'yes' if rep.passed else 'NO'}; "
            f"group order {joint.order}, image order {rep.details.get('image_order')}"
        )
        doc = report_to_dict([rep], meta)
        doc["joint_group_order"] = joint.order
        _emit(doc, ns.output)
        return EXIT_OK if rep.passed else EXIT_CHECK_FAILED

    raise PreconditionError("usage", f"unknown command {ns.command!r}")


# The commands, each with its help and its options, and each option with
# the keyword arguments of argparse's `add_argument`.  An option without a
# default defaults to None.
_INSTANCE_OPTIONS = (
    ("--family", {"choices": ["fermat", "projline", "bf", "custom"], "default": "fermat"}),
    ("--q", {"type": int, "default": 3, "help": "family size parameter"}),
    ("--m", {"type": int, "default": 1, "help": "divisor scale (>= 1)"}),
)
_IO_OPTIONS = (
    ("--input", {"help": "input JSON (custom instance or export source)"}),
    ("--output", {"help": "write the JSON report to this file"}),
)
_CODE_OPTIONS = _INSTANCE_OPTIONS + _IO_OPTIONS
COMMANDS = {
    "construct": ("build a code and write the code JSON", _CODE_OPTIONS),
    "verify": ("run the condition checks and report pass/fail", _CODE_OPTIONS),
    "distance": (
        "compute the exact minimum distance: proved from the geometry where it "
        "applies (the root count on P^1, Bezout on a smooth diagonal curve), else "
        "by the cheaper of a scan of messages up to scalars and a "
        "Brouwer-Zimmermann search",
        _CODE_OPTIONS + (
            ("--max-messages", {
                "type": int,
                "help": (
                    "guard on the codewords up to scalars an enumeration forms: "
                    "(|F|^k - 1)/(|F| - 1) for the scan, the estimate and then the "
                    "count for Brouwer-Zimmermann; a distance the geometry proves "
                    "forms none; at least 1 (raise to force)"
                ),
            }),
        ),
    ),
    "automorphisms": ("certify the faithful group action on the code", _CODE_OPTIONS),
    "export": ("re-serialize a JSON document in canonical form", _IO_OPTIONS),
}


def build_parser():
    """The argparse parser of COMMANDS."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse's own write drops an OSError; help that cannot be
            # written must reach `main` as a failed write
            (file or sys.stdout).write(self.format_help())

    parser = Parser(
        prog="orbitcodes",
        description=(
            "Construct evaluation codes on plane curves with prescribed "
            "automorphism groups, verify the construction conditions, and "
            "compute exact code parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=desc)
        for option, kwargs in options:
            cmd.add_argument(option, **kwargs)
    return parser


def _dest(option: str) -> str:
    """The attribute argparse stores a long option in: --max-messages is
    max_messages."""
    return option[2:].replace("-", "_")


def _plain_args(argv):
    """The namespace argparse would build from `argv` when argv is a
    command followed by pairs of an exact long option of that command and
    a value that does not start with "-", each value of the option's type
    and among its choices; None for any other argv."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = dict(COMMANDS[argv[0]][1])
    values = {_dest(option): kwargs.get("default") for option, kwargs in options.items()}
    for option, value in zip(argv[1::2], argv[2::2]):
        kwargs = options.get(option)
        if kwargs is None or value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[_dest(option)] = value
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _plain_args(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_PRECONDITION if exc.code not in (0, None) else EXIT_OK
        except OSError:  # help that cannot be written to stdout
            return EXIT_PRECONDITION
    return run(ns)


def process_main():
    """The process entry point of `python -m orbitcodes` and the `orbitcodes`
    script: run `main`, flush stdout and stderr, and exit with its status."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError:  # help left in the buffer; `_emit` flushes a report itself
        status = EXIT_PRECONDITION
    try:
        sys.stderr.flush()
    except OSError:  # progress that cannot be written changes nothing
        pass
    # os._exit skips interpreter teardown (module cleanup, the shutdown
    # collections, freeing the heap), which frees nothing the exit does not;
    # `main` itself has no process side effect, since tests call it in-process
    os._exit(status)


if __name__ == "__main__":
    process_main()
