"""Run one orbitcodes CLI call with spans and counters around the package's
public functions, then write them to a JSON file.

    python3 perfbench/trace_child.py OUT.json JOB_ID -- construct --family fermat --q 3

The wrappers live here, not in the package.  Each one replaces the original
everywhere it is bound -- the defining module, and every module that took
it with `from ... import` (construction.close, cli.min_distance_exact, ...)
-- because a wrapper set only on the defining module misses those calls.

Spans are [name, start, end, parent index] with perf_counter times; they
stay in memory and are written after the command returns.  The CLI's own
stdout is untouched, so the caller can gate it like an untraced job.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute) -> span name.  "Class.method" names a method.
SPANS = {
    ("gf", "make_field"): "gf.make_field",
    ("geometry", "PlaneCurve.rational_points"): "geometry.rational_points",
    ("geometry", "poly_eval"): "geometry.poly_eval",
    ("geometry", "substitute_linear"): "geometry.substitute_linear",
    ("autgroup", "close"): "autgroup.close",
    ("autgroup", "AutGroup.orbit"): "autgroup.orbit",
    ("autgroup", "AutGroup.orbit_multiset"): "autgroup.orbit",
    ("autgroup", "ProjMap.preserves_curve"): "autgroup.preserves_curve",
    ("autgroup", "builtin_generators"): "autgroup.builtin_generators",
    ("construction", "Instance.joint_group"): "construction.joint_group",
    ("construction", "builtin_instance"): "construction.builtin_instance",
    ("construction", "check_curve_preservation"): "construction.check_curve_preservation",
    ("construction", "check_condition_b"): "construction.check_condition_b",
    ("construction", "build_divisor"): "construction.build_divisor",
    ("construction", "check_condition_d"): "construction.check_condition_d",
    ("construction", "build_basis"): "construction.build_basis",
    ("construction", "run_construction"): "construction.run_construction",
    ("code_analysis", "verify_faithful"): "code_analysis.verify_faithful",
    ("code_analysis", "preserves_code"): "code_analysis.preserves_code",
    ("code_analysis", "rank_and_rref"): "code_analysis.rank_and_rref",
    ("code_analysis", "permutation_of"): "code_analysis.permutation_of",
    ("code_analysis", "min_distance_exact"): "code_analysis.min_distance_exact",
    ("serialize", "result_to_dict"): "serialize.result_to_dict",
    ("serialize", "dumps"): "serialize.dumps",
    ("serialize", "instance_from_dict"): "serialize.instance_from_dict",
}

# (module, attribute) -> counter name, for calls too frequent for a span.
COUNTERS = {
    ("gf", "FieldElement.__mul__"): "gf.mul.calls",
    ("gf", "FieldElement.__add__"): "gf.add.calls",
    ("gf", "FieldElement.__sub__"): "gf.add.calls",
    ("gf", "FieldElement.inv"): "gf.inv.calls",
    ("autgroup", "ProjMap.__matmul__"): "autgroup.matmul.calls",
    ("autgroup", "ProjMap.apply"): "autgroup.apply.calls",
}


def _messages(result, code, *args):
    return code.field.order**code.rank - 1


# span name -> (counter, amount computed from the result and arguments)
AMOUNTS = {
    "autgroup.close": ("autgroup.elements_closed", lambda result, *args: result.order),
    "code_analysis.min_distance_exact": ("code_analysis.messages", _messages),
    "serialize.dumps": ("serialize.bytes_out", lambda result, *args: len(result.encode())),
}


class Recorder:
    """The spans and counts of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if amount:
                self.add(amount[0], amount[1](result, *args))
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_generator(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def add(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount


def _replace(module_name: str, attr: str, make_wrapper):
    module = importlib.import_module(f"orbitcodes.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "orbitcodes" or name.startswith("orbitcodes."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(rec: Recorder):
    """Wrap every function in SPANS and COUNTERS, wherever it is bound."""
    importlib.import_module("orbitcodes.cli")
    for (module, attr), name in SPANS.items():
        _replace(module, attr, functools.partial(rec.span, name))
    for (module, attr), name in COUNTERS.items():
        _replace(module, attr, functools.partial(rec.counter, name))
    _replace(
        "geometry",
        "projective_reps",
        functools.partial(rec.counting_generator, "geometry.points_scanned"),
    )


def main(argv: list[str]) -> int:
    out, job_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py OUT.json JOB_ID -- ARGS...")
    sys.path.insert(0, str(ROOT / "src"))
    rec = Recorder()
    install(rec)
    from orbitcodes import cli

    rc = rec.span("cli.main", cli.main)(args)
    sys.stdout.flush()
    Path(out).write_text(json.dumps({"job": job_id, "spans": rec.spans, "counts": rec.counts}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
