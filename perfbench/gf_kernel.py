"""Untraced microkernel for the field layer: nanoseconds per FieldElement
multiply, add and invert, through the public operators only.

    python3 perfbench/gf_kernel.py PASSES ORDER [ORDER ...]

Each pass times `a * b` and `a + b` over all ordered pairs of every listed
field and `a.inv()` over every unit; the time per operation includes the
loop step.  Prints {"mul_ns": ..., "add_ns": ..., "inv_ns": ...}, each the
median over passes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbitcodes.gf import make_field, prime_power  # noqa: E402


def _pass(fields) -> dict[str, float]:
    clock = time.perf_counter_ns
    spent = {"mul_ns": 0, "add_ns": 0, "inv_ns": 0}
    ops = {"mul_ns": 0, "add_ns": 0, "inv_ns": 0}
    for els in fields:
        t0 = clock()
        for a in els:
            for b in els:
                a * b
        t1 = clock()
        for a in els:
            for b in els:
                a + b
        t2 = clock()
        for a in els[1:]:
            a.inv()
        t3 = clock()
        spent["mul_ns"] += t1 - t0
        spent["add_ns"] += t2 - t1
        spent["inv_ns"] += t3 - t2
        ops["mul_ns"] += len(els) ** 2
        ops["add_ns"] += len(els) ** 2
        ops["inv_ns"] += len(els) - 1
    return {key: spent[key] / ops[key] for key in spent}


def main(argv: list[str]) -> int:
    passes, *orders = (int(x) for x in argv)
    fields = [list(make_field(*prime_power(q)).elements()) for q in orders]
    runs = [_pass(fields) for _ in range(passes)]
    print(json.dumps({key: statistics.median(r[key] for r in runs) for key in runs[0]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
