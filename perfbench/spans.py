"""Turn recorded spans into per-layer self times and call counts.

A span is [name, start, end, parent index] (parent -1 for a root).  Its
self time is its duration minus the part of that interval its child spans
cover; several spans may share a name, and their self times and calls add.
"""

from __future__ import annotations

from collections import defaultdict


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(start, end, children[i])
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def aggregate(spans) -> dict[str, float]:
    """`<name>.self_s` and `<name>.calls` for every span name."""
    out: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    return out


def merge(totals: dict, part: dict):
    """Add one job's metrics into a workload's sums."""
    for key, value in part.items():
        totals[key] = totals.get(key, 0) + value
