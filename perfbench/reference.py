"""Fixed reference work, timed next to every CLI call to tell how fast the
machine runs at that moment.

The benchmark runs on a few virtual CPUs of a shared host.  There, plain
Python code speeds up and slows down by tens of percent over seconds to
minutes, with no steal time recorded, as other tenants come and go.  A
CLI call's own time then says as much about the host as about the
program.  So every timed call is bracketed by two timings of the work
below, and its wall time is divided by their mean and multiplied by
NOMINAL_S: the call's time on a host where this work takes NOMINAL_S.

The work is a matrix-group closure over GF(9) with one Python object per
field element -- the same kind of work (small objects, tuples, hashing,
operator methods) the orbitcodes jobs do.  It imports nothing from the
program, so a change to the program cannot move it.  Do not change it:
times scaled by a different reference work are not comparable.

    python3 perfbench/reference.py      # print one timing
"""

from __future__ import annotations

import time

# Median of timed() on the machine of the first baseline (BASELINE.md).
NOMINAL_S = 0.2

REPS = 12
GROUP_ORDER = 192


class _Elem:
    """Element a0 + a1*w of GF(3^2) = GF(3)[w] / (w^2 - NONRES)."""

    __slots__ = ("c",)
    P = 3
    NONRES = 2

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        a0, a1 = self.c
        b0, b1 = other.c
        return _Elem(((a0 + b0) % self.P, (a1 + b1) % self.P))

    def __mul__(self, other):
        a0, a1 = self.c
        b0, b1 = other.c
        return _Elem(((a0 * b0 + self.NONRES * a1 * b1) % self.P, (a0 * b1 + a1 * b0) % self.P))

    def __eq__(self, other):
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(1, n)), a[i][0] * b[0][j]) for j in range(n))
        for i in range(n)
    )


def work() -> int:
    """Close the group generated by diag(w, 1, 1) and a 3-cycle, REPS
    times; return the order found each time (GROUP_ORDER)."""
    zero, one, w = _Elem((0, 0)), _Elem((1, 0)), _Elem((0, 1))
    gens = (((w, zero, zero), (zero, one, zero), (zero, zero, one)),
            ((zero, one, zero), (zero, zero, one), (one, zero, zero)))
    ident = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    for _ in range(REPS):
        elements, seen, idx = [ident], {ident}, 0
        while idx < len(elements):
            m = elements[idx]
            idx += 1
            for g in gens:
                prod = _matmul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
    return len(elements)


def timed() -> float:
    """Wall time of one work() call, in seconds."""
    start = time.perf_counter()
    order = work()
    elapsed = time.perf_counter() - start
    if order != GROUP_ORDER:
        raise RuntimeError(f"reference work found order {order}, not {GROUP_ORDER}")
    return elapsed


class Clock:
    """Scales the wall time of each call made between two of its scale()
    calls by the reference timings taken just before and just after it."""

    def __init__(self, timer=timed):
        self.timer = timer
        self.timer()  # warm-up
        self.before = self.timer()

    def scale(self, wall_s: float) -> float:
        after = self.timer()
        scaled = wall_s * NOMINAL_S * 2 / (self.before + after)
        self.before = after
        return scaled


if __name__ == "__main__":
    print(f"{timed():.4f} s (nominal {NOMINAL_S} s)")
