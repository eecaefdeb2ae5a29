"""Benchmark of real orbitcodes CLI jobs.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload construct distance certify --seed 1 --seconds 42

Workloads (see WORKLOADS in harness.py and BASELINE.md for why each):
construct, distance, certify.  The seed fixes the job order and the
evaluation seed Q' of the custom fermat q=4 job.

--trace 0 measures end-to-end metrics within --seconds: it times
`python -m orbitcodes --help` SETUP_REPEATS times (setup_s), then cycles
through the workload's jobs, each a fresh process, until every job has
run MIN_CALLS times and the next would end after --seconds.  Every call
is bracketed by the reference work of reference.py and reported at
reference speed; setup_s is the median over calls, wall_s the sum over
jobs of each job's median.

--trace 1 measures per-layer metrics: one pass in which each job runs
untraced and then under trace_child.py (spans and counters around each
layer's public functions), then the untraced field microkernel.

Each workload prints one JSON result line on stdout and a readable table
on stderr.  Exits 2 without a result when the source tree or the CLI
cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import reference
import spans

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "gf.mul_ns", "gf.add_ns", "gf.inv_ns",
    "gf.mul.calls", "gf.add.calls", "gf.inv.calls", "gf.make_field.self_s",
    "geometry.rational_points.self_s", "geometry.rational_points.calls",
    "geometry.points_scanned", "geometry.poly_eval.self_s",
    "geometry.substitute_linear.self_s",
    "autgroup.close.self_s", "autgroup.close.calls", "autgroup.elements_closed",
    "autgroup.matmul.calls", "autgroup.apply.calls", "autgroup.orbit.self_s",
    "autgroup.preserves_curve.self_s", "autgroup.builtin_generators.self_s",
    "construction.joint_group.calls", "construction.builtin_instance.self_s",
    "construction.check_curve_preservation.self_s",
    "construction.check_condition_b.self_s", "construction.build_divisor.self_s",
    "construction.check_condition_d.self_s", "construction.build_basis.self_s",
    "construction.run_construction.self_s",
    "code_analysis.verify_faithful.self_s", "code_analysis.preserves_code.self_s",
    "code_analysis.preserves_code.calls", "code_analysis.rank_and_rref.self_s",
    "code_analysis.rank_and_rref.calls", "code_analysis.permutation_of.self_s",
    "code_analysis.min_distance_exact.self_s", "code_analysis.messages",
    "serialize.result_to_dict.self_s", "serialize.dumps.self_s",
    "serialize.instance_from_dict.self_s", "serialize.bytes_out",
    "cli.main.self_s", "cli.process_overhead_s",
    "cli.construct_s", "cli.distance_s", "cli.verify_s", "cli.automorphisms_s",
    "trace.overhead_s",
]

# Working-field orders of each workload's jobs, for the field microkernel.
WORKLOAD_FIELDS = {
    "construct": (9, 16, 25, 81, 13),
    "distance": (9, 11, 7),
    "certify": (16, 19, 25),
}

SETUP_REPEATS = 7
# Every job runs at least this often, even past --seconds: a job's median
# of one call is as noisy as the host.
MIN_CALLS = 2
KERNEL_PASSES = 15


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


class Fatal(Exception):
    """The program cannot be run at all; no result is printed."""


class Bench:
    """One workload's seeded plan, its work directory and its job tally."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.plan = harness.make_plan(workload, seed)
        self.workload = workload
        self.work = work
        self.env = harness.child_env()
        self.goldens = harness.load_json("goldens.json")
        self.attempted = 0
        self.failed = 0
        harness.write_inputs(self.plan, work)

    def record(self, job, result):
        problems = harness.check_output(job, result, self.goldens, self.plan.qprime)
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {job.id}: {'; '.join(problems)} {tail}", file=sys.stderr)
        return result

    def run_help(self):
        """One `python -m orbitcodes --help` call."""
        res = harness.run_process([sys.executable, "-m", "orbitcodes", "--help"],
                                  self.work, self.env)
        if res.returncode != 0:
            raise Fatal(f"`orbitcodes --help` exited {res.returncode}: "
                        + res.stderr.decode(errors="replace")[-400:])
        return res

    def run_job(self, job):
        return self.record(job, harness.run_process(
            harness.cli_argv(job), self.work, self.env))

    def run_traced(self, job) -> tuple[float, dict]:
        """Wall time and per-layer metrics of one job run under trace_child.py."""
        out = self.work / "spans.json"
        argv = [sys.executable, str(harness.BENCH_DIR / "trace_child.py"),
                str(out), job.id, "--", *job.args]
        res = self.record(job, harness.run_process(argv, self.work, self.env))
        if res.returncode is None or not out.exists():
            return res.wall_s, {}
        doc = json.loads(out.read_text())
        out.unlink()
        metrics = spans.aggregate(doc["spans"])
        spans.merge(metrics, doc["counts"])
        main_span = sum(end - start for name, start, end, _ in doc["spans"] if name == "cli.main")
        metrics["cli.process_overhead_s"] = res.wall_s - main_span
        return res.wall_s, metrics

    def kernel(self) -> dict:
        argv = [sys.executable, str(harness.BENCH_DIR / "gf_kernel.py"), str(KERNEL_PASSES),
                *(str(q) for q in WORKLOAD_FIELDS[self.workload])]
        res = harness.run_process(argv, self.work, self.env)
        self.attempted += 1
        if res.returncode != 0:
            self.failed += 1
            return {}
        return {f"gf.{k}": v for k, v in json.loads(res.stdout).items()}


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the same times unscaled."""
    start = time.perf_counter()
    bench.run_help()  # warm-up; also writes the bytecode cache
    clock = reference.Clock()
    setup_raw, setup = [], []
    for _ in range(SETUP_REPEATS):
        res = bench.run_help()
        setup_raw.append(res.wall_s)
        setup.append(clock.scale(res.wall_s))
    raw = {job.id: [] for job in bench.plan.jobs}
    scaled = {job.id: [] for job in bench.plan.jobs}
    rss = {job.id: [] for job in bench.plan.jobs}
    for job in itertools.cycle(bench.plan.jobs):
        times = raw[job.id]
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_CALLS and elapsed + times[-1] + clock.before > seconds:
            break
        res = bench.run_job(job)
        times.append(res.wall_s)
        scaled[job.id].append(clock.scale(res.wall_s))
        rss[job.id].append(res.maxrss_kb)
    median = statistics.median
    return {
        "setup_s": median(setup),
        "wall_s": sum(median(v) for v in scaled.values()),
        "peak_rss_mb": max(median(v) for v in rss.values()) / 1024,
    }, {
        "setup_s": median(setup_raw),
        "wall_s": sum(median(v) for v in raw.values()),
        "runs_per_job": min(len(v) for v in raw.values()),
    }


def measure_per_layer(bench: Bench) -> dict:
    """One pass in which each job runs untraced and then traced, so that
    trace.overhead_s compares runs made close together in time."""
    bench.run_help()  # warm-up
    totals = {f"cli.{command}_s": 0.0 for command in harness.COMMANDS}
    totals["trace.overhead_s"] = 0.0
    for job in bench.plan.jobs:
        plain = bench.run_job(job)
        traced_wall, metrics = bench.run_traced(job)
        spans.merge(totals, metrics)
        totals[f"cli.{job.command}_s"] += plain.wall_s
        totals["trace.overhead_s"] += traced_wall - plain.wall_s
    totals.update(bench.kernel())
    return {name: totals.get(name, 0) for name in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its table (stderr) and result line."""
    work = harness.ROOT / ".perfbench_work" / f"run-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work)
        unscaled = {}
        if trace:
            values = measure_per_layer(bench)
            units = {name: unit_of(name) for name in values}
        else:
            values, unscaled = measure_end_to_end(bench, seconds)
            units = END_TO_END
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"workload {workload}, seed {seed}: {bench.attempted} jobs, "
          f"fail_share {bench.failed / bench.attempted:.3f}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}", file=sys.stderr)
    for name, value in unscaled.items():
        print(f"  unscaled {name:39s} {value:>16.6g}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=sorted(harness.WORKLOADS),
                        help="one or more workloads, measured in the order given")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a stop request into an exception, so the running job is killed
    # and reaped and the work directory removed before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (harness.ROOT / "src" / "orbitcodes" / "__main__.py").is_file():
        print(f"no orbitcodes source tree under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in args.workload:
        rc = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
