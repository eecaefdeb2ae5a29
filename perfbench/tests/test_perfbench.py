"""Tests of the benchmark itself: span arithmetic, the reference clock, the
output gate, failure accounting, the seeded plan and the traced child.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
import reference
import run
import spans

FAST_JOB = harness.WORKLOADS["construct"][0]  # construct fermat q=3, well under a second
CUSTOM_JOB = next(j for j in harness.WORKLOADS["construct"] if j.expect.get("custom"))


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the root's children cover [1, 6]
        ["leaf", 2.0, 3.0, 1],
        ["b", 7.0, 9.5, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 3.0, 1.0, 2.5])
    totals = spans.aggregate(tree)
    assert totals["b.self_s"] == pytest.approx(5.5)
    assert totals["b.calls"] == 2
    assert totals["root.calls"] == 1


def test_merge_adds_per_key():
    totals = {"x.self_s": 1.0}
    spans.merge(totals, {"x.self_s": 0.5, "x.calls": 2})
    spans.merge(totals, {"x.calls": 3})
    assert totals == {"x.self_s": 1.5, "x.calls": 5}


def test_clock_scales_by_the_mean_of_the_bracketing_reference_times():
    ticks = iter([9.0, 0.1, 0.3, 0.2])  # warm-up, then one timing between calls
    clock = reference.Clock(timer=lambda: next(ticks))
    assert clock.scale(1.0) == pytest.approx(reference.NOMINAL_S / 0.2)
    assert clock.scale(2.0) == pytest.approx(2.0 * reference.NOMINAL_S / 0.25)


def test_reference_work_finds_its_group_order():
    assert reference.work() == reference.GROUP_ORDER
    assert reference.timed() > 0


@pytest.fixture
def goldens():
    return harness.load_json("goldens.json")


def _run(job, cwd, **kw):
    return harness.run_process(harness.cli_argv(job), cwd, harness.child_env(), **kw)


def test_gate_passes_the_recorded_output_and_trips_on_one_byte(tmp_path, goldens):
    res = _run(FAST_JOB, tmp_path)
    assert harness.check_output(FAST_JOB, res, goldens) == []
    flipped = bytearray(res.stdout)
    flipped[len(flipped) // 2] ^= 1
    bad = harness.ProcResult(0, res.wall_s, res.maxrss_kb, bytes(flipped), b"")
    assert harness.check_output(FAST_JOB, bad, goldens)


def test_semantic_checks_catch_a_wrong_value(goldens):
    job = harness.WORKLOADS["distance"][0]
    doc = {"passed": True, "distance_exact": job.expect["distance_exact"] - 1}
    res = harness.ProcResult(0, 1.0, 1, json.dumps(doc).encode(), b"")
    problems = harness.check_output(job, res, goldens)
    assert any("distance_exact" in p for p in problems)


def test_nonzero_exit_and_timeout_count_as_failed(tmp_path):
    env = harness.child_env()
    exited = harness.run_process([sys.executable, "-c", "raise SystemExit(3)"], tmp_path, env)
    hung = harness.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, env, timeout=0.5
    )
    assert exited.returncode == 3
    assert hung.returncode is None and hung.wall_s < 10
    bench = run.Bench("construct", 0, tmp_path)
    bench.record(FAST_JOB, exited)
    bench.record(FAST_JOB, hung)
    bench.record(FAST_JOB, _run(FAST_JOB, tmp_path))
    assert (bench.attempted, bench.failed) == (3, 2)


def test_seed_changes_only_order_and_qprime(goldens):
    seeds = harness.load_json("fermat4_seeds.json")
    template = harness.load_json("fermat4_instance.json")
    orders, qprimes = set(), set()
    for seed in range(20):
        for workload, jobs in harness.WORKLOADS.items():
            plan = harness.make_plan(workload, seed)
            assert sorted(plan.jobs, key=lambda j: j.id) == sorted(jobs, key=lambda j: j.id)
            orders.add(tuple(j.id for j in plan.jobs))
            assert list(plan.qprime) in seeds
            qprimes.add(plan.qprime)
            doc = plan.custom_instance()
            assert {k: v for k, v in doc.items() if k != "Qprime"} == {
                k: v for k, v in template.items() if k != "Qprime"
            }
            for job in plan.jobs:
                if job.expect.get("custom"):
                    assert harness.qprime_key(plan.qprime) in goldens["custom"]
                else:
                    assert job.id in goldens["builtin"]
        assert harness.make_plan("certify", seed) == harness.make_plan("certify", seed)
    assert len(orders) > 3 and len(qprimes) > 3
    assert len(seeds) == 50


def _traced_counts(job, cwd):
    out = cwd / "spans.json"
    argv = [sys.executable, str(harness.BENCH_DIR / "trace_child.py"), str(out), job.id, "--", *job.args]
    res = harness.run_process(argv, cwd, harness.child_env())
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    metrics = spans.aggregate(doc["spans"])
    spans.merge(metrics, doc["counts"])
    return res, {k: v for k, v in metrics.items() if not k.endswith("self_s")}


def test_traced_job_keeps_output_and_repeats_counts(tmp_path, goldens):
    res, first = _traced_counts(FAST_JOB, tmp_path)
    _, second = _traced_counts(FAST_JOB, tmp_path)
    assert harness.check_output(FAST_JOB, res, goldens) == []
    assert first == second
    # names bound by `from ... import` are wrapped too
    assert first["construction.joint_group.calls"] == 3
    assert first["code_analysis.rank_and_rref.calls"] >= 1
    assert first["autgroup.close.calls"] >= 3
    assert first["gf.mul.calls"] > 0 and first["geometry.points_scanned"] > 0


def test_custom_job_counts_do_not_depend_on_the_seed(tmp_path, goldens):
    seen = []
    for seed in (0, 1):
        plan = harness.make_plan("construct", seed)
        harness.write_inputs(plan, tmp_path)
        res, counts = _traced_counts(CUSTOM_JOB, tmp_path)
        assert harness.check_output(CUSTOM_JOB, res, goldens, plan.qprime) == []
        seen.append((plan.qprime, counts))
    assert seen[0][0] != seen[1][0]
    assert seen[0][1] == seen[1][1]


def test_exits_without_result_when_the_source_tree_is_absent(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
