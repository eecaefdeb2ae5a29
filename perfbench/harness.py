"""Jobs, the seeded job plan, the child-process runner and the output gate.

Every job is one real `python -m orbitcodes ...` call in a fresh process,
run one at a time (a closed loop with one client: the next job starts when
the previous one has exited).  Each job's stdout is checked against the
sha256 recorded in data/goldens.json and against semantic expectations;
any mismatch, nonzero exit or timeout makes the job count as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA_DIR = BENCH_DIR / "data"

# Longest job at the recorded baseline is about 5 s; a job that takes 12x
# that is treated as hung and counted as failed.
JOB_TIMEOUT_S = 60.0

CUSTOM_INPUT = "custom_fermat4.instance.json"


@dataclass(frozen=True)
class Job:
    """One CLI call and what its stdout must show.

    `expect` keys: distance_exact, group_order (image order = joint group
    order), custom (the seeded fermat q=4 instance: n=25, k=3, bound>=20).
    `passed: true` and exit code 0 are always required.
    """

    id: str
    args: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.args[0]


def _job(job_id, command, family, q, m=1, **expect) -> Job:
    args = (command, "--family", family, "--q", str(q))
    if m != 1:
        args += ("--m", str(m))
    return Job(job_id, args, expect)


# Why each workload, and what was left out: BENCHMARK.json and BASELINE.md.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "construct": (
        _job("construct-fermat-q3", "construct", "fermat", 3),
        _job("construct-fermat-q4", "construct", "fermat", 4),
        _job("construct-fermat-q5", "construct", "fermat", 5),
        _job("construct-fermat-q9", "construct", "fermat", 9),
        _job("construct-projline-q9", "construct", "projline", 9),
        _job("construct-projline-q13", "construct", "projline", 13),
        _job("construct-bf-q2", "construct", "bf", 2),
        Job(
            "construct-custom-fermat4",
            ("construct", "--family", "custom", "--input", CUSTOM_INPUT),
            {"custom": True},
        ),
    ),
    "distance": (
        _job("distance-fermat-q3-m2", "distance", "fermat", 3, m=2, distance_exact=8),
        _job("distance-projline-q11", "distance", "projline", 11, distance_exact=6),
        _job("distance-projline-q7-m2", "distance", "projline", 7, m=2, distance_exact=1),
    ),
    "certify": (
        _job("verify-bf-q2", "verify", "bf", 2),
        _job("verify-projline-q19", "verify", "projline", 19),
        _job("automorphisms-bf-q2", "automorphisms", "bf", 2, group_order=144),
        _job("automorphisms-projline-q19", "automorphisms", "projline", 19, group_order=171),
        _job("automorphisms-fermat-q5", "automorphisms", "fermat", 5, group_order=36),
    ),
}

COMMANDS = ("construct", "distance", "verify", "automorphisms")


def load_json(name: str):
    return json.loads((DATA_DIR / name).read_text())


@dataclass(frozen=True)
class Plan:
    """What one seed selects: the job order and the custom job's Q'."""

    jobs: tuple[Job, ...]
    qprime: tuple[int, ...]

    def custom_instance(self) -> dict:
        doc = load_json("fermat4_instance.json")
        doc["Qprime"] = list(self.qprime)
        return doc


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(seed)
    jobs = list(WORKLOADS[workload])
    rng.shuffle(jobs)
    seeds = load_json("fermat4_seeds.json")
    return Plan(tuple(jobs), tuple(rng.choice(seeds)))


def write_inputs(plan: Plan, work: Path):
    (work / CUSTOM_INPUT).write_text(json.dumps(plan.custom_instance()))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Fixed hashing keeps set iteration order, and so timing, the same
    # from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class ProcResult:
    """Exit code (None on timeout), wall time, max RSS and captured output."""

    returncode: int | None
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_process(argv, cwd: Path, env: dict, timeout: float = JOB_TIMEOUT_S) -> ProcResult:
    """Run argv to completion in a fresh process, timing it from spawn to
    reap.  stdout goes to a file, so a large report never blocks on a pipe;
    the child is reaped with wait4 to read its own max RSS."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        reaped = []

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.append((time.perf_counter(), status, usage))

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(timeout)
        finally:
            # on timeout, or when this process is itself being stopped
            timed_out = waiter.is_alive()
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
                waiter.join()
        end, status, usage = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        None if timed_out else proc.returncode,
        end - start,
        usage.ru_maxrss,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def cli_argv(job: Job) -> list[str]:
    return [sys.executable, "-m", "orbitcodes", *job.args]


# ---------------------------------------------------------------------------
# output gate


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def qprime_key(qprime) -> str:
    return ",".join(str(x) for x in qprime)


def check_output(job: Job, result: ProcResult, goldens: dict, qprime=None) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    if result.returncode is None:
        return ["timeout"]
    if result.returncode != 0:
        return [f"exit code {result.returncode}"]
    problems = []
    if job.expect.get("custom"):
        want = goldens["custom"].get(qprime_key(qprime))
    else:
        want = goldens["builtin"].get(job.id)
    if sha256(result.stdout) != want:
        problems.append("stdout differs from the recorded golden")
    try:
        doc = json.loads(result.stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if doc.get("passed") is not True:
        problems.append("passed is not true")
    if "distance_exact" in job.expect and doc.get("distance_exact") != job.expect["distance_exact"]:
        problems.append(f"distance_exact {doc.get('distance_exact')}")
    if "group_order" in job.expect:
        checks = doc.get("checks") or [{}]
        image = checks[0].get("details", {}).get("image_order")
        joint = doc.get("joint_group_order")
        if not (image == joint == job.expect["group_order"]):
            problems.append(f"image order {image}, joint group order {joint}")
    if job.expect.get("custom"):
        n, k, bound = doc.get("n"), doc.get("k"), doc.get("distance_bound")
        if n != 25 or k != 3 or not isinstance(bound, int) or bound < 20:
            problems.append(f"custom code [{n}, {k}, >={bound}]")
    return problems
