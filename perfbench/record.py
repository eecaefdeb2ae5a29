"""Record the benchmark's fixed inputs and golden outputs from the current
source tree.

    python3 perfbench/record.py

Writes, under perfbench/data/:
  fermat4_instance.json  the built-in fermat q=4 instance as an
                         orbitcodes.instance.v1 document (Qprime left null;
                         each run fills in its seeded choice)
  fermat4_seeds.json     every evaluation seed Q' for which that instance
                         constructs, in canonical point order
  goldens.json           sha256 of the stdout of every built-in job, and of
                         the custom job for each seed

Re-record only when a change is meant to alter the program's output.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import harness


def _instance_template():
    from orbitcodes import serialize
    from orbitcodes.construction import builtin_instance, run_construction

    inst = builtin_instance("fermat", 4)
    doc = {
        "schema": "orbitcodes.instance.v1",
        "ground_field": serialize.field_to_dict(inst.ground),
        "working_field": serialize.field_to_dict(inst.working),
        "curve": serialize.curve_to_dict(inst.curve),
        "groups": [
            {"label": g.label, "generators": [serialize.map_to_list(m) for m in g.generators]}
            for g in inst.groups
        ],
        "Q": serialize.point_to_list(inst.Q),
        "Qprime": None,
        "m": inst.m,
        "q": inst.q,
        "condition_a_holds": True,
    }
    seeds = [
        serialize.point_to_list(pt)
        for pt in inst.curve.rational_points(inst.working)
        if run_construction(replace(inst, Qprime=pt), strict=False).passed
    ]
    return doc, seeds


def main() -> int:
    sys.path.insert(0, str(harness.ROOT / "src"))
    doc, seeds = _instance_template()
    harness.DATA_DIR.mkdir(exist_ok=True)
    (harness.DATA_DIR / "fermat4_instance.json").write_text(json.dumps(doc, indent=1) + "\n")
    (harness.DATA_DIR / "fermat4_seeds.json").write_text(json.dumps(seeds) + "\n")

    work = harness.ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    env = harness.child_env()
    goldens = {"builtin": {}, "custom": {}}
    try:
        for jobs in harness.WORKLOADS.values():
            for job in jobs:
                if job.expect.get("custom"):
                    for qprime in seeds:
                        harness.write_inputs(harness.Plan((), tuple(qprime)), work)
                        res = harness.run_process(harness.cli_argv(job), work, env)
                        if res.returncode != 0:
                            raise SystemExit(f"{job.id} Q'={qprime} exited {res.returncode}")
                        goldens["custom"][harness.qprime_key(qprime)] = harness.sha256(res.stdout)
                    continue
                res = harness.run_process(harness.cli_argv(job), work, env)
                if res.returncode != 0:
                    raise SystemExit(f"{job.id} exited {res.returncode}")
                goldens["builtin"][job.id] = harness.sha256(res.stdout)
                print(f"{job.id}: {res.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    (harness.DATA_DIR / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
