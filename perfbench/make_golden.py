"""Record the expected output of every job any seed can produce.

    python3 perfbench/make_golden.py [workload ...]

Runs each workload's whole job pool (and its warm-up job) untraced with the
program in ``src/`` and writes ``perfbench/golden/<workload>.json``: exit
code plus digests of stdout and stderr per job label.  Jobs that exit
non-zero are listed on stderr; they are recorded as baseline failures.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    env = run.child_env()
    golden = {}
    for job in [workload.warmup, *workload.pool()]:
        outcome, _, err = run.run_job(job, env)
        golden[job.label] = {"rc": outcome.rc, "out": outcome.out, "err": outcome.err}
        if outcome.rc != 0:
            print(f"{name}: exit {outcome.rc}: {job.label}: {err.decode().strip()[:120]}", file=sys.stderr)
    return golden


def main(names):
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(run.GOLDEN, exist_ok=True)
    for name in names or list(WORKLOADS):
        golden = record(name)
        with open(os.path.join(run.GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(golden)} jobs recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
