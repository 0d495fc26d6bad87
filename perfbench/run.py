"""Closed-loop benchmark of the ``wordcf`` CLI: one client, one job at a time.

    python3 perfbench/run.py --workload claims-q --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload in turn

Run from the repository root.  Each job is one ``python -m wordcf ...`` in a
fresh process, as the tool is used; its exit code, ``PASS k/m`` lines and
stdout digest are checked against ``golden/<workload>.json``.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the same
jobs run once untraced and once under ``jobrun.py`` and the per-layer metrics
are printed, with the tracing overhead.  The last stdout line is one JSON
object; the exit code is 1 on any wrong output, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Job  # noqa: E402

SETUP_PROBES = 20
# Speed of the machine of the first baseline: mean_speed() of the probes'
# fixed load (see probe.py and README.md).  End-to-end times are reported
# at this speed: scaled by REFERENCE_S / mean_speed(probes) of the run, which
# takes the drift of a shared machine's speed out of them, while a change
# to wordcf moves them as before.
REFERENCE_S = 0.020
TAIL_ABOVE = 10  # the tail percentile is the highest with this many jobs above it
_PASS_LINE = re.compile(rb"^PASS (\d+)/(\d+)$", re.M)

END_TO_END = (
    ("wall_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "ratio"),
)

_COUNTED = ("calls", "self_s")
# (metric, unit, better); see README.md for what each should move.
PER_LAYER = (
    *[(f"series.{e}.{s}", "s" if s == "self_s" else "count", "lower")
      for e in ("mul_trunc", "mul", "invert") for s in _COUNTED],
    ("series.mul_trunc.digit_products", "count", "lower"),
    ("series.series_of_fraction.self_s", "s", "lower"),
    *[(f"poly.mul.{b}.{s}", "s" if s == "self_s" else "count", "lower")
      for b in ("q_dense", "q_sparse", "gfp") for s in (*_COUNTED, "coeff_products")],
    *[(f"poly.{e}.{s}", "s" if s == "self_s" else "count", "lower")
      for e in ("init", "evaluate", "divmod", "format_poly") for s in _COUNTED],
    ("poly.init.coeffs", "count", "lower"),
    ("poly.divmod.coeff_ops", "count", "lower"),
    ("fields.q.max_coeff_bits", "bit", "lower"),
    ("words.word_poly.calls", "count", "lower"),
    ("words.word_poly.self_s", "s", "lower"),
    ("words.theta_series.self_s", "s", "lower"),
    *[(f"cf.{e}.{s}", "s" if s == "self_s" else "count", "lower")
      for e in ("cf_of_fraction", "cf_of_series", "convergents") for s in _COUNTED],
    ("cf.cf_of_fraction.quotients", "count", "lower"),
    ("cf.cf_of_series.emitted", "count", "higher"),
    ("cf.cf_of_series.budget_used", "count", "lower"),
    ("cf.convergents.rows", "count", "lower"),
    ("verify.theta_expansion.calls", "count", "lower"),
    ("verify.theta_expansion.self_s", "s", "lower"),
    ("verify.pairs.calls", "count", "lower"),
    ("verify.pairs.cache_hit_ratio", "ratio", "higher"),
    *[(f"verify.check_{c}.self_s", "s", "lower")
      for c in ("lemma1", "lemma2", "lemma3", "theorem3", "corollary", "conjecture")],
    ("verify.quartic_root.calls", "count", "lower"),
    ("verify.quartic_root.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *[(f"{m}.self_share", "ratio", "lower")
      for m in ("series", "poly", "cf", "verify", "words", "cli")],
    ("process.outside_main_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.identical_stdout", "count", "higher"),
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


@dataclass
class Outcome:
    job: Job
    seconds: float
    rss_mib: float
    rc: int
    out: str  # stdout digest
    err: str  # stderr digest
    status: str = ""  # ok | fixed-unverified | known-failure | wrong: <why>

    @property
    def failed(self) -> bool:
        return self.status not in ("ok", "fixed-unverified")


def spawn(argv, env, stdout_path, stderr_path=os.devnull):
    """Run argv to completion; returns (seconds, exit code, max RSS in MiB).

    The RSS is this child's own, from os.wait4: RUSAGE_CHILDREN would be a
    running maximum over every child reaped so far."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_job(job: Job, env, trace_path=None) -> tuple[Outcome, bytes, bytes]:
    out_path = os.path.join(WORK, f"{os.getpid()}.out")
    err_path = os.path.join(WORK, f"{os.getpid()}.err")
    if trace_path is None:
        argv = [sys.executable, "-m", "wordcf", *job.argv]
    else:
        argv = [sys.executable, os.path.join(HERE, "jobrun.py"), trace_path, "--", *job.argv]
    seconds, rc, rss = spawn(argv, env, out_path, err_path)
    with open(out_path, "rb") as fh:
        out = fh.read()
    with open(err_path, "rb") as fh:
        err = fh.read()
    return Outcome(job, seconds, rss, rc, digest(out), digest(err)), out, err


def check(outcome: Outcome, stdout: bytes, golden: dict) -> str:
    """The job's status against its golden entry and its own PASS lines."""
    for k, m in _PASS_LINE.findall(stdout):
        if k != m:
            return f"wrong: PASS {k.decode()}/{m.decode()}"
    want = golden.get(outcome.job.label)
    if want is None:
        return "wrong: no golden entry"
    got = {"rc": outcome.rc, "out": outcome.out, "err": outcome.err}
    if want["rc"] == 0:
        if got["rc"] != 0:
            return f"wrong: exit {got['rc']}"
        return "ok" if got["out"] == want["out"] else "wrong: stdout differs from golden"
    # A baseline failure recorded in the golden file (see README.md).
    if got == {k: want[k] for k in got}:
        return "known-failure"
    if got["rc"] == 0:
        return "fixed-unverified"
    return f"wrong: exit {got['rc']} differs from the recorded failure"


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup_probe(env) -> tuple[float, float]:
    """(set-up, speed) of one fresh interpreter running ``probe.py``:
    seconds from spawn to ``import wordcf`` done, and seconds for the
    probe's fixed load, which runs no wordcf code."""
    path = os.path.join(WORK, f"{os.getpid()}.probe")
    start = time.monotonic_ns()
    _, rc, _ = spawn([sys.executable, os.path.join(HERE, "probe.py")], env, path)
    if rc != 0:
        raise RuntimeError("import wordcf failed")
    with open(path, encoding="ascii") as fh:
        imported, done = map(int, fh.read().split())
    return (imported - start) / 1e9, (done - imported) / 1e9


def mean_speed(probes):
    """Mean probe time without the fastest and slowest tenth.  A mean, not a
    median: probe times jump between a fast and a slow mode from one probe
    to the next, and the median of such a mixture jumps from mode to mode."""
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(times):
    """(value, percentile): the highest percentile with TAIL_ABOVE jobs above."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def run_pass(jobs, env, golden, trace_dir=None, probes=None):
    """Run the jobs in order; returns (seconds, outcomes).  With a ``probes``
    list, SETUP_PROBES probes are spread over the pass and their (set-up,
    speed) pairs appended to it.  Probe time is not part of the pass."""
    due = {len(jobs) * k // SETUP_PROBES for k in range(SETUP_PROBES)}
    outcomes = []
    probe_s = 0.0
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if probes is not None and i in due and len(probes) < SETUP_PROBES:
            probe_start = time.perf_counter()
            probes.append(setup_probe(env))
            probe_s += time.perf_counter() - probe_start
        trace_path = None if trace_dir is None else os.path.join(trace_dir, f"{i}.json")
        outcome, stdout, _ = run_job(job, env, trace_path)
        outcome.status = check(outcome, stdout, golden)
        outcomes.append(outcome)
    seconds = time.perf_counter() - start - probe_s
    while probes is not None and len(probes) < SETUP_PROBES:
        probes.append(setup_probe(env))
    return seconds, outcomes


def combined_digest(outcomes) -> str:
    lines = "".join(f"{o.job.label}\t{o.rc}\t{o.out}\n" for o in outcomes)
    return digest(lines.encode())


def end_to_end(jobs, env, golden, seconds):
    """Whole passes over the job list while the next one fits in ``seconds``
    (always at least one); returns (metrics, outcomes, notes)."""
    walls, outcomes, probes = [], [], []
    start = time.perf_counter()
    while True:
        wall, done = run_pass(jobs, env, golden, probes=probes)
        walls.append(wall)
        outcomes += done
        if time.perf_counter() - start + wall > seconds:
            break
    times = [o.seconds for o in outcomes]
    failed = sum(o.failed for o in outcomes)
    tail_value, pct = tail(times)
    raw = {
        "wall_s": statistics.median(walls),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_value,
        "setup_s": statistics.median(p[0] for p in probes),
    }
    speed = mean_speed([p[1] for p in probes])
    metrics = {name: value * REFERENCE_S / speed for name, value in raw.items()}
    metrics.update({
        "peak_rss_mib": max(o.rss_mib for o in outcomes),
        "ok_share": (len(outcomes) - failed) / len(outcomes),
    })
    at_speed = f"; {{:.4g}} s as measured, scaled by {REFERENCE_S}/{speed:.5f} (speed probe)"
    notes = {
        "wall_s": f"median of {len(walls)} pass(es) of {len(jobs)} jobs",
        "job_s.p50": f"median of {len(times)} jobs",
        "job_s.tail": f"p{pct:.0f} of {len(times)} jobs, {min(TAIL_ABOVE, len(times) - 1)} above",
        "setup_s": f"median of {len(probes)} spawn-to-import probes spread over the first pass",
        "peak_rss_mib": f"largest per-job max RSS of {len(outcomes)} jobs (os.wait4)",
        "ok_share": f"{len(outcomes) - failed}/{len(outcomes)} jobs ok; failed_share {failed}/{len(outcomes)}",
    }
    for name, value in raw.items():
        notes[name] += at_speed.format(value)
    return metrics, outcomes, notes


def per_layer(jobs, env, golden):
    """One untraced and one traced pass; per-layer totals over all jobs."""
    untraced_wall, untraced = run_pass(jobs, env, golden)
    trace_dir = os.path.join(WORK, f"{os.getpid()}.trace")
    os.makedirs(trace_dir, exist_ok=True)
    traced_wall, traced = run_pass(jobs, env, golden, trace_dir)

    calls, self_s, counts, maxima = defaultdict(int), defaultdict(float), defaultdict(int), {}
    hits = misses = 0
    for i in range(len(jobs)):
        with open(os.path.join(trace_dir, f"{i}.json"), encoding="utf-8") as fh:
            t = json.load(fh)
        for k, v in t["calls"].items():
            calls[k] += v
        for k, v in t["self_s"].items():
            self_s[k] += v
        for k, v in t["counts"].items():
            counts[k] += v
        for k, v in t["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        hits += t["pair_cache"]["hits"]
        misses += t["pair_cache"]["misses"]

    total_self = sum(self_s.values())
    traced_job_s = sum(o.seconds for o in traced)
    values = {}
    for name, _, _ in PER_LAYER:
        entry, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(entry, 0)
        elif stat == "self_s":
            values[name] = self_s.get(entry, 0.0)
        elif stat == "self_share":
            part = sum(v for k, v in self_s.items() if k.startswith(entry + "."))
            values[name] = part / total_self if total_self else 0.0
        elif name in counts:
            values[name] = counts[name]
        elif name in maxima:
            values[name] = maxima[name]
    values.update({
        "verify.pairs.calls": hits + misses,
        "verify.pairs.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "process.outside_main_s": traced_job_s - total_self,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "trace.identical_stdout": sum(
            a.out == b.out and a.rc == b.rc for a, b in zip(untraced, traced)
        ),
    })
    values = {name: values.get(name, 0) for name, _, _ in PER_LAYER}
    notes = {
        "verify.pairs.cache_hit_ratio": f"{hits} hits of {hits + misses} calls",
        "trace.identical_stdout": f"of {len(jobs)} jobs, traced vs untraced",
        "trace.overhead_s": "traced minus untraced wall_s of one pass",
    }
    return values, untraced + traced, notes


def run_workload(name, seed, seconds, trace, jobs=None):
    """Run one workload; returns (result dict for the JSON line, report lines)."""
    workload = WORKLOADS[name]
    golden = load_golden(name)
    jobs = workload.jobs(seed) if jobs is None else jobs
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    warm, stdout, _ = run_job(workload.warmup, env)
    warm.status = check(warm, stdout, golden)
    if trace:
        values, outcomes, notes = per_layer(jobs, env, golden)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values, outcomes, notes = end_to_end(jobs, env, golden, seconds)
        units = dict(END_TO_END)
    wrong = [o for o in [warm, *outcomes] if o.status.startswith("wrong")]
    failed = sum(o.failed for o in outcomes)
    counted = Counter((o.job.label, o.status) for o in outcomes if o.status != "ok")
    lines = [f"workload {name} seed {seed} trace {trace}: {len(jobs)} jobs per pass, "
             f"closed loop, 1 client, one job at a time"]
    for metric, value in values.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"  {metric:34s} {value:>14.6g} {units[metric]}{note}")
    lines.append(f"  stdout digest {combined_digest(outcomes[:len(jobs)])}")
    lines += [f"  {status}: {label} (x{n})" for (label, status), n in sorted(counted.items())]
    if warm.status != "ok":
        lines.append(f"  warm-up {warm.status}: {warm.job.label}")
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wordcf", "__init__.py")):
        print(f"perfbench: no wordcf sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            results[name] = result
    finally:
        for entry in os.listdir(WORK) if os.path.isdir(WORK) else ():
            if entry.startswith(f"{os.getpid()}."):
                path = os.path.join(WORK, entry)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
