"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os

import pytest

import run
from workloads import WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    assert workload.jobs(7) == workload.jobs(7)
    assert workload.jobs(7) != workload.jobs(8)
    assert len(workload.jobs(7)) == len(workload.jobs(8))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_job_of_every_seed_has_a_golden(name):
    workload = WORKLOADS[name]
    golden = run.load_golden(name)
    pool = {job.label for job in workload.pool()}
    assert pool | {workload.warmup.label} == set(golden)
    for seed in range(100):
        assert {job.label for job in workload.jobs(seed)} <= pool


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _outcome(label, rc, out, err=b""):
    job = run.Job(label, tuple(label.split()))
    return run.Outcome(job, 0.1, 10.0, rc, run.digest(out), run.digest(err))


def test_check_flags_wrong_output_and_counts_known_failures():
    golden = {
        "a": {"rc": 0, "out": run.digest(b"x\nPASS 2/2\n"), "err": run.digest(b"")},
        "b": {"rc": 1, "out": run.digest(b""), "err": run.digest(b"error: limit\n")},
    }
    assert run.check(_outcome("a", 0, b"x\nPASS 2/2\n"), b"x\nPASS 2/2\n", golden) == "ok"
    assert run.check(_outcome("a", 0, b"y\nPASS 2/2\n"), b"y\nPASS 2/2\n", golden).startswith("wrong")
    assert run.check(_outcome("a", 2, b"x\nPASS 1/2\n"), b"x\nPASS 1/2\n", golden).startswith("wrong")
    assert run.check(_outcome("a", 1, b""), b"", golden).startswith("wrong")
    assert run.check(_outcome("b", 1, b"", b"error: limit\n"), b"", golden) == "known-failure"
    assert run.check(_outcome("b", 1, b"", b"error: other\n"), b"", golden).startswith("wrong")
    assert run.check(_outcome("b", 0, b"new"), b"new", golden) == "fixed-unverified"
    assert run.check(_outcome("c", 0, b"PASS 1/1\n"), b"PASS 1/1\n", golden).startswith("wrong")


def _cheap_jobs(name):
    """The warm-up job and the known baseline failure, if the workload has one."""
    workload = WORKLOADS[name]
    golden = run.load_golden(name)
    jobs = [workload.warmup]
    failing = [j for j in workload.pool() if golden[j.label]["rc"] != 0]
    return jobs + failing[:1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_job_runner_output_matches_python_m_wordcf(name, tmp_path):
    env = run.child_env()
    os.makedirs(run.WORK, exist_ok=True)
    for job in _cheap_jobs(name):
        plain, out, err = run.run_job(job, env)
        traced, tout, terr = run.run_job(job, env, str(tmp_path / "trace.json"))
        assert (traced.rc, tout, terr) == (plain.rc, out, err)
        assert json.loads((tmp_path / "trace.json").read_text())["calls"]["cli.main"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_run(name):
    jobs = _cheap_jobs(name)
    result, lines = run.run_workload(name, 0, 1, 1, jobs=jobs)
    assert result["correct"], lines
    assert set(result["metrics"]) == {m for m, _, _ in run.PER_LAYER}
    assert result["metrics"]["trace.identical_stdout"]["value"] == len(jobs)
    assert result["metrics"]["cli.main.self_s"]["value"] > 0


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    name = "expand-q"
    jobs = _cheap_jobs(name)
    result, _ = run.run_workload(name, 0, 0.1, 0, jobs=jobs)
    assert result["correct"]
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert result["attempted"] == len(jobs)
    assert result["failed"] == sum(run.load_golden(name)[j.label]["rc"] != 0 for j in jobs)
    assert all(m["value"] > 0 for k, m in result["metrics"].items())
