"""The benchmark's per-layer tracer (perfbench/jobrun.py) still finds every
binding it wraps.  ``jobrun.install`` rebinds names by module attribute, so a
name moved out of the module it scans would fail every ``--trace 1`` run;
this runs the tracer, unedited, against this checkout's sources."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import wordcf

ROOT = pathlib.Path(wordcf.__file__).parents[2]
JOBRUN = ROOT / "perfbench" / "jobrun.py"


@pytest.mark.parametrize(
    "argv",
    [
        ["quartic", "--prec", "40", "--k", "5"],
        ["quartic", "--p", "5", "--prec", "40"],
        ["cf", "--ratfunc", "(T^3+2*T^2+T-1)/(T^4-T^2)"],
        ["verify", "lemma3", "--max-n", "3"],
    ],
)
def test_traced_job_matches_the_untraced_one(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(JOBRUN), str(trace), "--", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "wordcf", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert (traced.stdout, traced.stderr) == (plain.stdout, plain.stderr)
    assert json.loads(trace.read_text())["calls"]["cli.main"] == 1
