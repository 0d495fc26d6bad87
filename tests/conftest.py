"""Shared fixtures: the peak memory of a CLI job, measured from a small
launcher process, and the interpreter's int-to-str limit set for a block."""

import contextlib
import os
import subprocess
import sys

import pytest

import wordcf

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wordcf.__file__)))

# The job is started by a small launcher interpreter, not by this test
# process: a child started with vfork or posix_spawn inherits the high-water
# RSS of its parent's address space, which here would be pytest's.
_LAUNCHER = """
import os, sys
out, *args = sys.argv[1:]
argv = [sys.executable, "-m", "wordcf", *args]
stdout = [(os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=stdout)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mib(argv, stdout=os.devnull) -> float:
    """The max RSS of ``python -m wordcf argv`` in MiB (Linux units); its
    stdout goes to the path ``stdout``, and it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, stdout, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300,
    )
    code, kib = proc.stdout.split()
    assert code == "0", (argv, proc.stderr)
    return int(kib) / 1024


@pytest.fixture(scope="session")
def excess_rss():
    """Peak RSS of a CLI job over that of a trivial one (``word --n 1``),
    so that a bound does not depend on the interpreter's own footprint.
    Called as ``excess_rss(argv, stdout=path)``."""
    base = peak_rss_mib(["word", "--n", "1"])
    return lambda argv, **kwargs: peak_rss_mib(argv, **kwargs) - base


@pytest.fixture
def int_max_str_digits():
    """A context manager: ``with int_max_str_digits(limit):`` runs the block
    under that int-to-str limit and restores the old one after it."""

    @contextlib.contextmanager
    def limited(limit):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)

    return limited
