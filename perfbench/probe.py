"""Set-up and speed probe, run in a fresh interpreter by run.py.

Prints two monotonic timestamps in nanoseconds: when ``import wordcf`` is
done, and when a fixed pure-Python load that runs no wordcf code is done.
The load (a digit convolution and a harmonic sum in Fractions) is timed in
a fresh process, like the jobs, so its time tracks the speed the jobs see on
a machine whose speed drifts while the benchmark runs.
"""

import time

import wordcf  # noqa: F401  (the import is what set-up time measures)

imported = time.monotonic_ns()

from fractions import Fraction  # noqa: E402

a = list(range(1, 601))
digits = [sum(a[i] * a[k - i] for i in range(k + 1)) % 3 for k in range(600)]
total = sum(Fraction(1, i) for i in range(1, 1000))
print(imported, time.monotonic_ns())
