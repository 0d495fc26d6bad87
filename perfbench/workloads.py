"""Seeded job lists for the three benchmark workloads.

A job is one ``wordcf`` command line.  Every job a seed can produce is drawn
from a small finite pool (fixed sizes; dense fractions indexed by degree and
variant), so ``golden/`` holds the expected output of every job of every
seed, not only of the default one.

Each list has a fixed set of sizes over each family's range.  The seed
picks output formats, fields, primes, which random fraction of a degree is
expanded and which degree-law check runs, and orders the list.  Drawing
sizes from the seed made one seed's list cost a third more than another's
and moved the median quartic job across the cost step of a Newton doubling,
so the seed varies the inputs but not the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    label: str  # key into golden/<workload>.json; short even when argv is long
    argv: tuple[str, ...]


def _job(*argv) -> Job:
    argv = tuple(str(a) for a in argv)
    return Job(" ".join(argv), argv)


_FORMATS = ("text", "json")

# Every size below the heaviest few appears three times per list.  On a
# shared machine one job's time varies by a fifth from run to run; repeats
# put several samples at each size, so the median and tail jobs are not one
# noisy sample each.
_R = 3

# ---------------------------------------------------------------- claims-q
# The paper's claim suite over Q.  Depth 7 of the degree law (about 6 s,
# nearly all in the convergent table), lemma3 at 12 and `verify all` run
# once per list.

_CLAIM_DEPTHS = {
    "lemma1": [6, 8, 10] * _R,
    "lemma2": [6, 8, 10] * _R,
    "lemma3": [10, 11] * _R + [12],
    "conjecture": [4, 5] * _R,
    "degree-law": [5, 5, 6] * _R + [7],
    "all": [None],
}
_DEGREE_LAW_FAMILIES = ("theorem3", "corollary", "measure")


def _claim_job(family: str, depth, fmt: str) -> Job:
    head = ("measure",) if family == "measure" else ("verify", family)
    depth_args = () if depth is None else ("--max-n", depth)
    return _job(*head, *depth_args, *(("--format", "json") if fmt == "json" else ()))


def _claim_families(family):
    return _DEGREE_LAW_FAMILIES if family == "degree-law" else (family,)


def claims_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"claims-q/{seed}")
    specs = []
    for f, depths in _CLAIM_DEPTHS.items():
        # Deal the degree-law checks out evenly over each depth, from a
        # seeded order of the families, whose costs differ: so every seed
        # runs the same mix.
        families = list(_claim_families(f))
        rng.shuffle(families)
        specs += [(families[i % len(families)], d) for i, d in enumerate(sorted(depths, key=str))]
    jobs = [_claim_job(f, d, rng.choice(_FORMATS)) for f, d in specs]
    rng.shuffle(jobs)
    return jobs


def claims_pool() -> list[Job]:
    return [
        _claim_job(family, d, fmt)
        for f, depths in _CLAIM_DEPTHS.items()
        for family in _claim_families(f)
        for d in sorted(set(depths), key=str)
        for fmt in _FORMATS
    ]


# ------------------------------------------------------------- quartic-gfp
# The quartic root over GF(p): Newton lifting, i.e. truncated series
# products and inversion, then a certified expansion.  p = 3 also runs the
# word check (k = prec/10); p = 5 or 7 is picked by the seed.

_QUARTIC_SIZES = {
    3: [300, 400, 500, 600, 700, 1000] * _R + [1200, 1500],
    57: [500, 700, 1000, 1300] * _R + [1600, 2000],
}


def _quartic_job(p: int, prec: int, fmt: str = "text") -> Job:
    tail = ("--format", "json") if fmt == "json" else ()
    return _job("quartic", "--p", p, "--prec", prec, "--k", prec // 10, *tail)


def _primes(key):
    return (3,) if key == 3 else (5, 7)


def quartic_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"quartic-gfp/{seed}")
    jobs = [
        _quartic_job(rng.choice(_primes(key)), prec, rng.choice(_FORMATS))
        for key, precs in _QUARTIC_SIZES.items()
        for prec in precs
    ]
    rng.shuffle(jobs)
    return jobs


def quartic_pool() -> list[Job]:
    return [
        _quartic_job(p, prec, fmt)
        for key, precs in _QUARTIC_SIZES.items()
        for p in _primes(key)
        for prec in sorted(set(precs))
        for fmt in _FORMATS
    ]


# ---------------------------------------------------------------- expand-q
# Certified and exact expansions: divmod-driven Euclid with big Fraction
# coefficients, the convergent table, and formatting of MB-sized outputs.
# The cf --ratfunc degrees run past 41, where dense fractions hit the
# interpreter's int-to-str digit limit: those jobs are a counted known
# failure, not an excluded input.

_FIELDS_GFP = ("3", "5", "7")
_RATFUNC_VARIANTS = 4
_EXPAND_SERIES = {
    # (command, field kind): precisions
    ("cf", "Q"): [1000, 1600] * _R + [2500],
    ("cf", "GF"): [1500, 3000] * _R,
    ("convergents", "Q"): [700] * _R + [1400],
    ("convergents", "GF"): [1000] * _R,
}
_EXPAND_RATFUNC = {
    # command: degrees
    "cf": [15, 25, 35, 45] * _R + [52, 60],
    "convergents": [15, 25, 35] * _R + [45],
}


def dense_fraction(degree: int, variant: int) -> str:
    """A dense random fraction over Q: numerator of degree ``degree - 1``
    over a denominator of degree ``degree``, coefficients in [-9, 9]."""
    rng = random.Random(f"dense-fraction/{degree}/{variant}")

    def poly(d):
        coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
        return " + ".join(f"{c}*T^{k}" for k, c in reversed(list(enumerate(coeffs))) if c)

    return f"({poly(degree - 1)})/({poly(degree)})"


def _series_job(command: str, field: str, prec: int) -> Job:
    return _job(command, "--prec", prec, "--field", field)


def _ratfunc_job(command: str, degree: int, variant: int) -> Job:
    return Job(
        f"{command} --ratfunc dense({degree},{variant})",
        (command, "--ratfunc", dense_fraction(degree, variant)),
    )


def _fields(kind):
    return ("Q",) if kind == "Q" else _FIELDS_GFP


def expand_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"expand-q/{seed}")
    jobs = [
        _series_job(command, rng.choice(_fields(kind)), prec)
        for (command, kind), precs in _EXPAND_SERIES.items()
        for prec in precs
    ]
    jobs += [
        _ratfunc_job(command, degree, rng.randrange(_RATFUNC_VARIANTS))
        for command, degrees in _EXPAND_RATFUNC.items()
        for degree in degrees
    ]
    rng.shuffle(jobs)
    return jobs


def expand_pool() -> list[Job]:
    jobs = [
        _series_job(command, field, prec)
        for (command, kind), precs in _EXPAND_SERIES.items()
        for field in _fields(kind)
        for prec in sorted(set(precs))
    ]
    jobs += [
        _ratfunc_job(command, degree, variant)
        for command, degrees in _EXPAND_RATFUNC.items()
        for degree in sorted(set(degrees))
        for variant in range(_RATFUNC_VARIANTS)
    ]
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: object  # seed -> list[Job]
    pool: object  # () -> every job any seed can produce
    warmup: Job  # untimed, run once before timing starts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("claims-q", claims_jobs, claims_pool, _job("verify", "lemma1", "--max-n", 4)),
        Workload("quartic-gfp", quartic_jobs, quartic_pool, _quartic_job(3, 200)),
        Workload("expand-q", expand_jobs, expand_pool, _series_job("cf", "Q", 300)),
    )
}
