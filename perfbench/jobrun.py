"""Run one ``wordcf`` command with per-layer tracing, from outside the package.

    python3 perfbench/jobrun.py TRACE_JSON -- <wordcf arguments>

Stdout, stderr and the exit code are those of ``python -m wordcf
<arguments>``.  The wrappers below time the public entry points of each
module and count work computed from operand sizes; spans are folded into
per-name totals in memory and written to TRACE_JSON once, at exit.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import wordcf  # noqa: E402
from wordcf import cf, cli, fields, poly, series, verify, words  # noqa: E402

MODULES = (wordcf, fields, poly, series, words, cf, verify, cli)


class Tracer:
    """Span stack plus per-name totals: calls, self seconds and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._child = [0.0]  # time covered by children of each open span

    def wrap(self, name, fn, count=None):
        """A transparent wrapper recording a ``name`` span around ``fn``.

        ``count(result, *args)`` returns {counter: amount} for the call."""
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_s[name] += span - child.pop()
                child[-1] += span
                calls[name] += 1
            if count is not None:
                for key, amount in count(result, *args).items():
                    self.counts[key] += amount
            return result

        return traced

    def record_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def dump(self, path, extra):
        payload = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _rebind(original, replacement, owners=MODULES):
    """Point every module-level binding of ``original`` at ``replacement``:
    ``verify``, ``cli`` and the package hold their own imported copies."""
    found = False
    for module in owners:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    if not found:
        raise LookupError(f"no binding of {original!r} to trace")


def _pairs_upto(n, la, lb):
    """#{(i, j): 0 <= i < la, 0 <= j < lb, i + j < n}, by inclusion-exclusion."""

    def tri(m):
        return m * (m + 1) // 2 if m > 0 else 0

    return tri(n) - tri(n - la) - tri(n - lb) + tri(n - la - lb)


def _nnz(coeffs):
    return sum(1 for c in coeffs if c)


def install(tracer: Tracer):
    """Wrap the entry points of every layer; returns nothing, patches in place."""
    t = tracer

    # series: the truncated digit product, series product and inversion.
    # invert and __mul__ look up the module-global _mul_trunc at call time.
    series._mul_trunc = t.wrap(
        "series.mul_trunc",
        series._mul_trunc,
        lambda out, a, b, n, field: {"series.mul_trunc.digit_products": _pairs_upto(n, len(a), len(b))},
    )
    _rebind(series.series_of_fraction, t.wrap("series.series_of_fraction", series.series_of_fraction))
    LS = series.LaurentSeries
    LS.__mul__ = t.wrap("series.mul", LS.__mul__)
    LS.invert = t.wrap("series.invert", LS.invert)

    # poly: products bucketed by field and shape, divmod, construction,
    # evaluation and the text format.
    P = poly.Polynomial
    mul = P.__mul__
    buckets = {name: t.wrap(f"poly.mul.{name}", mul) for name in ("q_dense", "q_sparse", "gfp")}

    @functools.wraps(mul)
    def traced_mul(a, b):
        na, nb = _nnz(a.coeffs), _nnz(b.coeffs)
        if a.field.characteristic:
            bucket = "gfp"
        else:
            # Dense when both operands are at least half full; the product
            # loop then costs about deg(a) * deg(b) coefficient products.
            dense = 2 * na >= len(a.coeffs) and 2 * nb >= len(b.coeffs)
            bucket = "q_dense" if dense else "q_sparse"
        t.counts[f"poly.mul.{bucket}.coeff_products"] += na * nb
        return buckets[bucket](a, b)

    P.__mul__ = traced_mul

    def divmod_counter(out, a, b):
        q, r = out
        if not a.field.characteristic:
            # Leading and constant coefficients only: reading every
            # coefficient of every remainder would double the cost of Euclid.
            for c in (q.coeffs[-1:] + r.coeffs[-1:] + r.coeffs[:1]):
                bits = c.bit_length() if isinstance(c, int) else (
                    c.numerator.bit_length() + c.denominator.bit_length()
                )
                t.record_max("fields.q.max_coeff_bits", bits)
        steps = max(0, a.degree - b.degree + 1)
        return {"poly.divmod.coeff_ops": steps * (len(b.coeffs) - 1)}

    P.__divmod__ = t.wrap("poly.divmod", P.__divmod__, divmod_counter)
    P.__init__ = t.wrap(
        "poly.init", P.__init__, lambda out, self, field, coeffs=(): {"poly.init.coeffs": len(self.coeffs)}
    )
    P.evaluate = t.wrap("poly.evaluate", P.evaluate)
    _rebind(poly.format_poly, t.wrap("poly.format_poly", poly.format_poly))

    _rebind(words.word_poly, t.wrap("words.word_poly", words.word_poly))
    _rebind(words.theta_series, t.wrap("words.theta_series", words.theta_series))

    # cf: Euclid on fractions, certified series expansion, convergent table.
    _rebind(
        cf.cf_of_fraction,
        t.wrap("cf.cf_of_fraction", cf.cf_of_fraction, lambda out, *a: {"cf.cf_of_fraction.quotients": len(out)}),
    )
    _rebind(
        cf.cf_of_series,
        t.wrap(
            "cf.cf_of_series",
            cf.cf_of_series,
            lambda out, alpha: {
                "cf.cf_of_series.emitted": out.emitted,
                "cf.cf_of_series.budget_used": out.precision_consumed,
            },
        ),
    )
    _rebind(
        cf.convergents,
        t.wrap("cf.convergents", cf.convergents, lambda out, c: {"cf.convergents.rows": len(out)}),
    )

    # verify: the checks themselves, the cached expansion and the quartic root.
    for check in ("lemma1", "lemma2", "lemma3", "theorem3", "corollary", "conjecture"):
        fn = getattr(verify, f"check_{check}")
        _rebind(fn, t.wrap(f"verify.check_{check}", fn))
    _rebind(verify.theta_expansion, t.wrap("verify.theta_expansion", verify.theta_expansion))
    _rebind(verify.quartic_root, t.wrap("verify.quartic_root", verify.quartic_root))

    _rebind(cli.main, t.wrap("cli.main", cli.main))


# The cached approximant-pair constructors; their hit ratio is read from
# cache_info() at exit.
PAIR_CACHES = (verify.tail_periodic_pair, verify.pure_periodic_pair)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: jobrun.py TRACE_JSON -- <wordcf arguments>", file=sys.stderr)
        return 2
    trace_path, args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(args)
    finally:
        hits = sum(c.cache_info().hits for c in PAIR_CACHES)
        misses = sum(c.cache_info().misses for c in PAIR_CACHES)
        tracer.dump(trace_path, {"pair_cache": {"hits": hits, "misses": misses}})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
