"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Every tolerance and runtime bound is pinned here; the
random suites are seeded and deterministic.
"""

import random
import time
from fractions import Fraction

from wordcf.fields import QQ
from wordcf.poly import Polynomial, poly_gcd
from wordcf.ratfunc import RationalFunction, parse_poly
from wordcf.cf import cf_of_fraction, convergents, measure_terms
from wordcf.words import (
    length_closed_form_ok,
    lengths,
    theta_series,
    word_poly,
)
from wordcf import quartic, verify

from oracles import determinant, euclid_gcd, eval_cf


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_golden_partial_quotients():
    num, den = parse_poly("T^3+2*T^2+T-1"), parse_poly("T^4-T^2")
    golden = [
        parse_poly("0"),
        parse_poly("T-2"),
        parse_poly("1/2*T+1/4"),
        parse_poly("8/5*T+76/25"),
        parse_poly("-125/48*T+25/24"),
    ]
    best = min(
        _timed(lambda: cf_of_fraction(num, den))[0] for _ in range(7)
    )
    cf = cf_of_fraction(num, den)
    ok = list(cf.quotients) == golden and best < 1e-3
    _line(1, ok, f"expansion matches the displayed list; best run {best * 1e3:.3f} ms < 1 ms")


def test_criterion_2_cross_product_and_recurrences():
    start = time.perf_counter()
    reports = [verify.check_lemma3(n) for n in range(1, 13)]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 10.0
    _line(2, ok, f"delta and recurrences exact for n=1..12 in {elapsed:.2f}s < 10s")


def test_criterion_3_degree_law():
    verify.theta_expansion.cache_clear()
    start = time.perf_counter()
    cf = verify.theta_expansion(7)
    d = cf.degrees()
    ell = lengths(7)
    ok = len(d) == 28 and d[:4] == [1, 1, 1, 1]
    for n in range(1, 7):
        ok = ok and d[4 * n] == (3 * ell[n] + ell[n - 1] + 1) // 2
        ok = ok and d[4 * n + 1] == 1
        ok = ok and d[4 * n + 2] == (ell[n] + ell[n - 1] + 1) // 2
        ok = ok and d[4 * n + 3] == 1
    reports = verify.check_theorem3(6)
    ok = ok and all(r.passed for r in reports)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _line(3, ok, f"d1..d28 and convergent identification in {elapsed:.2f}s < 5min")


def test_criterion_4_tail_periodic_exponents():
    theta_series.cache_clear()
    start = time.perf_counter()
    reports = [verify.check_lemma1(n) for n in range(1, 9)]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 1.0
    _line(4, ok, f"approximation exponents exact for n=1..8 in {elapsed * 1e3:.0f}ms < 1s")


def test_criterion_5_pure_periodic_exponents():
    ell = lengths(8)
    reports = [verify.check_lemma2(n) for n in range(1, 9)]
    ok = all(r.passed for r in reports)
    ok = ok and reports[0].actual.startswith("t=15;")
    for n in range(1, 9):
        t_formula = 2 * (3 * ell[n] + ell[n - 1] + 4) + (ell[n] + ell[n - 1] - 1) // 2 + 1
        ok = ok and f"t={t_formula};" in reports[n - 1].actual
    _line(5, ok, "exponents equal 2*len(u') + len(j) + 1 for n=1..8, with t'_1 = 15")


def test_criterion_6_measure_identity_and_estimate():
    cf = verify.theta_expansion(7)
    d = cf.degrees()
    reports = verify.check_corollary(6)
    ok = all(r.passed for r in reports)
    for n in range(1, 7):
        ok = ok and sum(d[: 4 * n]) == 2 + d[4 * n]
    estimate = measure_terms(d)[4 * 6 - 1].estimate
    ok = ok and estimate >= Fraction(299, 100)
    _line(6, ok, f"degree sums match and the estimate at n=6 is {estimate} >= 2.99")


def test_criterion_7_conjectured_quotient_shapes():
    outcome = verify.check_conjecture(5)
    for finding in outcome.findings:
        print(f"ACCEPTANCE 7 finding: {finding}")
    ok = all(r.passed for r in outcome.reports)
    cf = verify.theta_expansion(6)
    a5_expected = parse_poly("T^2+T+2").scale(Fraction(144, 625))
    a6_expected = parse_poly("T-1").scale(Fraction(625, 528))
    ok = ok and cf.quotients[5] == a5_expected and cf.quotients[6] == a6_expected
    _line(7, ok, f"shapes match for n<=5 with {len(outcome.findings)} scalar findings")


def test_criterion_8_quartic_over_gf3():
    start = time.perf_counter()
    root = quartic.quartic_root(3, 1000)
    residual = quartic.quartic_residual(root)
    expansion = quartic.quartic_expansion(3, 1000)
    report = quartic.quartic_lambda_report(expansion, 100)
    elapsed = time.perf_counter() - start
    ok = residual.is_zero and residual.known_down <= -999
    ok = ok and expansion.monomial
    ok = ok and report.passed
    ok = ok and elapsed < 10.0
    _line(8, ok, f"residual below T^-1000, monomial quotients, 100 coefficients match in {elapsed:.2f}s < 10s")


def test_criterion_9_alphabet_variants():
    flipped = verify.alphabet_variant(1, -1)
    default = verify.alphabet_variant(1, 2)
    ok = (
        flipped.r == parse_poly("(T^2-2)*(T-1)")
        and flipped.s == parse_poly("T^2*(T^2-1)")
        and flipped.gcd == parse_poly("T-1")
        and default.gcd == Polynomial.one(QQ)
    )
    _line(9, ok, "alphabet (1,-1) reproduces the displayed pair and loses coprimality; (1,2) stays coprime")


def test_criterion_10_property_suites():
    rng = random.Random(20260808)

    def random_coeff():
        if rng.random() < 0.15:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-20, 20)

    def random_poly(max_deg, nonzero=False):
        while True:
            p = Polynomial(QQ, [random_coeff() for _ in range(rng.randint(0, max_deg + 1))])
            if not nonzero or not p.is_zero:
                return p

    failures = 0
    for _ in range(500):
        num, den = random_poly(30), random_poly(30, nonzero=True)
        cf = cf_of_fraction(num, den)
        if eval_cf(cf) != RationalFunction(num, den):
            failures += 1
        table = convergents(cf)
        for k in range(1, len(table)):
            want = Polynomial(QQ, [1 if k % 2 == 1 else -1])
            if determinant(table, k) != want:
                failures += 1
                break

    for _ in range(500):
        a = "".join(rng.choice("12") for _ in range(rng.randint(0, 40)))
        b = "".join(rng.choice("12") for _ in range(rng.randint(0, 40)))
        if word_poly(a + b) != word_poly(a).shift(len(b)) + word_poly(b):
            failures += 1

    closed_form_ok = all(length_closed_form_ok(n) for n in range(31))
    ok = failures == 0 and closed_form_ok
    _line(10, ok, f"500 expansion round-trips, 500 encoding homomorphisms, exact closed form to n=30; {failures} failures")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_gcd_argument_cross_checked_by_euclid():
    # Supplementary: the divisibility argument used at scale agrees with the
    # literal Euclidean gcd where that is affordable.
    # Both the gcd with its modular coprimality test and the plain Euclidean
    # algorithm over Q, up to depth 10 (about a second).
    for n in range(1, 11):
        for pair in (verify.tail_periodic_pair(n), verify.pure_periodic_pair(n)):
            assert poly_gcd(pair.r, pair.s).degree == 0
            assert euclid_gcd(pair.r, pair.s).degree == 0
