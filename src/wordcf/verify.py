"""Executable renditions of the verified claims: approximant pairs, the
degree law of the expansion, the measure identity, the conjectured quotient
shapes, and the alphabet variant.  The quartic root over GF(p) and its check
live in ``quartic``, and the ``CheckReport`` record in ``report``.

Every check builds an ``expected`` and an ``actual`` string in the same
canonical form (exact-arithmetic text formats); a check passes exactly when
the two strings are equal, which keeps reports auditable.
No command runs ``pure_periodic_pair``; the tests and the benchmark tracer
read it.  The slower references that the checks replaced live in the tests.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from . import _kernel
from .fields import QQ, PrecisionError, format_terms
from .report import CheckReport
from .words import aux_words, check_block_budget, lengths, prefix, theta_series, word_poly

# The functions that build polynomials, series or expansions import those
# modules when called: lemmas 1 to 3 run on packed integers alone.


def __getattr__(name):
    """``quartic_root``, imported and bound here on first access, for the
    benchmark tracer alone (perfbench/jobrun.py rebinds
    ``verify.quartic_root``; ROADMAP item 2(e)).  Nothing here calls it."""
    if name != "quartic_root":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .quartic import quartic_root

    globals()[name] = quartic_root
    return quartic_root


class ApproximantPair(namedtuple("ApproximantPair", "n r s kind")):
    """A rational approximant r/s to the generating series; ``kind`` is
    "tail-periodic" or "pure-periodic"."""

    __slots__ = ()


def _tail_den_exponents(n: int) -> tuple[int, int]:
    """(high, low) with den_n = T^high - T^low for the tail-periodic pair:
    low = (len_n + len_{n-1} + 3)/2 and high = low + len_n + 1."""
    if n < 1:
        raise ValueError("approximants are defined for n >= 1")
    ell = lengths(n)
    low = (ell[n] + ell[n - 1] + 3) // 2
    return low + ell[n] + 1, low


def _pure_den_degree(n: int) -> int:
    """m with den'_n = T^m - 1 for the pure-periodic pair: m = len(u')."""
    if n < 1:
        raise ValueError("approximants are defined for n >= 1")
    ell = lengths(n)
    return 3 * ell[n] + ell[n - 1] + 4


@functools.lru_cache(maxsize=None)
def tail_periodic_pair(n: int, alphabet=(1, 2)) -> ApproximantPair:
    """Approximant from the eventually periodic word u v v v...

    den = T^((len_n + len_{n-1} + 3)/2) (T^(len_n + 1) - 1) from the word
    lengths alone; num is the difference of consecutive g-encodings over Q.
    For the default alphabet, num(1) != 0 is asserted (it can genuinely vanish
    for other alphabets, which is the point of the alphabet variant).
    """
    from .poly import Polynomial

    high, low = _tail_den_exponents(n)
    g_now = aux_words(n).g
    g_next = aux_words(n + 1).g
    r = word_poly(g_next, alphabet=alphabet) - word_poly(g_now, alphabet=alphabet)
    s = Polynomial.monomial(QQ, QQ.one, high) - Polynomial.monomial(QQ, QQ.one, low)
    if alphabet == (1, 2) and r.evaluate(1) == 0:
        raise ArithmeticError(f"num(1) vanished unexpectedly at n={n}")
    return ApproximantPair(n=n, r=r, s=s, kind="tail-periodic")


@functools.lru_cache(maxsize=None)
def pure_periodic_pair(n: int) -> ApproximantPair:
    """Approximant from the purely periodic word (u')^infinity:
    num = encoding of u', den = T^len(u') - 1."""
    from .poly import Polynomial

    r = word_poly(aux_words(n).up)
    s = Polynomial.monomial(QQ, QQ.one, _pure_den_degree(n)) - Polynomial.one(QQ)
    if r.coefficient(0) == 0 or r.evaluate(1) == 0:
        raise ArithmeticError(f"num(0) or num(1) vanished unexpectedly at n={n}")
    return ApproximantPair(n=n, r=r, s=s, kind="pure-periodic")


def check_lemma1(n: int) -> CheckReport:
    """Exponent law of the tail-periodic approximants:
    t_n = (9 len_n + 3 len_{n-1} + 11)/2 and t_n/deg(den) = 3 - 4/(3 len_n + len_{n-1} + 5)."""
    ell = lengths(n)
    t_expected = (9 * ell[n] + 3 * ell[n - 1] + 11) // 2
    omega_expected = 3 - Fraction(4, 3 * ell[n] + ell[n - 1] + 5)
    return _exponent_report("lemma1", n, packed_tail_pair(n), t_expected, omega_expected)


def check_lemma2(n: int) -> CheckReport:
    """Exponent law of the purely periodic approximants:
    t'_n = 2 len(u') + len(j) + 1 and t'_n/deg(den) = 2 + (len_n + len_{n-1} + 1)/(6 len_n + 2 len_{n-1} + 8)."""
    ell = lengths(n)
    len_up = 3 * ell[n] + ell[n - 1] + 4
    len_j = (ell[n] + ell[n - 1] - 1) // 2
    t_expected = 2 * len_up + len_j + 1
    omega_expected = 2 + Fraction(ell[n] + ell[n - 1] + 1, 6 * ell[n] + 2 * ell[n - 1] + 8)
    return _exponent_report("lemma2", n, packed_pure_pair(n), t_expected, omega_expected)


def _exponent_report(check: str, n: int, pair: PackedPair, t_expected: int, omega_expected) -> CheckReport:
    """The order t of the packed pair's approximation to the generating
    series and t/deg(den), against the expected ones, as ``t=...;omega=...``."""
    t_measured = _measured_order(pair, t_expected + 4)
    omega_measured = Fraction(t_measured, pair.den[0][1])
    expected = f"t={t_expected};omega={omega_expected}"
    actual = f"t={t_measured};omega={omega_measured}"
    return CheckReport(check, n, expected, actual)


# Lemmas 1-3 and Theorem 3 are checked on values at T = X = 2^8 (Kronecker
# substitution).  An integer polynomial whose coefficients all have
# |c| <= 127 is fixed by its value at 2^8: they are the value's balanced
# base-256 digits.  Every side compared below, every difference of two
# sides, and the remainder E of an order, has |c| <= 8: r_n, r'_n and the
# word have coefficients in [-2, 2], and s_n, s'_n, p_n, q_n at most two
# terms +-1; a product of one of each has |c| <= 4, delta and E are
# differences of two, and a recurrence adds a pair member to one.  So equal
# values are equal polynomials, and the digits of delta or E are its
# coefficients.
_X_BITS = 8

# Letters '1' and '2' as the byte digits 1 and 2.
_LETTER_DIGITS = bytes.maketrans(b"12", b"\x01\x02")


class PackedPair(namedtuple("PackedPair", "r den")):
    """An approximant pair at T = X: ``r`` is the int num(X) and ``den`` the
    terms (sign, exponent) of the binomial denominator, highest first."""

    __slots__ = ()


def _times(value: int, terms) -> int:
    """value * (sum of sign * T^e over the terms) at T = X: a shift a term."""
    total = 0
    for sign, e in terms:
        shifted = value << (_X_BITS * e)
        total = total + shifted if sign > 0 else total - shifted
    return total


def _packed_word(w: str) -> int:
    """word_poly(w) at T = X.  The first letter carries the top power, so
    the letters, as bytes 1 and 2, are the value's big-endian digits."""
    raw = w.encode("ascii", "replace")
    if raw.translate(None, b"12"):
        raise ValueError("word symbols must be '1' or '2'")
    return int.from_bytes(raw.translate(_LETTER_DIGITS), "big")


def _letter_sum(w: str) -> int:
    """word_poly(w) at T = 1."""
    return len(w) + w.count("2")


# Cached per process, like the polynomial pairs: each pair is packed once.
# Callers look the builders up by module name, so a rebound one is called.
@functools.lru_cache(maxsize=None)
def packed_tail_pair(n: int) -> PackedPair:
    """tail_periodic_pair(n) at T = X, from its words and exponents, with
    the same num(1) != 0 guard."""
    high, low = _tail_den_exponents(n)
    g_now, g_next = aux_words(n).g, aux_words(n + 1).g
    r = _packed_word(g_next) - _packed_word(g_now)
    if _letter_sum(g_next) == _letter_sum(g_now):
        raise ArithmeticError(f"num(1) vanished unexpectedly at n={n}")
    return PackedPair(r, ((1, high), (-1, low)))


@functools.lru_cache(maxsize=None)
def packed_pure_pair(n: int) -> PackedPair:
    """pure_periodic_pair(n) at T = X, with the same num(0), num(1) != 0
    guard; num(0) is the last letter, the low byte of num(X)."""
    m = _pure_den_degree(n)
    up = aux_words(n).up
    r = _packed_word(up)
    if not r & 0xFF or not _letter_sum(up):
        raise ArithmeticError(f"num(0) or num(1) vanished unexpectedly at n={n}")
    return PackedPair(r, ((1, m), (-1, 0)))


def _measured_order(pair: PackedPair, prec: int) -> int:
    """The t with |theta - num/den| = |T|^-t, from the first prec letters:
    with Theta = word_poly(prefix(prec)) and E = Theta den - num T^prec,
    T^prec den (theta - num/den) = E + O(T^(deg den - 1)), so
    t = deg den + prec - deg E once deg E >= deg den.  At T = X, E is a few
    shifts, and deg E is the position of its top signed digit."""
    e = _times(_packed_word(prefix(prec)), pair.den) - (pair.r << (_X_BITS * prec))
    deg_e = _kernel.signed_degree(e)
    if deg_e < pair.den[0][1]:
        raise PrecisionError("order exceeds precision")
    return pair.den[0][1] + prec - deg_e


def _ladder(n: int) -> tuple:
    """Lemma 3 at n as (delta, sign, delta_ok, rec): delta = (r_n s'_n - r'_n s_n)(X),
    to be sign (X - 1), and the four recurrences from n to n + 1 as bools."""
    ell = lengths(n + 2)
    a, ap = packed_tail_pair(n), packed_pure_pair(n)
    b, bp = packed_tail_pair(n + 1), packed_pure_pair(n + 1)
    len_f_next = (ell[n + 1] + ell[n] - 1) // 2
    len_v_next = ell[n + 1] + 1
    len_g = (ell[n] + ell[n - 1] + 3) // 2
    p_n = ((1, len_f_next + 1 + len_v_next), (1, len_f_next + 1))
    q_n = ((1, len_g),)
    s, sp, s2, s2p = (_times(1, pair.den) for pair in (a, ap, b, bp))
    rec = [
        s2p == _times(s2, p_n) + sp,
        s2 == _times(sp, q_n) - s,
        bp.r == _times(b.r, p_n) + ap.r,
        b.r == _times(ap.r, q_n) - a.r,
    ]
    sign = 1 if n % 2 == 0 else -1
    delta = _times(a.r, ap.den) - _times(ap.r, a.den)
    return delta, sign, delta == sign * ((1 << _X_BITS) - 1), rec


def check_lemma3(n: int) -> CheckReport:
    """Cross-product identity, the four ladder recurrences linking index n to
    n+1, and the coprimality conclusions.

    Every identity is checked as one identity of integers, the values at
    T = X = 2^8 (``_ladder``, ``_X_BITS``).  The numerators are packed from
    their words in one C-level pass each, and every product has a monomial or
    binomial factor, so it is one or two shifts: the check is linear in the
    word lengths and builds no Polynomial of the pairs.  The reported delta
    is read back from its value's digits.

    The gcd statements are verified by divisibility: any common divisor of a
    pair divides the cross product +-(T-1), so once that identity holds,
    coprimality follows from num(1) != 0, which the packed pairs guard.  (A
    literal Euclidean gcd is cross-checked in tests for small n.)
    """
    delta, sign, delta_ok, rec = _ladder(n)
    digits = _kernel.signed_digits(delta)
    gcd = "1,1" if delta_ok else "?,?"
    expected = f"delta={format_terms(QQ.format_scalar, (sign, -sign), 1)};rec=ok,ok,ok,ok;gcd=1,1"
    actual = (
        f"delta={format_terms(QQ.format_scalar, digits[::-1], len(digits) - 1) or '0'};"
        f"rec={','.join('ok' if r else 'FAIL' for r in rec)};"
        f"gcd={gcd}"
    )
    return CheckReport("lemma3", n, expected, actual)


@functools.lru_cache(maxsize=None)
def theta_expansion(block_count: int) -> ContinuedFraction:
    """Continued fraction of the block_count-th tail-periodic approximant;
    its quotients are an exact prefix of the expansion of the generating
    series."""
    from .cf import cf_of_fraction

    pair = tail_periodic_pair(block_count)
    return cf_of_fraction(pair.r, pair.s)


def theta_degrees(max_n: int) -> list[int]:
    """Degrees d_1 .. d_{4 max_n + 4} of theta's expansion as Theorem 3's
    proof derives them: d_1..d_4 from ``theta_expansion(min(max_n, 2) + 1)``,
    then, the pairs at n being the convergents 4n and 4n + 2 of order
    2 deg y_k + d_{k+1} (premises that ``check_theorem3`` checks), from the
    orders t_n, t'_n (each < 3 deg den), D_n = deg s_n and m_n = deg s'_n:
    d_{4n+1} = t_n - 2 D_n, d_{4n+2} = m_n - D_n - d_{4n+1},
    d_{4n+3} = t'_n - 2 m_n, d_{4n+4} = D_{n+1} - m_n - d_{4n+3}."""
    d = theta_expansion(min(max_n, 2) + 1).degrees()[:4]
    for n in range(1, max_n + 1):
        a, ap = packed_tail_pair(n), packed_pure_pair(n)
        big_d, m = a.den[0][1], ap.den[0][1]
        d1 = _measured_order(a, 3 * big_d) - 2 * big_d
        d3 = _measured_order(ap, 3 * m) - 2 * m
        d += [d1, m - big_d - d1, d3, packed_tail_pair(n + 1).den[0][1] - m - d3]
    return d


def check_theorem3(max_n: int) -> list[CheckReport]:
    """Degree law of the expansion: the first four degrees are 1; block n
    contributes degrees ((3 len_n + len_{n-1} + 1)/2, 1, (len_n + len_{n-1} + 1)/2, 1);
    and the approximant pairs are, up to a scalar, the convergents at
    indices 4n and 4n+2.

    Computed: d_1..d_4, by a Euclid on a denominator of degree <= 21 that a
    certified series expansion cross-checks; the orders t_n, t'_n; lemma 3's
    delta and recurrences (``_ladder``), re-measured here.  Inferred: the
    other degrees (``theta_degrees``) and the indices, by Legendre's
    criterion (a reduced r/s with |theta - r/s| < |s|^-2 is a convergent):
    delta = +-(T - 1) and num(1) != 0 make the pairs reduced, and
    d_{4n+1}, d_{4n+3} >= 1 are the inequalities.  Convergents j < l have a
    cross product of degree deg y_l - deg y_{j+1}, so delta, and by the
    recurrences the cross product of the pure pair n and the tail pair n + 1,
    place each pair two indices after the last (positive degrees order
    them); d_1 + ... + d_4 = D_1 places the first at 4.  A row matches only
    when every step up to it holds."""
    from .cf import cf_of_series

    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    d = theta_degrees(max_n)
    ell = lengths(max_n + 1)
    reports: list[CheckReport] = []

    m = min(max_n, 2)
    series_prec = 3 * ell[m + 1] + ell[m] + 5  # = 2 deg(den_{m+1})
    expansion = cf_of_series(theta_series(series_prec))
    k = expansion.emitted
    prefix_ok = expansion.cf.quotients[: k + 1] == theta_expansion(m + 1).quotients[: k + 1]
    base_expected = f"d1..d4=1,1,1,1;series_prefix=consistent({k})"
    base_actual = (
        f"d1..d4={','.join(str(x) for x in d[:4])};"
        f"series_prefix={'consistent' if prefix_ok else 'DIVERGES'}({k})"
    )
    reports.append(CheckReport("theorem3", 0, base_expected, base_actual))

    placed = sum(d[:4]) == packed_tail_pair(1).den[0][1]
    for n in range(1, max_n + 1):
        d_expected = (
            (3 * ell[n] + ell[n - 1] + 1) // 2,
            1,
            (ell[n] + ell[n - 1] + 1) // 2,
            1,
        )
        d_actual = tuple(d[4 * n : 4 * n + 4])
        _, _, delta_ok, rec = _ladder(n)
        conv_ok = placed and delta_ok and d_actual[0] >= 1
        convp_ok = conv_ok and d_actual[1] >= 1 and d_actual[2] >= 1
        placed = convp_ok and all(rec) and d_actual[3] >= 1
        expected = f"d={d_expected};conv4n=match;conv4n+2=match"
        actual = (
            f"d={d_actual};"
            f"conv4n={'match' if conv_ok else 'MISMATCH'};"
            f"conv4n+2={'match' if convp_ok else 'MISMATCH'}"
        )
        reports.append(CheckReport("theorem3", n, expected, actual))
    return reports


def check_corollary(max_n: int) -> list[CheckReport]:
    """Measure bookkeeping: sum(d_1..d_4n) = 2 + d_{4n+1}, and the estimator
    term at index 4n equals 2 + d_{4n+1}/(2 + d_{4n+1}), strictly increasing.
    Exact arithmetic on ``theta_degrees``, whose premises theorem3 checks."""
    from .cf import measure_terms

    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    d = theta_degrees(max_n)
    terms = measure_terms(d)
    reports: list[CheckReport] = []
    prev_estimate = None
    for n in range(1, max_n + 1):
        deg_sum = sum(d[: 4 * n])
        d_next = d[4 * n]  # d_{4n+1}
        term = terms[4 * n - 1]
        expected_estimate = 2 + Fraction(d_next, 2 + d_next)
        increasing = prev_estimate is None or term.estimate > prev_estimate
        expected = f"degsum=2+d;nu={expected_estimate};increasing=yes"
        actual = (
            f"degsum={'2+d' if deg_sum == 2 + d_next else f'{deg_sum}!=2+{d_next}'};"
            f"nu={term.estimate};"
            f"increasing={'yes' if increasing else 'NO'}"
        )
        reports.append(CheckReport("corollary", n, expected, actual))
        prev_estimate = term.estimate
    return reports


class ConjectureRow(namedtuple("ConjectureRow", "n r_n lambdas predicted")):
    """Predicted quotient quartet for block n, from the closed-form scalars:
    ``r_n`` and the four ``lambdas`` are Fractions, ``predicted`` holds the
    four quotient Polynomials."""

    __slots__ = ()


def conjecture_row(n: int) -> ConjectureRow:
    from .poly import Polynomial

    ell = lengths(n + 1)
    r, r_next = (Fraction(4 * (2 * ell[k] - ell[k - 1] + 1), 25) for k in (n, n + 1))
    sign = 1 if n % 2 == 1 else -1  # (-1)^(n+1)
    lam1 = sign * r**2
    lam2 = sign / (r**2 + r * r_next)
    lam3 = sign * (r + r_next) ** 2
    lam4 = sign / (r_next**2 + r * r_next)
    high = (3 * ell[n] + ell[n - 1] + 3) // 2
    mid = (ell[n] + ell[n - 1] + 1) // 2
    small = (ell[n] + ell[n - 1] + 3) // 2
    # T^k - 1 = (T - 1)(1 + T + ... + T^(k-1)), so the shapes (T^high + T^mid - 2)/(T - 1)
    # and (T^small - 1)/(T - 1) are runs of 2s and 1s (high > mid).
    shape1 = Polynomial._raw(QQ, [2] * mid + [1] * (high - mid))
    shape3 = Polynomial._raw(QQ, [1] * small)
    t_minus_1 = Polynomial(QQ, [-1, 1])
    predicted = (shape1.scale(lam1), t_minus_1.scale(lam2), shape3.scale(lam3), t_minus_1.scale(lam4))
    return ConjectureRow(n=n, r_n=r, lambdas=(lam1, lam2, lam3, lam4), predicted=predicted)


class ConjectureOutcome(namedtuple("ConjectureOutcome", "reports rows findings")):
    """Lists of CheckReports, ConjectureRows and finding strings."""

    __slots__ = ()


def check_conjecture(max_n: int) -> ConjectureOutcome:
    """Compare the conjectured quotient quartets against the expanded ones.

    The pass/fail report compares monic shapes and degrees; an exact scalar
    disagreement with matching shape is recorded as a finding, not a failure,
    because the claim is conjectural.
    """
    from .poly import format_poly

    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    cf = theta_expansion(max_n + 1)
    reports: list[CheckReport] = []
    rows: list[ConjectureRow] = []
    findings: list[str] = []
    for n in range(1, max_n + 1):
        row = conjecture_row(n)
        rows.append(row)
        actual = cf.quotients[4 * n + 1 : 4 * n + 5]
        expected_shapes = ";".join(format_poly(p.monic()) for p in row.predicted)
        actual_shapes = ";".join(format_poly(a.monic()) for a in actual)
        reports.append(CheckReport("conjecture", n, expected_shapes, actual_shapes))
        for idx, (pred, act) in enumerate(zip(row.predicted, actual)):
            if pred != act:
                findings.append(
                    f"a_{4 * n + 1 + idx}: predicted {format_poly(pred)}, "
                    f"expanded {format_poly(act)}"
                )
    return ConjectureOutcome(reports=reports, rows=rows, findings=findings)


class AlphabetVariant(namedtuple("AlphabetVariant", "alphabet r s gcd coprime report")):
    """The n = 1 approximant pair rebuilt over an arbitrary letter pair."""

    __slots__ = ()


def alphabet_variant(a, b) -> AlphabetVariant:
    """Report gcd(num, den) of the first tail-periodic approximant over the
    alphabet (a, b); coprimality holds for (1, 2) and fails for (1, -1)."""
    from .poly import format_poly, poly_gcd

    a, b = QQ.coerce(a), QQ.coerce(b)
    pair = tail_periodic_pair(1, alphabet=(a, b))
    g = poly_gcd(pair.r, pair.s)
    coprime = g.degree == 0
    known = {
        (1, 2): "1*T^0",
        (1, -1): "1*T^1 + -1*T^0",
    }
    expected = known.get((a, b), format_poly(g))
    report = CheckReport(
        "alphabet",
        1,
        f"gcd={expected}",
        f"gcd={format_poly(g)}",
    )
    return AlphabetVariant(
        alphabet=(a, b), r=pair.r, s=pair.s, gcd=g, coprime=coprime, report=report
    )


def _conjecture_suite(bound: int):
    outcome = check_conjecture(bound)
    return outcome.reports, outcome.findings


# name: (default max_n, runner(max_n) -> (reports, findings)).  The runners
# look their check up when called, so a rebound ``check_*`` is the one run.
SUITE = {
    "lemma1": (8, lambda bound: ([check_lemma1(n) for n in range(1, bound + 1)], [])),
    "lemma2": (8, lambda bound: ([check_lemma2(n) for n in range(1, bound + 1)], [])),
    "lemma3": (12, lambda bound: ([check_lemma3(n) for n in range(1, bound + 1)], [])),
    "theorem3": (6, lambda bound: (check_theorem3(bound), [])),
    "corollary": (6, lambda bound: (check_corollary(bound), [])),
    "conjecture": (5, _conjecture_suite),
}

SUITE_ORDER = tuple(SUITE)


def check_depth_budget(max_n: int) -> None:
    """A check or degree table to depth N reaches aux_words(N + 2), which
    builds u(N + 3): raise ValueError when that block is over the budget."""
    check_block_budget(max_n + 3)


def run_suite(selection: str, max_n: int | None = None):
    """Run one named check family (or 'all') over n = 1..max_n.

    Returns (reports, findings); reports are sorted by (check, n) so output
    is deterministic regardless of execution order.
    """
    names = SUITE_ORDER if selection == "all" else (selection,)
    reports: list[CheckReport] = []
    findings: list[str] = []
    for name in names:
        if name not in SUITE:
            raise ValueError(f"unknown check {name!r}")
        default_max_n, runner = SUITE[name]
        bound = default_max_n if max_n is None else max_n
        check_depth_budget(bound)
        more_reports, more_findings = runner(bound)
        reports.extend(more_reports)
        findings.extend(more_findings)
    reports.sort(key=lambda rep: (rep.check, rep.n))
    return reports, findings
