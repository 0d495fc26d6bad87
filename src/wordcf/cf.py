"""Continued fractions in K((1/T)): exact Euclidean expansion of rational
functions, certified expansion of truncated series, convergents, and the
irrationality-measure estimator.

Degrees, valuations and measure terms are exact integers/rationals; there is
no floating point and no real logarithm anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress

from . import _kernel
from .fields import check_same_field
from .poly import Polynomial, _divmod_gfp
from .series import LaurentSeries, PrecisionError


class ContinuedFraction(namedtuple("ContinuedFraction", "quotients")):
    """[a0; a1, a2, ...]: a0 unconstrained, all later quotients of degree >= 1.

    ``quotients`` is a tuple of Polynomials; ``len`` counts them.
    """

    __slots__ = ()

    def __new__(cls, quotients):
        if not quotients:
            raise ValueError("a continued fraction needs at least a0")
        for q in quotients[1:]:
            if q.degree < 1:
                raise ValueError("partial quotients beyond a0 must have degree >= 1")
        return super().__new__(cls, quotients)

    @classmethod
    def _make(cls, fields):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*fields)

    @property
    def field(self):
        return self.quotients[0].field

    @property
    def a0(self) -> Polynomial:
        return self.quotients[0]

    @property
    def partials(self) -> tuple[Polynomial, ...]:
        return self.quotients[1:]

    def degrees(self) -> list[int]:
        """Degrees d_1, d_2, ... of the partial quotients."""
        return [q.degree for q in self.quotients[1:]]

    def __len__(self):
        return len(self.quotients)


class ConvergentTable(namedtuple("ConvergentTable", "rows")):
    """Numerator/denominator pairs (x_n, y_n) of the truncated fractions;
    ``len`` counts the rows."""

    __slots__ = ()

    def __len__(self):
        return len(self.rows)


def convergents(cf: ContinuedFraction) -> ConvergentTable:
    """Table from z_n = a_n z_{n-1} + z_{n-2} seeded with (a0, 1)."""
    field = cf.field
    one = Polynomial.one(field)
    zero = Polynomial.zero(field)
    rows = [(cf.a0, one)]
    x_prev, y_prev = one, zero
    for a in cf.quotients[1:]:
        x, y = rows[-1]
        rows.append((a * x + x_prev, a * y + y_prev))
        x_prev, y_prev = x, y
    return ConvergentTable(tuple(rows))


def cf_of_fraction(num: Polynomial, den: Polynomial) -> ContinuedFraction:
    """Finite continued fraction of num/den: a0 = num div den, then the
    quotients of the Euclidean remainder sequence of den and num mod den.

    Those have degree sum deg den - deg gcd, so a budget of 2 deg den lets
    ``_certified_euclid`` return all of them.
    """
    check_same_field(num.field, den.field)
    if den.is_zero:
        raise ZeroDivisionError("zero divisor")
    a0, r = divmod(num, den)
    partials, _ = _certified_euclid(den, r, 2 * den.degree)
    return ContinuedFraction((a0, *partials))


class SeriesExpansion(namedtuple("SeriesExpansion", "cf emitted precision_consumed terminated")):
    """Certified prefix of the continued fraction of a truncated series.

    ``cf`` is the certified ContinuedFraction.  ``emitted`` counts the
    partial quotients after a0.  ``terminated`` is True when the truncation
    itself was reached exactly (a rational series).  ``precision_consumed``
    is 2*deg(y_emitted), the budget the certificate actually used.
    """

    __slots__ = ()


def cf_of_series(alpha: LaurentSeries) -> SeriesExpansion:
    """Expand a truncated series, emitting only partial quotients that are
    provably those of every series agreeing with alpha at the known exponents.

    The truncation beta (alpha's known digits, a rational function) is
    expanded by exact division; before each division step the upcoming
    quotient degree is already known from the remainder degrees, and the
    quotient a_{n+1} is emitted only when 2*deg(y_{n+1}) <= N where
    N = -known_down.  Any series within O(T^(known_down - 1)) of beta then
    shares the convergents x_0/y_0 ... x_{n+1}/y_{n+1}, consecutively, by the
    classical best-approximation criterion (|alpha - x/y| < |y|^-2 forces x/y
    to be a convergent), so the emitted prefix is exact.  The first rejected
    quotient is never computed.

    With r_{-1} = T^N and r_0 = num mod T^N, deg y_{n+1} = N - deg r_n, so
    a_{n+1} is emitted iff deg r_n >= ceil(N/2): the emitted quotients are
    those whose degree sum stays <= floor(N/2), which ``_certified_euclid``
    returns.
    """
    field = alpha.field
    if alpha.known_down > 0:
        raise PrecisionError("precision exhausted")
    budget = -alpha.known_down
    if alpha.is_zero:
        # The truncation is the zero polynomial: a0 = 0 and the expansion of
        # the truncation stops there, like any other polynomial input.
        return SeriesExpansion(
            cf=ContinuedFraction((Polynomial.zero(field),)),
            emitted=0,
            precision_consumed=0,
            terminated=True,
        )
    # beta = num / T^N, num carrying alpha's known digits.
    num = Polynomial(field, list(reversed(alpha.coeffs)))
    den = Polynomial.monomial(field, field.one, budget)
    a0, r = divmod(num, den)
    partials, terminated = _certified_euclid(den, r, budget)
    if not partials and not terminated:
        raise PrecisionError("precision exhausted")
    return SeriesExpansion(
        cf=ContinuedFraction((a0, *partials)),
        emitted=len(partials),
        precision_consumed=2 * sum(q.degree for q in partials),
        terminated=terminated,
    )


def _certified_euclid(prev: Polynomial, cur: Polynomial, budget: int):
    """The quotients of prev/cur (deg prev > deg cur) with degree sum
    <= budget/2, and whether the remainder after them is zero.

    Over GF(p) they come from one half-gcd (``_half_gcd``), whose last
    remainder is exact, at full size; over Q from one division at a time.
    """
    field = prev.field
    p = field.characteristic
    if p:
        quotients, _, _, rest = _half_gcd(list(prev.ints), list(cur.ints), budget // 2, p)
        return [Polynomial._raw(field, q) for q in quotients], not rest
    quotients = []
    deg_y = 0
    while not cur.is_zero:
        step = prev.degree - cur.degree
        if 2 * (deg_y + step) > budget:
            return quotients, False
        q, r = divmod(prev, cur)
        quotients.append(q)
        deg_y += step
        prev, cur = cur, r
    return quotients, True


# Below this degree-sum bound the half-gcd divides step by step.
_HALF_GCD_BASE = 32

_IDENTITY = (([1], []), ([], [1]))


def _half_gcd(a: list, b: list, k: int, p: int):
    """Half-gcd of residue lists over GF(p) (Thull & Yap 1990; von zur
    Gathen & Gerhard, *Modern Computer Algebra*, ch. 11), without the monic
    normalisation, so its quotients are the plain division's.

    For deg a > deg b (b may be []), the Euclidean remainders r_{-1} = a,
    r_0 = b, r_i = r_{i-2} mod r_{i-1} have quotients q_i.  Returns
    (q_1..q_j, R, r_{j-1}, r_j) with j the largest index with
    deg q_1 + ... + deg q_j <= k, and R = ((s0, t0), (s1, t1)) the cofactors
    with r_{j-1} = s0 a + t0 b and r_j = s1 a + t1 b.  The remainders are
    exact, at the full size of a and b.

    Those quotients depend only on the top 2k+1 digits of a (and the
    matching digits of b): dropping the m = deg a - 2k low digits of both
    perturbs r_i by s_i A0 + t_i B0 of degree < m + deg t_i, which changes no
    quotient whose degree sum stays <= k.  So a call on more digits recurses
    on the top ones and restores its remainders as T^m times theirs plus R
    applied to the low digits.  Otherwise it finds the quotients with
    degree sum <= k/2 recursively, divides once, and recurses on the rest.
    The matrix products go through the kernel, for O(M(k) log k) work plus
    the divisions, which cost O(d k) for a quotient of degree d.
    """
    n = len(a) - 1
    if not b or n - (len(b) - 1) > k:
        return [], _IDENTITY, a, b
    m = n - 2 * k
    if m > 0:
        quotients, R, c, d = _half_gcd(a[m:], b[m:], k, p)
        (c_low,), (d_low,) = _kernel.matmul(R, [[a[:m]], [b[:m]]], p)
        return quotients, R, _shift_add(c, m, c_low, p), _shift_add(d, m, d_low, p)
    if k <= _HALF_GCD_BASE:
        return _euclid_steps(a, b, k, p)
    quotients, R, c, d = _half_gcd(a, b, k // 2, p)
    if not d or n - (len(d) - 1) > k:
        return quotients, R, c, d
    q, r = _divmod_gfp(c, d, p)
    quotients.append(q)
    R = _step(R, q, p)
    rest, S, c, d = _half_gcd(d, _strip(r), k - (n - (len(d) - 1)), p)
    return quotients + rest, _kernel.matmul(S, R, p), c, d


def _euclid_steps(a: list, b: list, k: int, p: int):
    """``_half_gcd`` by one division per quotient."""
    quotients = []
    R = _IDENTITY
    n = len(a) - 1
    while b and n - (len(b) - 1) <= k:
        q, r = _divmod_gfp(a, b, p)
        quotients.append(q)
        R = _step(R, q, p)
        a, b = b, _strip(r)
    return quotients, R, a, b


def _step(R, q: list, p: int):
    """The cofactor matrix one division further: rows r_j, r_{j-1} - q r_j.

    Each level of ``_half_gcd`` works on the top 2k+1 digits, so the rows
    (degree <= k) are no longer than the divisor that gave q: updating them
    term by term costs no more than that division did, and for the short
    quotients of most steps much less than a trip through the kernel.
    """
    (s0, t0), (s1, t1) = R
    return R[1], (_sub_mul(s0, q, s1, p), _sub_mul(t0, q, t1, p))


def _sub_mul(x: list, q: list, y: list, p: int) -> list:
    """x - q y over GF(p) as a stripped residue list."""
    out = list(x)
    if y:
        out += [0] * (len(q) + len(y) - 1 - len(x))
        for i in compress(range(len(q)), q):
            c = q[i]
            out[i : i + len(y)] = [o - c * v for o, v in zip(out[i : i + len(y)], y)]
    return _strip([v % p for v in out])


def _shift_add(high: list, m: int, low: list, p: int) -> list:
    """high T^m + low over GF(p) as a stripped residue list."""
    out = low + [0] * (m + len(high) - len(low))
    out[m : m + len(high)] = [(x + c) % p for x, c in zip(out[m : m + len(high)], high)]
    return _strip(out)


def _strip(v: list) -> list:
    while v and not v[-1]:
        v.pop()
    return v


class MeasureTerm(namedtuple("MeasureTerm", "n estimate running_max")):
    """One exact term of the irrationality-measure estimator: ``estimate``
    is the Fraction 2 + d_{n+1} / (d_1 + ... + d_n), ``running_max`` the
    largest estimate up to n."""

    __slots__ = ()


def measure_terms(degrees) -> list[MeasureTerm]:
    """Estimator terms 2 + d_{n+1}/sum(d_1..d_n) with their running maximum
    (the limsup proxy), all as exact rationals."""
    degrees = list(degrees)
    if len(degrees) < 2:
        raise ValueError("need at least two partial-quotient degrees")
    if any(d < 1 for d in degrees):
        raise ValueError("partial-quotient degrees must be >= 1")
    out: list[MeasureTerm] = []
    total = degrees[0]
    best = None
    for n in range(1, len(degrees)):
        term = 2 + Fraction(degrees[n], total)
        best = term if best is None else max(best, term)
        out.append(MeasureTerm(n=n, estimate=term, running_max=best))
        total += degrees[n]
    return out
