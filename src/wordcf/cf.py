"""Continued fractions in K((1/T)): exact Euclidean expansion of rational
functions, certified expansion of truncated series, convergents, and the
irrationality-measure estimator.

Both expansions read their quotients off one Euclidean remainder sequence,
``poly._certified_euclid``, the routine whose last remainder is also
``poly_gcd``.

Degrees, valuations and measure terms are exact integers/rationals; there is
no floating point and no real logarithm anywhere.
"""

from __future__ import annotations

from collections import namedtuple

from .fields import PrecisionError
from .poly import Polynomial, _certified_euclid


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
    ``poly._certified_euclid`` return all of them.
    """
    return ContinuedFraction(tuple(_certified_euclid(num, den, 2 * den.degree)[0]))


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
    those whose degree sum stays <= floor(N/2), which
    ``poly._certified_euclid`` returns.
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
    quotients, _, rest = _certified_euclid(num, den, budget)
    if len(quotients) == 1 and not rest.is_zero:
        raise PrecisionError("precision exhausted")
    return SeriesExpansion(
        cf=ContinuedFraction(tuple(quotients)),
        emitted=len(quotients) - 1,
        precision_consumed=2 * sum(q.degree for q in quotients[1:]),
        terminated=rest.is_zero,
    )


class MeasureTerm(namedtuple("MeasureTerm", "n estimate running_max")):
    """One exact term of the irrationality-measure estimator: ``estimate``
    is the Fraction 2 + d_{n+1} / (d_1 + ... + d_n), ``running_max`` the
    largest estimate up to n."""

    __slots__ = ()


def measure_terms(degrees) -> list[MeasureTerm]:
    """Estimator terms 2 + d_{n+1}/sum(d_1..d_n) with their running maximum
    (the limsup proxy), all as exact rationals."""
    from fractions import Fraction

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
