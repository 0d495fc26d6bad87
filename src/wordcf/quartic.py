"""The quartic root over GF(p): the small root of x^4 + x^2 - T x + 1 by
Newton lifting, its certified continued-fraction expansion, and the GF(3)
check that its quotients spell the word.

It loads the polynomial, series and expansion layers it computes with; the
p = 3 check imports the word layer when it runs, so other primes load none.
"""

from __future__ import annotations

from collections import namedtuple

from . import _kernel, cf
from .fields import GF, PrecisionError
from .poly import Polynomial
from .report import CheckReport
from .series import LaurentSeries


def quartic_residual(x: LaurentSeries) -> LaurentSeries:
    """x^4 + x^2 - T x + 1 under the series precision rules."""
    field = x.field
    kd = x.known_down
    x2 = x * x
    x4 = x2 * x2
    one = LaurentSeries.from_poly(Polynomial.one(field), kd)
    return x4 + x2 - x.shift(1) + one


# Deepest quartic lift, ten times the 10^5 digits the certificate aims at;
# a deeper request fails before lifting.
MAX_QUARTIC_PREC = 10**6


def quartic_root(p: int, prec: int) -> LaurentSeries:
    """The unique small root of x^4 + x^2 - T x + 1 over GF(p), exact on the
    top ``prec`` digits.

    Each Newton step doubles the agreement depth, along the depths prec,
    prec // 2, prec // 4, ... taken from the bottom up, so the last step
    lands on prec and the total cost stays proportional to a few
    multiplications at full precision.  Each series product over GF(p) is
    one Karatsuba bigint product (Kronecker substitution in
    ``series._mul_trunc``), so precision 10^5 takes a few seconds.  The
    residual is re-checked before returning.
    """
    field = GF(p)
    if prec < 1:
        raise ValueError("prec must be at least 1")
    if prec > MAX_QUARTIC_PREC:
        raise ValueError(f"precision {_kernel.decimal_str(prec)} is above the budget of {MAX_QUARTIC_PREC} digits")
    # Seed T^-1 agrees with the root down to exponent -2.
    x = LaurentSeries(field, -1, [field.one, field.zero], -2)
    targets = []
    target = prec
    while target > 2:
        targets.append(target)
        target //= 2
    t_poly = Polynomial.t(field)
    for target in reversed(targets):
        xw = x.padded(-target)
        x2 = (xw * xw).truncate(-target)
        x4 = (x2 * x2).truncate(-target)
        # x is exact down to at least -(target // 2), so f(x) is
        # O(T^-(target // 2)) and f'(x) is needed only to x's own relative
        # precision: build it from x, not from the padded xw.
        x3 = x2.truncate(x.known_down - 1) * x
        one = LaurentSeries.from_poly(Polynomial.one(field), -target)
        t_series = LaurentSeries.from_poly(t_poly, -target)
        fx = x4 + x2 - xw.shift(1) + one
        fpx = x3.scale(4) + x.scale(2) - t_series
        delta = fx * fpx.invert()
        x = (xw - delta).truncate(-target)
    x = x.truncate(-prec)
    if not quartic_residual(x).is_zero:
        raise ArithmeticError("quartic residual is nonzero at the requested precision")
    return x


class QuarticExpansion(namedtuple("QuarticExpansion", "root cf lambdas exponents monomial")):
    """Certified continued-fraction prefix of the quartic root: the root
    series, its ContinuedFraction, the int coefficients and exponents of the
    quotients, and whether every certified quotient is a single term."""

    __slots__ = ()


def quartic_expansion(p: int, prec: int) -> QuarticExpansion:
    root = quartic_root(p, prec)
    # Read from its module when called, so a rebound one is the one run.
    expansion = cf.cf_of_series(root)
    lambdas = []
    exponents = []
    monomial = expansion.cf.a0.is_zero
    for q in expansion.cf.partials:
        terms = q.nonzero_terms()
        if len(terms) != 1:
            monomial = False
            break
        k, c = terms[0]
        lambdas.append(c)
        exponents.append(k)
    return QuarticExpansion(
        root=root,
        cf=expansion.cf,
        lambdas=tuple(lambdas),
        exponents=tuple(exponents),
        monomial=monomial,
    )


def quartic_lambda_report(expansion: QuarticExpansion, count: int) -> CheckReport:
    """Over GF(3), on ``quartic_expansion(3, prec)``: every certified partial
    quotient is a monomial c*T^u with c in {1, 2}, and the first ``count``
    coefficients spell the word prefix; a shortfall names the root's prec."""
    from .words import prefix

    prec = -expansion.root.known_down
    if len(expansion.lambdas) < count and expansion.monomial:
        raise PrecisionError(
            f"certified only {len(expansion.lambdas)} quotients; "
            f"raise prec above {prec} to certify {_kernel.decimal_str(count)}"
        )
    word = prefix(count)
    coeffs = "".join(str(c) for c in expansion.lambdas[:count])
    in_alphabet = all(c in (1, 2) for c in expansion.lambdas[:count])
    expected = f"monomials=yes;lambda_in_{{1,2}}=yes;lambda[1..{count}]={word}"
    actual = (
        f"monomials={'yes' if expansion.monomial else 'NO'};"
        f"lambda_in_{{1,2}}={'yes' if in_alphabet else 'NO'};"
        f"lambda[1..{count}]={coeffs}"
    )
    return CheckReport("quartic", count, expected, actual)
