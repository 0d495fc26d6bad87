"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements stay unboxed: ``int``/``Fraction`` for Q, ``int`` residues in
``[0, p)`` for GF(p).  A field object is a small strategy that normalizes raw
arithmetic results (``reduce``) and performs exact division, so polynomial and
series inner loops run on native numbers.  Floating point is rejected
everywhere.  ``fractions`` is imported only by the code that builds a
``Fraction``, so a job over GF(p) never loads it.
"""

from __future__ import annotations

import functools
import sys

from ._kernel import decimal_str

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to every base of _MR_BASES (Sorenson and
# Webster, Math. Comp. 86 (2017)).  Below it is_prime is exact; the moduli
# of GF(p) are kept below it.
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n below MR_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q.  Elements are ``int`` or ``Fraction``, always exact."""

    characteristic = 0
    zero = 0
    one = 1

    def coerce(self, value):
        # Exact ints are the common case; the isinstance test against the
        # Fraction ABC costs more than the rest of a polynomial build.
        if type(value) is int:
            return value
        # A Fraction exists only once its module is loaded, so the class is
        # looked up there rather than imported.
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(value, fractions.Fraction):
            return _as_int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"not an exact rational: {value!r}")
        return value

    def reduce(self, value):
        return value

    def reduce_coeffs(self, coeffs):
        return coeffs

    def div(self, a, b):
        from fractions import Fraction

        if b == 0:
            raise ZeroDivisionError("zero divisor")
        return _as_int(Fraction(a) / b)

    def invert(self, a):
        return self.div(1, a)

    def format_scalar(self, value) -> str:
        """``str(value)``: ``p/q``, or the int; at any size, whatever the
        interpreter's int-to-str limit (``_kernel.decimal_str``)."""
        if type(value) is int:
            return decimal_str(value)
        num, den = value.numerator, value.denominator
        return decimal_str(num) if den == 1 else f"{decimal_str(num)}/{decimal_str(den)}"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)


def _as_int(value):
    # Keep denominator-1 values as plain ints: cheaper in later arithmetic.
    return value.numerator if value.denominator == 1 else value


class PrimeField:
    """The field GF(p), p prime.  Elements are int residues in [0, p)."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= MR_BOUND:
            raise ValueError(f"modulus must be below {MR_BOUND}, where primality is certified")
        if not isinstance(p, int):
            raise ValueError(f"modulus must be prime, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {decimal_str(p)}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if type(value) is int:
            return value % self.p
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"GF({self.p}) element must be an int: {value!r}")
        return value % self.p

    def reduce(self, value):
        return value % self.p

    def reduce_coeffs(self, coeffs):
        p = self.p
        return [c % p for c in coeffs]

    def div(self, a, b):
        p = self.p
        if b % p == 0:
            raise ZeroDivisionError("zero divisor")
        return a * pow(b, -1, p) % p

    def invert(self, a):
        return self.div(1, a)

    def format_scalar(self, value) -> str:
        return str(value)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((PrimeField, self.p))


QQ = RationalField()


@functools.lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    """Cached constructor for GF(p); primality is checked once."""
    return PrimeField(p)


def format_terms(fmt, coeffs, top: int) -> str:
    """The canonical text of a sum of terms, for polynomials and series
    alike: ``c*T^k`` for each nonzero c of coeffs, the coefficients of
    T^top, T^(top-1), ... in turn, joined by " + "; "" when all are zero.
    ``fmt`` writes one coefficient, usually a field's ``format_scalar``."""
    return " + ".join([f"{fmt(c)}*T^{top - i}" for i, c in enumerate(coeffs) if c])


class PrecisionError(ArithmeticError):
    """A result would depend on coefficients below the known precision.
    Defined here, in a module every command loads; ``series`` re-exports it."""


def check_same_field(a, b):
    """Mixed-field arithmetic is an error, never a coercion."""
    if a != b:
        raise ValueError(f"mixed fields: {a!r} and {b!r}")
