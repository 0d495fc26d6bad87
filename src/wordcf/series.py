"""Truncated Laurent series in 1/T with explicit exactness bookkeeping.

A series stores its top exponent ``top``, the coefficients for exponents
``top, top-1, ..., known_down`` and the bound ``known_down``: every stored
exponent is exact, nothing below ``known_down`` is asserted.  The absolute
value of a nonzero series is |T|^top; all comparisons are done on exponents,
never on a realized real number.

Propagation rules (ultrametric error analysis, x = X + eps_x with
|eps_x| <= |T|^(kd_x - 1)):

* add/sub: known_down = max(kd_x, kd_y)
* mul:     known_down = max(top_x + kd_y, top_y + kd_x)
           (cross terms X*eps_y and Y*eps_x dominate eps_x*eps_y)
* invert:  known_down = -2*top_x + kd_x (same relative precision)

The zero-to-declared-precision series is stored with an empty coefficient
tuple and ``top == known_down - 1``.  Products of digits go through
``_mul_trunc``: the GF(p) kernel, or over Q the fraction-free
``Polynomial`` product.
"""

from __future__ import annotations

from operator import add

from . import _kernel
from .fields import PrecisionError, check_same_field, format_terms
from .poly import Polynomial


# Coefficients per piece of a series' text.
_TEXT_CHUNK = 4096


class LaurentSeries:
    """Immutable truncated series sum_{known_down <= k <= top} c_k T^k."""

    __slots__ = ("field", "top", "coeffs", "known_down")

    def __new__(cls, field, top: int, coeffs, known_down=None):
        coeffs = [field.coerce(c) for c in coeffs]
        if known_down is None:
            known_down = top - len(coeffs) + 1
        if len(coeffs) != top - known_down + 1:
            raise ValueError("coefficient count must equal top - known_down + 1")
        return cls._raw(field, top, coeffs, known_down)

    @classmethod
    def _raw(cls, field, top, coeffs, known_down):
        # The one build path: coeffs already coerced; only strip the
        # leading zeros.
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "top", top - lead)
        object.__setattr__(self, "coeffs", tuple(coeffs[lead:]))
        object.__setattr__(self, "known_down", known_down)
        return self

    @classmethod
    def zero(cls, field, known_down: int):
        return cls._raw(field, known_down - 1, (), known_down)

    @classmethod
    def from_poly(cls, p: Polynomial, known_down: int):
        """Exact series of a polynomial, declared down to ``known_down``."""
        if p.is_zero:
            return cls.zero(p.field, known_down)
        top = p.degree
        if known_down > top:
            raise ValueError("known_down must not exceed the degree")
        coeffs = p.coeffs[max(known_down, 0) :][::-1]
        if known_down < 0:
            coeffs += (p.field.zero,) * -known_down
        return cls._raw(p.field, top, coeffs, known_down)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @property
    def is_zero(self) -> bool:
        """True when zero at every known exponent."""
        return not self.coeffs

    def coefficient(self, k: int):
        if k < self.known_down:
            raise PrecisionError("precision exhausted")
        if k > self.top:
            return self.field.zero
        return self.coeffs[self.top - k]

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.top == other.top
            and self.coeffs == other.coeffs
            and self.known_down == other.known_down
        )

    def __hash__(self):
        return hash((self.field, self.top, self.coeffs, self.known_down))

    def truncate(self, known_down: int):
        """Discard exactness below ``known_down`` (which must not gain any)."""
        if known_down < self.known_down:
            raise PrecisionError("precision exhausted")
        if known_down == self.known_down:
            return self
        if known_down > self.top:
            return LaurentSeries.zero(self.field, known_down)
        return LaurentSeries._raw(
            self.field, self.top, self.coeffs[: self.top - known_down + 1], known_down
        )

    def padded(self, known_down: int):
        """Extend with chosen zero digits below the current precision.

        The new digits are declared exact: the result is a concrete series
        that agrees with ``self`` on all previously known exponents.  Used by
        iterations that only need *some* series with a given prefix.
        """
        if known_down >= self.known_down:
            return self.truncate(known_down) if known_down > self.known_down else self
        pad = (self.field.zero,) * (self.known_down - known_down)
        return LaurentSeries._raw(self.field, self.top, self.coeffs + pad, known_down)

    def shift(self, k: int):
        """Multiply by T^k (exact)."""
        return LaurentSeries._raw(
            self.field, self.top + k, self.coeffs, self.known_down + k
        )

    def _window(self, top: int, kd: int) -> list:
        """The digits of exponents top..kd, for top >= self.top and
        kd >= self.known_down: zeros above self.top, then stored digits."""
        if self.top < kd:
            return [self.field.zero] * (top - kd + 1)
        return [self.field.zero] * (top - self.top) + list(self.coeffs[: self.top - kd + 1])

    def __add__(self, other):
        check_same_field(self.field, other.field)
        kd = max(self.known_down, other.known_down)
        top = max(self.top, other.top)
        if top < kd:
            return LaurentSeries.zero(self.field, kd)
        out = list(map(add, self._window(top, kd), other._window(top, kd)))
        return LaurentSeries._raw(self.field, top, self.field.reduce_coeffs(out), kd)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentSeries._raw(
            self.field,
            self.top,
            self.field.reduce_coeffs([-c for c in self.coeffs]),
            self.known_down,
        )

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        if self.is_zero or other.is_zero:
            kd = max(self.top + other.known_down, other.top + self.known_down)
            return LaurentSeries.zero(self.field, kd)
        top = self.top + other.top
        kd = max(self.top + other.known_down, other.top + self.known_down)
        digits = _mul_trunc(self.coeffs, other.coeffs, top - kd + 1, self.field)
        return LaurentSeries._raw(self.field, top, digits, kd)

    def scale(self, scalar):
        scalar = self.field.coerce(scalar)
        if not scalar:
            return LaurentSeries.zero(self.field, self.known_down)
        return LaurentSeries._raw(
            self.field,
            self.top,
            self.field.reduce_coeffs([scalar * c for c in self.coeffs]),
            self.known_down,
        )

    def invert(self):
        """Reciprocal, exact down to -2*top + known_down.

        Newton iteration v <- v (2 - u v) doubles the number of exact digits
        per step with two truncated products, so the whole inversion costs a
        few products at full length.  Over GF(p) each is one Karatsuba
        bigint product (``_mul_trunc``), O(m^1.58) in C rather than m^2/2
        digit products in Python.
        """
        if self.is_zero:
            raise ZeroDivisionError("zero divisor")
        field = self.field
        u = self.coeffs
        m = len(u)
        v = [field.div(field.one, u[0])]
        while len(v) < m:
            n = min(2 * len(v), m)
            t = _mul_trunc(u[:n], v, n, field)  # = 1 + delta
            w = [field.reduce(2 * field.one - t[0])] + [
                field.reduce(-c) for c in t[1:]
            ]
            v = _mul_trunc(v, w, n, field)
        return LaurentSeries._raw(
            field, -self.top, v, -2 * self.top + self.known_down
        )

    def __str__(self):
        return "".join(self.text_pieces())

    def text_pieces(self):
        """``str(self)`` in pieces of up to _TEXT_CHUNK coefficients each,
        so a long series is never held as one list of terms."""
        coeffs = self.coeffs
        sep = ""
        for start in range(0, len(coeffs), _TEXT_CHUNK):
            terms = format_terms(self.field.format_scalar, coeffs[start : start + _TEXT_CHUNK], self.top - start)
            if terms:
                yield sep + terms
                sep = " + "
        yield f"{sep or '0 + '}O(T^{self.known_down - 1})"

    def __repr__(self):
        return (
            f"LaurentSeries({self.field!r}, top={self.top}, "
            f"coeffs={list(self.coeffs)!r}, known_down={self.known_down})"
        )


def _mul_trunc(a, b, n: int, field):
    """First n digits of the product of digit sequences a and b.

    Over GF(p) the residues (which must lie in [0, p)) go through the
    Kronecker-substitution kernel (``_kernel.product``), one bigint product.
    Over Q they are those of the fraction-free ``Polynomial`` product of
    the first n digits of each.  Digits at or beyond len a + len b - 1 are
    zero.
    """
    p = field.characteristic
    if p:
        return _kernel.product(a, b, n, p)
    out = list((Polynomial(field, a[:n]) * Polynomial(field, b[:n])).coeffs[:n])
    out += [0] * (n - len(out))
    return out


def series_of_fraction(num: Polynomial, den: Polynomial, prec: int) -> LaurentSeries:
    """Expand num/den in powers of 1/T, exact on the top ``prec`` exponents.

    The result's known_down is kd = top - prec + 1 where
    top = deg num - deg den.  The digits are those of the polynomial part of
    T^-kd num/den: one long division of num shifted by T^-kd (or with its
    kd low digits dropped, which cannot reach that part) by ``den``, whose
    quotient has degree prec - 1.
    """
    check_same_field(num.field, den.field)
    if den.is_zero:
        raise ZeroDivisionError("zero divisor")
    if prec < 1:
        raise ValueError("prec must be at least 1")
    field = num.field
    if num.is_zero:
        return LaurentSeries.zero(field, -prec)
    top = num.degree - den.degree
    kd = top - prec + 1
    if kd <= 0:
        num = num.shift(-kd)
    else:
        num = Polynomial._over(field, num.ints[kd:], num.den)
    return LaurentSeries._raw(field, top, (num // den).coeffs[::-1], kd)
