"""Rational functions in T and the text parser; only ``--ratfunc`` jobs load
this module.

``RationalFunction`` is a reduced quotient of ``Polynomial``s with a monic
denominator.  ``parse_ratfunc`` reads the text of ``poly.format_poly`` back
bit-exactly, plus ordinary expressions like ``(T^3+2*T^2+T-1)/(T^4-T^2)``;
integers go through ``_kernel.decimal_int``, so any size up to
``_kernel.MAX_INT_DIGITS`` digits reads whatever the int-to-str limit.
"""

from __future__ import annotations

from itertools import compress
from math import comb, lcm

from . import _kernel
from .fields import QQ, check_same_field
from .poly import Polynomial, format_poly, poly_gcd


class RationalFunction:
    """Quotient of polynomials, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __new__(cls, num: Polynomial, den: Polynomial):
        check_same_field(num.field, den.field)
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        if num.is_zero:
            den = Polynomial.one(num.field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        return cls._from_coprime(num, den)

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial):
        # The one build path; skips the gcd: caller guarantees
        # gcd(num, den) = 1.
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        if den.lead != den.field.one:
            inv = den.field.invert(den.lead)
            num, den = num.scale(inv), den.scale(inv)
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def from_poly(cls, p: Polynomial):
        return cls._from_coprime(p, Polynomial.one(p.field))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def field(self):
        return self.num.field

    @property
    def is_zero(self):
        return self.num.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den.degree == 0 and other.den.degree == 0:
            # Two polynomials (a monic constant denominator is 1): no gcd.
            return RationalFunction._from_coprime(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction._from_coprime(-self.num, self.den)

    def __mul__(self, other):
        if self.den.degree == 0 and other.den.degree == 0:
            return RationalFunction._from_coprime(self.num * other.num, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("zero divisor")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def invert(self):
        return RationalFunction(self.den, self.num)

    def __str__(self):
        if self.den.degree == 0:
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch in "+-*/^()T":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive-descent parser evaluating into RationalFunction arithmetic."""

    def __init__(self, text: str, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.peek() != "end":
            raise ParseError(f"trailing input: {self.tokens[self.pos][1]!r}")
        return value

    def expr(self):
        # The polynomial terms of a sum go into one coefficient accumulator
        # per denominator and make one Polynomial; a term with a nonconstant
        # denominator takes RationalFunction arithmetic.  A chain of
        # additions would copy the growing sum once per term.
        sums = {}  # den -> int numerators, by exponent
        rest = None
        sign = 1
        while True:
            if not self.canonical_term(sums, sign):
                value = self.term()
                if not sums and rest is None and self.peek() not in "+-":
                    return value
                if value.den.degree == 0:
                    _accumulate(sums, value.num, sign)
                elif rest is None:
                    rest = value if sign == 1 else -value
                else:
                    rest = rest + value if sign == 1 else rest - value
            if self.peek() not in "+-":
                break
            sign = 1 if self.take()[0] == "+" else -1
        if not sums:
            return rest
        total = RationalFunction.from_poly(_poly_of_sums(self.field, sums))
        return total if rest is None else rest + total

    def canonical_term(self, sums, sign) -> bool:
        """Read a term of the text format, ``[-]c[/d]*T^k`` up to the next
        ``+``, ``-``, ``)`` or the end, straight into ``sums``; False, with
        nothing read, for any other term.  The values, the checks and
        their order are those of ``term``: the division by d, then the
        degree budget of T^k."""
        tokens, i = self.tokens, self.pos
        while tokens[i][0] in "+-":
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
        if tokens[i][0] != "int":
            return False
        j = i + 3 if tokens[i + 1][0] == "/" and tokens[i + 2][0] == "int" else i + 1
        if (
            [t[0] for t in tokens[j : j + 4]] != ["*", "T", "^", "int"]
            or tokens[j + 4][0] not in ("+", "-", ")", "end")
        ):
            return False
        field = self.field
        c = field.coerce(sign * _int_token(tokens[i][1]))
        if j > i + 1:
            c = field.div(c, field.coerce(_int_token(tokens[i + 2][1])))
        k = _int_token(tokens[j + 3][1])
        if k > MAX_POWER_DEGREE:
            raise ValueError(f"power of degree above {MAX_POWER_DEGREE} in expression")
        self.pos = j + 4
        num, den = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        acc = sums.setdefault(den, [])
        if len(acc) <= k:
            acc.extend([0] * (k + 1 - len(acc)))
        acc[k] += num
        return True

    def term(self):
        value = self.unary()
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        sign = 1
        while self.peek() in "+-":
            if self.take()[0] == "-":
                sign = -sign
        value = self.power()
        return value if sign == 1 else -value

    def power(self):
        value = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            while self.peek() in "+-":
                if self.take()[0] == "-":
                    neg = not neg
            k = _int_token(self.take("int")[1])
            value = _rf_pow(value, -k if neg else k)
        return value

    def atom(self):
        kind = self.peek()
        if kind == "int":
            c = self.field.coerce(_int_token(self.take()[1]))
            return RationalFunction.from_poly(
                Polynomial.monomial(self.field, c, 0)
            )
        if kind == "T":
            self.take()
            return RationalFunction.from_poly(Polynomial.t(self.field))
        if kind == "(":
            self.take()
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {self.tokens[self.pos][1]!r}")


def _int_token(text: str) -> int:
    """The value of an int token, at most _kernel.MAX_INT_DIGITS digits long."""
    if len(text) > _kernel.MAX_INT_DIGITS:
        raise ValueError(f"integer above the budget of {_kernel.MAX_INT_DIGITS} digits in expression")
    return _kernel.decimal_int(text)


def _accumulate(sums, p: Polynomial, sign: int) -> None:
    """Add sign * p to the accumulator of its denominator."""
    acc = sums.setdefault(p.den, [])
    ints = p.ints
    if len(acc) < len(ints):
        acc.extend([0] * (len(ints) - len(acc)))
    for k in compress(range(len(ints)), ints):
        acc[k] += sign * ints[k]


def _poly_of_sums(field, sums) -> Polynomial:
    """The Polynomial sum of the accumulators, over their lcm."""
    den = lcm(*sums)
    total = [0] * max(map(len, sums.values()))
    for d, acc in sums.items():
        m = den // d
        total[: len(acc)] = [t + m * c for t, c in zip(total, acc)]
    return Polynomial._over(field, field.reduce_coeffs(total), den)


# Highest degree a power in a parsed expression may reach, far above any
# expansion this package can finish; a larger one fails before squaring.
MAX_POWER_DEGREE = 10**6

# Deepest parenthesis nesting a parsed expression may have.  Each level
# takes five frames of the recursive descent, so this stays well inside
# Python's default recursion limit whatever the caller's depth.
MAX_NESTING = 100

# Highest estimated cost of expanding a power, in 64-bit word products:
# about a second of schoolbook squaring on one core.
MAX_POWER_COST = 5 * 10**8


def _power_cost(value: RationalFunction, k: int) -> int:
    """Estimated cost of the last squaring of value^k (k >= 0): n^2 products
    of w-word coefficients at w^2 + 50 word products each, the 50 standing
    for the interpreter's cost per product.  n bounds the result's terms,
    w its coefficient size: k times the base's coefficient bits, plus the
    multinomial growth, over Q; the residue size over GF(p)."""
    polys = (value.num, value.den)
    terms = max(len(p.ints) - p.ints.count(0) for p in polys)
    degree = max(p.degree for p in polys)
    n = min(k * degree + 1, comb(k + terms - 1, terms - 1))
    if value.field.characteristic:
        bits = value.field.characteristic.bit_length()
    else:
        size = max(max(max(map(abs, p.ints), default=0), p.den).bit_length() for p in polys)
        bits = k * (size - 1 + (terms - 1).bit_length()) + 1
    w = 1 + bits // 64
    return n * n * (w * w + 50)


def _is_monomial(p: Polynomial) -> bool:
    return len(p.ints) - p.ints.count(0) == 1


def _rf_pow(value: RationalFunction, k: int) -> RationalFunction:
    if abs(k) * max(value.num.degree, value.den.degree) > MAX_POWER_DEGREE:
        raise ValueError(f"power of degree above {MAX_POWER_DEGREE} in expression")
    if _power_cost(value, abs(k)) > MAX_POWER_COST:
        raise ValueError(
            f"power above the cost budget of {MAX_POWER_COST} word products in expression"
        )
    if k < 0:
        return _rf_pow(value.invert(), -k)
    num, den = value.num, value.den
    if _is_monomial(num) and _is_monomial(den):
        # (c T^a / T^b)^k = c^k T^(ak) / T^(bk), still reduced: no products.
        field = value.field
        c = num.lead
        c = pow(c, k, field.characteristic) if field.characteristic else c**k
        return RationalFunction._from_coprime(
            Polynomial.monomial(field, c, num.degree * k),
            Polynomial.monomial(field, field.one, den.degree * k),
        )
    result = RationalFunction.from_poly(Polynomial.one(value.field))
    base = value
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def parse_ratfunc(text: str, field=QQ) -> RationalFunction:
    """Parse a polynomial or rational-function expression in T."""
    return _Parser(text, field).parse()


def parse_poly(text: str, field=QQ) -> Polynomial:
    value = parse_ratfunc(text, field)
    if value.den.degree != 0:
        raise ParseError(f"not a polynomial: {text!r}")
    return value.num  # denominator is monic, hence exactly 1
