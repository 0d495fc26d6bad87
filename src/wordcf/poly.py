"""Dense univariate polynomials in T over an exact field, and their quotients.

Coefficients are stored ascending (index = exponent of T); the leading
coefficient is nonzero and the zero polynomial is the empty tuple.  The text
format is a sum of ``c*T^k`` terms with rationals as ``p/q``, e.g.
``-125/48*T^1 + 25/24*T^0``, and ``parse_ratfunc`` reads that format back
bit-exactly (plus ordinary expressions like ``(T^3+2*T^2+T-1)/(T^4-T^2)``).
"""

from __future__ import annotations

from itertools import compress, islice

from .fields import QQ, check_same_field


class Polynomial:
    """Immutable dense polynomial over a fixed coefficient field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _raw(cls, field, coeffs):
        # Trusted path: coefficients already reduced, only strip the tail.
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs[:n] if n < len(coeffs) else coeffs))
        return self

    @classmethod
    def zero(cls, field):
        return cls._raw(field, ())

    @classmethod
    def one(cls, field):
        return cls._raw(field, (field.one,))

    @classmethod
    def monomial(cls, field, coeff, k: int):
        coeff = field.coerce(coeff)
        if not coeff:
            return cls.zero(field)
        return cls._raw(field, (field.zero,) * k + (coeff,))

    @classmethod
    def t(cls, field):
        return cls.monomial(field, field.one, 1)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def nonzero_terms(self):
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(islice(a, len(b), None))
        return Polynomial._raw(self.field, self.field.reduce_coeffs(out))

    def __sub__(self, other):
        check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        if len(a) >= len(b):
            out.extend(islice(a, len(b), None))
        else:
            out.extend(-c for c in islice(b, len(a), None))
        return Polynomial._raw(self.field, self.field.reduce_coeffs(out))

    def __neg__(self):
        return Polynomial._raw(
            self.field, self.field.reduce_coeffs([-c for c in self.coeffs])
        )

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        # Run the outer loop over the operand with fewer nonzero terms, so
        # sparse-by-dense products (the common large case here) cost
        # O(nnz * deg) instead of O(deg^2), and sparse-by-sparse ones (the
        # binomial denominators) O(nnz * nnz).
        nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
        if nnz_a > nnz_b:
            a, b, nnz_b = b, a, nnz_a
        out = [self.field.zero] * (len(a) + len(b) - 1)
        terms = [(i, a[i]) for i in compress(range(len(a)), a)]
        nb = len(b)
        if 2 * nnz_b < nb:
            for j in compress(range(nb), b):
                cb = b[j]
                for i, ca in terms:
                    out[i + j] += ca * cb
        else:
            for i, ca in terms:
                out[i : i + nb] = [
                    o + ca * cb if cb else o for o, cb in zip(islice(out, i, i + nb), b)
                ]
        return Polynomial._raw(self.field, self.field.reduce_coeffs(out))

    def scale(self, scalar):
        scalar = self.field.coerce(scalar)
        if not scalar:
            return Polynomial.zero(self.field)
        return Polynomial._raw(
            self.field, self.field.reduce_coeffs([scalar * c for c in self.coeffs])
        )

    def shift(self, k: int):
        """Multiply by T^k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        if self.is_zero:
            return self
        return Polynomial._raw(self.field, (self.field.zero,) * k + self.coeffs)

    def __divmod__(self, other):
        check_same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("zero divisor")
        field = self.field
        db = other.degree
        if self.degree < db:
            return Polynomial.zero(field), self
        rem = list(self.coeffs)
        blead = other.lead
        support = [(i, c) for i, c in enumerate(other.coeffs[:-1]) if c]
        quot = [field.zero] * (len(rem) - db)
        for sh in range(len(quot) - 1, -1, -1):
            top = rem[sh + db]
            if top:
                q = field.div(top, blead)
                quot[sh] = q
                rem[sh + db] = field.zero
                for i, c in support:
                    rem[i + sh] = field.reduce(rem[i + sh] - q * c)
        return Polynomial._raw(field, quot), Polynomial._raw(field, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def evaluate(self, x):
        x = self.field.coerce(x)
        if x == self.field.one:
            return self.field.reduce(sum(self.coeffs))
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = self.field.reduce(acc * x + c)
        return acc

    def monic(self):
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        if self.lead == self.field.one:
            return self
        return self.scale(self.field.invert(self.lead))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({self.field!r}, {list(self.coeffs)!r})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    check_same_field(a.field, b.field)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class RationalFunction:
    """Quotient of polynomials, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        check_same_field(num.field, den.field)
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        if num.is_zero:
            num, den = num, Polynomial.one(num.field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        if den.lead != den.field.one:
            inv = den.field.invert(den.lead)
            num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial):
        # Skips the gcd: caller guarantees gcd(num, den) = 1.
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
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction._from_coprime(-self.num, self.den)

    def __mul__(self, other):
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


def format_poly(p: Polynomial) -> str:
    """Canonical text form: signed ``c*T^k`` terms, highest exponent first."""
    terms = [
        f"{p.field.format_scalar(c)}*T^{k}"
        for k, c in reversed(p.nonzero_terms())
    ]
    return " + ".join(terms) if terms else "0"


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
        value = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

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
            k = int(self.take("int")[1])
            value = _rf_pow(value, -k if neg else k)
        return value

    def atom(self):
        kind = self.peek()
        if kind == "int":
            c = self.field.coerce(int(self.take()[1]))
            return RationalFunction.from_poly(
                Polynomial.monomial(self.field, c, 0)
            )
        if kind == "T":
            self.take()
            return RationalFunction.from_poly(Polynomial.t(self.field))
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        raise ParseError(f"unexpected token {self.tokens[self.pos][1]!r}")


# Highest degree a power in a parsed expression may reach, far above any
# expansion this package can finish; a larger one fails before squaring.
MAX_POWER_DEGREE = 10**6


def _rf_pow(value: RationalFunction, k: int) -> RationalFunction:
    if abs(k) * max(value.num.degree, value.den.degree) > MAX_POWER_DEGREE:
        raise ValueError(f"power of degree above {MAX_POWER_DEGREE} in expression")
    if k < 0:
        return _rf_pow(value.invert(), -k)
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
