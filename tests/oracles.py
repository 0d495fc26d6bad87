"""Slow references the tests check the package against, kept out of the
package because no command runs them."""

import itertools
from fractions import Fraction

from wordcf import verify
from wordcf.poly import Polynomial
from wordcf.ratfunc import RationalFunction, parse_poly
from wordcf.words import lengths


def eval_cf(cf) -> RationalFunction:
    """A finite ContinuedFraction folded back, from the last quotient, into
    a reduced fraction: (x, y) are continuants, so gcd(x, y) = 1."""
    *head, last = cf.quotients
    x, y = last, Polynomial.one(cf.field)
    for a in reversed(head):
        x, y = a * x + y, x
    return RationalFunction._from_coprime(x, y)


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the plain Euclidean algorithm (not both zero): the
    reference of ``poly_gcd``."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def determinant(table, n: int) -> Polynomial:
    """x_n y_{n-1} - x_{n-1} y_n of a ConvergentTable; alternates +1, -1."""
    (x_n, y_n), (x_p, y_p) = table.rows[n], table.rows[n - 1]
    return x_n * y_p - x_p * y_n


def first_difference_rank(a, b, horizon=None) -> int:
    """1-based rank of the first position where the two streams differ."""
    for rank, (x, y) in enumerate(itertools.islice(zip(a, b), horizon), start=1):
        if x != y:
            return rank
    raise ValueError("streams agree to horizon")


def tail_periodic_symbols(head: str, period: str, count: int) -> str:
    """First ``count`` symbols of head followed by endlessly repeated period."""
    if count <= len(head):
        return head[:count]
    if not period:
        raise ValueError("empty period cannot reach the requested length")
    return (head + period * (count // len(period) + 1))[:count]


def mul_trunc_schoolbook(a, b, n: int, field):
    """First n digits of the product of digit sequences a and b, by the
    schoolbook convolution: the reference of ``series._mul_trunc``."""
    la, lb = len(a), len(b)
    out = []
    for k in range(n):
        lo = max(0, k - lb + 1)
        hi = min(k, la - 1)
        out.append(sum(a[i] * b[k - i] for i in range(lo, hi + 1)))
    return field.reduce_coeffs(out)


def conjecture_row(n: int) -> verify.ConjectureRow:
    """``verify.conjecture_row`` with the shapes of the first and third
    quotients the exact quotients of T^high + T^mid - 2 and T^small - 1
    by T - 1."""
    ell = lengths(n + 1)
    r, s = (Fraction(4 * (2 * ell[k] - ell[k - 1] + 1), 25) for k in (n, n + 1))
    sign = 1 if n % 2 == 1 else -1
    lambdas = (sign * r * r, sign / (r * r + r * s), sign * (r + s) ** 2, sign / (s * s + r * s))
    high = (3 * ell[n] + ell[n - 1] + 3) // 2
    mid = (ell[n] + ell[n - 1] + 1) // 2
    small = (ell[n] + ell[n - 1] + 3) // 2
    t_minus_1 = parse_poly("T-1")

    def by_t_minus_1(text):
        shape, rem = divmod(parse_poly(text), t_minus_1)
        if not rem.is_zero:
            raise ArithmeticError("conjectured shape is not divisible by T - 1")
        return shape

    shapes = (by_t_minus_1(f"T^{high}+T^{mid}-2"), t_minus_1, by_t_minus_1(f"T^{small}-1"), t_minus_1)
    predicted = tuple(shape.scale(lam) for shape, lam in zip(shapes, lambdas))
    return verify.ConjectureRow(n=n, r_n=r, lambdas=lambdas, predicted=predicted)
