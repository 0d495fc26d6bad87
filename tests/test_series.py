import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wordcf.fields import GF, QQ
from wordcf.poly import Polynomial
from wordcf.ratfunc import parse_poly
from wordcf.series import (
    LaurentSeries,
    PrecisionError,
    _mul_trunc,
    series_of_fraction,
)
from wordcf.words import prefix

from oracles import mul_trunc_schoolbook

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12)
tops = st.integers(min_value=-6, max_value=6)


def series(top, cs):
    return LaurentSeries(QQ, top, cs)


def test_geometric_series():
    s = series_of_fraction(Polynomial.one(QQ), parse_poly("T-1"), 4)
    assert s.top == -1
    assert s.coeffs == (1, 1, 1, 1)
    assert s.known_down == -4


def test_expansion_matches_word_letters():
    # The n=1 approximant agrees with the word digits through rank 9.
    s = series_of_fraction(parse_poly("T^3+2*T^2+T-1"), parse_poly("T^4-T^2"), 9)
    assert s.coeffs == tuple(map(int, prefix(9)))


def test_polynomial_passthrough():
    s = series_of_fraction(parse_poly("T"), Polynomial.one(QQ), 3)
    assert s.top == 1
    assert s.coeffs == (1, 0, 0)
    assert s.known_down == -1
    assert (s.coefficient(1), s.coefficient(0)) == (1, 0)


def test_invert_first_quotient():
    # Inverting the three known digits of the generating series gives the
    # first partial quotient T - 2 plus one exact tail digit.
    x = series(-1, [1, 2, 2])
    inv = x.invert()
    assert inv.top == 1
    assert inv.known_down == -1
    assert inv.coeffs == (1, -2, 2)
    assert (inv.coefficient(1), inv.coefficient(0)) == (1, -2)


@given(top=tops, cs=coeffs)
def test_add_negate_is_zero(top, cs):
    x = series(top, cs)
    assert (x + (-x)).is_zero


def _add_per_exponent(x, y):
    """Reference sum: one digit per exponent, each operand's window tested."""
    field = x.field
    kd = max(x.known_down, y.known_down)
    top = max(x.top, y.top)
    if top < kd:
        return LaurentSeries.zero(field, kd)
    out = []
    for k in range(top, kd - 1, -1):
        a = x.coeffs[x.top - k] if x.known_down <= k <= x.top else field.zero
        b = y.coeffs[y.top - k] if y.known_down <= k <= y.top else field.zero
        out.append(a + b)
    return LaurentSeries._raw(field, top, field.reduce_coeffs(out), kd)


digits = st.lists(
    st.integers(min_value=-9, max_value=9) | st.fractions(min_value=-2, max_value=2, max_denominator=3),
    max_size=10,
)


@pytest.mark.parametrize("field", [QQ, GF(5)])
@given(top=tops, cs=digits, top2=tops, cs2=digits)
@example(top=6, cs=[1, 2], top2=-3, cs2=[3, 4])  # y entirely below x's window
@example(top=6, cs=[1] + [0] * 8, top2=-1, cs2=[3])  # zero gap between the digits
@example(top=0, cs=[], top2=2, cs2=[0, 0])  # two zero series
def test_add_matches_per_exponent_loop(field, top, cs, top2, cs2):
    if field is not QQ:
        cs, cs2 = [int(c) for c in cs], [int(c) for c in cs2]
    x, y = LaurentSeries(field, top, cs), LaurentSeries(field, top2, cs2)
    for a, b in ((x, y), (y, x), (x, -x), (x, x.scale(2)), (y, LaurentSeries.zero(field, top))):
        got, want = a + b, _add_per_exponent(a, b)
        assert (got.top, got.coeffs, got.known_down) == (want.top, want.coeffs, want.known_down)
        assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
    assert (x + -x).is_zero and (x + -x).known_down == x.known_down


# Kronecker slots from one byte (GF(2)) to wider than a machine word
# (GF(2^61 - 1)).
PRIME_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(257), GF(1000003), GF(2**61 - 1)]


def _one_to(x):
    """1 as a series declared down to the precision of x * x.invert()."""
    return LaurentSeries.from_poly(Polynomial.one(x.field), x.known_down - x.top)


@given(top=tops, cs=coeffs)
def test_mul_by_inverse_is_one(top, cs):
    x = series(top, cs)
    if x.is_zero:
        return
    assert x * x.invert() == _one_to(x)


def _digits(rng, p, length, zero_share=0.3):
    """Residues in [0, p) with runs of zeros and the extreme digit p - 1."""
    return [
        0 if rng.random() < zero_share else rng.choice((p - 1, rng.randrange(p)))
        for _ in range(length)
    ]


def _field_digits(rng, field, length, zero_share):
    """_digits over GF(p); over Q, zeros and Fractions over 1, 2, 3 or
    10^20, the integral ones (such as Fraction(4, 2)) among them."""
    if field.characteristic:
        return _digits(rng, field.p, length, zero_share)
    return [
        0 if rng.random() < zero_share else Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10**20)))
        for _ in range(length)
    ]


@pytest.mark.parametrize("field", [*PRIME_FIELDS, QQ], ids=repr)
@pytest.mark.parametrize(
    "la, lb, n",
    [
        (1, 1, 1),  # single digits
        (1, 1, 4),  # n beyond la + lb - 1: zero tail
        (1, 9, 9),
        (9, 7, 3),  # n below min(la, lb)
        (9, 7, 40),
        (64, 64, 64),
        (300, 41, 500),
        (257, 700, 256),
    ],
)
def test_mul_trunc_matches_schoolbook(field, la, lb, n):
    rng = random.Random(f"{field.characteristic}:{la}:{lb}:{n}")
    for zero_share in (0.0, 0.3, 0.9):
        a = _field_digits(rng, field, la, zero_share)
        b = _field_digits(rng, field, lb, zero_share)
        got = _mul_trunc(a, b, n, field)
        assert got == mul_trunc_schoolbook(a, b, n, field)
        assert all(c == 0 for c in got[la + lb - 1 :])


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
def test_mul_trunc_zero_leading_and_interior_digits(field):
    top = field.p - 1
    a = [0, 0, top, 0, 0, 0, 1, 0]
    b = [0, top, 0, 0, top]
    for n in range(0, 16):
        assert _mul_trunc(a, b, n, field) == mul_trunc_schoolbook(a, b, n, field)
    assert _mul_trunc([0] * 30, b, 40, field) == [0] * 40


@pytest.mark.parametrize("field", [GF(3), GF(7), GF(2**61 - 1)], ids=repr)
def test_mul_trunc_long_operands(field):
    # Slot widths 2, 3 and 17 bytes at length 4000.
    rng = random.Random(field.p)
    a = _digits(rng, field.p, 4000)
    b = _digits(rng, field.p, 4000)
    assert _mul_trunc(a, b, 4000, field) == mul_trunc_schoolbook(a, b, 4000, field)


def test_q_invert_of_fraction_digits_is_fast():
    # The Newton products go through the fraction-free Polynomial product:
    # about 13 ms here, 0.2 s by the schoolbook convolution of Fractions.
    import timeit

    rng = random.Random(200)
    x = LaurentSeries(QQ, 0, [Fraction(1, 3)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(199)])
    assert x * x.invert() == _one_to(x)
    assert min(timeit.repeat(x.invert, number=1, repeat=3)) < 0.1


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=repr)
@pytest.mark.parametrize("length", [1, 2, 5, 65, 1000])
def test_gfp_mul_by_inverse_is_one_to_declared_precision(field, length):
    rng = random.Random(length)
    lead = 1 + rng.randrange(field.p - 1)
    x = LaurentSeries(field, 3, [lead] + _digits(rng, field.p, length - 1))
    assert x * x.invert() == _one_to(x)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        LaurentSeries.zero(QQ, -3).invert()


@given(top=tops, cs=coeffs, top2=tops, cs2=coeffs)
def test_ultrametric_law(top, cs, top2, cs2):
    x, y = series(top, cs), series(top2, cs2)
    s = x + y
    if x.is_zero or y.is_zero or s.is_zero:
        return
    assert s.top <= max(x.top, y.top)
    if x.top != y.top:
        assert s.top == max(x.top, y.top)


@given(
    cs=coeffs,
    cs2=coeffs,
    field=st.sampled_from([QQ, GF(2), GF(3), GF(7), GF(257)]),
    prec=st.integers(min_value=1, max_value=16),
)
@example(cs=[1, 2, 3, 4, 5, 6, 7, 8, 9], cs2=[3], field=QQ, prec=2)  # prec < top + 1
@example(cs=[1, 2, 3, 4, 5, 6, 7, 8, 9], cs2=[1, 2], field=GF(3), prec=3)
@example(cs=[5], cs2=[1, 0, 0, 2], field=GF(7), prec=16)  # shift past a zero top
def test_expansion_times_denominator_reproduces_numerator(cs, cs2, field, prec):
    # s has prec exact digits, so s * den (den exact below its degree as
    # far as those digits reach) reproduces num on its top prec digits.
    num, den = Polynomial(field, cs), Polynomial(field, cs2)
    if den.is_zero:
        return
    s = series_of_fraction(num, den, prec)
    assert s.known_down == num.degree - den.degree - prec + 1 or num.is_zero
    den_series = LaurentSeries.from_poly(den, den.degree - prec + 1)
    prod = s * den_series
    diff = prod - LaurentSeries.from_poly(num, prod.known_down)
    assert diff.is_zero


def test_mul_precision_rule():
    x = series(-1, [1, 2, 2])  # known down to -3
    y = series(2, [1, 0, 1])  # known down to 0
    prod = x * y
    # max(top_x + kd_y, top_y + kd_x) = max(-1 + 0, 2 - 3) = -1
    assert prod.known_down == -1
    assert prod.top == 1


def test_add_precision_rule_takes_coarser_bound():
    x = series(-1, [1, 2, 2])
    y = series(-1, [1, 2])
    assert (x + y).known_down == -2


def test_truncate_and_padded():
    x = series(-1, [1, 2, 2])
    assert x.truncate(-2).coeffs == (1, 2)
    with pytest.raises(PrecisionError):
        x.truncate(-5)
    padded = x.padded(-5)
    assert padded.coeffs == (1, 2, 2, 0, 0)
    assert padded.known_down == -5


def test_coefficient_access_guards_precision():
    x = series(-1, [1, 2, 2])
    assert x.coefficient(-2) == 2
    assert x.coefficient(5) == 0
    with pytest.raises(PrecisionError):
        x.coefficient(-4)


def test_zero_series_representation():
    z = LaurentSeries(QQ, -1, [0, 0], known_down=-2)
    assert z.is_zero
    assert z.known_down == -2
    assert str(z) == "0 + O(T^-3)"


fraction_coeffs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=10
)


@given(cs=st.one_of(coeffs, fraction_coeffs), cs2=coeffs)
def test_monic_denominator_expansion_matches_scaled_denominator(cs, cs2):
    # A monic denominator divides with no scaling; scaling num and den by 2
    # gives the division a non-unit leading coefficient.
    num = Polynomial(QQ, cs)
    den = Polynomial(QQ, cs2 + [1])
    got = series_of_fraction(num, den, 15)
    assert got == series_of_fraction(num.scale(2), den.scale(2), 15)


@pytest.mark.parametrize("field", [GF(3), GF(7)])
def test_monic_denominator_expansion_over_gfp(field):
    num = Polynomial(field, [2, 0, 1, 1])
    den = Polynomial(field, [1, 0, 0, 0, 0, 1])
    got = series_of_fraction(num, den, 30)
    assert got == series_of_fraction(num.scale(2), den.scale(2), 30)
    assert all(0 <= c < field.p for c in got.coeffs)


def _one_piece_text(s):
    # The text format built as one list of terms.
    terms = [f"{c}*T^{s.top - i}" for i, c in enumerate(s.coeffs) if c]
    return f"{' + '.join(terms) if terms else '0'} + O(T^{s.known_down - 1})"


@pytest.mark.parametrize(
    "s",
    [
        LaurentSeries.zero(QQ, -3),
        LaurentSeries(QQ, 2, [5]),
        # A whole 4096-coefficient piece of zeros between two terms.
        LaurentSeries(QQ, 0, [1] + [0] * 9000 + [-2, 0]),
        LaurentSeries(GF(2), -1, [int(c) % 2 for c in prefix(20000)]),
        LaurentSeries(QQ, 7, [random.Random(3).randint(-2, 2) for _ in range(12289)]),
    ],
    ids=["zero", "constant", "zero-piece", "gf2", "random"],
)
def test_text_pieces_join_to_the_text_format(s):
    pieces = list(s.text_pieces())
    assert "".join(pieces) == str(s) == _one_piece_text(s)
    assert len(pieces) <= 1 + -(-len(s.coeffs) // 4096)
