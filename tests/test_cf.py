import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcf.fields import GF, QQ, check_same_field
from wordcf.poly import Polynomial
from wordcf.ratfunc import RationalFunction, parse_poly
from wordcf.series import LaurentSeries, PrecisionError, series_of_fraction
from wordcf.cf import (
    ContinuedFraction,
    cf_of_fraction,
    cf_of_series,
    convergents,
    measure_terms,
)
from wordcf.words import lengths, theta_series
from wordcf.verify import pure_periodic_pair, tail_periodic_pair

from oracles import determinant, eval_cf, first_difference_rank, tail_periodic_symbols


def approx_order(alpha: LaurentSeries, num: Polynomial, den: Polynomial) -> int:
    """The exponent t with |alpha - num/den| = |T|^(-t), found by exact
    series subtraction down to alpha's known precision: the reference for
    the packed order measurement of the exponent checks."""
    check_same_field(alpha.field, num.field)
    if num.is_zero:
        if alpha.is_zero:
            raise PrecisionError("order exceeds precision")
        return -alpha.top
    top = num.degree - den.degree
    prec = top - alpha.known_down + 1
    if prec < 1:
        return -top
    diff = alpha - series_of_fraction(num, den, prec)
    if diff.is_zero:
        raise PrecisionError("order exceeds precision")
    return -diff.top


GOLDEN = ["0", "T-2", "1/2*T+1/4", "8/5*T+76/25", "-125/48*T+25/24"]

coeff = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-4, max_value=4, max_denominator=10),
)


def ratfunc_pairs(max_degree):
    return st.tuples(
        st.lists(coeff, min_size=0, max_size=max_degree + 1),
        st.lists(coeff, min_size=1, max_size=max_degree + 1),
    ).map(lambda t: (Polynomial(QQ, t[0]), Polynomial(QQ, t[1]))).filter(
        lambda t: not t[1].is_zero
    )


def test_continued_fraction_validates_quotients():
    cf = cf_of_fraction(parse_poly("T^3+2*T^2+T-1"), parse_poly("T^4-T^2"))
    constant = Polynomial.one(QQ)
    with pytest.raises(ValueError, match="at least a0"):
        ContinuedFraction(())
    with pytest.raises(ValueError, match="degree >= 1"):
        ContinuedFraction((constant, constant))
    # The record's own replace builds through the same check.
    with pytest.raises(ValueError, match="degree >= 1"):
        cf._replace(quotients=(*cf.quotients, constant))
    assert cf._replace(quotients=cf.quotients) == cf and len(cf) == 5


def test_golden_partial_quotients():
    cf = cf_of_fraction(parse_poly("T^3+2*T^2+T-1"), parse_poly("T^4-T^2"))
    assert list(cf.quotients) == [parse_poly(s) for s in GOLDEN]


def test_polynomial_expands_to_itself():
    cf = cf_of_fraction(parse_poly("T^2+3"), Polynomial.one(QQ))
    assert len(cf) == 1 and cf.a0 == parse_poly("T^2+3")


def test_simple_reciprocal():
    cf = cf_of_fraction(Polynomial.one(QQ), parse_poly("T-1"))
    assert [str(q) for q in cf.quotients] == ["0", "1*T^1 + -1*T^0"]


class TestConvergents:
    def test_seed_row(self):
        cf = cf_of_fraction(Polynomial.one(QQ), parse_poly("T"))
        table = convergents(cf)
        assert table.rows[1] == (Polynomial.one(QQ), parse_poly("T"))

    def test_final_convergent_reproduces_input(self):
        num, den = parse_poly("T^3+2*T^2+T-1"), parse_poly("T^4-T^2")
        cf = cf_of_fraction(num, den)
        assert eval_cf(cf) == RationalFunction(num, den)
        # and the last pair is a scalar multiple of (num, den)
        x, y = convergents(cf).rows[4]
        c = QQ.div(y.lead, den.lead)
        assert y == den.scale(c) and x == num.scale(c)

    def test_denominator_degree_is_quotient_degree_sum(self):
        cf = cf_of_fraction(parse_poly("T^5+T^2+1"), parse_poly("T^7-T^3+2"))
        table = convergents(cf)
        degs = cf.degrees()
        for n in range(1, len(table)):
            assert table.rows[n][1].degree == sum(degs[:n])

    @settings(deadline=None)
    @given(pair=ratfunc_pairs(12))
    def test_determinant_alternation(self, pair):
        cf = cf_of_fraction(*pair)
        table = convergents(cf)
        for n in range(1, len(table)):
            expected = Polynomial(QQ, [1 if n % 2 == 1 else -1])
            assert determinant(table, n) == expected


@given(pair=ratfunc_pairs(8))
def test_round_trip_small(pair):
    num, den = pair
    assert eval_cf(cf_of_fraction(num, den)) == RationalFunction(num, den)


@settings(max_examples=40, deadline=None)
@given(pair=ratfunc_pairs(30))
def test_round_trip_degree_30(pair):
    num, den = pair
    assert eval_cf(cf_of_fraction(num, den)) == RationalFunction(num, den)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_eval_cf_matches_table_and_round_trips(field):
    # Reference: the convergent table's last row, made monic.
    rng = random.Random(5)

    def random_poly(min_len):
        length = rng.randint(min_len, 12)
        if field == QQ:
            return Polynomial(field, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)])
        return Polynomial(field, [rng.randrange(field.p) for _ in range(length)])

    for _ in range(60):
        num, den = random_poly(0), random_poly(1)
        if den.is_zero:
            continue
        cf = cf_of_fraction(num, den)
        x, y = convergents(cf).rows[-1]
        inv = field.invert(y.lead)
        value = eval_cf(cf)
        assert (value.num, value.den) == (x.scale(inv), y.scale(inv))
        assert value == RationalFunction(num, den)


class TestSeriesExpansion:
    def test_theta_at_precision_ten(self):
        out = cf_of_series(theta_series(10))
        assert out.cf.quotients[0].is_zero
        assert out.cf.quotients[1] == parse_poly("T-2")
        assert out.emitted >= 1
        assert not out.terminated
        assert out.precision_consumed <= 10

    def test_polynomial_series_terminates(self):
        s = LaurentSeries.from_poly(parse_poly("T^2+1"), -3)
        out = cf_of_series(s)
        assert out.terminated
        assert list(out.cf.quotients) == [parse_poly("T^2+1")]

    def test_insufficient_precision_raises(self):
        with pytest.raises(PrecisionError, match="precision exhausted"):
            cf_of_series(theta_series(1))

    def test_zero_series_behaves_like_zero_polynomial(self):
        out = cf_of_series(LaurentSeries.zero(QQ, -5))
        assert out.terminated
        assert out.cf.a0.is_zero and out.emitted == 0

    def test_prefix_certified_against_exact_expansion(self):
        # Precision 2*t(6) certifies the first 24 partial quotients, which
        # must agree with the Euclidean expansion of the n=6 approximant.
        ell = lengths(6)
        t6 = (9 * ell[6] + 3 * ell[5] + 11) // 2
        out = cf_of_series(theta_series(2 * t6))
        pair = tail_periodic_pair(6)
        exact = cf_of_fraction(pair.r, pair.s)
        assert out.emitted >= 24
        assert out.cf.quotients[:25] == exact.quotients[:25]

    @settings(max_examples=60, deadline=None)
    @given(
        digits=st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=24),
        noise=st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=10),
    )
    def test_perturbation_below_precision_never_changes_output(self, digits, noise):
        base = LaurentSeries(QQ, -1, digits)
        if base.is_zero:
            return
        try:
            out = cf_of_series(base)
        except PrecisionError:
            return
        extended = LaurentSeries(QQ, -1, digits + noise)
        out2 = cf_of_series(extended)
        k = len(out.cf.quotients)
        assert out2.cf.quotients[:k] == out.cf.quotients


def test_approximation_exponent_identity():
    # |alpha - x_n/y_n| = |y_n|^-2 |a_{n+1}|^-1 for every certified convergent
    pair = tail_periodic_pair(3)
    cf = cf_of_fraction(pair.r, pair.s)
    table = convergents(cf)
    d = cf.degrees()
    alpha = theta_series(70)
    for n in range(len(table) - 1):
        x, y = table.rows[n]
        assert approx_order(alpha, x, y) == 2 * y.degree + d[n]


class TestApproxOrder:
    def test_tail_periodic_order(self):
        pair = tail_periodic_pair(1)
        assert approx_order(theta_series(20), pair.r, pair.s) == 10

    def test_pure_periodic_order(self):
        pair = pure_periodic_pair(1)
        assert approx_order(theta_series(20), pair.r, pair.s) == 15

    def test_truncation_rank(self):
        alpha = theta_series(20)
        ten = theta_series(10)
        num = Polynomial(QQ, list(reversed(ten.coeffs)))
        den = Polynomial.monomial(QQ, 1, 10)
        assert approx_order(alpha, num, den) == 11

    def test_order_beyond_precision_raises(self):
        pair = tail_periodic_pair(1)
        with pytest.raises(PrecisionError, match="order exceeds precision"):
            approx_order(theta_series(8), pair.r, pair.s)

    def test_agrees_with_word_comparison(self):
        # Dual route: series subtraction must match the letter-stream rank.
        from wordcf.words import aux_words, prefix

        for n in range(1, 5):
            pair = tail_periodic_pair(n)
            aux = aux_words(n)
            horizon = 2000
            rank = first_difference_rank(
                prefix(horizon),
                tail_periodic_symbols(aux.u, aux.v, horizon),
            )
            assert approx_order(theta_series(rank + 4), pair.r, pair.s) == rank


class TestMeasure:
    def test_first_big_jump(self):
        # degrees of the expansion: 1,1,1,1 then d5 = 2
        terms = measure_terms([1, 1, 1, 1, 2, 1, 1, 1])
        assert terms[3].estimate == Fraction(5, 2)

    def test_second_big_jump(self):
        degrees = [1, 1, 1, 1, 2, 1, 1, 1, 7, 1, 3, 1]
        terms = measure_terms(degrees)
        assert terms[7].estimate == 2 + Fraction(7, 9)

    def test_constant_degrees_tend_to_two(self):
        terms = measure_terms([1] * 12)
        for term in terms:
            assert term.estimate == 2 + Fraction(1, term.n)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_terms([1])
        with pytest.raises(ValueError):
            measure_terms([1, 0, 2])
