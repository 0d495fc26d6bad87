import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordcf.fields import GF, QQ
from wordcf.poly import Polynomial, format_poly, poly_gcd
from wordcf.ratfunc import RationalFunction, parse_poly, parse_ratfunc

small_coeff = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
poly_q = st.lists(small_coeff, min_size=0, max_size=21).map(lambda cs: Polynomial(QQ, cs))
poly_q_nonzero = poly_q.filter(lambda p: not p.is_zero)


def P(text):
    return parse_poly(text)


class TestDivRem:
    def test_exact_factorization(self):
        q, r = divmod(P("T^2-1"), P("T-1"))
        assert q == P("T+1") and r.is_zero

    def test_monomial_case(self):
        q, r = divmod(P("T^3"), P("T"))
        assert q == P("T^2") and r.is_zero

    def test_hand_long_division(self):
        # (T^3+2T^2+T-1) = (T-2)(T^2+4T+9) + 17, worked by hand
        q, r = divmod(P("T^3+2*T^2+T-1"), P("T-2"))
        assert q == P("T^2+4*T+9")
        assert r == P("17")

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            divmod(P("T"), Polynomial.zero(QQ))

    @given(a=poly_q, b=poly_q_nonzero)
    def test_round_trip(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


class TestGcd:
    def test_shared_root(self):
        assert poly_gcd(P("T^2-1"), P("T-1")) == P("T-1")

    def test_coprime_approximant_pair(self):
        assert poly_gcd(P("T^3+2*T^2+T-1"), P("T^4-T^2")) == Polynomial.one(QQ)

    def test_alphabet_variant_pair(self):
        assert poly_gcd(P("T^2*(T^2-1)"), P("(T^2-2)*(T-1)")) == P("T-1")

    def test_both_zero_undefined(self):
        with pytest.raises(ValueError, match="gcd undefined"):
            poly_gcd(Polynomial.zero(QQ), Polynomial.zero(QQ))

    @given(a=poly_q_nonzero, b=poly_q_nonzero)
    def test_divides_both_and_monic(self, a, b):
        g = poly_gcd(a, b)
        assert g.lead == 1
        assert (a % g).is_zero
        assert (b % g).is_zero


class TestRationalFunction:
    def test_constant_cancellation(self):
        f = RationalFunction(P("2*T"), P("2"))
        assert f.num == P("T") and f.den == Polynomial.one(QQ)

    def test_polynomial_factor_cancellation(self):
        f = RationalFunction(P("T^2-1"), P("T-1"))
        assert f.num == P("T+1") and f.den == Polynomial.one(QQ)

    def test_alphabet_variant_reduction(self):
        f = RationalFunction(P("(T^2-2)*(T-1)"), P("T^2*(T^2-1)"))
        assert f.num == P("T^2-2")
        assert f.den == P("T^3+T^2")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P("T"), Polynomial.zero(QQ))

    def test_denominator_made_monic(self):
        f = RationalFunction(P("T"), P("2*T^2+2"))
        assert f.den == P("T^2+1")
        assert f.num == P("1/2*T")


@given(a=poly_q, b=poly_q, c=poly_q)
def test_distributivity_exact(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(a=poly_q, b=poly_q)
def test_mul_commutes_and_degree_adds(a, b):
    assert a * b == b * a
    if not a.is_zero and not b.is_zero:
        assert (a * b).degree == a.degree + b.degree


@given(p=poly_q)
def test_text_format_round_trip_bit_exact(p):
    assert parse_poly(format_poly(p)) == p


def test_format_examples():
    p = Polynomial(QQ, [Fraction(25, 24), Fraction(-125, 48)])
    assert format_poly(p) == "-125/48*T^1 + 25/24*T^0"
    assert parse_poly("-125/48*T^1 + 25/24*T^0") == p
    assert format_poly(Polynomial.zero(QQ)) == "0"


@pytest.mark.parametrize("limit", [640, 4300])
def test_text_format_round_trip_with_huge_coefficients(limit, int_max_str_digits):
    # 10^4-digit numerators and denominators under an int-to-str limit: the
    # text is the one CPython writes with the limit lifted, and it reads back
    # bit-exactly.
    rng = random.Random("huge-coefficients")

    def big():
        return rng.randrange(10**9999, 10**10000)

    coeffs = [Fraction(rng.choice((1, -1)) * big(), big()) for _ in range(4)]
    p = Polynomial(QQ, [*coeffs, -big(), 0, Fraction(1, big()), 7])
    with int_max_str_digits(0):
        reference = " + ".join(f"{c}*T^{k}" for k, c in reversed(p.nonzero_terms()))
    with int_max_str_digits(limit):
        text = format_poly(p)
        assert text == reference
        value = parse_ratfunc(text)
    assert value.num == p and value.den == Polynomial.one(QQ)


def _huge_den_ints():
    # Entries and denominators of 4400 to 9000 digits, some of them sharing
    # a factor with den and some integral.
    rng = random.Random("huge-den")
    d = rng.randrange(10**4400, 10**4401)
    den = 6 * d
    return den, [rng.choice((1, -1)) * rng.randrange(10**8999, 10**9000) for _ in range(3)] + [-2 * d, 3, den, 0, -5 * den]


@pytest.mark.parametrize(
    "den, ints",
    [
        (1, [-3, 0, 5, -7, 12, 10**5000 + 1]),
        (360, list(range(-725, 726, 29)) + [360, -720, 0, 1]),
        (7, [-1, 0, -14, 3]),
        _huge_den_ints(),
    ],
    ids=["integral", "den-360", "den-7", "huge"],
)
def test_format_poly_writes_each_coefficient_as_its_fraction(den, ints, int_max_str_digits):
    # The text of c/den is str(Fraction(c, den)), reduced and signed on the
    # numerator, at any size and under the default int-to-str limit.
    p = Polynomial(QQ, [Fraction(c, den) for c in ints])
    for q in (p, -p):
        with int_max_str_digits(0):
            reference = " + ".join(f"{Fraction(c, q.den)}*T^{k}" for k, c in reversed(list(enumerate(q.ints))) if c)
        with int_max_str_digits(4300):
            assert format_poly(q) == reference


def test_int_token_over_digit_budget_fails_before_conversion(monkeypatch):
    from wordcf import _kernel

    assert parse_poly("1" * 5000 + "*T^2") == Polynomial.monomial(QQ, (10**5000 - 1) // 9, 2)
    monkeypatch.setattr(_kernel, "MAX_INT_DIGITS", 50)
    assert parse_poly("9" * 50 + "*T^2") == Polynomial.monomial(QQ, 10**50 - 1, 2)
    for text in ("1" * 51, "1" * 51 + "*T^3", "2/" + "3" * 51 + "*T", "T^" + "0" * 51, "(" + "1" * 51 + ")*T"):
        with pytest.raises(ValueError, match="integer above the budget of 50 digits"):
            parse_ratfunc(text)


def test_parse_ratfunc_cli_syntax():
    f = parse_ratfunc("(T^3+2*T^2+T-1)/(T^4-T^2)")
    assert f.num == P("T^3+2*T^2+T-1")
    assert f.den == P("T^4-T^2")
    assert parse_ratfunc("T^-2").den == P("T^2")


def test_power_over_degree_budget_fails_before_squaring(monkeypatch):
    from wordcf import ratfunc

    monkeypatch.setattr(ratfunc, "MAX_POWER_DEGREE", 10)
    assert parse_poly("T^10") == Polynomial.monomial(QQ, 1, 10)
    assert parse_ratfunc("(T^2+1)^-5").den == P("(T^2+1)^5")
    for text in ("T^11", "T^-11", "(T^2+1)^6", "(T^2+1)^-6", "(T/(T^3+1))^4"):
        with pytest.raises(ValueError, match="degree above 10"):
            parse_ratfunc(text)


def test_power_over_cost_budget_fails_before_squaring():
    with pytest.raises(ValueError, match="cost budget"):
        parse_ratfunc("(T+1)^999999")
    with pytest.raises(ValueError, match="cost budget"):
        parse_ratfunc("(T+1)^4000", GF(10007))
    # Monomials and sparse bases stay cheap at any degree within budget.
    assert parse_poly("T^9000") == Polynomial.monomial(QQ, 1, 9000)
    assert parse_poly("(T^1000+1)^10").evaluate(1) == 2**10
    assert parse_poly("(T+1)^500").evaluate(1) == 2**500


@pytest.mark.parametrize(
    "field, text, k",
    [
        (QQ, "T", 0),
        (QQ, "T", 13),
        (QQ, "T", -3),
        (QQ, "-T^2", 5),
        (QQ, "(2/3)*T^3", 4),
        (QQ, "2/T", 4),
        (QQ, "3/T^2", -3),
        (QQ, "-5", 7),
        (GF(2), "T^3", 6),
        (GF(3), "2*T", 5),
        (GF(3), "2/T^2", -4),
        (GF(7), "3*T^2", 9),
        (GF(7), "T/5", -2),
    ],
)
def test_monomial_power_matches_repeated_product(field, text, k):
    from wordcf.ratfunc import _rf_pow

    value = parse_ratfunc(text, field)
    step = value if k >= 0 else value.invert()
    expected = RationalFunction.from_poly(Polynomial.one(field))
    for _ in range(abs(k)):
        expected = expected * step
    assert _rf_pow(value, k) == expected


def test_monomial_power_of_huge_exponent_reduces_the_scalar():
    assert parse_poly("3^1000000000000", GF(7)) == Polynomial(GF(7), [pow(3, 10**12, 7)])
    assert parse_poly("(3*T)^999999", GF(7)) == Polynomial.monomial(GF(7), pow(3, 999999, 7), 999999)


def test_parse_rejects_garbage():
    from wordcf.ratfunc import ParseError

    with pytest.raises(ParseError):
        parse_poly("T +")
    with pytest.raises(ParseError):
        parse_poly("x^2")
    with pytest.raises(ParseError):
        parse_poly("(T^2+1)/(T-1)")


def test_parse_bounds_nesting_depth():
    from wordcf.ratfunc import MAX_NESTING, ParseError

    def nested(depth):
        return "(" * depth + "T-1" + ")" * depth

    assert parse_poly(nested(MAX_NESTING)) == P("T-1")
    for depth in (MAX_NESTING + 1, 10**4):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
            parse_ratfunc(nested(depth))


def test_monomial_rejects_negative_exponent():
    assert Polynomial.monomial(QQ, 5, 0) == P("5")
    for coeff in (5, 0):
        with pytest.raises(ValueError, match="nonnegative"):
            Polynomial.monomial(QQ, coeff, -3)


def test_gf_polynomials():
    f3 = GF(3)
    a = Polynomial(f3, [2, 2, 1])  # T^2 + 2T + 2
    b = Polynomial(f3, [1, 1])
    q, r = divmod(a, b)
    assert q * b + r == a
    assert all(0 <= c < 3 for c in (a * b).coeffs)
    assert poly_gcd(a * b, b) == b.monic()


def test_mixed_field_polynomials_refuse_to_combine():
    with pytest.raises(ValueError, match="mixed fields"):
        Polynomial(QQ, [1]) + Polynomial(GF(3), [1])


def test_evaluate_is_exact():
    p = P("T^3+2*T^2+T-1")
    assert p.evaluate(1) == 3
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 8) + Fraction(1, 2) + Fraction(1, 2) - 1


# Reference oracles for the fast paths of Polynomial: the plain loops.
def _schoolbook_mul(a, b):
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1) if a.coeffs and b.coeffs else []
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                if cb:
                    out[i + j] += ca * cb
    return Polynomial(a.field, out)


def _horner(p, x):
    acc = p.field.zero
    for c in reversed(p.coeffs):
        acc = p.field.reduce(acc * x + c)
    return acc


# Mostly-zero coefficient lists, long enough for both product paths.
sparse_coeffs = st.lists(
    st.one_of(st.just(0), st.just(0), st.just(0), small_coeff), min_size=0, max_size=40
)
int_coeffs = st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=40)


@given(cs=sparse_coeffs, cs2=st.one_of(sparse_coeffs, int_coeffs))
def test_mul_matches_schoolbook_over_q(cs, cs2):
    a, b = Polynomial(QQ, cs), Polynomial(QQ, cs2)
    assert a * b == b * a == _schoolbook_mul(a, b)


# Up to 40 coefficients: kernel slots of 1, 2, 4, 8 and 16 bytes.
@pytest.mark.parametrize("p", [2, 3, 7, 257, 1000003, 2**61 - 1])
@given(cs=int_coeffs, cs2=int_coeffs)
def test_mul_matches_schoolbook_over_gfp(p, cs, cs2):
    a, b = Polynomial(GF(p), cs), Polynomial(GF(p), cs2)
    assert a * b == _schoolbook_mul(a, b)


def test_sparse_by_sparse_product_of_long_binomials():
    a, b = P("T^5000 - T^17"), P("3*T^4000 + 1/2*T^3")
    assert a * b == P("3*T^9000 + 1/2*T^5003 - 3*T^4017 - 1/2*T^20")
    assert a * b == _schoolbook_mul(a, b)


def test_sparse_power_parses_within_a_second():
    # The sparse product loop keeps the powers of sparse sums that the cost
    # budget admits cheap: about 0.2 s here, 1.2 s with the dense loop alone.
    import timeit

    text = "(T^100000+T^50000+1)^10"
    small = parse_poly("(T^2+T+1)^10").nonzero_terms()
    assert parse_poly(text).nonzero_terms() == [(50000 * k, c) for k, c in small]
    assert min(timeit.repeat(lambda: parse_poly(text), number=1, repeat=3)) < 1.0


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_long_quotient_by_a_short_divisor_is_linear(field):
    # conjecture_row(12)'s first shape: a quotient of 57121 digits by T - 1.
    # A window walked from index 0 for every digit took 4 s here.
    import timeit

    a, b = parse_poly("T^57121+T^23660-2", field), parse_poly("T-1", field)
    q, r = divmod(a, b)
    assert r.is_zero and q * b == a
    assert min(timeit.repeat(lambda: divmod(a, b), number=1, repeat=3)) < 0.5


@given(a=poly_q, b=poly_q)
def test_sub_is_add_of_negation(a, b):
    assert a - b == a + (-b)
    assert (a - b) + b == a


@given(cs=int_coeffs, cs2=int_coeffs)
def test_sub_is_add_of_negation_over_gfp(cs, cs2):
    a, b = Polynomial(GF(5), cs), Polynomial(GF(5), cs2)
    assert a - b == a + (-b)
    assert all(0 <= c < 5 for c in (a - b).coeffs)


@given(p=poly_q)
def test_evaluate_at_one_matches_horner(p):
    assert p.evaluate(1) == _horner(p, 1)
    assert p.evaluate(Fraction(-1, 3)) == _horner(p, Fraction(-1, 3))


@given(cs=int_coeffs)
def test_evaluate_at_one_matches_horner_over_gfp(cs):
    p = Polynomial(GF(7), cs)
    assert p.evaluate(1) == p.evaluate(8) == _horner(p, 1)


class _ChainParser:
    """The sum rule before polynomial terms were accumulated: one
    RationalFunction addition per term.  The oracle of ``_Parser.expr``."""

    def expr(self):
        value = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value


def _parse_both(text, field):
    from wordcf.ratfunc import _Parser

    chain = type("ChainParser", (_ChainParser, _Parser), {})
    outcomes = []
    for parser in (_Parser, chain):
        try:
            outcomes.append(parser(text, field).parse())
        except (ValueError, ZeroDivisionError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _random_sum(rng, depth=0):
    def coeff():
        # No denominator divisible by 3, so that GF(3) parses most sums.
        c = str(rng.randint(0, 12))
        return c + f"/{rng.choice((2, 4, 5, 7))}" if rng.random() < 0.3 else c

    terms = []
    for _ in range(rng.randint(1, 7)):
        r = rng.random()
        if r < 0.45:
            term = f"{coeff()}*T^{rng.randint(0, 9)}"
        elif r < 0.55:
            term = coeff()
        elif r < 0.7 and depth < 2:
            term = f"({_random_sum(rng, depth + 1)})^{rng.randint(0, 2)}"
        elif r < 0.85 and depth < 1:
            term = f"{coeff()}/({_random_sum(rng, depth + 1)})"
        else:
            term = f"{coeff()}*T^-{rng.randint(1, 4)}"
        terms.append(term)
    signs = [rng.choice(("+", "-")) for _ in terms]
    head = "-" if rng.random() < 0.2 else ""
    return head + terms[0] + "".join(f" {s} {t}" for s, t in zip(signs[1:], terms[1:]))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_summed_terms_match_the_addition_chain(field):
    import random

    rng = random.Random(f"sum-oracle/{field}")
    texts = [_random_sum(rng) for _ in range(300)]
    texts += [
        "T - T",
        "1/(T-1) - 1/(T-1)",
        "1/(T-1) - 1/(T-1) + T",
        "T^2 + 1/T",
        "(T+1)/(T-1) + 3 - T + 1/T^2 - 2/(T-1)",
        "3*T + 1 - 3*T",
        "1/2*T + 1/3*T - 5/6*T",
        "1/(T-T) + 1",
        "T + 1/(T-T)",
        # Terms of the text format, and near misses that take the general rule.
        "1/0*T^5 + 1",
        "1/3*T^2 + 1",
        "3*T^5 + 1 - 0*T^7",
        "-0*T^3 + T",
        "--2*T^2 - -3/4*T^0 + +5*T^1",
        "2*T^3^2 + 1",
        "2/3/4*T^1 + T",
        "2*T^-3 + 1",
        "2*T^3*T^1 - 1",
        "(1*T^2 + 2*T^1)*(3*T^1) + 1*T^0",
        "1*T^1000000 - 1*T^1000000 + 1",
        "1*T^1000001 + 1",
        "1/2*T^1 + 1/(2*T^1)",
        " + ".join(f"{(7 * k) % 11}*T^{k}" for k in range(1000)),
    ]
    for text in texts:
        new, chain = _parse_both(text, field)
        assert new == chain, text


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_long_sum_of_terms_parses_fast(field):
    # 4000 terms of the text format; one addition per term took 1-2 s.
    import random
    import time

    rng = random.Random(4000)
    coeffs = [rng.randint(-9, 9) for _ in range(4000)]
    text = " + ".join(f"{c}*T^{k}" for k, c in enumerate(coeffs))
    assert parse_poly(text, field) == Polynomial(field, coeffs)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        parse_poly(text, field)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.2
