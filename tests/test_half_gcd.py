"""cf_of_series, cf_of_fraction and poly_gcd, which read one remainder
sequence (over GF(p) a half-gcd), against the classical step-by-step Euclid
they replaced, which stays here and in ``oracles.euclid_gcd`` as the oracle."""

import random
import timeit
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordcf import _kernel, cf, poly, quartic
from wordcf.cf import cf_of_fraction, cf_of_series
from wordcf.fields import GF, QQ
from wordcf.poly import GCD_PRIME, Polynomial, format_poly, poly_gcd
from wordcf.ratfunc import parse_ratfunc
from wordcf.series import LaurentSeries, PrecisionError
from wordcf.words import theta_series

from oracles import euclid_gcd, mul_trunc_schoolbook


def classical_cf_of_series(alpha):
    """The certified expansion by one Polynomial division per quotient,
    with the stop rule checked before each division."""
    field = alpha.field
    if alpha.known_down > 0:
        raise PrecisionError("precision exhausted")
    budget = -alpha.known_down
    if alpha.is_zero:
        return [Polynomial.zero(field)], 0, 0, True
    num = Polynomial(field, list(reversed(alpha.coeffs)))
    den = Polynomial.monomial(field, field.one, budget)
    a0, r = divmod(num, den)
    quotients = [a0]
    prev, cur = den, r
    deg_y = 0
    terminated = False
    while True:
        if cur.is_zero:
            terminated = True
            break
        step = prev.degree - cur.degree
        if 2 * (deg_y + step) > budget:
            break
        q, r = divmod(prev, cur)
        quotients.append(q)
        deg_y += step
        prev, cur = cur, r
    if len(quotients) == 1 and not terminated:
        raise PrecisionError("precision exhausted")
    return quotients, len(quotients) - 1, 2 * deg_y, terminated


def _outcome(expand, alpha):
    try:
        out = expand(alpha)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))
    if isinstance(out, cf.SeriesExpansion):
        return list(out.cf.quotients), out.emitted, out.precision_consumed, out.terminated
    return out


def assert_matches_oracle(alpha):
    want = _outcome(classical_cf_of_series, alpha)
    assert _outcome(cf_of_series, alpha) == want
    return want


@contextmanager
def base_case(size):
    """Run the half-gcd with another base-case bound, so that small inputs
    also take the recursive path."""
    saved = poly._HALF_GCD_BASE
    poly._HALF_GCD_BASE = size
    try:
        yield
    finally:
        poly._HALF_GCD_BASE = saved


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("prec", [1, 2, 3, 4, 5, 64, 65, 333, 1000, 4000])
def test_quartic_roots(p, prec):
    want = assert_matches_oracle(quartic.quartic_root(p, prec))
    if prec >= 64:
        assert want[1] > 0 and not want[3]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("prec", [1, 2, 10, 99, 100, 1500])
def test_theta(p, prec):
    assert_matches_oracle(theta_series(prec, GF(p)))


@pytest.mark.parametrize("size", [0, 1, 2, 5])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_recursion_on_small_inputs(size, p):
    with base_case(size):
        for prec in (3, 17, 64, 65, 200, 401):
            assert_matches_oracle(quartic.quartic_root(p, prec))
            assert_matches_oracle(theta_series(prec, GF(p)))


prime = st.sampled_from([2, 3, 5, 7, 257, 2**61 - 1])


@settings(max_examples=150, deadline=None)
@given(
    p=prime,
    top=st.integers(min_value=-3, max_value=4),
    digits=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=90),
    zero_share=st.sampled_from([0, 2, 5]),
    size=st.sampled_from([0, 1, 3, 32]),
)
@example(p=3, top=2, digits=[1, 2, 0, 1, 1, 2, 2, 0, 1], zero_share=0, size=0)  # a0 != 0, odd budget
@example(p=3, top=1, digits=[1, 2, 0, 1, 1, 2, 2, 0, 1], zero_share=0, size=0)  # a0 != 0, even budget
@example(p=2, top=-1, digits=[1] + [0] * 40 + [1], zero_share=0, size=0)  # first quotient over budget
def test_drawn_series(p, top, digits, zero_share, size):
    # zero_share blanks every digit whose index is divisible by it (0: none),
    # for runs of zeros and high-degree quotients.
    digits = [0 if zero_share and i % zero_share == 0 else c % p for i, c in enumerate(digits)]
    alpha = LaurentSeries(GF(p), top, digits)
    with base_case(size):
        assert_matches_oracle(alpha)


@pytest.mark.parametrize("p", [2, 3, 7, 257])
def test_rational_series_terminate(p):
    # Digits followed by zeros: the truncation is h / T^j with h of low
    # degree, and once the zeros outnumber the digits Euclid reaches
    # remainder 0 within the budget.
    field = GF(p)
    rng = random.Random(p)
    terminated = 0
    for _ in range(40):
        head = [1 + rng.randrange(p - 1)] + [rng.randrange(p) for _ in range(rng.randint(0, 40))]
        for pad in (len(head) // 2, len(head), len(head) + 3, 2 * len(head)):
            alpha = LaurentSeries(field, rng.randint(-3, 3), head + [0] * pad)
            for size in (1, 32):
                with base_case(size):
                    want = assert_matches_oracle(alpha)
            terminated += want[-1] is True
    assert terminated >= 80


def test_first_quotient_over_budget_raises():
    # alpha = T^-30 known down to T^-32, a budget of 32: its first partial
    # quotient T^30 would need 2 * 30 <= 32.
    field = GF(3)
    alpha = LaurentSeries(field, -30, [1, 0, 0], -32)
    assert _outcome(classical_cf_of_series, alpha)[0] == "PrecisionError"
    with pytest.raises(PrecisionError, match="precision exhausted"):
        cf_of_series(alpha)
    with base_case(0), pytest.raises(PrecisionError, match="precision exhausted"):
        cf_of_series(alpha)


def classical_cf_of_fraction(num, den):
    """The partial quotients of num/den by one Polynomial division each."""
    a0, r = divmod(num, den)
    quotients = [a0]
    prev, cur = den, r
    while not cur.is_zero:
        q, r = divmod(prev, cur)
        quotients.append(q)
        prev, cur = cur, r
    return quotients


def fold(field, quotients):
    """(num, den) with num/den = [q0; q1, ...], from residue lists."""
    *head, last = [Polynomial(field, q) for q in quotients]
    num, den = last, Polynomial.one(field)
    for a in reversed(head):
        num, den = a * num + den, num
    return num, den


def assert_fraction_matches_oracle(num, den):
    want = classical_cf_of_fraction(num, den)
    for size in (0, 1, 32):
        with base_case(size):
            assert list(cf_of_fraction(num, den).quotients) == want
    return want


@pytest.mark.parametrize("p", [2, 3, 7, 2**61 - 1])
def test_fraction_with_long_quotients_and_common_factor(p):
    # Quotient degrees above _HALF_GCD_BASE between short ones, and the
    # same fraction times a common factor: the gcd changes no quotient.
    field = GF(p)
    rng = random.Random(p)
    degrees = [2, 1, poly._HALF_GCD_BASE + 9, 3, 1, 2 * poly._HALF_GCD_BASE + 1, 1, 5]
    quotients = [[rng.randrange(p) for _ in range(d)] + [1 + rng.randrange(p - 1)] for d in degrees]
    num, den = fold(field, quotients)
    want = assert_fraction_matches_oracle(num, den)
    assert [q.degree for q in want] == degrees
    g = Polynomial(field, [rng.randrange(p) for _ in range(7)] + [1])
    assert assert_fraction_matches_oracle(num * g, den * g) == want


@pytest.mark.parametrize("p", [2, 3, 257])
def test_fraction_edge_shapes(p):
    field = GF(p)
    num = Polynomial(field, [1, 2, 0, 1, 1])
    # A constant den: a0 is the whole fraction.
    assert assert_fraction_matches_oracle(num, Polynomial(field, [p - 1])) == [num.scale(field.invert(p - 1))]
    # deg num < deg den: a0 = 0.
    den = Polynomial(field, [1, 0, 1, 1, 0, 0, 1])
    assert assert_fraction_matches_oracle(num, den)[0].is_zero
    # A zero numerator, and den dividing num (gcd = den).
    assert assert_fraction_matches_oracle(Polynomial.zero(field), den) == [Polynomial.zero(field)]
    assert len(assert_fraction_matches_oracle(num * den, den)) == 1


@settings(max_examples=100, deadline=None)
@given(
    p=prime,
    num=st.lists(st.integers(min_value=0, max_value=2**62), max_size=120),
    den=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=120),
    common=st.lists(st.integers(min_value=0, max_value=2**62), max_size=6),
)
def test_drawn_fractions(p, num, den, common):
    field = GF(p)
    num, den = Polynomial(field, num), Polynomial(field, den)
    g = Polynomial(field, common + [1])
    if den.is_zero:
        return
    assert_fraction_matches_oracle(num * g, den * g)


# --- poly_gcd: the last remainder of the same sequence ---

GCD_FIELDS = [GF(2), GF(3), GF(13), GF(GCD_PRIME), GF(2**61 - 1), QQ]


def _drawn(field, degree, rng):
    """A polynomial of the given degree (-1: zero) with random coefficients:
    residues over GF(p), small ints with a non-unit leading one over Q."""
    if degree < 0:
        return Polynomial.zero(field)
    p = field.characteristic
    if p:
        return Polynomial(field, [rng.randrange(p) for _ in range(degree)] + [1 + rng.randrange(p - 1)])
    return Polynomial(field, [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, 2, 5])])


def gcd_cases(field):
    rng = random.Random(repr(field))
    pairs = [
        # equal degrees, a zero operand and a constant operand
        (_drawn(field, 6, rng), _drawn(field, 6, rng)),
        (_drawn(field, 7, rng), _drawn(field, -1, rng)),
        (_drawn(field, -1, rng), _drawn(field, 7, rng)),
        (_drawn(field, 7, rng), _drawn(field, 0, rng)),
        (_drawn(field, 0, rng), _drawn(field, 7, rng)),
    ]
    # planted common factors of degree 0, 1 and 40
    for degree in (0, 1, 40):
        g = _drawn(field, degree, rng)
        pairs.append((g * _drawn(field, 11, rng), g * _drawn(field, 8, rng)))
    # the quotients' degree sum deg b - deg gcd (the half-gcd's k) at 31, 32,
    # 33 and 65, around _HALF_GCD_BASE
    for degree in (31, 32, 33, 65):
        pairs.append((_drawn(field, degree + 1, rng), _drawn(field, degree, rng)))
        pairs.append((_drawn(field, degree + 4, rng), _drawn(field, degree, rng)))
    return pairs


@pytest.mark.parametrize("size", [poly._HALF_GCD_BASE, 0, 1, 2, 5])
@pytest.mark.parametrize("field", GCD_FIELDS, ids=repr)
def test_gcd_matches_plain_euclid(field, size):
    with base_case(size):
        for a, b in gcd_cases(field):
            want = euclid_gcd(a, b)
            assert poly_gcd(a, b) == want == poly_gcd(b, a)


def test_gfp_gcd_divides_once(monkeypatch):
    # The plain loop made one Polynomial division per remainder, 124 for
    # this pair; the half-gcd divides residue lists after the one opening
    # division.
    rng = random.Random(200)
    a, b = _drawn(GF(3), 200, rng), _drawn(GF(3), 200, rng)
    want = euclid_gcd(a, b)
    calls = []
    plain = Polynomial.__divmod__

    def counted(x, y):
        calls.append((x.degree, y.degree))
        return plain(x, y)

    monkeypatch.setattr(Polynomial, "__divmod__", counted)
    assert poly_gcd(a, b) == want
    assert len(calls) <= 1


def test_gfp_fraction_of_degree_4000_parses_fast():
    # The gcd of the parsed fraction is a half-gcd: about 0.15-0.2 s on a
    # shared 2-CPU VM, against 0.75-0.85 s by the plain Euclidean loop.
    rng = random.Random(4000)
    num, den = _drawn(GF(3), 4000, rng), _drawn(GF(3), 4000, rng)
    text = f"({format_poly(num)})/({format_poly(den)})"
    value = parse_ratfunc(text, GF(3))
    assert value.num * den == value.den * num
    assert min(timeit.repeat(lambda: parse_ratfunc(text, GF(3)), number=1, repeat=3)) < 0.5


# --- cofactors: built only where a truncation restores with them ---


def test_remainder_sequence_builds_no_cofactors(monkeypatch):
    # None of these reads a cofactor matrix, and none is long enough for a
    # truncation (the odd budget leaves one extra digit at the top).  A
    # half-gcd that built cofactors at every level made 16, 19, 30 (the Q
    # pair, through its GF(GCD_PRIME) pre-test) and 10 _step calls here,
    # and one matmul for the series.
    rng = random.Random(30)
    num, den = _drawn(GF(7), 24, rng), _drawn(GF(7), 20, rng)
    a3, b3 = _drawn(GF(3), 30, rng), _drawn(GF(3), 30, rng)
    aq, bq = _drawn(QQ, 30, rng), _drawn(QQ, 30, rng)
    theta = theta_series(41, GF(5))
    want = (
        classical_cf_of_fraction(num, den),
        euclid_gcd(a3, b3),
        Polynomial.one(QQ),
        _outcome(classical_cf_of_series, theta),
    )
    assert euclid_gcd(aq, bq) == want[2]
    calls = []
    for owner, name in ((poly, "_step"), (_kernel, "matmul")):
        plain = getattr(owner, name)

        def counted(*args, plain=plain, name=name):
            calls.append(name)
            return plain(*args)

        monkeypatch.setattr(owner, name, counted)
    got = (
        list(cf_of_fraction(num, den).quotients),
        poly_gcd(a3, b3),
        poly_gcd(aq, bq),
        _outcome(cf_of_series, theta),
    )
    assert got == want
    assert calls == []


def _combination(s, a, t, b, p):
    """s a + t b over GF(p) by schoolbook products, as a stripped list."""
    field = GF(p)
    sa = mul_trunc_schoolbook(s, a, len(s) + len(a) - 1, field)
    tb = mul_trunc_schoolbook(t, b, len(t) + len(b) - 1, field)
    width = max(len(sa), len(tb))
    out = [(x + y) % p for x, y in zip(sa + [0] * (width - len(sa)), tb + [0] * (width - len(tb)))]
    while out and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("size", [poly._HALF_GCD_BASE, 0, 1, 2, 5])
@pytest.mark.parametrize("p", [2, 3, 13, 2**61 - 1])
def test_returned_cofactors_give_the_remainders(p, size, monkeypatch):
    # Every _half_gcd call that returns R, the recursive ones included,
    # satisfies r_{j-1} = s0 a + t0 b and r_j = s1 a + t1 b.  Calls asked
    # for cofactors at the top, with and without a truncation there, and
    # the remainder sequences of poly_gcd and cf_of_fraction, which ask for
    # none and get them only below their truncations.
    plain = poly._half_gcd
    checked = []

    def half_gcd(a, b, k, p, *flag):
        a, b = list(a), list(b)
        quotients, R, c, d = plain(a, b, k, p, *flag)
        if R is not None:
            (s0, t0), (s1, t1) = R
            assert _combination(s0, a, t0, b, p) == c
            assert _combination(s1, a, t1, b, p) == d
            checked.append(k)
        return quotients, R, c, d

    monkeypatch.setattr(poly, "_half_gcd", half_gcd)
    field = GF(p)
    rng = random.Random(p)
    with base_case(size):
        for k in (31, 32, 33, 65):
            for da, db in ((k + 1, k), (2 * k + 7, 2 * k + 3)):
                a, b = _drawn(field, da, rng), _drawn(field, db, rng)
                quotients = poly._half_gcd(list(a.ints), list(b.ints), k, p)[0]
                assert sum(len(q) - 1 for q in quotients) <= k
                assert poly_gcd(a, b) == euclid_gcd(a, b)
                assert list(cf_of_fraction(a, b).quotients) == classical_cf_of_fraction(a, b)
    assert len(checked) >= 8
