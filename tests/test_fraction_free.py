"""Differential tests of the fraction-free Q polynomials.

A Q polynomial is one int vector over one denominator.  Every operation is
checked against plain loops on lists of ``Fraction``s, the canonical form is
checked after every operation, and Q results reduced mod p are checked
against the direct GF(p) computation.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wordcf.cf import cf_of_fraction
from wordcf.fields import GF, QQ
from wordcf.poly import GCD_PRIME, Polynomial, poly_gcd
from wordcf.ratfunc import parse_poly

from oracles import euclid_gcd

# Small ints, small fractions, and fractions with large, coprime-ish
# numerators and denominators of either sign.
q_coeff = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**30),
    ),
)
nonzero_coeff = q_coeff.filter(bool)
poly_q = st.lists(q_coeff, max_size=10).map(lambda cs: Polynomial(QQ, cs))

# Divisors whose leading coefficient is +-1, any other leading coefficient,
# and scalar multiples of an lc = +-1 divisor (content != 1).
unit_divisor = st.builds(
    lambda cs, lead: Polynomial(QQ, cs + [lead]),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
    st.sampled_from([1, -1]),
)
divisor = st.one_of(
    unit_divisor,
    st.builds(
        lambda cs, lead: Polynomial(QQ, cs + [lead]), st.lists(q_coeff, max_size=6), nonzero_coeff
    ),
    st.builds(lambda d, s: d.scale(s), unit_divisor, nonzero_coeff),
)

PRIMES = (3, 7, 101, GCD_PRIME, 2**61 - 1)


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(Fraction(x) + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b, field=QQ):
    # Over Q the digits are Fractions (QQ.div); over GF(p) residues.
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(rem) - db, 0)
    for sh in range(len(quot) - 1, -1, -1):
        q = field.div(rem[sh + db], b[-1])
        quot[sh] = q
        for i, c in enumerate(b):
            rem[i + sh] = field.reduce(rem[i + sh] - q * c)
    return _trim(quot), _trim(rem[:db])


def _ref_quotients(num, den):
    a0, r = _ref_divmod(num, den)
    out = [a0]
    prev, cur = den, r
    while cur:
        q, r = _ref_divmod(prev, cur)
        out.append(q)
        prev, cur = cur, r
    return out


def _assert_canonical(p):
    assert p.den > 0
    assert not p.ints or p.ints[-1] != 0
    assert all(type(c) is int for c in p.ints)
    assert gcd(p.den, *p.ints) == 1  # the zero polynomial has den 1
    if p.field.characteristic:
        assert p.den == 1 and all(0 <= c < p.field.characteristic for c in p.ints)


def _mod_p(p, prime):
    inv = pow(p.den, -1, prime)
    return Polynomial(GF(prime), [c * inv for c in p.ints])


@given(a=poly_q, b=poly_q)
def test_ring_operations_match_fraction_reference(a, b):
    cases = (
        (a + b, _ref_add(a.coeffs, b.coeffs)),
        (a - b, _ref_add(a.coeffs, b.coeffs, -1)),
        (-a, _ref_add((), a.coeffs, -1)),
        (a * b, _ref_mul(a.coeffs, b.coeffs)),
    )
    for got, want in cases:
        _assert_canonical(got)
        assert got.coeffs == want


@given(a=poly_q, s=q_coeff)
def test_scale_and_monic_match_fraction_reference(a, s):
    got = a.scale(s)
    _assert_canonical(got)
    assert got.coeffs == _trim(Fraction(s) * c for c in a.coeffs)
    if not a.is_zero:
        m = a.monic()
        _assert_canonical(m)
        assert m.coeffs == _trim(Fraction(c) / a.coeffs[-1] for c in a.coeffs)


@given(a=poly_q, b=divisor)
def test_divmod_matches_fraction_reference(a, b):
    q, r = divmod(a, b)
    _assert_canonical(q)
    _assert_canonical(r)
    assert (q.coeffs, r.coeffs) == _ref_divmod(a.coeffs, b.coeffs)


def _division_case(field, len_a, db, nnz):
    """A dividend of len_a nonzero coefficients and a divisor of degree db
    with nnz nonzero coefficients below its top.  Over Q the divisor is
    6/35 times an int vector with odd low terms and top 4: its den is 35,
    its int vector has content 6, and (for db > 0) its primitive part has
    the non-unit leading coefficient 4."""
    rng = random.Random(f"{field!r}/{len_a}/{db}/{nnz}")
    p = field.characteristic
    if p:
        def coeff():
            return rng.randrange(1, p)
    else:
        def coeff():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
    low = [0] * db
    for i in rng.sample(range(db), nnz):
        low[i] = coeff() if p else rng.choice((-1, 1)) * rng.randrange(1, 10, 2)
    if p:
        b = Polynomial(field, low + [coeff()])
    else:
        b = Polynomial(QQ, [Fraction(6 * c, 35) for c in low + [4]])
        assert b.den == 35 and gcd(*b.ints) == (6 if db else 24)
    return Polynomial(field, [coeff() for _ in range(len_a)]), b


# Quotient lengths 0, 1 and 1200, each by divisors of degree 10 on either
# side of the dense update (2 nnz >= db): 5 and 4 nonzero low terms.
DIVISION_SHAPES = [
    (len_a, 10, nnz) for len_a in (10, 11, 1210) for nnz in (5, 4)
] + [(1210, 1, 1), (7, 0, 0)]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(13), GF(2**61 - 1), QQ], ids=repr)
@pytest.mark.parametrize("len_a, db, nnz", DIVISION_SHAPES)
def test_divmod_cases_match_fraction_reference(field, len_a, db, nnz):
    a, b = _division_case(field, len_a, db, nnz)
    assert b.degree == db and len(b.ints[:db]) - b.ints[:db].count(0) == nnz
    q, r = divmod(a, b)
    _assert_canonical(q)
    _assert_canonical(r)
    assert len(q.ints) == max(len_a - db, 0)
    assert (q.coeffs, r.coeffs) == _ref_divmod(a.coeffs, b.coeffs, field)


@given(c=poly_q, b=divisor)
def test_exact_division_leaves_zero_remainder(c, b):
    q, r = divmod(b * c, b)
    assert q == c and r.is_zero and r.den == 1


@given(num=poly_q, den=divisor)
def test_cf_of_fraction_matches_fraction_reference(num, den):
    quotients = cf_of_fraction(num, den).quotients
    for q in quotients:
        _assert_canonical(q)
    assert [q.coeffs for q in quotients] == _ref_quotients(num.coeffs, den.coeffs)


@given(a=poly_q, b=poly_q, prime=st.sampled_from(PRIMES))
def test_q_results_reduce_to_gfp_results(a, b, prime):
    # Every denominator involved is a unit mod p.
    assume(a.den % prime and b.den % prime)
    am, bm = _mod_p(a, prime), _mod_p(b, prime)
    assert _mod_p(a + b, prime) == am + bm
    assert _mod_p(a - b, prime) == am - bm
    assert _mod_p(a * b, prime) == am * bm
    if not b.is_zero and b.ints[-1] % prime:
        q, r = divmod(a, b)
        assert (_mod_p(q, prime), _mod_p(r, prime)) == divmod(am, bm)


# --- the coprimality shortcut of poly_gcd against the plain Q Euclid ---

small_poly = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(
    lambda cs: Polynomial(QQ, cs)
)


@given(g=small_poly, x=poly_q, y=poly_q)
def test_gcd_with_planted_factor_matches_euclid(g, x, y):
    a, b = g * x, g * y
    assume(not (a.is_zero and b.is_zero))
    got = poly_gcd(a, b)
    assert got == euclid_gcd(a, b)
    if not g.is_zero:
        assert (got % g).is_zero


@given(a=poly_q, b=poly_q)
def test_gcd_of_random_pairs_matches_euclid(a, b):
    assume(not (a.is_zero and b.is_zero))
    assert poly_gcd(a, b) == euclid_gcd(a, b)


def test_gcd_falls_back_when_prime_divides_a_leading_coefficient():
    # The common factor P T + 1 is 1 mod P, so the reductions are coprime;
    # only the leading-coefficient test sends this pair to the Q Euclid.
    common = Polynomial(QQ, [1, GCD_PRIME])
    a, b = common * parse_poly("T+2"), common * parse_poly("T+3")
    assert euclid_gcd(_mod_p(a, GCD_PRIME), _mod_p(b, GCD_PRIME)).degree == 0
    assert poly_gcd(a, b) == common.monic() == euclid_gcd(a, b)
    assert poly_gcd(common, parse_poly("T+3")) == Polynomial.one(QQ)


def test_gcd_falls_back_on_an_unlucky_reduction():
    # T and T + P are coprime over Q but equal mod P.
    a, b = parse_poly("T"), Polynomial(QQ, [GCD_PRIME, 1])
    assert _mod_p(a, GCD_PRIME) == _mod_p(b, GCD_PRIME)
    assert poly_gcd(a, b) == Polynomial.one(QQ)
