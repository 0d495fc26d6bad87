from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordcf.fields import GF, MR_BOUND, QQ, check_same_field, is_prime
from wordcf.poly import Polynomial, format_poly
from wordcf.ratfunc import parse_poly

residue3 = st.integers(min_value=0, max_value=2)
residue7 = st.integers(min_value=0, max_value=6)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(2).p == 2
    assert GF(97).p == 97


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_is_prime_is_exact_below_its_bound():
    # The least strong pseudoprime to the bases 2..37 is composite; only the
    # next base, 41, exposes it.  Above MR_BOUND no modulus is accepted.
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(2**61 - 1) and GF(2**61 - 1).p == 2**61 - 1
    for p in (MR_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match=f"modulus must be below {MR_BOUND}"):
            GF(p)


def test_gf_identity_cached():
    assert GF(3) is GF(3)
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)


@given(a=residue7, b=residue7)
def test_gf7_ring_ops_match_int_arithmetic(a, b):
    f = GF(7)
    assert f.reduce(a + b) == (a + b) % 7
    assert f.reduce(a * b) == (a * b) % 7
    assert f.reduce(-a) == (-a) % 7


@given(a=residue3, b=st.integers(min_value=1, max_value=2))
def test_gf3_division_inverts(a, b):
    f = GF(3)
    q = f.div(a, b)
    assert f.reduce(q * b) == a


def test_gf_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        GF(5).div(1, 0)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        QQ.div(1, 0)


def test_qq_division_is_exact():
    assert QQ.div(1, 3) == Fraction(1, 3)
    # integer-valued results come back as plain ints
    assert QQ.div(4, 2) == 2
    assert isinstance(QQ.div(4, 2), int)


def test_qq_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        QQ.coerce(True)
    with pytest.raises(TypeError):
        GF(3).coerce(Fraction(1, 2))


def test_mixed_fields_are_an_error():
    with pytest.raises(ValueError, match="mixed fields"):
        check_same_field(QQ, GF(3))
    with pytest.raises(ValueError, match="mixed fields"):
        check_same_field(GF(3), GF(5))


def test_scalar_format_round_trip():
    assert QQ.format_scalar(Fraction(-125, 48)) == "-125/48"
    assert GF(7).format_scalar(5) == "5"
    # The text format is read back by the polynomial parser.
    p = Polynomial(QQ, [Fraction(-125, 48)])
    assert parse_poly(format_poly(p)) == p
