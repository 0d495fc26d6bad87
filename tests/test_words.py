import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordcf import words
from wordcf.fields import GF, QQ
from wordcf.poly import Polynomial
from wordcf.ratfunc import parse_poly
from wordcf.words import (
    aux_words,
    block,
    check_identities,
    first_letters_differ,
    last_letters_differ,
    length_closed_form_ok,
    lengths,
    prefix,
    residual_suffixes,
    theta_series,
    word_poly,
)

from oracles import first_difference_rank, tail_periodic_symbols

symbols = st.text(alphabet="12", min_size=0, max_size=40)
nonempty_symbols = st.text(alphabet="12", min_size=1, max_size=40)


def test_block_budget_is_checked_before_building(monkeypatch):
    # lengths: 0, 1, 4, 11, 28, 69, ...
    monkeypatch.setattr(words, "_blocks", ["", "1"])
    monkeypatch.setattr(words, "MAX_BLOCK_LETTERS", 28)
    for n in (5, 6, 10**9):
        with pytest.raises(ValueError, match="budget of 28 letters"):
            block(n)
    assert words._blocks == ["", "1"]
    assert len(block(4)) == 28
    with pytest.raises(ValueError, match="budget"):
        prefix(29)
    # Refused before the lengths are summed up to a 4000-digit count.
    with pytest.raises(ValueError, match="prefix is longer than the budget of 28 letters"):
        prefix(10**4000 - 1)


def test_blocks_by_hand():
    assert block(1) == "1"
    assert block(2) == "1221"
    assert block(3) == "12212121221"
    assert len(block(3)) == 11


def test_prefix_examples():
    assert prefix(4) == "1221"
    assert prefix(0) == ""
    assert prefix(11) == "12212121221"


@pytest.mark.parametrize("n", range(1, 13))
def test_prefix_chain(n):
    assert block(n + 1).startswith(block(n))


def test_length_recurrence_values():
    table = lengths(5)
    assert table == (0, 1, 4, 11, 28, 69)
    assert len(block(5)) == 69


@pytest.mark.parametrize("n", range(1, 31))
def test_length_parity_is_odd(n):
    table = lengths(n)
    assert (table[n] + table[n - 1]) % 2 == 1


@pytest.mark.parametrize("n", range(31))
def test_length_closed_form_matches_recurrence(n):
    assert length_closed_form_ok(n)


def test_block_lengths_match_table():
    table = lengths(12)
    for n in range(13):
        assert len(block(n)) == table[n]


class TestAuxWords:
    def test_first_index_values(self):
        aux = aux_words(1)
        assert aux.u == "12"
        assert aux.v == "21"
        assert aux.up == "1221212"
        assert len(aux.up) == 3 * 1 + 0 + 4

    def test_second_index_residual(self):
        assert aux_words(2).i == "1221"

    def test_decomposition_invariants(self):
        for n in range(1, 9):
            aux = aux_words(n)
            table = lengths(n)
            assert aux.u == aux.g + aux.f
            assert aux.v == aux.h + aux.f
            assert last_letters_differ(aux.g, aux.h)
            assert len(aux.g) == (table[n] + table[n - 1] + 3) // 2
            assert len(aux.f) == len(aux.j) == (table[n] + table[n - 1] - 1) // 2

    def test_broken_invariant_raises(self, monkeypatch):
        # aux_words(1) reads u(1) = "12" from _u_symbols; a wrong u breaks
        # u = g f, which must raise even under python -O.
        real = words._u_symbols
        monkeypatch.setattr(words, "_u_symbols", lambda n: "21" if n == 1 else real(n))
        with pytest.raises(ValueError, match="u = g f"):
            aux_words(1)


def test_letter_relations():
    assert last_letters_differ("12", "21")
    assert first_letters_differ("1221", "21")
    assert not last_letters_differ("1", "1")
    assert not first_letters_differ("1", "1")
    with pytest.raises(ValueError):
        last_letters_differ("", "1")


class TestWordEncoding:
    def test_single_letter(self):
        assert word_poly("1") == parse_poly("1")

    def test_block_two(self):
        assert word_poly("1221") == parse_poly("T^3+2*T^2+2*T+1")

    def test_homomorphism_example(self):
        a, b = "1", "2"
        lhs = word_poly(a + b)
        rhs = word_poly(a).shift(len(b)) + word_poly(b)
        assert lhs == rhs == parse_poly("T+2")

    def test_empty_word_encodes_to_zero(self):
        assert word_poly("").is_zero

    @given(a=symbols, b=symbols)
    def test_homomorphism(self, a, b):
        assert word_poly(a + b) == word_poly(a).shift(len(b)) + word_poly(b)

    def test_general_alphabet(self):
        assert word_poly("1221", alphabet=(1, -1)) == parse_poly("T^3-T^2-T+1")

    def test_alphabet_must_be_distinct(self):
        with pytest.raises(ValueError, match="alphabet letters must be distinct"):
            word_poly("12", alphabet=(1, 1))

    def test_symbols_must_be_one_or_two(self):
        with pytest.raises(ValueError, match="word symbols must be '1' or '2'"):
            word_poly("13")

    def test_gf_coefficients(self):
        assert word_poly("1221", GF(3)).coeffs == (1, 2, 2, 1)


class TestFirstDifferenceRank:
    def test_against_tail_periodic_approximant(self):
        # the word versus u v v v ... at n = 1 first differs at rank 10
        w = prefix(40)
        assert first_difference_rank(w, tail_periodic_symbols("12", "21", 40)) == 10

    def test_against_pure_periodic_approximant(self):
        w = prefix(40)
        assert first_difference_rank(w, tail_periodic_symbols("", "1221212", 40)) == 15

    def test_rank_one(self):
        assert first_difference_rank("21", "12") == 1

    def test_agreeing_streams_raise(self):
        with pytest.raises(ValueError, match="streams agree to horizon"):
            first_difference_rank("1212", "1212")
        with pytest.raises(ValueError, match="streams agree to horizon"):
            first_difference_rank(iter("121212"), iter("121211"), horizon=3)

    @given(a=nonempty_symbols, b=nonempty_symbols)
    def test_rank_equals_valuation_of_encoding_difference(self, a, b):
        # pad to the same length so the encodings share a denominator
        n = max(len(a), len(b))
        a, b = a.ljust(n, "1"), b.ljust(n, "1")
        pa, pb = word_poly(a), word_poly(b)
        if pa == pb:
            return
        rank = first_difference_rank(a, b)
        assert rank == n - (pa - pb).degree


def test_identity_report_boundary_and_generic():
    at_one = check_identities(1)
    assert {c.status for c in at_one} == {"pass", "skip"}
    skipped = [c for c in at_one if c.status == "skip"]
    assert [c.name for c in skipped] == ["u == u_prev v_prev^2"]
    for n in (2, 5, 10):
        assert all(c.status == "pass" for c in check_identities(n))


def test_residual_suffixes_at_one():
    a, b = residual_suffixes(1)
    assert a == "21212212121221"
    assert b == "1221212"
    assert first_letters_differ(a, b)


def test_theta_series_letters():
    s = theta_series(9)
    assert s.top == -1
    assert s.known_down == -9
    assert s.coeffs == tuple(map(int, prefix(9)))
    s3 = theta_series(9, GF(3))
    assert s3.coeffs == tuple(v % 3 for v in map(int, prefix(9)))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(257)])
@pytest.mark.parametrize("prec", [1, 2, 9, 100])
def test_theta_series_matches_coerced_letters(field, prec):
    # Reference: the constructor path, which coerces every letter (over
    # GF(2) the letter 2 is zero).
    from wordcf.series import LaurentSeries

    assert theta_series(prec, field) == LaurentSeries(field, -1, map(int, prefix(prec)), -prec)


@pytest.mark.parametrize(
    "alphabet, field",
    [((1, 2), None), ((1, -1), None), ((3, 1), GF(3)), ((2, 5), GF(5)), ((4, 6), GF(7))],
)
def test_word_poly_matches_coerced_letters(alphabet, field):
    # Reference: the constructor path, which coerces every letter.
    field = field or QQ
    for symbols in ("", "1", "2", "1221", "2112", "122122112", "2" * 9):
        letters = [alphabet[int(ch) - 1] for ch in reversed(symbols)]
        assert word_poly(symbols, field, alphabet) == Polynomial(field, letters)
