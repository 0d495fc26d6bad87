import time
from fractions import Fraction

import pytest

from test_cf import approx_order
from wordcf import cf, cli, quartic, series, verify
from wordcf.fields import GF, QQ
from wordcf.poly import Polynomial, format_poly, poly_gcd
from wordcf.ratfunc import parse_poly
from wordcf.series import LaurentSeries, PrecisionError
from wordcf.cf import cf_of_fraction, cf_of_series, convergents, measure_terms
from wordcf.words import lengths, prefix, theta_series

import oracles


def _at_x(p):
    """An integer polynomial's value at T = 2^8."""
    assert p.den == 1
    return sum(c << (8 * k) for k, c in enumerate(p.ints))


def cross_product_delta(n: int) -> Polynomial:
    """r_n s'_n - r'_n s_n on the Polynomial pairs."""
    a = verify.tail_periodic_pair(n)
    b = verify.pure_periodic_pair(n)
    return a.r * b.s - b.r * a.s


def is_convergent(expansion, k: int, r: Polynomial, s: Polynomial) -> bool:
    """Whether (r, s) is a scalar multiple of the k-th convergent pair
    (x_k, y_k) of the ContinuedFraction ``expansion``, found by one Euclid
    run instead of the table: the reference for theorem3's identification.

    A finite expansion whose later quotients have degree >= 1 is unique, so
    equal quotients give r/s = x_k/y_k; since x_k, y_k are coprime and
    deg y_k = d_1 + ... + d_k, the degree test rules out a common factor.
    """
    return (
        cf_of_fraction(r, s).quotients == expansion.quotients[: k + 1]
        and s.degree == sum(expansion.degrees()[:k])
    )


def quartic_fixed_point_step(x: LaurentSeries) -> LaurentSeries:
    """x <- (x^4 + x^2 + 1)/T; each step extends exactness by two digits.
    The slow reference for the Newton lift in ``quartic_root``."""
    field = x.field
    x2 = x * x
    x4 = x2 * x2
    one = LaurentSeries.from_poly(Polynomial.one(field), min(x.known_down - 2, -1))
    return ((x4 + x2 + one)).shift(-1)


def _exponent_oracle(check, pair, t_expected, omega_expected):
    """The lemma 1/2 report measured by series subtraction on a Polynomial
    pair: the reference for the packed order measurement."""
    t_measured = approx_order(theta_series(t_expected + 4), pair.r, pair.s)
    omega_measured = Fraction(t_measured, pair.s.degree)
    expected = f"t={t_expected};omega={omega_expected}"
    actual = f"t={t_measured};omega={omega_measured}"
    return verify.CheckReport(check, pair.n, expected, actual)


def _lemma1_oracle(n):
    ell = lengths(n)
    t = (9 * ell[n] + 3 * ell[n - 1] + 11) // 2
    omega = 3 - Fraction(4, 3 * ell[n] + ell[n - 1] + 5)
    return _exponent_oracle("lemma1", verify.tail_periodic_pair(n), t, omega)


def _lemma2_oracle(n):
    ell = lengths(n)
    t = 2 * (3 * ell[n] + ell[n - 1] + 4) + (ell[n] + ell[n - 1] - 1) // 2 + 1
    omega = 2 + Fraction(ell[n] + ell[n - 1] + 1, 6 * ell[n] + 2 * ell[n - 1] + 8)
    return _exponent_oracle("lemma2", verify.pure_periodic_pair(n), t, omega)


def _theorem3_oracle(max_n):
    """check_theorem3 on one Euclid of the tail pair max_n + 1, with each
    identification by two more Euclids (``is_convergent``)."""
    cf = verify.theta_expansion(max_n + 1)
    d = cf.degrees()
    ell = lengths(max_n + 1)
    m = min(max_n, 2)
    expansion = cf_of_series(theta_series(3 * ell[m + 1] + ell[m] + 5))
    k = expansion.emitted
    prefix_ok = expansion.cf.quotients[: k + 1] == cf.quotients[: k + 1]
    reports = [
        verify.CheckReport(
            "theorem3",
            0,
            f"d1..d4=1,1,1,1;series_prefix=consistent({k})",
            f"d1..d4={','.join(str(x) for x in d[:4])};"
            f"series_prefix={'consistent' if prefix_ok else 'DIVERGES'}({k})",
        )
    ]
    for n in range(1, max_n + 1):
        d_expected = ((3 * ell[n] + ell[n - 1] + 1) // 2, 1, (ell[n] + ell[n - 1] + 1) // 2, 1)
        pair, pairp = verify.tail_periodic_pair(n), verify.pure_periodic_pair(n)
        conv_ok = is_convergent(cf, 4 * n, pair.r, pair.s)
        convp_ok = is_convergent(cf, 4 * n + 2, pairp.r, pairp.s)
        actual = (
            f"d={tuple(d[4 * n : 4 * n + 4])};"
            f"conv4n={'match' if conv_ok else 'MISMATCH'};"
            f"conv4n+2={'match' if convp_ok else 'MISMATCH'}"
        )
        reports.append(
            verify.CheckReport("theorem3", n, f"d={d_expected};conv4n=match;conv4n+2=match", actual)
        )
    return reports


def _corollary_oracle(max_n):
    """check_corollary on the degrees of one Euclid of the tail pair max_n + 1."""
    d = verify.theta_expansion(max_n + 1).degrees()
    terms = measure_terms(d)
    reports = []
    prev = None
    for n in range(1, max_n + 1):
        deg_sum, d_next, term = sum(d[: 4 * n]), d[4 * n], terms[4 * n - 1]
        actual = (
            f"degsum={'2+d' if deg_sum == 2 + d_next else f'{deg_sum}!=2+{d_next}'};"
            f"nu={term.estimate};"
            f"increasing={'yes' if prev is None or term.estimate > prev else 'NO'}"
        )
        expected = f"degsum=2+d;nu={2 + Fraction(d_next, 2 + d_next)};increasing=yes"
        reports.append(verify.CheckReport("corollary", n, expected, actual))
        prev = term.estimate
    return reports


def _lemma3_oracle(n):
    """The lemma 3 check on Polynomial pairs: the reference for the packed
    check.  The pairs are looked up when called, so a test can rebind them."""
    field = QQ
    ell = lengths(n + 2)
    pair1, pair1p = verify.tail_periodic_pair(n), verify.pure_periodic_pair(n)
    pair2, pair2p = verify.tail_periodic_pair(n + 1), verify.pure_periodic_pair(n + 1)
    t_minus_1 = Polynomial(field, [-1, 1])
    delta_expected = t_minus_1 if n % 2 == 0 else -t_minus_1
    delta = cross_product_delta(n)
    len_f_next = (ell[n + 1] + ell[n] - 1) // 2
    len_v_next = ell[n + 1] + 1
    len_g = (ell[n] + ell[n - 1] + 3) // 2
    p_n = Polynomial.monomial(field, 1, len_f_next + 1 + len_v_next) + Polynomial.monomial(
        field, 1, len_f_next + 1
    )
    q_n = Polynomial.monomial(field, 1, len_g)
    rec = [
        pair2p.s == p_n * pair2.s + pair1p.s,
        pair2.s == q_n * pair1p.s - pair1.s,
        pair2p.r == p_n * pair2.r + pair1p.r,
        pair2.r == q_n * pair1p.r - pair1.r,
    ]
    delta_ok = delta == delta_expected
    gcd_rs = "1" if delta_ok and pair1.r.evaluate(1) != 0 else "?"
    gcd_rsp = "1" if delta_ok and pair1p.r.evaluate(1) != 0 else "?"
    expected = f"delta={format_poly(delta_expected)};rec=ok,ok,ok,ok;gcd=1,1"
    actual = (
        f"delta={format_poly(delta)};"
        f"rec={','.join('ok' if r else 'FAIL' for r in rec)};"
        f"gcd={gcd_rs},{gcd_rsp}"
    )
    return verify.CheckReport("lemma3", n, expected, actual)


class TestApproximantPairs:
    def test_tail_periodic_at_one_matches_displayed_values(self):
        pair = verify.tail_periodic_pair(1)
        assert pair.r == parse_poly("T^3+2*T^2+T-1")
        assert pair.s == parse_poly("T^2*(T^2-1)")
        assert pair.kind == "tail-periodic"

    def test_pure_periodic_at_one_matches_displayed_values(self):
        pair = verify.pure_periodic_pair(1)
        assert pair.r == parse_poly("T^6+2*T^5+2*T^4+T^3+2*T^2+T+2")
        assert pair.s == parse_poly("T^7-1")

    def test_numerator_degree_is_word_length_minus_one(self):
        pair = verify.pure_periodic_pair(1)
        assert pair.r.degree == 7 - 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_literal_gcd_cross_check(self, n):
        # The suite argues coprimality through the cross-product identity;
        # the Euclidean gcd must agree where it is affordable.
        pair = verify.tail_periodic_pair(n)
        assert poly_gcd(pair.r, pair.s) == Polynomial.one(QQ)
        pairp = verify.pure_periodic_pair(n)
        assert poly_gcd(pairp.r, pairp.s) == Polynomial.one(QQ)

    def test_denominator_degree_formulas(self):
        table = lengths(8)
        for n in range(1, 8):
            assert verify.tail_periodic_pair(n).s.degree == (3 * table[n] + table[n - 1] + 5) // 2
            assert verify.pure_periodic_pair(n).s.degree == 3 * table[n] + table[n - 1] + 4


class TestLemma1:
    def test_first_exponent(self):
        rep = verify.check_lemma1(1)
        assert rep.passed
        assert rep.actual == "t=10;omega=5/2"

    def test_second_exponent(self):
        rep = verify.check_lemma1(2)
        assert rep.passed
        assert "t=25" in rep.actual

    def test_n5_is_fast(self):
        start = time.perf_counter()
        assert verify.check_lemma1(5).passed
        assert time.perf_counter() - start < 1.0


class TestLemma2:
    def test_first_exponent(self):
        rep = verify.check_lemma2(1)
        assert rep.passed
        assert rep.actual == "t=15;omega=15/7"

    def test_second_exponent(self):
        rep = verify.check_lemma2(2)
        assert rep.passed
        assert "t=37" in rep.actual
        assert verify.pure_periodic_pair(2).s.degree == 17

    def test_n6(self):
        assert verify.check_lemma2(6).passed


def _times_t_plus_1(pair):
    """A packed pair with num and den both multiplied by T + 1."""
    den = tuple(term for sign, e in pair.den for term in ((sign, e + 1), (sign, e)))
    return pair._replace(r=(pair.r << 8) + pair.r, den=den)


_PACKED_BUILDERS = (verify.packed_tail_pair, verify.packed_pure_pair)


def _clear_packed_caches():
    for builder in _PACKED_BUILDERS:
        builder.cache_clear()


def _packed_misses():
    """(tail, pure): the pairs packed since the caches were last cleared."""
    return tuple(builder.cache_info().misses for builder in _PACKED_BUILDERS)


def _outcome(check, n):
    try:
        return check(n)
    except PrecisionError as exc:
        return str(exc)


class TestPackedOrders:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_reports_match_series_oracle(self, n):
        assert verify.check_lemma1(n) == _lemma1_oracle(n)
        assert verify.check_lemma2(n) == _lemma2_oracle(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("fault", ["plus_one", "times_t_plus_1"])
    def test_corrupted_pairs_match_series_oracle(self, monkeypatch, n, fault):
        # The same fault in both forms gives the same report, or the same
        # error, from the packed measurement as from series subtraction.
        t_plus_1 = Polynomial(QQ, [1, 1])
        if fault == "plus_one":
            poly_fault = lambda pair: pair._replace(r=pair.r + Polynomial.one(QQ))
            packed_fault = lambda pair: pair._replace(r=pair.r + 1)
        else:
            poly_fault = lambda pair: pair._replace(r=pair.r * t_plus_1, s=pair.s * t_plus_1)
            packed_fault = _times_t_plus_1
        for name in ("tail_periodic_pair", "pure_periodic_pair", "packed_tail_pair", "packed_pure_pair"):
            real = getattr(verify, name)
            fault_of = packed_fault if name.startswith("packed") else poly_fault
            monkeypatch.setattr(
                verify, name, lambda k, *a, real=real, f=fault_of: f(real(k, *a)) if k == n else real(k, *a)
            )
        for check, oracle in ((verify.check_lemma1, _lemma1_oracle), (verify.check_lemma2, _lemma2_oracle)):
            outcome = _outcome(check, n)
            assert outcome == _outcome(oracle, n)
            assert isinstance(outcome, str) or not outcome.passed

    def test_order_beyond_precision_raises(self):
        # t_1 = 10: the first 8 letters show orders up to 8, 10 letters 10.
        pair = verify.packed_tail_pair(1)
        with pytest.raises(PrecisionError, match="order exceeds precision"):
            verify._measured_order(pair, 8)
        assert verify._measured_order(pair, 10) == verify._measured_order(pair, 12) == 10


class TestLemma3:
    def test_delta_at_one(self):
        assert cross_product_delta(1) == parse_poly("-T+1")

    def test_delta_alternates(self):
        d1 = cross_product_delta(1)
        d2 = cross_product_delta(2)
        assert d2 == -d1 == parse_poly("T-1")

    def test_recurrences_link_consecutive_pairs(self):
        rep = verify.check_lemma3(1)
        assert rep.passed
        assert "rec=ok,ok,ok,ok" in rep.actual

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_indices(self, n):
        assert verify.check_lemma3(n).passed

    @pytest.mark.parametrize("n", range(1, 10))
    def test_packed_check_matches_polynomial_oracle(self, n):
        assert verify.check_lemma3(n) == _lemma3_oracle(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_packed_pairs_are_the_pairs_at_two_to_the_eight(self, n):
        for packed, pair in (
            (verify.packed_tail_pair(n), verify.tail_periodic_pair(n)),
            (verify.packed_pure_pair(n), verify.pure_periodic_pair(n)),
        ):
            assert packed.r == _at_x(pair.r)
            assert verify._times(1, packed.den) == _at_x(pair.s)

    def test_corrupted_numerator_fails_identically_in_both_forms(self, monkeypatch):
        real_pair, real_packed = verify.tail_periodic_pair, verify.packed_tail_pair

        def corrupted_pair(n, alphabet=(1, 2)):
            pair = real_pair(n, alphabet)
            return pair._replace(r=pair.r + Polynomial.one(QQ)) if n == 1 else pair

        def corrupted_packed(n):
            pair = real_packed(n)
            return pair._replace(r=pair.r + 1) if n == 1 else pair

        monkeypatch.setattr(verify, "tail_periodic_pair", corrupted_pair)
        monkeypatch.setattr(verify, "packed_tail_pair", corrupted_packed)
        report = verify.check_lemma3(1)
        assert report == _lemma3_oracle(1)
        assert not report.passed
        # delta = (r + 1) s' - r' s = -(T - 1) + s' = T^7 - T, read back
        # from the value's digits, not taken from the expected string.
        assert report.actual.startswith("delta=1*T^7 + -1*T^1;rec=ok,ok,ok,FAIL;")

    @pytest.mark.parametrize("word", ["1231", "12 2", "0", "1\u00e92"])
    def test_packing_rejects_other_letters(self, word):
        with pytest.raises(ValueError, match="word symbols"):
            verify._packed_word(word)

    def test_each_pair_is_packed_once(self):
        # The ladders at n and n + 1 share two pairs: n = 1..13, once each.
        _clear_packed_caches()
        assert all(verify.check_lemma3(n).passed for n in range(1, 13))
        assert _packed_misses() == (13, 13)

    def test_suite_builds_no_polynomial_pair(self):
        for selection in ("lemma1", "lemma2", "lemma3"):
            for cache in (verify.tail_periodic_pair, verify.pure_periodic_pair):
                cache.cache_clear()
            reports, _ = verify.run_suite(selection, 12)
            assert all(rep.passed for rep in reports) and len(reports) == 12
            assert verify.tail_periodic_pair.cache_info().currsize == 0
            assert verify.pure_periodic_pair.cache_info().currsize == 0


class TestTheorem3:
    def test_degree_values(self):
        cf = verify.theta_expansion(3)
        d = cf.degrees()
        assert d[:4] == [1, 1, 1, 1]
        assert d[4] == 2  # first block jump
        assert d[8] == 7 and d[10] == 3  # n = 2 block
        assert verify.check_theorem3(2)[0].passed

    def test_reports_pass(self):
        reports = verify.check_theorem3(3)
        assert [r.n for r in reports] == [0, 1, 2, 3]
        assert all(r.passed for r in reports)

    def test_denominator_degrees_interleave(self):
        table = lengths(7)
        for n in range(1, 7):
            d_n = (3 * table[n] + table[n - 1] + 5) // 2
            dp_n = 3 * table[n] + table[n - 1] + 4
            d_next = (3 * table[n + 1] + table[n] + 5) // 2
            assert d_n < dp_n < d_next

    def test_block_jump_dominates_previous_degrees(self):
        cf = verify.theta_expansion(7)
        d = cf.degrees()
        for n in range(1, 7):
            assert d[4 * n] > max(d[4 * n - 4 : 4 * n])

    def test_reports_pass_at_depth_8(self):
        reports = verify.check_theorem3(8)
        assert [r.n for r in reports] == list(range(9))
        assert all(r.passed for r in reports)

    def test_identification_accepts_only_scalar_multiples_of_the_pair(self):
        cf = verify.theta_expansion(5)
        t_plus_1 = Polynomial(QQ, [1, 1])
        c = Fraction(-3, 7)
        for n in range(1, 5):
            pair, pairp = verify.tail_periodic_pair(n), verify.pure_periodic_pair(n)
            for k, right, wrong in ((4 * n, pair, pairp), (4 * n + 2, pairp, pair)):
                assert is_convergent(cf, k, right.r.scale(c), right.s.scale(c))
                assert not is_convergent(cf, k, wrong.r, wrong.s)
                assert not is_convergent(cf, k, right.r * t_plus_1, right.s * t_plus_1)
                # Right degrees, wrong fraction.
                assert not is_convergent(cf, k, right.r + right.s, right.s.scale(2))

    def test_non_reduced_pair_reports_mismatch(self, monkeypatch):
        # (r, s) (T + 1) at n = 1 has the same order t_1 = 10, but
        # 10 > 2 deg s fails, and delta = +-(T - 1)(T + 1): the pair is
        # not shown to be a convergent, nor is any pair placed after it.
        real = verify.packed_tail_pair

        def non_reduced_at_one(n):
            pair = real(n)
            return _times_t_plus_1(pair) if n == 1 else pair

        monkeypatch.setattr(verify, "packed_tail_pair", non_reduced_at_one)
        reports = verify.check_theorem3(3)
        assert reports[1].actual.endswith(";conv4n=MISMATCH;conv4n+2=MISMATCH")
        assert reports[0].passed
        oracle = _theorem3_oracle(3)
        for rep in reports[2:]:
            # The degrees of later blocks are still the expansion's.
            assert rep.actual.split(";")[0] == oracle[rep.n].actual.split(";")[0]
            assert rep.actual.endswith(";conv4n=MISMATCH;conv4n+2=MISMATCH")
        assert not any(rep.passed for rep in reports[1:])

    def test_fault_at_two_leaves_row_one_matching(self, monkeypatch):
        # The rows are an induction: a non-reduced pair at n = 2 breaks
        # the recurrences from n = 1 and every row from n = 2 on, while
        # both pairs at n = 1 still read as convergents.
        real = verify.packed_tail_pair
        monkeypatch.setattr(
            verify, "packed_tail_pair", lambda n: _times_t_plus_1(real(n)) if n == 2 else real(n)
        )
        reports = verify.check_theorem3(3)
        assert reports[1].actual == "d=(2, 1, 1, 2);conv4n=match;conv4n+2=match"
        for rep in reports[2:]:
            assert rep.actual.endswith(";conv4n=MISMATCH;conv4n+2=MISMATCH")

    @pytest.mark.parametrize(
        "fault, verdicts",
        [
            # (premise broken, conv4n/conv4n+2 of rows 1..3: m = match, X = MISMATCH)
            ("base", "XX XX XX"),
            ("delta@2", "mm XX XX"),
            ("rec@1", "mm XX XX"),
            ("rec@2", "mm mm XX"),
            ("d_9", "mm XX XX"),
            ("d_10", "mm mX XX"),
            ("d_11", "mm mX XX"),
            ("d_12", "mm mm XX"),
        ],
    )
    def test_each_premise_breaks_the_chain_from_its_row(self, monkeypatch, fault, verdicts):
        # One premise fails, the others hold: the rows before it match, and
        # no row that rests on it does.
        real_ladder, real_degrees = verify._ladder, verify.theta_degrees
        kind, _, where = fault.partition("@")

        def ladder(n):
            delta, sign, delta_ok, rec = real_ladder(n)
            if str(n) == where:
                delta_ok = delta_ok and kind != "delta"
                rec = [r and kind != "rec" for r in rec[:1]] + list(rec[1:])
            return delta, sign, delta_ok, rec

        def degrees(max_n):
            d = real_degrees(max_n)
            if kind == "base":
                d[0] += 1
            elif kind.startswith("d_"):
                d[int(kind[2:]) - 1] = 0
            return d

        monkeypatch.setattr(verify, "_ladder", ladder)
        monkeypatch.setattr(verify, "theta_degrees", degrees)
        seen = " ".join(
            "".join("m" if part.endswith("=match") else "X" for part in rep.actual.split(";")[1:])
            for rep in verify.check_theorem3(3)[1:]
        )
        assert seen == verdicts

    def test_corrupted_packed_numerator_fails_lemma1_and_theorem3(self, monkeypatch):
        # theorem3 re-measures the pairs it rests on: one fault in the n = 1
        # packed numerator fails lemma 1 and the identification at n = 1.
        real = verify.packed_tail_pair

        def corrupted(n):
            pair = real(n)
            return pair._replace(r=pair.r + 1) if n == 1 else pair

        monkeypatch.setattr(verify, "packed_tail_pair", corrupted)
        lemma1 = verify.check_lemma1(1)
        assert not lemma1.passed and lemma1.actual == "t=4;omega=1"
        reports = verify.check_theorem3(2)
        assert "conv4n=MISMATCH" in reports[1].actual
        assert not reports[1].passed

    @pytest.mark.parametrize("max_n", range(1, 11))
    def test_reports_match_euclid_oracle(self, max_n):
        assert verify.check_theorem3(max_n) == _theorem3_oracle(max_n)

    def test_each_pair_is_packed_once(self):
        # theta_degrees and every rung of the ladder read the process-wide
        # caches: n = 1..max_n + 1, one build each.
        _clear_packed_caches()
        assert all(rep.passed for rep in verify.check_theorem3(5))
        assert _packed_misses() == (6, 6)

    def test_derived_degrees_match_euclid(self):
        for max_n in range(1, 12):
            assert verify.theta_degrees(max_n) == verify.theta_expansion(max_n + 1).degrees()

    def test_identification_agrees_with_convergent_table(self):
        # Reference: the table check the identification replaced.  Both pairs
        # are coprime, so x/y == r/s iff (x, y) == c (r, s).
        def same_fraction(x, y, r, s):
            if y.degree != s.degree or x.degree != r.degree:
                return False
            c = y.field.div(y.lead, s.lead)
            return y == s.scale(c) and x == r.scale(c)

        cf = verify.theta_expansion(6)
        table = convergents(cf)
        t_plus_1 = Polynomial(QQ, [1, 1])
        for n in range(1, 6):
            pair, pairp = verify.tail_periodic_pair(n), verify.pure_periodic_pair(n)
            candidates = [
                (pair.r, pair.s),
                (pairp.r, pairp.s),
                (pair.r.scale(Fraction(5, 2)), pair.s.scale(Fraction(5, 2))),
                (pair.r + pair.s, pair.s.scale(2)),
                (pairp.r * t_plus_1, pairp.s * t_plus_1),
                (pair.r * t_plus_1, pair.s * t_plus_1),
                table.rows[4 * n - 1],
                table.rows[4 * n + 1],
            ]
            for k in (4 * n, 4 * n + 2):
                verdicts = [is_convergent(cf, k, r, s) for r, s in candidates]
                assert verdicts == [same_fraction(*table.rows[k], r, s) for r, s in candidates]
                assert any(verdicts) and not all(verdicts)


class TestCorollary:
    @pytest.mark.parametrize("max_n", range(1, 11))
    def test_reports_match_euclid_oracle(self, max_n):
        assert verify.check_corollary(max_n) == _corollary_oracle(max_n)

    def test_degree_sum_identity_at_one(self):
        cf = verify.theta_expansion(2)
        d = cf.degrees()
        assert sum(d[:4]) == 4 == 2 + d[4]

    def test_estimator_term_at_one(self):
        reports = verify.check_corollary(1)
        assert reports[0].passed
        assert "nu=5/2" in reports[0].actual

    def test_estimator_close_to_three_at_four(self):
        reports = verify.check_corollary(4)
        assert all(r.passed for r in reports)
        # d_17 = 48, so the term is 2 + 48/50, within 0.05 of 3
        assert "nu=148/50" in reports[-1].actual or "nu=74/25" in reports[-1].actual
        assert 3 - (2 + Fraction(48, 50)) <= Fraction(1, 20)


class TestConjecture:
    def test_ratio_value(self):
        row = verify.conjecture_row(1)
        assert row.r_n == Fraction(12, 25)

    def test_predicted_fifth_quotient(self):
        row = verify.conjecture_row(1)
        expected = parse_poly("T^2+T+2").scale(Fraction(144, 625))
        assert row.predicted[0] == expected

    def test_predicted_sixth_quotient(self):
        row = verify.conjecture_row(1)
        expected = parse_poly("T-1").scale(Fraction(625, 528))
        assert row.predicted[1] == expected

    def test_expansion_confirms_predictions(self):
        outcome = verify.check_conjecture(3)
        assert all(r.passed for r in outcome.reports)
        assert outcome.findings == []

    def test_exact_equality_of_quotients(self):
        cf = verify.theta_expansion(2)
        row = verify.conjecture_row(1)
        assert tuple(cf.quotients[5:9]) == row.predicted

    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_matches_division_oracle(self, n):
        # Shapes, scalars and quotients.
        assert verify.conjecture_row(n) == oracles.conjecture_row(n)

    def test_rows_make_no_division(self, monkeypatch):
        monkeypatch.setattr(Polynomial, "__divmod__", lambda a, b: pytest.fail("conjecture_row divided"))
        assert [verify.conjecture_row(n).n for n in range(1, 13)] == list(range(1, 13))


class TestQuartic:
    def test_root_prefix_over_gf3(self):
        # Cross-checked against the fourth convergent T^3/(T^2+1)^2, whose
        # geometric expansion pins the digits through exponent -8.
        root = quartic.quartic_root(3, 8)
        digits = [root.coefficient(-k) for k in range(1, 9)]
        assert digits == [1, 0, 1, 0, 0, 0, 2, 0]

    def test_two_fixed_point_steps(self):
        x = LaurentSeries.zero(GF(3), -12)
        x = quartic_fixed_point_step(x)
        x = quartic_fixed_point_step(x)
        assert x.top == -1
        assert [x.coefficient(-k) for k in range(1, 6)] == [1, 0, 1, 0, 1]
        # the iterate is certified against the root through depth 4 only
        root = quartic.quartic_root(3, 4)
        assert all(root.coefficient(-k) == x.coefficient(-k) for k in range(1, 5))

    def test_fixed_point_gains_two_digits_per_step(self):
        x = LaurentSeries.zero(GF(3), -40)
        iterates = []
        for _ in range(8):
            x = quartic_fixed_point_step(x).truncate(-40)
            iterates.append(x)
        depths = []
        for a, b in zip(iterates, iterates[1:]):
            da = [a.coefficient(-k) for k in range(1, 41)]
            db = [b.coefficient(-k) for k in range(1, 41)]
            depths.append(oracles.first_difference_rank(da, db) - 1)
        for before, after in zip(depths, depths[1:]):
            assert after >= before + 2

    def test_residual_vanishes_for_every_prime(self):
        for p in (2, 3, 5, 7):
            root = quartic.quartic_root(p, 80)
            assert quartic.quartic_residual(root).is_zero

    def test_newton_and_fixed_point_agree(self):
        for p in (2, 3, 5, 7):
            field = GF(p)
            # Seed T^-1, then two more exact digits per fixed-point step.
            x = LaurentSeries(field, -1, [field.one, field.zero], -2)
            for _ in range(31):
                x = quartic_fixed_point_step(x.padded(-64))
                if x.known_down < -64:
                    x = x.truncate(-64)
            x = x.truncate(-64)
            root = quartic.quartic_root(p, 64)
            assert (root.top, root.coeffs, root.known_down) == (x.top, x.coeffs, x.known_down)

    def test_expansion_is_irrational_within_precision(self):
        out = cf_of_series(quartic.quartic_root(3, 400))
        assert not out.terminated

    def test_lambda_prefix_of_eleven(self):
        rep = quartic.quartic_lambda_report(quartic.quartic_expansion(3, 300), 11)
        assert rep.passed
        assert "12212121221" in rep.actual

    def test_lambda_values_in_unit_group(self):
        expansion = quartic.quartic_expansion(3, 500)
        assert expansion.monomial
        assert set(expansion.lambdas) <= {1, 2}

    @staticmethod
    def _assert_root_spells_the_word(prec):
        expansion = quartic.quartic_expansion(3, prec)
        residual = quartic.quartic_residual(expansion.root)
        assert residual.is_zero and residual.known_down <= 1 - prec
        assert expansion.monomial
        k = len(expansion.lambdas)
        assert k >= prec // 15
        assert set(expansion.lambdas) <= {1, 2}
        assert expansion.lambdas == tuple(map(int, prefix(k)))

    def test_deep_root_spells_the_word(self):
        self._assert_root_spells_the_word(10_000)

    def test_root_at_precision_1e5_spells_the_word(self):
        # About 7200 certified quotients, every one a monomial lambda T^u.
        self._assert_root_spells_the_word(100_000)

    def test_insufficient_precision_hint(self):
        with pytest.raises(PrecisionError, match="raise prec"):
            quartic.quartic_lambda_report(quartic.quartic_expansion(3, 40), 100)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            quartic.quartic_root(4, 10)


class TestAlphabetVariant:
    def test_default_alphabet_is_coprime(self):
        variant = verify.alphabet_variant(1, 2)
        assert variant.gcd == Polynomial.one(QQ)
        assert variant.coprime
        assert variant.report.passed

    def test_sign_flip_loses_coprimality(self):
        variant = verify.alphabet_variant(1, -1)
        assert variant.r == parse_poly("(T^2-2)*(T-1)")
        assert variant.s == parse_poly("T^2*(T^2-1)")
        assert variant.gcd == parse_poly("T-1")
        assert not variant.coprime
        assert variant.report.passed

    def test_swapped_alphabet_reports_computed_gcd(self):
        variant = verify.alphabet_variant(2, 1)
        assert variant.gcd == poly_gcd(variant.r, variant.s)
        assert variant.coprime == (variant.gcd.degree == 0)
        assert variant.report.passed

    def test_equal_letters_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            verify.alphabet_variant(2, 2)


class TestSuite:
    def test_each_pair_is_packed_once_per_process(self):
        # lemma3 to n = 12 reads the deepest pairs, n = 13; lemma1/2,
        # theorem3 and corollary read the same pairs again from the caches.
        _clear_packed_caches()
        reports, _ = verify.run_suite("all")
        assert all(rep.passed for rep in reports)
        assert _packed_misses() == (13, 13)

    def test_a_rebound_builder_is_called_past_a_warm_cache(self, monkeypatch):
        # A fault injected after the caches hold the pair still reaches the
        # checks, and the caches keep the true pair once it is undone.
        assert verify.check_lemma1(1).passed and verify.check_theorem3(2)[1].passed
        real = verify.packed_tail_pair
        monkeypatch.setattr(
            verify, "packed_tail_pair", lambda n: real(n)._replace(r=real(n).r + 1) if n == 1 else real(n)
        )
        assert not verify.check_lemma1(1).passed
        assert "conv4n=MISMATCH" in verify.check_theorem3(2)[1].actual
        monkeypatch.undo()
        assert verify.check_lemma1(1).passed and verify.check_theorem3(2)[1].passed

    def test_selection_rows_and_determinism(self):
        first, findings1 = verify.run_suite("lemma3", 4)
        second, findings2 = verify.run_suite("lemma3", 4)
        assert first == second
        assert findings1 == findings2 == []
        assert [r.n for r in first] == [1, 2, 3, 4]

    def test_unknown_selection(self):
        with pytest.raises(ValueError, match="unknown check"):
            verify.run_suite("lemma9", 2)

    def test_runners_look_checks_up_when_called(self, monkeypatch):
        # Tracers and tests rebind verify.check_*; the suite must run the
        # rebound function, not one captured when the table was built.
        fake = verify.CheckReport("lemma1", 1, "x", "y")
        for name in ("lemma1", "lemma2", "lemma3"):
            monkeypatch.setattr(verify, f"check_{name}", lambda n: fake)
        monkeypatch.setattr(verify, "check_theorem3", lambda max_n: [fake])
        monkeypatch.setattr(verify, "check_corollary", lambda max_n: [fake])
        monkeypatch.setattr(
            verify, "check_conjecture", lambda max_n: verify.ConjectureOutcome([fake], [], ["note"])
        )
        reports, findings = verify.run_suite("all", 2)
        assert reports == [fake] * 9 and findings == ["note"]

    def test_report_pass_is_derived_from_strings(self):
        rep = verify.CheckReport("x", 1, "a", "b")
        assert not rep.passed
        rep = verify.CheckReport("x", 1, "a", "a")
        assert rep.passed
        assert rep.to_dict()["pass"] is True
        assert verify.CheckReport("x", 1, "a", "b", passed=True).passed is False
        assert rep._replace(actual="b").passed is False


def test_claim_checks_run_no_large_euclid_or_series(monkeypatch, capsys):
    # Past the base row's approximant (denominator degree 21), the claim
    # checks run no Euclid and expand no fraction as a series.
    def guarded(original):
        def call(num, den, *args):
            if den.degree > 21:
                raise AssertionError(f"{original.__name__} on a denominator of degree {den.degree}")
            return original(num, den, *args)

        return call

    # verify reads cf_of_fraction from cf when it runs, so guarding cf's
    # binding guards verify's calls too.
    for module, name in (
        (cf, "cf_of_fraction"),
        (series, "series_of_fraction"),
    ):
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    verify.theta_expansion.cache_clear()
    with pytest.raises(AssertionError, match="degree 50"):
        verify.theta_expansion(4)
    for n in range(1, 13):
        assert verify.check_lemma1(n).passed and verify.check_lemma2(n).passed
    assert all(rep.passed for rep in verify.check_theorem3(12))
    assert all(rep.passed for rep in verify.check_corollary(12))
    capsys.readouterr()
    assert cli.main(["measure", "--max-n", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "n=51 nu=275807/137903 max=3"
