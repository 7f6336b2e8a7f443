import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import (
    DigitSeq,
    DomainError,
    OmegaSeq,
    PrecisionError,
    ResourceError,
    check_infinite_conditions,
    classify_derivative,
    digits_of_rational,
    eval_F,
    eval_F_exact,
    generator_pattern,
    is_univoque,
    make_params,
    odd_count_prefix,
    odd_liminf_frequency,
    odd_total,
    pi_beta,
    shift,
)
from okamoto import numdigits
from okamoto.betaexp import _projection_tables
from okamoto.numdigits import parse_digitseq, parse_omegaseq

from conftest import random_digitseq, random_omegaseq, tail_sums


def _series_tables(p):
    """F's (term, ratio) tables at a's exact value."""
    return p.series_tables.term, p.series_tables.ratio


class TestMakeParams:
    def test_b_solves_defining_equation_exactly(self):
        p = make_params(1, Fraction(2, 3))
        assert p.b == Fraction(1, 3)
        assert (p.N + 1) * p.a - p.N * p.b == 1

    def test_example_n2(self):
        p = make_params(2, Fraction(3, 5))
        assert p.b == Fraction(2, 5)

    def test_below_lower_threshold_rejected(self):
        with pytest.raises(DomainError):
            make_params(1, Fraction(2, 5))
        with pytest.raises(DomainError):
            make_params(1, Fraction(1, 2))  # endpoint excluded

    def test_upper_endpoint_rejected(self):
        with pytest.raises(DomainError):
            make_params(3, 1.0)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            make_params(0, 0.9)

    @given(st.integers(1, 6), st.fractions(0, 1))
    def test_invariants_hold_whenever_accepted(self, N, a):
        try:
            p = make_params(N, a)
        except DomainError:
            return
        assert (N + 1) * p.a - N * p.b == 1
        assert 0 < p.b < p.a < 1

    def test_float_b_is_the_exact_b_rounded_once(self):
        # (N+1)a - 1 in floats cancels near a_min: 3.5e-5 relative at N = 2
        rng = random.Random(3)
        cases = [(N, 1 / (N + 1) + 10.0**-k) for N in range(1, 7) for k in range(3, 15)]
        cases += [(N, rng.uniform(1 / (N + 1), 1)) for N in range(1, 7) for _ in range(50)]
        for N, a in cases:
            p = make_params(N, a)
            assert p.a == a and p.b == float(((N + 1) * Fraction(a) - 1) / N), (N, a)


class TestCompare:
    """numdigits.compare is the numeric policy: exact for int/Fraction, a tie band for floats."""

    def test_exact_inputs_are_decided_exactly(self):
        eps = Fraction(1, 10**30)
        assert numdigits.compare(Fraction(1, 2) + eps, Fraction(1, 2)) == 1
        assert numdigits.compare(Fraction(1, 2) - eps, Fraction(1, 2)) == -1
        assert numdigits.compare(Fraction(2, 4), Fraction(1, 2)) == 0
        assert numdigits.compare(1, Fraction(1, 2)) == 1

    def test_float_within_the_tie_band_is_a_tie(self):
        assert numdigits.TIE_TOL == 1e-12
        assert numdigits.compare(0.5 + 1e-13, Fraction(1, 2)) is None
        assert numdigits.compare(Fraction(1, 2), 0.5 - 1e-13) is None  # a bound known as a float
        assert numdigits.compare(0.5 + 1e-11, Fraction(1, 2)) == 1
        assert numdigits.compare(0.5 - 1e-11, 0.5) == -1

    def test_values_computed_from_a_float_are_flagged(self):
        assert numdigits.compare(Fraction(1, 2) + Fraction(1, 10**13), Fraction(1, 2), True) is None
        with numdigits.decimal_context():
            assert numdigits.compare(decimal.Decimal("1e-13"), 0) is None
            assert numdigits.compare(decimal.Decimal("-1e-11"), 0) == -1

    def test_a_named_tie_raises(self):
        with pytest.raises(PrecisionError, match="gamma"):
            numdigits.compare(1 + 1e-13, 1, what="gamma")
        assert numdigits.compare(Fraction(1), 1, what="gamma") == 0

    def test_nan_is_unordered(self):
        for x in (math.nan, decimal.Decimal("NaN")):
            with pytest.raises(DomainError, match="not a number"):
                numdigits.compare(x, 1)


class TestDigitsOfRational:
    def test_one_third_base3(self):
        d = digits_of_rational(1, 3, 1)
        assert d.preperiod == (1,) and d.period == (0,)

    def test_one_quarter_base3(self):
        d = digits_of_rational(1, 4, 1)
        assert d.preperiod == () and d.period == (0, 2)

    def test_five_twelfths_base3(self):
        d = digits_of_rational(5, 12, 1)
        assert d.preperiod == (1,) and d.period == (0, 2)

    def test_out_of_range(self):
        for num, den in ((0, 1), (1, 1), (5, 4), (-1, 3)):
            with pytest.raises(DomainError):
                digits_of_rational(num, den, 1)

    def test_unreduced_input_accepted(self):
        assert digits_of_rational(2, 8, 1) == digits_of_rational(1, 4, 1)

    @given(
        st.integers(1, 5),
        st.integers(2, 3000),
        st.integers(1, 10**6),
    )
    @settings(max_examples=300)
    def test_round_trip_exact(self, N, den, num_seed):
        num = num_seed % den
        if num == 0:
            num = 1
        d = digits_of_rational(num, den, N)
        assert d.value() == Fraction(num, den)

    def test_round_trip_bulk_1000(self):
        # denominators stay modest: the period length can reach den - 1
        rng = random.Random(20240817)
        for _ in range(1000):
            N = rng.randrange(1, 5)
            den = rng.randrange(2, 2000)
            num = rng.randrange(1, den)
            d = digits_of_rational(num, den, N)
            assert d.value() == Fraction(num, den)

    def test_long_division_stops_at_the_cap(self, monkeypatch):
        # 1/10^30 has an astronomically long base-3 period
        monkeypatch.setattr(numdigits, "EXPANSION_DIGIT_CAP", 1000)
        with pytest.raises(ResourceError, match="1000 digits"):
            digits_of_rational(1, 10**30, 1)
        assert len(digits_of_rational(1, 1009, 1).period) == 168

    def test_a_two_power_period_past_the_cap_raises_before_dividing(self, monkeypatch):
        # 3 has order 2^58 mod 2^60, so 1/2^60 has a base-3 period of 2^58 digits
        def no_division(*args):
            raise AssertionError("long division ran")

        monkeypatch.setattr(numdigits, "divmod", no_division, raising=False)
        with pytest.raises(ResourceError, match=f"runs past the cap of {numdigits.EXPANSION_DIGIT_CAP} digits"):
            digits_of_rational(1, 2**60, 1)

    @staticmethod
    def dict_long_division(num, den, N):
        # reference: remember every remainder and stop at the first repeat
        B, digits, seen, r = 2 * N + 1, [], {}, num
        while r and r not in seen:
            seen[r] = len(digits)
            digit, r = divmod(r * B, den)
            digits.append(digit)
        if r == 0:
            return tuple(digits), (0,)
        return tuple(digits[:seen[r]]), tuple(digits[seen[r]:])

    def test_matches_dict_long_division(self):
        # denominators mix factors shared with 2N+1 (preperiods, terminating
        # expansions) with coprime parts (periods)
        rng = random.Random(20261018)
        n_terminating = 0
        for _ in range(3000):
            N = rng.randrange(1, 6)
            B = 2 * N + 1
            den = B ** rng.randrange(0, 5) * rng.choice((1, 1, 2, 4, 5, 7, 11, 97, 1009))
            den *= rng.choice((1, math.gcd(B, 9), math.gcd(B, 25), 3 * 5 * 7))
            if den < 2:
                den = B
            num = rng.randrange(1, den)
            g = math.gcd(num, den)
            pre, per = self.dict_long_division(num // g, den // g, N)
            n_terminating += per == (0,)
            assert digits_of_rational(num, den, N) == DigitSeq(N, pre, per), (num, den, N)
        assert n_terminating > 100

    @pytest.mark.parametrize("num, den, N, n_digits", [
        (1, 9 * 1009, 1, 2 + 168),  # preperiod 2, period 168
        (7, 3 * 1009, 1, 1 + 168),
        (1, 3**5, 1, 5),  # terminating: its preperiod alone counts
        (1, 2, 1, 1),  # period (1)
        (2, 5**3 * 7, 2, 3 + 6),
        (1, 2**12, 1, 1024),  # 3 has order 2^10 mod 2^12: a cap of 1023 raises before dividing
    ])
    def test_cap_boundary(self, monkeypatch, num, den, N, n_digits):
        monkeypatch.setattr(numdigits, "EXPANSION_DIGIT_CAP", n_digits)
        d = digits_of_rational(num, den, N)
        assert d.value() == Fraction(num, den)
        monkeypatch.setattr(numdigits, "EXPANSION_DIGIT_CAP", n_digits - 1)
        with pytest.raises(ResourceError, match=f"expansion of {num}/{den} runs past the cap of {n_digits - 1} digits"):
            digits_of_rational(num, den, N)

    def test_a_third_of_a_million_digits_is_under_the_cap(self):
        d = digits_of_rational(1, 1000003, 1)
        assert len(d.preperiod) + len(d.period) == 333334 < numdigits.EXPANSION_DIGIT_CAP
        assert d.digits(13) == [0] * 12 + [1]  # 3^12 < 1000003 < 3^13


class TestCanonicalForm:
    def test_period_reduced_to_primitive(self):
        d = DigitSeq(1, (1,), (0, 2, 0, 2))
        assert d.period == (0, 2)

    def test_preperiod_absorbed_into_rotation(self):
        assert DigitSeq(1, (1, 0), (2, 0)) == DigitSeq(1, (1,), (0, 2))

    def test_all_top_digit_period_rejected(self):
        with pytest.raises(DomainError):
            DigitSeq(1, (0,), (2,))
        with pytest.raises(DomainError):
            DigitSeq(2, (), (4, 4))

    def test_digit_range_checked(self):
        with pytest.raises(DomainError):
            DigitSeq(1, (3,), (0,))

    def test_never_ends_in_all_top_digits(self):
        rng = random.Random(7)
        top = 4
        for _ in range(200):
            d = random_digitseq(rng, 2)
            assert not all(t == top for t in d.period)

    def test_digit_and_omega_sequences_never_compare_equal(self):
        d, w = DigitSeq(1, (1,), (0,)), OmegaSeq(1, (1,), (0,))
        assert d != w and d.digits(3) == w.digits(3)
        assert repr(d) == "DigitSeq(N=1, preperiod=(1,), period=(0,))"
        assert repr(w) == "OmegaSeq(N=1, preperiod=(1,), period=(0,))"
        assert (str(d), str(w)) == ("0.1 (0)", "1 (0)")

    def test_empty_period_rejected(self):
        for cls in (DigitSeq, OmegaSeq):
            with pytest.raises(DomainError):
                cls(1, (1,), ())

    def test_malformed_text_is_a_domain_error(self):
        for text in ("(x)", "0.1 (0 2", "1 (0) 2", "(1.5)", "((0))"):
            with pytest.raises(DomainError):
                parse_digitseq(text, 1)
            with pytest.raises(DomainError):
                parse_omegaseq(text, 1)
        # only a digit sequence takes the leading "0."
        assert parse_digitseq("0.1 (0 1)", 1) == DigitSeq(1, (1,), (0, 1))
        with pytest.raises(DomainError):
            parse_omegaseq("0.1 (0 1)", 1)

    def test_text_form_round_trip(self):
        d = digits_of_rational(5, 12, 1)
        assert str(d) == "0.1 (0 2)"
        assert parse_digitseq(str(d), 1) == d
        d2 = digits_of_rational(1, 4, 1)
        assert str(d2) == "0.(0 2)"
        assert parse_digitseq(str(d2), 1) == d2


class TestOddDigitStatistics:
    def test_count_prefix_all_odd(self):
        d = DigitSeq(1, (), (1,))
        assert odd_count_prefix(d, 5) == 5
        assert odd_count_prefix(d, 0) == 0

    def test_count_prefix_all_even(self):
        d = DigitSeq(1, (), (0, 2))
        assert odd_count_prefix(d, 7) == 0

    def test_count_prefix_mixed(self):
        d = DigitSeq(1, (1,), (0, 2))
        assert odd_count_prefix(d, 4) == 1

    def test_total(self):
        assert odd_total(DigitSeq(1, (), (1,))) == math.inf
        assert odd_total(DigitSeq(1, (1,), (0, 2))) == 1
        assert odd_total(DigitSeq(1, (), (0, 2))) == 0

    def test_total_finite_iff_period_even(self):
        rng = random.Random(11)
        for _ in range(300):
            d = random_digitseq(rng, rng.randrange(1, 4))
            finite = odd_total(d) != math.inf
            assert finite == all(t % 2 == 0 for t in d.period)

    def test_liminf_frequency_examples(self):
        assert odd_liminf_frequency(DigitSeq(1, (), (1,))) == 1
        assert odd_liminf_frequency(DigitSeq(1, (), (0, 2))) == 0
        assert odd_liminf_frequency(DigitSeq(1, (), (0, 1, 2))) == Fraction(1, 3)

    def test_frequency_is_the_limit_of_prefix_ratios(self):
        rng = random.Random(13)
        for _ in range(100):
            d = random_digitseq(rng, rng.randrange(1, 4))
            span = len(d.preperiod) + len(d.period)
            lim = odd_liminf_frequency(d)
            n = 10 * span
            # prefix counts drift from the limit by at most the transient mass
            assert abs(Fraction(odd_count_prefix(d, n), n) - lim) <= Fraction(
                len(d.preperiod) + 2 * len(d.period), n
            )


def _reference_pi(w, b):
    """pi_beta's closed form per sequence, as it was before tail_sums."""
    L, m = len(w.preperiod), len(w.period)
    head = sum(d * b ** -(i + 1) for i, d in enumerate(w.preperiod))
    block = sum(d * b ** (m - j - 1) for j, d in enumerate(w.period))
    return head + b**-L * block / (b**m - 1)


def _reference_margins(a, N, period):
    """The O(m^2) tail margins: each residue's period summed on its own."""
    m = len(period)
    full = N * a / (1 - a)
    out = []
    for r in range(m):
        s = sum(a ** (j + 1) * period[(r + j) % m] for j in range(m)) / (1 - a**m)
        out.append((1 - s, 1 - (full - s)))
    return tuple(out)


def _reference_F(p, d):
    """The digit series of F summed over the preperiod and one period."""
    ys = generator_pattern(p).ys
    acc, factor = Fraction(0), Fraction(1)
    for xi in d.preperiod:
        acc += factor * ys[xi]
        factor *= p.a if xi % 2 == 0 else -p.b
    block, g = Fraction(0), Fraction(1)
    for xi in d.period:
        block += g * ys[xi]
        g *= p.a if xi % 2 == 0 else -p.b
    return acc + factor * block / (1 - g)


def _random_fraction(rng, lo, hi):
    return lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)


class TestTailSums:
    def test_each_shift_is_the_projection_of_that_shift(self):
        rng = random.Random(11)
        for _ in range(300):
            N = rng.randint(1, 4)
            w = random_omegaseq(rng, N, max_pre=5, max_per=12)
            beta = _random_fraction(rng, 1, N + 1)
            inv = 1 / beta
            sums = tail_sums(w, [d * inv for d in range(N + 1)], [inv] * (N + 1))
            assert len(sums) == len(w.preperiod) + len(w.period)
            refs = [_reference_pi(shift(w, n), beta) for n in range(len(sums))]
            assert sums == refs
            assert pi_beta(w, beta) == refs[0]
            K = N / (beta - 1)
            assert is_univoque(w, N, beta) == all(K - 1 < v < 1 for v in refs)

    def test_margins_equal_the_quadratic_formula(self):
        rng = random.Random(12)
        for _ in range(300):
            N = rng.randint(1, 4)
            w = random_omegaseq(rng, N, max_pre=5, max_per=12)
            a = _random_fraction(rng, Fraction(1, N + 1), 1)
            _, _, margins = check_infinite_conditions(make_params(N, a), w)
            assert margins == _reference_margins(a, N, w.period)

    def test_exact_value_equals_the_series_closed_form(self):
        rng = random.Random(13)
        for _ in range(300):
            N = rng.randint(1, 4)
            d = random_digitseq(rng, N, max_pre=5, max_per=12)
            p = make_params(N, _random_fraction(rng, Fraction(1, N + 1), 1))
            assert eval_F_exact(p, d) == _reference_F(p, d)

    def test_float_arithmetic_stays_float(self):
        rng = random.Random(14)
        for _ in range(100):
            N = rng.randint(1, 4)
            w = random_omegaseq(rng, N, max_pre=5, max_per=12)
            a = _random_fraction(rng, Fraction(1, N + 1), Fraction(9, 10))
            exact = tail_sums(w, range(N + 1), [a] * (N + 1))
            approx = tail_sums(w, range(N + 1), [float(a)] * (N + 1))
            assert all(type(v) is float for v in approx)
            assert all(abs(v - float(e)) <= 1e-12 * (1 + abs(e)) for v, e in zip(approx, exact))

    def test_decimal_sums_keep_their_digits_and_the_thread_context(self):
        rng = random.Random(15)
        with decimal.localcontext() as ctx:
            ctx.prec = 7
            ctx.clear_flags()
            for _ in range(100):
                N = rng.randint(1, 4)
                w = random_omegaseq(rng, N, max_pre=5, max_per=12)
                a = _random_fraction(rng, Fraction(1, N + 1), 1)
                term, ratio = [a * d for d in range(N + 1)], [a] * (N + 1)
                e = tail_sums(w, term, ratio)[0]
                assert abs(Fraction(w.decimal_series_sum(term, ratio)) - e) <= (1 + abs(e)) / 10**47
                # a float a's F and gamma run at 50 digits, in their own context
                pf, d = make_params(N, float(a)), random_digitseq(rng, N, max_pre=5, max_per=12)
                eval_F(pf, d)
                classify_derivative(pf, d)
            assert ctx.prec == 7 and not any(ctx.flags.values())

    def test_shift_numerators_over_one_denominator_are_the_tail_sums(self):
        rng = random.Random(17)
        for k in range(400):
            N = rng.randint(1, 4)
            w = random_omegaseq(rng, N, max_pre=5, max_per=40)
            a = _random_fraction(rng, Fraction(1, N + 1), 1)
            if k % 2:  # the exact value of a float a
                a = Fraction(float(a))
            U, E = w.shift_numerators(a.numerator, a.denominator)
            L, m = len(w.preperiod), len(w.period)
            assert E == a.denominator**L * (a.denominator**m - a.numerator**m)
            sums = tail_sums(w, *_projection_tables(N, 1 / a))
            assert [Fraction(u, E) for u in U] == sums, (N, a, str(w))

    def test_series_sum_is_the_first_tail_sum(self):
        rng = random.Random(16)
        for _ in range(300):
            N = rng.randint(1, 4)
            d = random_digitseq(rng, N, max_pre=5, max_per=12)
            p = make_params(N, _random_fraction(rng, Fraction(1, N + 1), 1))
            w = random_omegaseq(rng, N, max_pre=5, max_per=12)
            beta = _random_fraction(rng, 1, N + 1)
            # F's signed tables (ratio -b for odd digits) and pi_beta's 1/beta ones
            for seq, tables in ((d, _series_tables(p)), (w, _projection_tables(N, beta))):
                first = tail_sums(seq, *tables)[0]
                assert seq.series_sum(*tables) == first
                assert abs(Fraction(seq.decimal_series_sum(*tables)) - first) <= abs(first) / 10**47
                floats = [[float(v) for v in t] for t in tables]
                assert abs(seq.series_sum(*floats) - float(first)) <= 1e-12 * (1 + abs(first))

    def test_first_value_callers_do_not_roll(self, monkeypatch):
        rng = random.Random(17)
        cases = []
        for _ in range(100):
            N = rng.randint(1, 4)
            d = random_digitseq(rng, N, max_pre=5, max_per=12)
            p = make_params(N, _random_fraction(rng, Fraction(1, N + 1), 1))
            w = random_omegaseq(rng, N, max_pre=5, max_per=12)
            beta = _random_fraction(rng, 1, N + 1)
            # the values before series_sum: S_0 read from tail_sums, a float a
            # taken at its exact value
            pf = make_params(N, float(p.a))
            F = tail_sums(d, *_series_tables(p))[0]
            with numdigits.decimal_context():
                Ff = [float(tail_sums(d, *([decimal.Decimal(v.numerator) / v.denominator for v in t]
                                           for t in _series_tables(make_params(N, Fraction(q.a)))))[0])
                      for q in (p, pf)]
            pi = tail_sums(w, *_projection_tables(N, beta))[0]
            pif = tail_sums(w, *_projection_tables(N, float(beta)))[0]
            cases.append((p, pf, d, w, beta, F, Ff, pi, pif))

        def rolled(*args):
            raise AssertionError("shift_numerators called for S_0 alone")

        monkeypatch.setattr(numdigits.EventuallyPeriodic, "shift_numerators", rolled)
        for p, pf, d, w, beta, F, Ff, pi, pif in cases:
            assert eval_F_exact(p, d) == F
            assert [eval_F(p, d), eval_F(pf, d)] == Ff
            assert pi_beta(w, beta) == pi
            assert abs(pi_beta(w, float(beta)) - pif) <= 1e-12 * (1 + pif)

    def test_long_period_exact_value_within_one_ulp_of_the_float(self):
        p = make_params(1, Fraction(3, 5))
        d = digits_of_rational(1, 30011, 1)
        assert len(d.period) == 15005
        exact = float(eval_F_exact(p, d))
        assert abs(exact - eval_F(p, d)) <= math.ulp(exact)
