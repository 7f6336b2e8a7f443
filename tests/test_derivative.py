import math
import random
import sys
import time
from fractions import Fraction

import pytest

from okamoto import (
    DerivativeTag,
    DigitSeq,
    DomainError,
    OmegaSeq,
    PrecisionError,
    ResourceError,
    check_infinite_conditions,
    classify_derivative,
    critical_frequency,
    digits_of,
    finite_difference_probe,
    is_univoque,
    make_params,
    odd_liminf_frequency,
    thresholds,
)
from okamoto import derivative

from conftest import probe_trend, random_digitseq

A058 = Fraction(29, 50)
A052 = Fraction(13, 25)
A070 = Fraction(7, 10)


class TestWorkedExamples:
    def test_plus_infinity(self):
        p = make_params(1, A058)
        v = classify_derivative(p, digits_of(Fraction(1, 4), 1))
        assert v.tag == DerivativeTag.PLUS_INFINITY
        assert v.odd_digits == 0

    def test_minus_infinity(self):
        p = make_params(1, A058)
        v = classify_derivative(p, digits_of(Fraction(5, 12), 1))
        assert v.tag == DerivativeTag.MINUS_INFINITY
        assert v.odd_digits == 1

    def test_zero(self):
        p = make_params(1, A052)
        v = classify_derivative(p, digits_of(Fraction(1, 2), 1))
        assert v.tag == DerivativeTag.ZERO
        assert v.growth_factor == 3 * p.b == Fraction(3, 25)

    def test_not_differentiable_in_nowhere_regime(self):
        p = make_params(1, A070)
        v = classify_derivative(p, digits_of(Fraction(1, 4), 1))
        assert v.tag == DerivativeTag.NOT_DIFFERENTIABLE
        # the direct margin is already negative: 1 - a/(1-a^2) < 0 at a = 0.7
        assert min(t for t, _ in v.tail_margins) < 0


class TestInfiniteConditions:
    def test_alternating_tail_at_058(self):
        p = make_params(1, A058)
        c7, c8, margins = check_infinite_conditions(p, OmegaSeq(1, (), (0, 1)))
        assert (c7, c8) == (True, True)
        a = A058
        expected = {1 - a / (1 - a**2), 1 - a**2 / (1 - a**2)}
        assert {t for t, _ in margins} == expected
        assert {tb for _, tb in margins} == expected

    def test_zero_tail_fails_left_condition(self):
        for a in (Fraction(51, 100), Fraction(3, 5), Fraction(4, 5)):
            p = make_params(1, a)
            c7, c8, _ = check_infinite_conditions(p, OmegaSeq(1, (), (0,)))
            assert (c7, c8) == (True, False)

    def test_both_fail_above_golden_section(self):
        p = make_params(1, Fraction(63, 100))
        c7, c8, _ = check_infinite_conditions(p, OmegaSeq(1, (), (0, 1)))
        assert (c7, c8) == (False, False)

    def test_float_tie_escalates(self):
        # a = 1/golden-ratio makes the alternating margin vanish exactly
        p = make_params(1, (math.sqrt(5) - 1) / 2)
        with pytest.raises(PrecisionError):
            check_infinite_conditions(p, OmegaSeq(1, (), (0, 1)))

    def test_a_tie_beside_an_outright_failure_reads_false(self):
        # a float next to the root of a^3 + a - 1: the last direct margin of the
        # period (0 0 1) is 1.8e-16, a tie, but every complement margin fails
        # outright, so the verdict is that of the exact value, as in is_univoque
        a = 0.6823278038280193
        d, w = DigitSeq(1, (), (0, 0, 2)), OmegaSeq(1, (), (0, 0, 1))
        c7, c8, margins = check_infinite_conditions(make_params(1, a), w)
        assert (c7, c8) == (False, False)
        assert max(tb for _, tb in margins) < -0.1 and 0 < margins[2][0] < 1e-12
        v = classify_derivative(make_params(1, a), d)
        assert v.tag == DerivativeTag.NOT_DIFFERENTIABLE
        assert v.tag == classify_derivative(make_params(1, Fraction(a)), d).tag
        assert not is_univoque(w, 1, 1 / a)

    def test_float_margins_within_one_ulp_of_exact(self):
        # a float a is decided at its exact value, up to 1 - 1e-6
        rng = random.Random(7)
        for k in range(40):
            N = rng.randint(1, 3)
            a = 1 - 10.0 ** -rng.uniform(0.5, 6) if k % 2 else rng.uniform(1 / (N + 1), 0.9)
            per = tuple(2 * rng.randint(0, N) for _ in range(rng.randint(50, 200)))
            d = DigitSeq(N, (1,), per)
            got = classify_derivative(make_params(N, a), d).to_json_obj()["T_values"]
            exact = classify_derivative(make_params(N, Fraction(a)), d).tail_margins
            for pair, exact_pair in zip(got, exact):
                for t, e in zip(pair, exact_pair):
                    assert abs(t - float(e)) <= math.ulp(float(e)), (N, a, str(d))

    def test_exact_tie_is_not_differentiable(self):
        # rational a with a margin exactly zero: divergence fails on a
        # subsequence, so the verdict is NOT_DIFFERENTIABLE
        a = Fraction(2, 3)  # 1 - a/(1-a) * ... tail for (1,1,...) tails
        p = make_params(1, a)
        # direct margin for the constant-1 tail: 1 - a/(1-a) = 1 - 2 = -1 < 0
        c7, c8, margins = check_infinite_conditions(p, OmegaSeq(1, (), (1,)))
        assert not c7


class TestGrowthFactorTie:
    """gamma < 1 follows numdigits.compare: a float a is decided at its exact value."""

    def test_float_a_within_the_tie_band_of_gamma_one_raises(self):
        # N = 1, period (1): gamma = 3b = 6a - 3 equals 1 at a = 2/3
        d = DigitSeq(1, (), (1,))
        for a in (2 / 3 + 1e-13, 2 / 3 - 1e-13):
            with pytest.raises(PrecisionError):
                classify_derivative(make_params(1, a), d)

    def test_exact_a_near_gamma_one_is_decided(self):
        d = DigitSeq(1, (), (1,))
        eps = Fraction(1, 10**13)
        below = classify_derivative(make_params(1, Fraction(2, 3) - eps), d)
        above = classify_derivative(make_params(1, Fraction(2, 3) + eps), d)
        assert below.tag == DerivativeTag.ZERO
        assert above.tag == DerivativeTag.NOT_DIFFERENTIABLE

    def test_float_a_gets_the_verdict_of_its_exact_value(self):
        # float arithmetic cancels in b = (3a - 1)/2 and put gamma above 1;
        # at the float's exact value gamma - 1 = -7.7e-8
        a = 0.3333333335115666
        d = DigitSeq(2, (), (0,) * 40 + (1,))
        exact = classify_derivative(make_params(2, Fraction(a)), d)
        assert exact.tag == DerivativeTag.ZERO
        assert -8e-8 < exact.growth_factor - 1 < -7e-8
        v = classify_derivative(make_params(2, a), d)
        assert v.tag == DerivativeTag.ZERO
        assert v.growth_factor == float(exact.growth_factor)

    def test_float_gamma_is_the_exact_gamma_rounded(self):
        rng = random.Random(17)
        for _ in range(200):
            N = rng.randint(1, 4)
            a = rng.uniform(1 / (N + 1), 1)
            d = random_digitseq(rng, N)
            got = classify_derivative(make_params(N, a), d).growth_factor
            want = float(classify_derivative(make_params(N, Fraction(a)), d).growth_factor)
            assert abs(got - want) <= math.ulp(want), (N, a, str(d))


class TestExactMargins:
    """An exact a's margins are integers over two denominators, read as Fraction pairs."""

    def test_json_margins_are_the_margins_rounded(self):
        rng = random.Random(9)
        for _ in range(300):
            N = rng.randint(1, 4)
            den = rng.randint(N + 2, 3000)
            a = Fraction(rng.randint(den // (N + 1) + 1, den - 1), den)
            pre = tuple(rng.randrange(2 * N + 1) for _ in range(rng.randint(0, 5)))
            per = tuple(2 * rng.randint(0, N) for _ in range(rng.randint(1, 40)))
            if set(per) == {2 * N} or set(pre + per) == {0}:
                continue
            d = DigitSeq(N, pre, per)
            v = classify_derivative(make_params(N, a), d)
            margins = v.tail_margins
            assert v.to_json_obj()["T_values"] == [[float(t), float(tb)] for t, tb in margins]
            pairs = tuple(margins)
            assert all(type(t) is Fraction for pair in pairs for t in pair)
            assert len(margins) == len(d.period) and margins[-1] == pairs[-1]
            assert margins == pairs and margins[1:] == pairs[1:]
            assert hash(margins) == hash(pairs) and repr(margins) == repr(pairs)


class TestClassificationBudget:
    def test_all_even_period_of_800_digits_with_exact_a(self):
        rng = random.Random(5)
        d = DigitSeq(1, (1,), tuple(2 * rng.randrange(2) for _ in range(800)))
        assert len(d.period) == 800
        t0 = time.perf_counter()
        v = classify_derivative(make_params(1, A058), d)
        assert time.perf_counter() - t0 < 5
        assert len(v.tail_margins) == 800

    def test_all_even_period_of_800_digits_with_float_a(self):
        # a float a rolls the integers of its exact value, over a 53-bit denominator
        rng = random.Random(5)
        d = DigitSeq(1, (1,), tuple(2 * rng.randrange(2) for _ in range(800)))
        t0 = time.perf_counter()
        v = classify_derivative(make_params(1, 0.58), d)
        assert time.perf_counter() - t0 < 5
        assert len(v.tail_margins) == 800
        assert v.tag == classify_derivative(make_params(1, Fraction(0.58)), d).tag


class TestClassifierProperties:
    def test_gamma_one_with_odd_digits_is_not_differentiable(self):
        # (2N+1)b = 1 exactly at a = (N+b*N+1)/(N+1) ... pick N=1, b=1/3, a=2/3
        p = make_params(1, Fraction(2, 3))
        assert 3 * p.b == 1
        v = classify_derivative(p, digits_of(Fraction(1, 2), 1))
        assert v.tag == DerivativeTag.NOT_DIFFERENTIABLE

    def test_zero_iff_gamma_below_one(self):
        rng = random.Random(1234)
        for _ in range(300):
            N = rng.randrange(1, 4)
            den = rng.randrange(50, 200)
            num = rng.randrange(den // (N + 1) + 1, den)
            p = make_params(N, Fraction(num, den))
            d = random_digitseq(rng, N)
            v = classify_derivative(p, d)
            if v.tag == DerivativeTag.ZERO:
                assert v.growth_factor < 1
            if v.tag in (DerivativeTag.PLUS_INFINITY, DerivativeTag.MINUS_INFINITY):
                assert v.odd_digits != math.inf
                assert all(t > 0 and tb > 0 for t, tb in v.tail_margins)

    def test_frequency_sandwich(self):
        # odd-digit frequency above the critical value forces a zero
        # derivative; below it excludes one
        rng = random.Random(4321)
        for _ in range(300):
            N = rng.randrange(1, 3)
            t = thresholds(N)
            a = Fraction(rng.randrange(1, 100), 100)
            if not (t.a_min < a < 1):
                continue
            p = make_params(N, a)
            d = random_digitseq(rng, N)
            freq = odd_liminf_frequency(d)
            phi = critical_frequency(N, a)
            v = classify_derivative(p, d)
            if float(freq) > phi + 1e-12:
                assert v.tag == DerivativeTag.ZERO
            elif float(freq) < phi - 1e-12:
                assert v.tag != DerivativeTag.ZERO

    def test_symmetry_under_reflection(self):
        # digits of 1-x are the digitwise complement, which preserves digit
        # parities, so the classification is invariant
        rng = random.Random(999)
        p1 = make_params(1, A058)
        p2 = make_params(2, Fraction(2, 5))
        for _ in range(200):
            N = rng.randrange(1, 3)
            p = p1 if N == 1 else p2
            d = random_digitseq(rng, N)
            x = d.value()
            if x == 0 or d.period == (0,):
                continue  # reflection of a terminating expansion is the tie case
            v1 = classify_derivative(p, d)
            v2 = classify_derivative(p, digits_of(1 - x, N))
            assert v1.tag == v2.tag

    def test_regime_no_zero_above_a0_star(self):
        rng = random.Random(31337)
        for N in (1, 2):
            t = thresholds(N)
            a = Fraction(t.a0_star.numerator, t.a0_star.denominator) + Fraction(1, 100)
            p = make_params(N, a)
            for _ in range(100):
                d = random_digitseq(rng, N)
                assert classify_derivative(p, d).tag != DerivativeTag.ZERO

    def test_regime_no_infinite_above_a_inf_star(self):
        rng = random.Random(31338)
        for N in (1, 2):
            t = thresholds(N)
            a = Fraction(round(float(t.a_inf_star) * 10**6) + 10**4, 10**6)
            p = make_params(N, a)
            for _ in range(100):
                d = random_digitseq(rng, N)
                assert classify_derivative(p, d).tag not in (
                    DerivativeTag.PLUS_INFINITY,
                    DerivativeTag.MINUS_INFINITY,
                )

    def test_domain_errors(self):
        p = make_params(1, A058)
        with pytest.raises(DomainError):
            classify_derivative(p, DigitSeq(1, (), (0,)))  # x = 0
        with pytest.raises(DomainError):
            classify_derivative(p, DigitSeq(2, (), (1,)))  # mismatched N


class TestProbe:
    def test_divergent_point_grows(self):
        p = make_params(1, A058)
        rows = finite_difference_probe(p, Fraction(1, 4), 14)
        rights = [r.right for r in rows]
        assert rights[-1] > 1000 and rights[-1] > rights[-3] > rights[-5]
        assert probe_trend(rows) == "DIVERGING_PLUS"

    def test_vanishing_point_decays(self):
        p = make_params(1, A052)
        rows = finite_difference_probe(p, Fraction(1, 2), 14)
        assert abs(rows[-1].right) < 1e-2 and abs(rows[-1].left) < 1e-2
        assert probe_trend(rows) == "VANISHING"

    def test_oscillation_without_convergence(self):
        p = make_params(1, A070)
        rows = finite_difference_probe(p, Fraction(1, 2), 14)
        signs = [r.right > 0 for r in rows]
        assert signs != sorted(signs) and signs != sorted(signs, reverse=True)
        flips = sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])
        assert flips >= 5
        assert probe_trend(rows) == "IRREGULAR"

    def test_sides_near_boundary_are_none(self):
        p = make_params(1, A058)
        rows = finite_difference_probe(p, Fraction(1, 4), 3)
        assert rows[0].left is None  # 1/4 - 1/3 < 0
        assert rows[1].left is not None

    def test_quotient_error_within_documented_levels(self):
        # exact quotients from the closed-form value at eventually periodic points
        from okamoto.selfaffine import eval_F_exact

        p = make_params(1, A058)
        x = Fraction(1, 4)
        f_x = eval_F_exact(p, digits_of(x, 1))
        for r in finite_difference_probe(p, x, 25):
            h = Fraction(1, 3**r.level)
            if r.right is not None:
                exact = (eval_F_exact(p, digits_of(x + h, 1)) - f_x) / h
                assert abs(r.right - float(exact)) < 2e-4, r.level
            if r.left is not None:
                exact = (f_x - eval_F_exact(p, digits_of(x - h, 1))) / h
                assert abs(r.left - float(exact)) < 2e-4, r.level

    def test_minus_infinity_probe(self):
        # quotient magnitudes alternate between two residue classes, so the
        # trailing window needs a couple of extra levels to clear the bar
        p = make_params(1, A058)
        rows = finite_difference_probe(p, Fraction(5, 12), 16)
        assert probe_trend(rows) == "DIVERGING_MINUS"

    def test_digit_cap_boundary(self, monkeypatch):
        # 1/7 = 0.(0 1 0 2 1 2) in base 3: 5 levels expand about 5 * 6 + 15 = 45 digits
        p = make_params(1, A058)
        monkeypatch.setattr(derivative, "PROBE_DIGIT_CAP", 45)
        assert len(finite_difference_probe(p, Fraction(1, 7), 5)) == 5
        monkeypatch.setattr(derivative, "PROBE_DIGIT_CAP", 44)
        with pytest.raises(ResourceError, match="5 probe levels expand about 45 digits, past the cap of 44"):
            finite_difference_probe(p, Fraction(1, 7), 5)

    @pytest.mark.parametrize("N, a, last", [(1, Fraction(3, 5), 644), (5, Fraction(1, 4), 295)])
    def test_levels_stop_at_the_least_normal_h(self, N, a, last):
        # h = (2N+1)^-n is a normal float up to `last`; past it float(h) would
        # underflow, to 0.0 from level 679 at N = 1
        p = make_params(N, a)
        rows = finite_difference_probe(p, Fraction(1, 7), last)
        assert rows[-1].level == last and rows[-1].h >= sys.float_info.min
        with pytest.raises(ResourceError, match=f"levels must be <= {last} at N={N}"):
            finite_difference_probe(p, Fraction(1, 7), last + 1)
        with pytest.raises(ResourceError):
            finite_difference_probe(p, Fraction(1, 7), 10**100)
