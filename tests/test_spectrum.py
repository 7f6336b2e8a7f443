import hashlib
import io
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import (
    DerivativeTag,
    DomainError,
    PrecisionError,
    ResourceError,
    dim_infinite_set,
    dim_zero_set,
    dimension_curve,
    enumerate_infinite_points,
    frequency_dimension,
    frequency_set_dimension,
    critical_frequency,
    threshold_asymptotics,
    thresholds,
)
from okamoto import betaexp, derivative, numdigits, spectrum
from okamoto.betaexp import is_univoque
from okamoto.cli import run
from okamoto.derivative import classify_derivative
from okamoto.numdigits import DigitSeq, OmegaSeq, make_params
from okamoto.spectrum import a0_tilde, log_g

F = Fraction


def phi_mpmath(N, a):
    """phi at a's exact value, from a 60-digit mpmath evaluation."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        q = F(a)
        am = mp.mpf(q.numerator) / q.denominator
        return float(mp.log((2 * N + 1) * am) / mp.log(N * am / ((N + 1) * am - 1)))


class TestThresholds:
    def test_n1_row(self):
        t = thresholds(1)
        assert t.a_min == F(1, 2)
        assert abs(t.a0_tilde - 0.5592) < 5e-5
        assert t.a0_star == F(2, 3)
        assert abs(t.a_inf_hat - 0.55952455849) < 1e-9
        assert abs(float(t.a_inf_star) - 0.6180339887498949) < 1e-12

    def test_closed_forms(self):
        assert thresholds(3).a0_star == F(5, 14)
        assert thresholds(2).a_inf_star == F(1, 2)
        assert thresholds(10).a0_star == F(31, 231)

    def test_defining_equation_residual(self):
        for N in range(1, 11):
            assert abs(log_g(N, a0_tilde(N))) < 1e-10

    def test_a0_tilde_within_an_ulp_of_a_60_digit_root(self):
        # log g_N in its expanded form, solved on the whole bracket at 60 digits
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for N in [*range(1, 61), 100, 500, 1000, 1999]:

                def g(a):
                    B = 2 * N + 1
                    return B * mp.log(B) + (N + 1) * mp.log(a) + N * mp.log((N + 1) * a - 1) - N * mp.log(N)

                lo = mp.mpf(1) / (N + 1)
                root = mp.findroot(g, (lo * (1 + mp.mpf(10) ** -20), mp.mpf(1)), solver="anderson")
                a = a0_tilde(N)
                assert abs(mp.mpf(a) - root) <= math.ulp(a), (N, a, root)

    def test_a_inf_hat_at_powers_of_ten(self):
        # at N = 10^k a_inf_hat is the nearest float to a 60-digit root of the
        # series, and N a_inf_hat = 2 - 8/N + 40/N^2 - 208/N^3 + ... (even N)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for k in range(1, 21):
                N, m = 10**k, 10**k // 2
                tau = [m + bin(i).count("1") % 2 - bin(i - 1).count("1") % 2 for i in range(1, 80)]

                def series(a):
                    s = 0
                    for d in reversed(tau):
                        s = (s + d) * a
                    return s - 1

                root = mp.findroot(series, (mp.mpf(1) / (N + 1), mp.mpf(1) / (m + 1)), solver="anderson")
                a = thresholds(N).a_inf_hat
                assert abs(mp.mpf(a) - root) <= math.ulp(a) / 2, (N, a, root)
                assert abs(N * a - (2 - 8 / N + 40 / N**2)) <= 250 / N**3 + 1e-15, (N, a)

    def test_critical_frequency_at_a0_tilde(self):
        for N in range(1, 7):
            t = thresholds(N)
            assert abs(critical_frequency(N, t.a0_tilde) - N / (2 * N + 1)) < 1e-10

    def test_ordering_chain_n5_to_10(self):
        for N in range(5, 11):
            t = thresholds(N)
            row = t.as_row()
            assert all(row[i] < row[i + 1] for i in range(4)), (N, row)

    def test_small_n_ordering_differs(self):
        # below N = 5 the infinite-derivative thresholds interleave the
        # zero-derivative ones rather than sitting above them
        t = thresholds(1)
        assert t.a_inf_hat < float(t.a0_star)


class TestFrequencyFunctions:
    def test_phi_example(self):
        assert abs(critical_frequency(1, 0.6) - math.log(1.8) / math.log(3)) < 1e-14

    def test_phi_defining_identity(self):
        for N in (1, 2, 3):
            lo = 1 / (N + 1)
            for k in range(1, 20):
                a = lo + (1 - lo) * k / 20
                if a >= 1:
                    continue
                b = ((N + 1) * a - 1) / N
                phi = critical_frequency(N, a)
                assert abs((2 * N + 1) * a * (b / a) ** phi - 1) <= 1e-12

    def test_phi_domain(self):
        with pytest.raises(DomainError):
            critical_frequency(1, 0.5)

    def test_phi_exact_a_below_float_resolution(self):
        # float(1/2 + 10^-20) is 0.5; the exact a still lies in the domain
        a = F(1, 2) + F(1, 10**20)
        closed = math.log(1.5) / (math.log(0.5) - math.log(2e-20))
        assert abs(critical_frequency(1, a) - closed) <= 1e-15
        assert dim_zero_set(1, a).regime == "FULL_MEASURE"
        for edge in (F(1, 2), 1):
            with pytest.raises(DomainError):
                critical_frequency(1, edge)

    def test_phi_exact_a_near_one(self):
        # float(1 - 10^-20) is 1.0; phi is about log(3) / 10^-20 there
        assert critical_frequency(1, 1 - F(1, 10**20)) == pytest.approx(
            math.log(3) * 1e20, rel=1e-12
        )
        assert critical_frequency(1, 1 - F(1, 10**400)) == math.inf

    @pytest.mark.parametrize("N, a", [
        pytest.param(1, F(1, 2) + F(1, 10**16), id="a0"),
        pytest.param(1, F(1, 2) + F(1, 10**12), id="a1"),
        pytest.param(1, 1 - F(1, 10**12), id="a2"),
        pytest.param(24, 0.9999999999988953, id="float-N24-near-one"),
        pytest.param(1, 1 - 1e-12, id="float-N1-near-one"),
        pytest.param(2, 1 / 3 + 1e-12, id="float-N2-near-a_min"),
        pytest.param(7, 0.9999999999999998, id="float-N7-last-float-below-one"),
        pytest.param(3, F(1, 4) + F(1, 10**40), id="N3-far-below-float-resolution"),
    ])
    def test_phi_exact_a_against_mpmath(self, N, a):
        # a difference of logs, log(Na) - log((N+1)a - 1), would cancel near
        # either end; log1p of the ratio, exact or rounded once, does not
        assert critical_frequency(N, a) == pytest.approx(phi_mpmath(N, a), rel=1e-14)

    def test_phi_float_a_near_the_domain_ends_against_mpmath(self):
        rng = random.Random(24)
        for _ in range(300):
            N = rng.randint(1, 30)
            gap = 10.0 ** -rng.uniform(1, 12)
            a = 1 - gap if rng.random() < 0.5 else 1 / (N + 1) + gap
            assert critical_frequency(N, a) == pytest.approx(phi_mpmath(N, a), rel=1e-14), (N, a)

    def test_phi_float_a_whose_excess_rounds_to_zero(self):
        # 3 * 0.33333333333333337 rounds to 1.0, though the float exceeds 1/3
        a = 0.33333333333333337
        assert a > F(1, 3) and 3 * a - 1 == 0.0
        excess = 3 * F(a) - 1
        closed = math.log(5 * a) / (math.log(2 * a) - math.log(excess))
        assert abs(critical_frequency(2, a) - closed) <= 1e-15

    def test_h_balanced_frequency_gives_one(self):
        for N in (1, 2, 5):
            assert abs(frequency_dimension(N, N / (2 * N + 1)) - 1.0) < 1e-14

    def test_h_endpoint_limits(self):
        for N in (1, 2):
            assert abs(
                frequency_dimension(N, 1 - 1e-12) - math.log(N) / math.log(2 * N + 1)
            ) < 1e-9
            assert abs(
                frequency_dimension(N, 1e-12) - math.log(N + 1) / math.log(2 * N + 1)
            ) < 1e-9

    def test_h_composite_frozen_value(self):
        # independent high-precision evaluation of h(phi(0.6)) at N=1
        phi = critical_frequency(1, 0.6)
        assert abs(frequency_dimension(1, phi) - 0.9220600903362382) < 1e-12

    def test_h_domain(self):
        with pytest.raises(DomainError):
            frequency_dimension(1, 0.0)


class TestFrequencySetDimension:
    def test_uniform_is_one(self):
        for N in (1, 2, 3):
            B = 2 * N + 1
            assert abs(frequency_set_dimension(N, [1 / B] * B) - 1.0) < 1e-12

    def test_one_hot_is_zero(self):
        assert frequency_set_dimension(1, [0.0, 1.0, 0.0]) == 0.0

    @given(st.floats(0.02, 0.98))
    @settings(max_examples=60)
    def test_alternating_witness_matches_h(self, p):
        for N in (1, 2):
            probs = []
            for i in range(2 * N + 1):
                probs.append(p / N if i % 2 == 1 else (1 - p) / (N + 1))
            assert abs(
                frequency_set_dimension(N, probs) - frequency_dimension(N, p)
            ) < 1e-12

    def test_bad_sum_rejected(self):
        with pytest.raises(DomainError):
            frequency_set_dimension(1, [0.5, 0.2, 0.2])
        with pytest.raises(DomainError):
            frequency_set_dimension(1, [0.5, 0.5])


class TestDimZeroSet:
    def test_interior_value(self):
        r = dim_zero_set(1, F(3, 5))
        assert r.regime == "NULL_UNCOUNTABLE"
        assert abs(r.value - 0.9220600903362382) < 1e-12

    def test_max_at_a0_tilde(self):
        t = thresholds(1)
        r = dim_zero_set(1, t.a0_tilde)
        assert abs(r.value - 1.0) <= 1e-6

    def test_empty_from_a0_star_on(self):
        assert dim_zero_set(1, F(2, 3)).regime == "EMPTY"
        assert dim_zero_set(1, F(7, 10)).regime == "EMPTY"
        assert dim_zero_set(1, F(2, 3)).value == 0.0

    def test_full_measure_below_a0_tilde(self):
        r = dim_zero_set(1, F(13, 25))
        assert r.regime == "FULL_MEASURE"
        assert r.value == frequency_dimension(1, critical_frequency(1, F(13, 25)))
        assert "complement" in r.note

    def test_jump_at_a0_star_for_n2(self):
        r = dim_zero_set(2, float(F(7, 15)) - 1e-6)
        assert abs(r.value - math.log(2) / math.log(5)) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            dim_zero_set(1, F(1, 2))

    @pytest.mark.parametrize("N", [0, -1, -2])
    def test_reports_reject_N_below_1(self, N):
        # N = -2 puts a = 1/2 inside (1/(N+1), 1); N = -1 would divide by 0
        for report in (dim_zero_set, dim_infinite_set):
            for a in (F(1, 2), 0.5):
                with pytest.raises(DomainError, match="N must be >= 1"):
                    report(N, a)


class TestDimInfiniteSet:
    def test_empty_regime(self):
        r = dim_infinite_set(1, F(63, 100))
        assert r.regime == "EMPTY" and r.value == 0.0

    def test_countable_regime(self):
        r = dim_infinite_set(1, F(3, 5))
        assert r.regime == "COUNTABLE_RATIONAL" and r.value == 0.0

    def test_positive_regime_bounds(self):
        r = dim_infinite_set(1, F(13, 25), depth=14)
        assert r.regime == "POSITIVE_DIM"
        lower, upper = r.value
        assert 0.0 < lower <= upper <= 1.0

    def test_at_threshold_detection(self):
        t = thresholds(1)
        r = dim_infinite_set(1, t.a_inf_hat)
        assert r.regime == "UNCOUNTABLE_DIM_ZERO"
        assert r.at_threshold and "COUNTABLE_RATIONAL" in r.note

    def test_upper_bound_monotone_in_a(self):
        uppers = []
        for a in (F(13, 25), F(27, 50), F(11, 20)):
            r = dim_infinite_set(1, a, depth=12)
            uppers.append(r.value[1])
        assert uppers[0] >= uppers[1] >= uppers[2]

    @pytest.mark.parametrize("a", [F(13, 25), F(3, 5), F(7, 10), spectrum.a_inf_hat(1)],
                             ids=["positive", "countable", "empty", "at-a_inf_hat"])
    def test_depth_below_2_is_rejected_in_every_regime(self, a):
        dim_infinite_set(1, a, depth=2)
        with pytest.raises(DomainError, match="depth must be >= 2"):
            dim_infinite_set(1, a, depth=1)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_exact_a_evaluates_no_float_threshold(monkeypatch, N):
    # an exact a is placed by integer signs alone; a float a still needs the float roots
    def float_root(N):
        raise AssertionError("a float threshold was evaluated")

    for name in ("a0_tilde", "a_inf_hat") + (("a_inf_star",) if N % 2 else ()):
        monkeypatch.setattr(spectrum, name, float_root)
    regimes = set()
    for k in range(1, 120):
        a = F(1, N + 1) + F(k, 120) * F(N, N + 1)
        regimes.update((dim_zero_set(N, a).regime, dim_infinite_set(N, a, depth=3).regime))
    assert regimes == {"FULL_MEASURE", "NULL_UNCOUNTABLE", "EMPTY", "POSITIVE_DIM",
                       "COUNTABLE_RATIONAL"}
    with pytest.raises(AssertionError, match="float threshold"):
        dim_zero_set(N, float(F(1, N + 1) + F(1, 1000)))
    with pytest.raises(AssertionError, match="float threshold"):
        dim_infinite_set(N, float(F(1, N + 1) + F(1, 1000)))


def test_dimension_curve_cap_boundary(monkeypatch):
    monkeypatch.setattr(spectrum, "DIMENSION_CURVE_CAP", 5)
    assert len(dimension_curve(1, 5)) == 5
    with pytest.raises(ResourceError, match="count = 6 grid points exceed the cap of 5"):
        dimension_curve(1, 6)


class TestTieRule:
    """A float a meets numdigits.compare's tie rule against the float thresholds.

    An exact a is decided exactly against all five thresholds (see
    TestExactThresholdDecisions); only the domain ends apply to it here.
    """

    def test_float_within_the_tie_band_of_a_domain_end_raises(self):
        for report in (dim_zero_set, dim_infinite_set):
            for a in (0.5 + 1e-13, 1 - 1e-13):
                with pytest.raises(PrecisionError):
                    report(1, a)
        assert dim_zero_set(1, F(1, 2) + F(1, 10**13)).regime == "FULL_MEASURE"

    def test_nan_is_outside_the_domain(self):
        for report in (dim_zero_set, dim_infinite_set):
            with pytest.raises(DomainError):
                report(1, math.nan)

    def test_a0_tilde_tie_is_null_uncountable_at_threshold(self):
        t = thresholds(1)
        for a in (t.a0_tilde - 1e-14, t.a0_tilde, t.a0_tilde + 1e-14, F(t.a0_tilde)):
            r = dim_zero_set(1, a)
            # the exact F(a0_tilde) lies above the root of P_1, and is no tie
            tie = not isinstance(a, F)
            assert (r.regime, r.at_threshold) == ("NULL_UNCOUNTABLE", tie), a
            assert abs(r.value - 1.0) < 1e-6

    def test_a0_star_tie_is_empty_at_threshold(self):
        star = thresholds(2).a0_star
        for a in (float(star) - 1e-14, float(star) + 1e-14):
            r = dim_zero_set(2, a)
            assert (r.regime, r.value, r.at_threshold) == ("EMPTY", 0.0, True), a
        # the exact threshold is decided exactly
        at = dim_zero_set(2, star)
        assert (at.regime, at.at_threshold) == ("EMPTY", False)
        below = dim_zero_set(2, star - F(1, 10**14))
        assert (below.regime, below.at_threshold) == ("NULL_UNCOUNTABLE", False)

    def test_a_inf_star_tie_is_empty_at_threshold(self):
        for N in (1, 2):
            star = float(thresholds(N).a_inf_star)
            for a in (star - 1e-14, star + 1e-14):
                r = dim_infinite_set(N, a)
                assert (r.regime, r.value, r.at_threshold) == ("EMPTY", 0.0, True), (N, a)
        below = dim_infinite_set(2, F(1, 2) - F(1, 10**14))
        assert (below.regime, below.at_threshold) == ("COUNTABLE_RATIONAL", False)
        assert "at_threshold" not in dim_infinite_set(2, F(1, 2)).to_json_obj()

    def test_a_inf_hat_tie_for_exact_a(self):
        # an exact a near a_inf_hat is decided by the sign of its series, and
        # F(hat) + 10^-14 lies above 1/q_KL
        hat = thresholds(1).a_inf_hat
        r = dim_infinite_set(1, F(hat) + F(1, 10**14))
        assert (r.regime, r.at_threshold) == ("COUNTABLE_RATIONAL", False)


class TestExactThresholdDecisions:
    """Exact a near a0_tilde, a_inf_hat and an odd N's a_inf_star, against mpmath.

    The oracle shares no code with the package: 60-digit roots of P_N by
    findroot, of the Thue-Morse digit series built here, and 1/G from sqrt.
    """

    @staticmethod
    def roots(N, dps=60):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(dps):
            def P(x):
                return (2 * N + 1) ** (2 * N + 1) * x ** (N + 1) * ((N + 1) * x - 1) ** N - N**N

            n = 7 * dps  # leaves a tail below 10^-(1.5 dps)
            t = [bin(i).count("1") % 2 for i in range(n + 1)]
            m = (N + 1) // 2 if N % 2 else N // 2
            tau = [m - 1 + t[i] if N % 2 else m + t[i] - t[i - 1] for i in range(1, n + 1)]

            def series(x):  # Horner's rule over the digits
                s = 0
                for d in reversed(tau):
                    s = (s + d) * x
                return s - 1

            lo = mp.mpf(1) / (N + 1)
            star = mp.mpf(3 * N + 1) / ((N + 1) * (2 * N + 1))
            G = (m + mp.sqrt(m * m + 4 * m)) / 2 if N % 2 else mp.mpf(m + 1)
            # P_N and the series increase on (lo, 1), so each has one root there
            roots = {
                "a0_tilde": mp.findroot(P, (lo + star) / 2),
                "a0_star": star,
                "a_inf_hat": mp.findroot(series, (lo, mp.mpf("0.7")), solver="anderson"),
                "a_inf_star": 1 / G,
            }
            assert all(lo < r < 1 for r in roots.values())
            return roots

    @staticmethod
    def expected(roots, a, dps=60):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(dps):
            x = mp.mpf(a.numerator) / a.denominator
            zero = ("FULL_MEASURE", "NULL_UNCOUNTABLE", "EMPTY")[
                (x >= roots["a0_tilde"]) + (x >= roots["a0_star"])
            ]
            infinite = ("POSITIVE_DIM", "COUNTABLE_RATIONAL", "EMPTY")[
                (x > roots["a_inf_hat"]) + (x >= roots["a_inf_star"])
            ]
        return zero, infinite

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_regime_matches_mpmath_oracle(self, N):
        mp = pytest.importorskip("mpmath")
        roots = self.roots(N)
        names = ["a0_tilde", "a_inf_hat"] + (["a_inf_star"] if N % 2 else [])
        rng = random.Random(100 + N)
        for name in names:
            root = F(mp.nstr(roots[name], 50))
            seen = set()
            for _ in range(3):
                offset = F(rng.randint(1, 9), 10 ** rng.randint(12, 30))
                for a in (root - offset, root + offset):
                    zero, infinite = self.expected(roots, a)
                    r0 = dim_zero_set(N, a)
                    r1 = dim_infinite_set(N, a, depth=6)
                    assert (r0.regime, r0.at_threshold) == (zero, False), (N, name, a)
                    assert (r1.regime, r1.at_threshold) == (infinite, False), (N, name, a)
                    seen.add((zero, infinite))
            assert len(seen) == 2, (N, name)  # both sides of the root were reached

    @pytest.mark.parametrize("N,offset", [
        pytest.param(1, F(1, 10**200), id="1"),
        pytest.param(2, F(1, 10**200), id="2"),
        pytest.param(1, F(3, 10**1000), id="1-3e-1000"),
        pytest.param(2, F(3, 10**1000), id="2-3e-1000"),
    ])
    def test_a_inf_hat_at_200_digits(self, N, offset):
        # offsets of 10^-200 take the product's bracket to 1024 bits, 3*10^-1000 to 4096
        mp = pytest.importorskip("mpmath")
        digits = len(str(offset.denominator))
        roots = self.roots(N, dps=digits + 100)
        root = F(mp.nstr(roots["a_inf_hat"], digits + 50))
        seen = set()
        for a in (root - offset, root + offset):
            infinite = self.expected(roots, a, dps=digits + 100)[1]
            assert dim_infinite_set(N, a, depth=6).regime == infinite, (N, a)
            seen.add(infinite)
        assert seen == {"POSITIVE_DIM", "COUNTABLE_RATIONAL"}

    def test_digit_cap_raises_resource_error(self, monkeypatch):
        # 64 bits bracket the series only to about 1e-18 at N = 1
        mp = pytest.importorskip("mpmath")
        a = F(mp.nstr(self.roots(1)["a_inf_hat"], 50)) + F(1, 10**25)
        assert dim_infinite_set(1, a).regime == "COUNTABLE_RATIONAL"
        monkeypatch.setattr(betaexp, "A_INF_HAT_BITS_CAP", 64)
        with pytest.raises(ResourceError, match="64 bits"):
            dim_infinite_set(1, a)
        # a's float and its denominator's length, not all of its digits
        with pytest.raises(ResourceError, match="301-digit denominator") as err:
            dim_infinite_set(1, a + F(1, 10**300))
        assert len(str(err.value)) < 300


class TestEnumeration:
    def test_includes_known_points(self):
        res = enumerate_infinite_points(1, F(29, 50), 1, 2)
        xs = {c.x for c in res.points}
        assert F(1, 4) in xs and F(5, 12) in xs
        for c in res.points:
            assert c.tag in (DerivativeTag.PLUS_INFINITY, DerivativeTag.MINUS_INFINITY)

    def test_empty_above_a_inf_star(self):
        res = enumerate_infinite_points(1, F(63, 100), 2, 3)
        assert not res.points and not res.rejected

    def test_nonempty_just_below_a_inf_star(self):
        res = enumerate_infinite_points(1, F(61, 100), 0, 2)
        assert res.points

    def test_certificates_reconstruct_points(self):
        res = enumerate_infinite_points(1, F(29, 50), 2, 2)
        B = 3
        for c in res.points:
            val = sum(d * F(1, B) ** (i + 1) for i, d in enumerate(c.prefix))
            tail = 2 * sum(
                c.omega.period[j] * F(1, B) ** (j + 1) for j in range(len(c.omega.period))
            ) / (1 - F(1, B) ** len(c.omega.period))
            assert val + F(1, B) ** len(c.prefix) * tail == c.x

    def test_points_sorted_and_deduplicated(self):
        res = enumerate_infinite_points(1, F(29, 50), 2, 3)
        xs = [c.x for c in res.points]
        assert xs == sorted(xs)
        assert len(xs) == len(set(xs))

    def test_work_cap(self):
        with pytest.raises(ResourceError, match="cap of 100000"):
            enumerate_infinite_points(3, 0.3, 6, 8)
        with pytest.raises(ResourceError, match="cap of 100000"):
            enumerate_infinite_points(1, F(29, 50), 0, 10**9)
        # the largest inputs in use stay under the cap
        assert enumerate_infinite_points(2, F(7, 20), 2, 4).points
        assert enumerate_infinite_points(1, F(13, 25), 2, 6).points

    @staticmethod
    def admissible(N, a, max_period):
        """Primitive words up to max_period that pass is_univoque, one test per word."""
        beta = 1 / F(a) if isinstance(a, F) else 1.0 / a
        words = (
            (plen, OmegaSeq(N, (), word))
            for plen in range(1, max_period + 1)
            for word in product(range(N + 1), repeat=plen)
        )
        # a non-primitive word shrinks to its primitive root
        return [w for plen, w in words if len(w.period) == plen and is_univoque(w, N, beta)]

    def brute_force(self, N, a, max_prefix_len, max_period):
        """(x, prefix, period, tag) rows from one classify_derivative per (prefix, word) pair."""
        admissible = self.admissible(N, a, max_period)
        p = make_params(N, a)
        first: dict = {}
        for plen in range(max_prefix_len + 1):
            for v in product(range(2 * N + 1), repeat=plen):
                for w in admissible:
                    d = DigitSeq(N, v, tuple(2 * t for t in w.period))
                    x = d.value()
                    if x not in first:
                        first[x] = (v, w.period, classify_derivative(p, d).tag)
        infinite = (DerivativeTag.PLUS_INFINITY, DerivativeTag.MINUS_INFINITY)
        rows = [(x, *first[x]) for x in sorted(first)]
        return [r for r in rows if r[3] in infinite], [r for r in rows if r[3] not in infinite]

    @pytest.mark.parametrize(
        "N, a, max_prefix_len, max_period",
        [
            (1, F(29, 50), 2, 4),
            (1, 0.58, 2, 4),
            (1, F(13, 25), 1, 5),
            (2, F(7, 20), 2, 3),
            (2, 0.35, 2, 3),
            (3, F(3, 10), 1, 3),
            (3, 0.3, 1, 3),
            (1, F(13, 25), 1, 12),
        ],
    )
    def test_matches_one_classification_per_pair(self, N, a, max_prefix_len, max_period):
        res = enumerate_infinite_points(N, a, max_prefix_len, max_period)
        points, rejected = self.brute_force(N, a, max_prefix_len, max_period)
        for certs, rows in ((res.points, points), (res.rejected, rejected)):
            assert [(c.x, c.prefix, c.omega.period, c.tag) for c in certs] == rows
        assert points
        # both signs occur, so the prefix parity reaches the verdict
        assert {r[3] for r in points} == {DerivativeTag.PLUS_INFINITY, DerivativeTag.MINUS_INFINITY}

    def test_one_univoque_per_rotation_class_and_no_classifier(self, monkeypatch):
        N = 2
        counts = {"univoque": 0}

        def counted(*args):
            counts["univoque"] += 1
            return is_univoque(*args)

        def consulted(*args):
            raise AssertionError("enumeration consulted the derivative classifier")

        monkeypatch.setattr(betaexp, "is_univoque", counted)
        monkeypatch.setattr(derivative, "classify_derivative", consulted)
        monkeypatch.setattr(derivative, "check_infinite_conditions", consulted)
        assert enumerate_infinite_points(N, F(7, 20), 2, 4).points
        classes = {
            min(word[k:] + word[:k] for k in range(plen))
            for plen in range(1, 5)
            for word in product(range(N + 1), repeat=plen)
            if len(OmegaSeq(N, (), word).period) == plen
        }
        assert counts["univoque"] == len(classes)

    @pytest.mark.parametrize("a, max_period, digest", [
        ("7/20", "4", "82b58dcdac71a3ca8f74d6061c0967fc9ff4b46604346bbe1b692928fe993104"),
        ("0.35", "3", "2b447d1f9f448cdd3ac1c27aeed8f3626c2e1f4be7f8edbababa21d28adc7436"),
    ])
    def test_cli_output_is_pinned(self, a, max_period, digest):
        # the construction prints byte for byte what classifying every point printed
        out = io.StringIO()
        argv = ["enumerate-dinf", "--N", "2", "--a", a, "--max-prefix", "2", "--max-period", max_period]
        assert run(argv, stdout=out, stderr=io.StringIO()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    def test_rejected_is_always_empty(self):
        # for an all-even period the tail margins are is_univoque's conditions
        points = 0
        for N in (1, 2, 3):
            for k in range(60 // (N + 1) + 1, 60):
                res = enumerate_infinite_points(N, F(k, 60), 1, 3)
                assert res.rejected == (), (N, k)
                points += len(res.points)
        assert points > 100

    def test_precision_error_at_float_golden_ratio(self):
        with pytest.raises(PrecisionError):
            enumerate_infinite_points(1, (math.sqrt(5) - 1) / 2, 1, 3)
        argv = ["enumerate-dinf", "--N", "1", "--a", "gr:1", "--max-prefix", "1", "--max-period", "3"]
        err = io.StringIO()
        assert run(argv, stdout=io.StringIO(), stderr=err) == 3
        assert "precision error" in err.getvalue()


class TestAsymptotics:
    def test_n10_values(self):
        rep = threshold_asymptotics([10])
        row = rep.rows[0]
        assert abs(row[1] - 10 / 11) < 1e-12  # N * a_min
        assert abs(row[3] - 10 * 31 / 231) < 1e-12  # N * a0_star

    def test_n100_near_limits(self):
        rep = threshold_asymptotics([100])
        row = rep.rows[-1][1:]
        assert abs(row[1] - 1.2071067811865476) < 0.05
        for value, limit in zip(row, rep.limits):
            assert abs(value - limit) <= 0.05 * limit

    def test_deltas_shape(self):
        rep = threshold_asymptotics([5, 10])
        assert len(rep.rows) == 2 and len(rep.deltas) == 5


class TestDimensionCurve:
    def test_values_bounded_and_peaked(self):
        curve = dimension_curve(1, 200)
        vals = [v for _, v in curve]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
        peak_a = max(curve, key=lambda t: t[1])[0]
        assert abs(peak_a - thresholds(1).a0_tilde) < 0.01


W10 = OmegaSeq(1, (), (1, 0))


@pytest.mark.parametrize("call", [
    lambda: betaexp.komornik_loreti(-1),
    lambda: spectrum.a_inf_hat(-1),
    lambda: spectrum.a0_star(-1),
    lambda: spectrum.a0_star(0),
    lambda: frequency_set_dimension(1, [math.nan, 0.5, 0.5]),
    lambda: frequency_set_dimension(0, [1.0]),
    lambda: frequency_dimension(0, 0.5),
    lambda: betaexp.pi_beta(W10, math.nan),
    lambda: betaexp.pi_beta(W10, math.inf),
    lambda: betaexp.count_expansions(math.nan, 1, 1.5),
    lambda: betaexp.count_expansions(0.5, 1, math.nan),
    lambda: betaexp.count_expansions(0.5, 1, math.inf),
    lambda: numdigits.digits_of(math.nan, 1),
    lambda: dimension_curve(-1),
    lambda: derivative.finite_difference_probe(make_params(1, Fraction(3, 5)), math.nan, 3),
], ids=["kl-N-1", "a_inf_hat-N-1", "a0_star-N-1", "a0_star-N0", "probs-nan", "probs-N0", "freq-dim-N0",
        "pi-nan", "pi-inf", "count-x-nan", "count-beta-nan", "count-beta-inf", "digits-nan",
        "curve-N-1", "probe-x-nan"])
def test_bad_n_or_non_finite_input_is_a_domain_error(call):
    # an N below 1, a NaN or an infinity where a finite number is needed: DomainError (exit 2)
    with pytest.raises(DomainError):
        call()
