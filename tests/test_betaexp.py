import functools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import (
    ConvergenceError,
    DomainError,
    OmegaSeq,
    PrecisionError,
    ResourceError,
    complement,
    count_expansions,
    generalized_golden_ratio,
    generalized_tm_prefix,
    is_univoque,
    komornik_loreti,
    pi_beta,
    quasi_greedy_one,
    resolve_beta,
    shift,
    thue_morse_prefix,
    univoque_entropy_bounds,
)
from okamoto.betaexp import newton_root

from conftest import random_omegaseq, random_omegaseq_for_oracle

PHI = (1 + math.sqrt(5)) / 2


def seq_strategy(max_n=3):
    def build(N):
        digit = st.integers(0, N)
        return st.tuples(
            st.just(N),
            st.lists(digit, max_size=4),
            st.lists(digit, min_size=1, max_size=5),
        )
    return st.integers(1, max_n).flatmap(build)


class TestProjection:
    def test_alternating_base2(self):
        w = OmegaSeq(1, (), (0, 1))
        assert pi_beta(w, 2) == Fraction(1, 3)

    def test_constant_max_digit_hits_interval_endpoint(self):
        for N in (1, 2, 3):
            w = OmegaSeq(N, (), (N,))
            beta = Fraction(5, 3)
            assert pi_beta(w, beta) == Fraction(N) / (beta - 1)

    def test_float_beta_within_one_ulp_of_its_exact_value(self):
        # beta near 1 is the hard case: 1 - g cancels, which costs a float sum about 200 ulp
        rng = random.Random(23)
        for _ in range(2000):
            N = rng.randint(1, 4)
            w = random_omegaseq(rng, N, max_pre=5, max_per=39)
            beta = 1 + N * rng.randint(1, 1000) / 1000
            exact = float(pi_beta(w, Fraction(beta)))
            assert abs(pi_beta(w, beta) - exact) <= math.ulp(exact), (w, beta)

    def test_tm_sequence_sums_to_one_at_critical_base(self):
        for N in (1, 2, 3):
            beta = komornik_loreti(N)
            digits = generalized_tm_prefix(N, 220)
            acc = 0.0
            for d in reversed(digits):
                acc = (acc + d) / beta
            tail = max(digits) * beta ** (-220) / (beta - 1)
            assert abs(acc - 1.0) <= 1e-10 + tail

    @given(seq_strategy())
    @settings(max_examples=150)
    def test_shift_identity(self, spec):
        N, pre, per = spec
        w = OmegaSeq(N, tuple(pre), tuple(per))
        beta = Fraction(7, 4) if N == 1 else Fraction(2 * N + 1, 2)
        assert pi_beta(shift(w, 1), beta) == beta * pi_beta(w, beta) - w.digit(1)

    @given(seq_strategy())
    @settings(max_examples=150)
    def test_complement_identity(self, spec):
        N, pre, per = spec
        w = OmegaSeq(N, tuple(pre), tuple(per))
        beta = Fraction(9, 5) if N == 1 else Fraction(2 * N + 1, 2)
        assert pi_beta(w, beta) + pi_beta(complement(w), beta) == Fraction(N) / (beta - 1)

    def test_identities_bulk_500(self):
        rng = random.Random(314159)
        for _ in range(500):
            N = rng.randrange(1, 4)
            w = random_omegaseq(rng, N)
            beta = Fraction(rng.randrange(N + 11, 10 * (N + 1)), 10)
            assert pi_beta(shift(w, 1), beta) == beta * pi_beta(w, beta) - w.digit(1)
            assert pi_beta(w, beta) + pi_beta(complement(w), beta) == Fraction(N) / (beta - 1)


class TestShiftComplement:
    def test_shift_rotates_period(self):
        assert shift(OmegaSeq(1, (), (0, 1)), 1) == OmegaSeq(1, (), (1, 0))

    def test_shift_consumes_preperiod(self):
        w = OmegaSeq(2, (2, 0), (1,))
        assert shift(w, 1) == OmegaSeq(2, (0,), (1,))
        assert shift(w, 5) == OmegaSeq(2, (), (1,))

    def test_complement_examples(self):
        assert complement(OmegaSeq(1, (), (0,))) == OmegaSeq(1, (), (1,))
        assert complement(OmegaSeq(2, (2,), (0, 1))) == OmegaSeq(2, (0,), (2, 1))


class TestQuasiGreedy:
    def test_golden_ratio_alternates(self):
        # the true golden ratio gives (1 0); the floats of gr:N for odd N lie
        # within roundoff of it, where beta * r ties a digit boundary
        for N in (1, 3, 5):
            with pytest.raises(PrecisionError):
                quasi_greedy_one(N, generalized_golden_ratio(N), 64)
        r = quasi_greedy_one(1, Fraction(PHI), 64)
        assert r.truncated and r.seq is None and len(r.digits) == 64
        assert r.digits[:3] == (1, 1, 0)

    def test_integer_base_boundary(self):
        r = quasi_greedy_one(1, 2, 32)
        assert r.seq == OmegaSeq(1, (), (1,))
        r = quasi_greedy_one(2, 2, 32)
        assert r.seq == OmegaSeq(2, (), (1,))

    def test_exact_rational_base(self):
        # 1 = 2/beta exactly at beta = 2 over {0,1,2}: digits (1)^inf shown
        # above; at beta = 5/2 over {0,1,2} the expansion is eventually periodic
        r = quasi_greedy_one(2, Fraction(5, 2), 200)
        if r.seq is not None:
            assert pi_beta(r.seq, Fraction(5, 2)) == 1
        else:
            assert r.truncated and len(r.digits) == 200

    def test_truncated_prefix_flagged(self):
        r = quasi_greedy_one(1, 1.7, 12)
        assert r.truncated
        assert r.digits[:6] == (1, 1, 0, 0, 0, 1)
        assert r.digits_extended(16)[12:] == [1, 1, 1, 1]

    def test_parry_admissibility_of_periodic_output(self):
        # every shift of the expansion is lexicographically at most the whole,
        # on a truncated prefix as on a periodic expansion
        for N, beta in ((1, 2), (1, Fraction(3, 2)), (1, Fraction(9, 5)), (2, Fraction(5, 2)),
                        (2, 3), (2, Fraction(7, 3)), (3, Fraction(13, 4)), (1, 1.9)):
            digits = tuple(quasi_greedy_one(N, beta, 400).digits_extended(400))
            for n in range(1, 400):
                assert digits[n:] <= digits[:400 - n], (N, beta, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            quasi_greedy_one(1, 2.5, 16)
        with pytest.raises(DomainError):
            quasi_greedy_one(1, 1.0, 16)


class TestExpansionOfOneAtExactValue:
    """A float beta is expanded at its exact value, like every other input."""

    def test_float_digits_equal_those_of_its_exact_value(self):
        rng = random.Random(20111)
        for _ in range(300):
            N = rng.randrange(1, 4)
            beta = 1 + N * (1 - rng.random())  # in (1, N+1]
            r = quasi_greedy_one(N, beta, 128)
            assert r == quasi_greedy_one(N, Fraction(beta), 128), (N, beta)

    def test_only_an_integer_base_has_a_period(self):
        rng = random.Random(20112)
        for _ in range(300):
            N = rng.randrange(1, 5)
            q = rng.randrange(2, 50)
            beta = Fraction(rng.randrange(q + 1, (N + 1) * q + 1), q)
            if beta.denominator == 1:
                continue
            r = quasi_greedy_one(N, beta, 100)
            assert r.truncated and r.seq is None and len(r.digits) == 100
        for beta in (2, Fraction(2), 2.0):
            r = quasi_greedy_one(1, beta, 64)
            assert (r.digits, r.seq, r.truncated) == ((1,), OmegaSeq(1, (), (1,)), False)

    def test_float_on_a_digit_boundary_raises(self):
        # beta * 1 = 2 is the boundary between digits 1 and 2 when N = 2
        with pytest.raises(PrecisionError):
            quasi_greedy_one(2, 2.0, 64)
        assert quasi_greedy_one(2, 2, 64).seq == OmegaSeq(2, (), (1,))


class TestUnivoque:
    def test_alternating_at_19(self):
        assert is_univoque(OmegaSeq(1, (), (0, 1)), 1, 1.9) is True

    def test_zero_sequence_never(self):
        assert is_univoque(OmegaSeq(1, (), (0,)), 1, 1.9) is False

    def test_alternating_below_golden(self):
        assert is_univoque(OmegaSeq(1, (), (0, 1)), 1, 1.5) is False

    def test_exact_rational_beta_decides_strictly(self):
        assert is_univoque(OmegaSeq(1, (), (0, 1)), 1, Fraction(19, 10)) is True
        assert is_univoque(OmegaSeq(1, (), (0, 1)), 1, Fraction(3, 2)) is False

    def test_near_tie_escalates_for_float_beta(self):
        # at the golden ratio the (1,0) tail value equals 1 exactly
        with pytest.raises(PrecisionError):
            is_univoque(OmegaSeq(1, (), (1, 0)), 1, PHI)

    def test_monotone_in_beta(self):
        rng = random.Random(77)
        pairs = [(Fraction(17, 10), Fraction(19, 10)), (Fraction(9, 5), Fraction(39, 20))]
        for _ in range(200):
            w = random_omegaseq(rng, 1)
            for b1, b2 in pairs:
                if is_univoque(w, 1, b1):
                    assert is_univoque(w, 1, b2)


class TestCountExpansions:
    def test_unique_binary_expansion(self):
        c = count_expansions(Fraction(1, 3), 1, 2, cap=10, depth=40)
        assert c.count == 1 and not c.saturated

    def test_one_has_many_expansions_at_golden(self):
        c = count_expansions(1, 1, PHI, cap=10, depth=40)
        assert c.saturated and c.count == 10
        assert str(c) == "AT_LEAST(10)"

    def test_agrees_with_univoque_on_its_projection(self):
        w = OmegaSeq(1, (), (0, 1))
        beta = 1.9
        x = pi_beta(w, Fraction(beta))
        assert count_expansions(x, 1, beta, cap=10, depth=40).count == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            count_expansions(Fraction(3, 1), 1, 1.9)  # above N/(beta-1)

    def test_n_must_be_positive(self):
        with pytest.raises(DomainError, match="N must be >= 1"):
            count_expansions(0, 0, 2)

    def test_huge_alphabet_counts_only_survivors(self):
        # the survivors of a branch are one run of digits, found by one division,
        # so the 10^7 digits below the run are never tried
        start = time.perf_counter()
        assert str(count_expansions(10**7 - 1, 10**7, 2)) == "AT_LEAST(10)"
        assert time.perf_counter() - start < 1.0

    def test_oracle_equivalence_sample(self):
        rng = random.Random(2718)
        beta = 1.9
        bq = Fraction(beta)
        checked = 0
        for _ in range(60):
            w = random_omegaseq_for_oracle(rng, 1, bq)
            try:
                uni = is_univoque(w, 1, beta)
            except PrecisionError:
                continue
            x = pi_beta(w, bq)
            cnt = count_expansions(x, 1, beta, cap=2, depth=60)
            assert uni == (cnt.count == 1 and not cnt.saturated)
            checked += 1
        assert checked >= 55

    def test_out_of_interval_sequences_fail_the_criterion(self):
        # outside the definitional interval the criterion is False by its
        # n = 0 case, even when the expansion is unique (e.g. values above 1)
        w = OmegaSeq(1, (1, 1), (1, 1, 1, 0, 0, 0))
        bq = Fraction(19, 10)
        assert pi_beta(w, bq) > 1
        assert is_univoque(w, 1, bq) is False
        assert count_expansions(pi_beta(w, bq), 1, bq, cap=2, depth=60).count == 1

    @staticmethod
    def reference(x, N, beta, cap, depth):
        """The branching count in plain Fractions: (count, saturated)."""
        bq = Fraction(beta)
        K = N / (bq - 1)
        frontier = [Fraction(x)]
        for _ in range(depth):
            frontier = [u for t in frontier for d in range(N + 1) if 0 <= (u := bq * t - d) <= K]
            if len(frontier) >= cap:
                return cap, True
        return len(frontier), False

    def test_matches_fraction_reference(self):
        rng = random.Random(31)
        cases = []
        for i in range(90):
            N = rng.randint(1, 3) if i < 60 else rng.randint(4, 6)
            beta = Fraction(rng.randint(11, 10 * N + 9), 10)
            if rng.random() < 0.3:
                beta = rng.choice((PHI, 1.9))
            K = N / (Fraction(beta) - 1)
            x = K * Fraction(rng.randint(0, 997), 997)
            cases.append((x, N, beta))
        for N, beta in ((1, PHI), (1, 1.9), (2, Fraction(5, 2)), (3, Fraction(13, 10))):
            K = N / (Fraction(beta) - 1)
            cases += [(0, N, beta), (K, N, beta), (K / 3, N, beta)]
        saturated = 0
        for x, N, beta in cases:
            for cap, depth in ((4, 12), (50, 8), (1000, 8)):
                c = count_expansions(x, N, beta, cap=cap, depth=depth)
                want = self.reference(x, N, beta, cap, depth)
                assert (c.count, c.saturated) == want, (x, N, beta, cap, depth)
                saturated += c.saturated
        assert 0 < saturated < 2 * len(cases)


class TestThueMorse:
    def test_display_block(self):
        assert thue_morse_prefix(16) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]

    def test_generalized_n1_matches_plain(self):
        assert generalized_tm_prefix(1, 6) == [1, 1, 0, 1, 0, 0]

    def test_generalized_n2(self):
        assert generalized_tm_prefix(2, 8) == [2, 1, 0, 2, 0, 1, 2, 1]

    def test_digit_ranges(self):
        for N in range(1, 7):
            seq = generalized_tm_prefix(N, 200)
            assert all(0 <= d <= N for d in seq)


class TestCriticalBases:
    def test_generalized_golden_values(self):
        assert generalized_golden_ratio(2) == 2
        assert generalized_golden_ratio(4) == 3
        assert abs(generalized_golden_ratio(1) - PHI) < 1e-14
        assert abs(generalized_golden_ratio(3) - (1 + math.sqrt(3))) < 1e-14

    def test_komornik_loreti_n1_reference(self):
        # classical constant for the binary alphabet
        assert abs(komornik_loreti(1) - 1.78723165018687) < 1e-9

    def test_golden_below_critical(self):
        for N in range(1, 11):
            assert generalized_golden_ratio(N) < komornik_loreti(N) < N + 1

    def test_against_high_precision_recomputation(self):
        # independent oracle: re-solve the defining equation at 40 digits,
        # with the digits alpha_i = m + tau_i (N = 2m+1) or
        # m + tau_i - tau_(i-1) (N = 2m) built here from the Thue-Morse parity
        from mpmath import mp, mpf
        from test_acceptance import REFERENCE_TABLE

        mp.dps = 40
        tau = [bin(i).count("1") % 2 for i in range(201)]
        for N in range(1, 11):
            m = N // 2
            digits = [
                m + tau[i] - (0 if N % 2 else tau[i - 1]) for i in range(1, 201)
            ]

            def value(b):
                s = mpf(0)
                for d in reversed(digits):
                    s = (s + d) / b
                return s

            lo, hi = mpf(1) + mpf("1e-6"), mpf(N + 1)
            for _ in range(160):
                mid = (lo + hi) / 2
                if value(mid) > 1:
                    lo = mid
                else:
                    hi = mid
            q = (lo + hi) / 2
            assert abs(komornik_loreti(N) - float(q)) < 1e-9
            # the a_inf_hat column of the acceptance table is this oracle
            assert REFERENCE_TABLE[N][3] == round(float(1 / q), 4)

    @pytest.mark.parametrize("N", [*range(1, 12), 32, 100, 1123, 1999, 70531])
    def test_nearest_float_to_a_60_digit_root(self, N):
        # the oracle sums the digit series by Horner's rule; the package
        # solves a product identity for it in floats, then rounds to nearest
        # by its exact sign.  A float root alone was 1.24 ulp off at N = 4, and
        # 1.0 / komornik_loreti(N) is 1.11 ulp off 1/q_KL at N = 2, 1.23 at N = 32.
        # At N = 1123 and 70531 the root lies so near a float midpoint that 64
        # bits of the sign could not tell, and q_KL was rounded the wrong way
        from okamoto import thresholds

        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            m = N // 2
            tau = [
                m + (bin(i).count("1") % 2) - (0 if N % 2 else bin(i - 1).count("1") % 2)
                for i in range(1, 421)
            ]

            def series(b):
                s = 0
                for d in reversed(tau):
                    s = (s + d) / b
                return s - 1

            root = mp.findroot(series, (generalized_golden_ratio(N), N + 1), solver="anderson")
            beta = komornik_loreti(N)
            assert abs(mp.mpf(beta) - root) <= math.ulp(beta) / 2, (N, beta, root)
            a = thresholds(N).a_inf_hat
            assert abs(mp.mpf(a) - 1 / root) <= math.ulp(a) / 2, (N, a, 1 / root)

    def test_newton_root_without_a_sign_change(self):
        with pytest.raises(ConvergenceError, match="no sign change"):
            newton_root(lambda x: (x * x + 1, 2 * x), 0.5, 0.0, 1.0)

    def test_newton_root_iteration_cap(self):
        # a slope far too steep keeps every step inside the bracket and longer than an ulp
        with pytest.raises(ConvergenceError, match="within 100 steps"):
            newton_root(lambda x: (x - 1, 1e9), 0.5, 0.0, 2.0)

    def test_newton_root_of_a_cubic_within_an_ulp(self):
        r = newton_root(lambda x: (x**3 - 2, 3 * x * x), 1.5, 1.0, 2.0)
        below, above = (Fraction(math.nextafter(r, t)) for t in (-math.inf, math.inf))
        assert below**3 < 2 < above**3, r

    def test_newton_root_falls_back_inside_the_bracket(self):
        # from 5.0, 4.7 above the root, a plain Newton step on atan lands near -26.7
        seen = []

        def f(x):
            seen.append(x)
            return math.atan(x - 0.3), 1 / (1 + (x - 0.3) ** 2)

        assert abs(newton_root(f, 5.0, -10.0, 10.0) - 0.3) <= math.ulp(0.3)
        assert 5.0 - math.atan(4.7) * (1 + 4.7**2) < -10
        assert all(-10.0 <= x <= 10.0 for x in seen), seen

    def test_transition_brackets_the_critical_base(self):
        # second independent oracle: periodic univoque witnesses stall below
        # the critical base and grow above it
        from itertools import product

        def witness_count(N, beta, d):
            bq = Fraction(beta)
            count = 0
            for word in product(range(N + 1), repeat=d):
                w = OmegaSeq(N, (), word)
                if is_univoque(w, N, bq):
                    count += 1
            return count

        bc2 = komornik_loreti(2)
        below = [witness_count(2, bc2 - 0.03, d) for d in (6, 8)]
        above = [witness_count(2, bc2 + 0.03, d) for d in (6, 7, 8)]
        assert below[0] == below[1] and below[0] <= 5  # countable regime: stalls
        assert above[0] < above[1] < above[2]  # positive dimension: grows

    def test_resolve(self):
        assert resolve_beta("5/6") == Fraction(5, 6)
        assert resolve_beta("1.9") == Fraction(19, 10)
        assert resolve_beta("gr:2") == 2
        assert abs(resolve_beta("kl:1") - komornik_loreti(1)) == 0
        assert resolve_beta(Fraction(3, 2)) == Fraction(3, 2)
        with pytest.raises(DomainError):
            resolve_beta("kl:x")


class TestEntropyBounds:
    def test_bounds_are_ordered_and_clamped(self):
        for beta in (1.6, 1.8, 1.95):
            eb = univoque_entropy_bounds(1, beta, 12)
            assert 0.0 <= eb.lower <= eb.upper <= 1.0

    def test_upper_nonincreasing_on_doubling_depths(self):
        for beta in (1.7, 1.9, 1.99):
            u = [univoque_entropy_bounds(1, beta, d).upper for d in (5, 10, 20)]
            assert u[0] >= u[1] >= u[2]

    def test_empty_regime_dies_out(self):
        eb = univoque_entropy_bounds(1, 1.5, 8)
        assert eb.upper == 0.0 and eb.lower == 0.0

    def test_full_shift_limit(self):
        # near beta = 2 almost every word is admissible
        eb = univoque_entropy_bounds(1, 1.99, 12)
        assert eb.lower > 0.9

    def test_resource_cap(self):
        with pytest.raises(ResourceError):
            univoque_entropy_bounds(2, 2.5, 20)

    def test_bulk_filter_agrees_with_is_univoque(self):
        # the vectorized periodic-witness filter must match the exact
        # criterion applied to each word repeated periodically
        from okamoto.betaexp import _periodic_counts

        beta = 1.9
        d = 8
        alpha = quasi_greedy_one(1, beta, 64).digits_extended(64)
        _, n_lower = _periodic_counts(1, beta, alpha, d, want_lower=True)
        manual = 0
        for word_idx in range(2**d):
            word = tuple((word_idx >> (d - 1 - j)) & 1 for j in range(d))
            w = OmegaSeq(1, (), word)
            if is_univoque(w, 1, Fraction(beta)):
                manual += 1
        assert n_lower == manual


@functools.lru_cache(maxsize=None)
def brute_force_counts(N, beta, d):
    """(U_d, L_d) by testing every one of the (N+1)^d words on its own.

    U_d: every suffix of w.w, and of its complement, is lexicographically at
    or below the prefix of alpha of the same length.  L_d: the words of U_d
    whose periodic extension passes is_univoque at the exact value of beta.
    The criterion is the same for every rotation of w, so it is evaluated
    once per rotation class.
    """
    from itertools import product

    alpha = tuple(quasi_greedy_one(N, beta, 64).digits_extended(2 * d))
    bq = Fraction(beta)
    verdict = {}
    n_upper = n_lower = 0
    for word in product(range(N + 1), repeat=d):
        u = word + word
        if any(
            v[i:] > alpha[: 2 * d - i]
            for v in (u, tuple(N - c for c in u))
            for i in range(2 * d)
        ):
            continue
        n_upper += 1
        key = min(word[i:] + word[:i] for i in range(d))
        if key not in verdict:
            verdict[key] = is_univoque(OmegaSeq(N, (), word), N, bq)
        n_lower += verdict[key]
    return n_upper, n_lower


COUNT_CASES = [
    (1, beta, d) for beta in (1.5, 1.7, 1.8, 1.9, 1.99) for d in range(2, 13)
] + [
    (2, beta, d) for beta in (2.5, 2.9) for d in range(2, 8)
] + [
    (3, 3.5, d) for d in range(2, 7)
]


class TestPeriodicCounts:
    """The prefix-growing counter against a scan of every word."""

    @staticmethod
    def counts(N, beta, d, **kw):
        from okamoto.betaexp import _periodic_counts

        alpha = quasi_greedy_one(N, beta, 64).digits_extended(64)
        return _periodic_counts(N, beta, alpha, d, want_lower=True, **kw)

    @pytest.mark.parametrize("N,beta,d", COUNT_CASES)
    def test_matches_brute_force(self, N, beta, d):
        assert self.counts(N, beta, d) == brute_force_counts(N, beta, d)

    @pytest.mark.parametrize("N,beta,d", [(1, 1.9, 12), (1, 1.99, 12), (2, 2.9, 7), (3, 3.5, 6)])
    def test_blocked_frontier_matches_brute_force(self, N, beta, d):
        # a tiny chunk forces the depth-first blocks, so that the second pass
        # and the projection test run on many small blocks
        assert self.counts(N, beta, d, chunk=64) == brute_force_counts(N, beta, d)

    def test_pinned_thick_count(self):
        assert self.counts(1, 1.99, 20) == (852216, 852214)
        # blocks of at most 409 words split the frontier, with the lower count at depth 20
        assert self.counts(1, 1.99, 20, chunk=1 << 16) == (852216, 852214)

    def test_bounds_carry_the_counts_of_the_halving_chain(self):
        eb = univoque_entropy_bounds(1, 1.9, 12)
        assert [c[0] for c in eb.counts] == [12, 6, 3, 2]
        assert eb.counts[0] == (12, *self.counts(1, 1.9, 12))
        for d, u, lower in eb.counts[1:]:
            assert (u, lower) == (self.counts(1, 1.9, d)[0], None)
        assert eb.upper == min(1.0, *(math.log(u) / (d * math.log(1.9)) for d, u, _ in eb.counts))
        assert eb.to_json_obj() == {"depth": 12, "lower": eb.lower, "upper": eb.upper}
