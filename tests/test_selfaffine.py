import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from okamoto import (
    DigitSeq,
    DomainError,
    GridPointError,
    Params,
    ResourceError,
    box_dimension,
    digits_of,
    eval_F,
    eval_F_exact,
    eval_F_rational,
    eval_fn,
    generator_pattern,
    make_params,
    sample_graph,
    slope_fn,
)
from okamoto import numdigits

from conftest import random_digitseq, random_proper_fraction

TOL = 1e-12

P56 = make_params(1, Fraction(5, 6))
P58 = make_params(1, Fraction(29, 50))
P2 = make_params(2, Fraction(3, 5))

rational_a = st.integers(1, 3).flatmap(
    lambda N: st.tuples(
        st.just(N),
        st.fractions(min_value=Fraction(1, N + 1), max_value=1).filter(
            lambda a: Fraction(1, N + 1) < a < 1
        ),
    )
)


class TestGeneratorPattern:
    def test_n1_heights(self):
        a = Fraction(5, 6)
        assert generator_pattern(P56).ys == (0, a, 1 - a, 1)

    def test_n2_heights_at_a_06(self):
        ys = generator_pattern(P2).ys
        assert ys == (0, Fraction(3, 5), Fraction(1, 5), Fraction(4, 5), Fraction(2, 5), 1)

    @given(rational_a)
    def test_endpoints(self, na):
        N, a = na
        pat = generator_pattern(make_params(N, a))
        assert len(pat.ys) == 2 * N + 2 and len(pat.xs) == 2 * N + 2
        assert pat.ys[0] == 0 and pat.ys[-1] == 1


class TestApproximants:
    def test_f1_peak(self):
        assert eval_fn(P56, 1, Fraction(1, 3)) == Fraction(5, 6)

    def test_fixed_endpoints(self):
        for n in range(5):
            assert eval_fn(P58, n, 0) == 0
            assert eval_fn(P58, n, 1) == 1

    def test_f0_is_identity(self):
        assert eval_fn(P56, 0, 0.375) == 0.375

    def test_f2_leftmost_cell_composes(self):
        a = Fraction(5, 6)
        assert eval_fn(P56, 2, Fraction(1, 9)) == a * a

    def test_x_outside_domain(self):
        with pytest.raises(DomainError):
            eval_fn(P56, 1, 1.5)


class TestEvalF:
    def test_value_at_first_breakpoint(self):
        d = digits_of(Fraction(1, 3), 1)
        assert abs(eval_F(P56, d) - float(Fraction(5, 6))) <= TOL

    def test_midpoint_is_fixed(self):
        # the digit series sums to a/(1+b) = 1/2 for every admissible a
        for p in (P56, P58, make_params(1, Fraction(51, 100))):
            assert abs(eval_F_rational(p, Fraction(1, 2)) - 0.5) <= 2 * TOL
        assert eval_F_exact(P58, digits_of(Fraction(1, 2), 1)) == Fraction(1, 2)

    def test_zero_digits_give_zero(self):
        d = DigitSeq(1, (), (0,))
        assert eval_F(P56, d) == 0.0

    def test_matches_exact_oracle(self):
        rng = random.Random(99)
        for _ in range(150):
            N = rng.randrange(1, 3)
            p = make_params(N, Fraction(rng.randrange(N + 3, 3 * N + 3), 3 * N + 3))
            d = random_digitseq(rng, N)
            assert abs(eval_F(p, d) - float(eval_F_exact(p, d))) <= TOL

    def test_within_one_ulp_of_the_exact_value(self):
        # eval_F's contract: the exact value at a's exact value, rounded once
        rng = random.Random(2016)
        cases = [(rng.randint(1, 4), 1 - 10.0**-k) for k in range(1, 12)]
        for _ in range(90):
            N = rng.randint(1, 4)
            lo = 1 / (N + 1)
            a = lo + (1 - lo) * rng.uniform(0.001, 0.999)
            cases.append((N, a if rng.random() < 0.5 else Fraction(a).limit_denominator(10**6)))
        for N, a in cases:
            d = random_digitseq(rng, N, max_pre=5, max_per=200)
            exact = float(eval_F_exact(make_params(N, Fraction(a)), d))
            assert abs(eval_F(make_params(N, a), d) - exact) <= math.ulp(exact), (N, a, str(d))

    def test_symmetry_about_center(self):
        rng = random.Random(42)
        for _ in range(200):
            x = random_proper_fraction(rng, 5000)
            s = eval_F_rational(P58, x) + eval_F_rational(P58, 1 - x)
            assert abs(s - 1.0) <= 2 * TOL

    def test_grid_agreement_with_approximants(self):
        # F and f_n coincide on the level-n grid
        for p, depth in ((P56, 6), (P58, 6), (P2, 4)):
            B = 2 * p.N + 1
            M = B**depth
            for j in range(1, M, max(1, M // 120)):
                x = Fraction(j, M)
                fn_val = float(eval_fn(p, depth, x))
                assert abs(eval_F_rational(p, x) - fn_val) <= 10 * TOL


class TestSeriesTablesPerParams:
    """F's digit-series tables are built once per Params and read by every point."""

    @pytest.mark.parametrize("a", [Fraction(29, 50), 0.58])
    def test_one_build_for_28_points(self, monkeypatch, a):
        built, series_tables = [], numdigits.series_tables

        def counting(p):
            built.append(p)
            return series_tables(p)

        monkeypatch.setattr(numdigits, "series_tables", counting)
        rng = random.Random(28)
        p = make_params(2, a)
        for _ in range(28):
            d = random_digitseq(rng, 2, max_pre=3, max_per=20)
            eval_F(p, d)
            if isinstance(a, Fraction):
                eval_F_exact(p, d)
            else:
                with pytest.raises(DomainError):
                    eval_F_exact(p, d)
        assert built == [p]

    @pytest.mark.parametrize("a", [Fraction(29, 50), 0.58])
    def test_built_params_equal_a_fresh_one(self, a):
        p, fresh = make_params(1, a), make_params(1, a)
        eval_F(p, digits_of(Fraction(1, 4), 1))
        assert "series_tables" in vars(p) and "series_tables" not in vars(fresh)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert repr(p) == f"Params(N=1, a={a!r}, b={p.b!r})"

    def test_no_table_crosses_from_an_equal_exact_params(self):
        # the float 0.75 and the Fraction 3/4 give equal Params with equal hashes
        exact, flt = make_params(1, Fraction(3, 4)), make_params(1, 0.75)
        assert exact == flt and hash(exact) == hash(flt)
        d = digits_of(Fraction(1, 4), 1)
        assert eval_F_exact(exact, d) == Fraction(3, 7)
        assert eval_F(exact, d) == eval_F(flt, d)
        with pytest.raises(DomainError):
            eval_F_exact(flt, d)
        assert flt.series_tables is not exact.series_tables

    def test_reused_params_agree_with_a_fresh_one_per_point(self):
        rng = random.Random(500)
        shared = {}
        for k in range(500):
            N = 1 + k % 4
            if N not in shared:
                lo = Fraction(1, N + 1)
                a = lo + (1 - lo) * Fraction(rng.randint(1, 999), 1000)
                shared[N] = make_params(N, a), make_params(N, float(a))
            d = random_digitseq(rng, N, max_pre=5, max_per=40)
            for p in shared[N]:
                fresh = make_params(N, p.a)
                assert eval_F(p, d) == eval_F(fresh, d), (N, p.a, str(d))
                if isinstance(p.a, Fraction):
                    assert eval_F_exact(p, d) == eval_F_exact(fresh, d), (N, p.a, str(d))

    def test_hand_built_float_params_is_validated_at_its_first_point(self):
        # a float a's exact value goes through make_params, as at every call before
        with pytest.raises(DomainError):
            eval_F(Params(1, 0.25, -0.5), digits_of(Fraction(1, 4), 1))


class TestSlopes:
    def test_all_even_prefix(self):
        d = DigitSeq(1, (), (0, 2))
        assert slope_fn(P58, d, 2) == (3 * Fraction(29, 50)) ** 2

    def test_all_odd_prefix(self):
        d = DigitSeq(1, (), (1,))
        b = P58.b
        assert slope_fn(P58, d, 3) == -27 * b**3

    def test_mixed_prefix(self):
        d = DigitSeq(1, (1,), (0, 2))
        a, b = P58.a, P58.b
        assert slope_fn(P58, d, 3) == -27 * a**2 * b

    def test_grid_point_rejected(self):
        d = digits_of(Fraction(1, 3), 1)  # level-1 grid point
        for n in (1, 2, 5):
            with pytest.raises(GridPointError):
                slope_fn(P56, d, n)
        # but a level-2 point has a well-defined level-1 slope
        d2 = digits_of(Fraction(2, 9), 1)
        assert slope_fn(P56, d2, 1) == 3 * Fraction(5, 6)
        with pytest.raises(GridPointError):
            slope_fn(P56, d2, 2)

    def test_slope_recursion_ratio(self):
        rng = random.Random(5)
        a, b = P58.a, P58.b
        for _ in range(100):
            d = random_digitseq(rng, 1)
            if d.period == (0,):
                continue
            n = rng.randrange(1, 8)
            ratio = slope_fn(P58, d, n + 1) / slope_fn(P58, d, n)
            assert ratio in (3 * a, -3 * b)

    def test_consecutive_cell_ratio_depth4(self):
        # independent exact subdivision of the pattern, then pairwise ratios
        p = P58
        ys = list(generator_pattern(p).ys)
        vals = [Fraction(0), Fraction(1)]
        for _ in range(4):
            out = []
            for i in range(3):
                seg = [ys[i] + (ys[i + 1] - ys[i]) * v for v in vals]
                out.extend(seg[:-1] if i < 2 else seg)
            vals = out
        slopes = [(vals[j + 1] - vals[j]) * 81 for j in range(len(vals) - 1)]
        want = {-p.a / p.b, -p.b / p.a}
        for j in range(len(slopes) - 1):
            assert slopes[j + 1] / slopes[j] in want


class TestGraphSample:
    def test_depth_zero(self):
        g = sample_graph(P56, 0)
        assert list(g.xs) == [0.0, 1.0] and list(g.ys) == [0.0, 1.0]

    def test_depth_one_matches_pattern(self):
        g = sample_graph(P56, 1)
        assert np.allclose(g.xs, [0, 1 / 3, 2 / 3, 1])
        assert np.allclose(g.ys, [0, 5 / 6, 1 / 6, 1])
        g2 = sample_graph(P2, 1)
        assert np.allclose(g2.ys, [float(v) for v in generator_pattern(P2).ys])

    def test_grid_values_equal_F(self):
        g = sample_graph(P58, 5)
        M = 3**5
        for j in range(7, M, 7):
            assert abs(g.ys[j] - eval_F_rational(P58, Fraction(j, M))) <= 1e-10

    def test_range_and_onto(self):
        g = sample_graph(P56, 6)
        assert g.ys.min() == 0.0 and g.ys.max() == 1.0
        assert np.all(g.ys >= 0) and np.all(g.ys <= 1)

    def test_cap(self):
        with pytest.raises(ResourceError):
            sample_graph(P56, 20)

    def test_csv_shape(self):
        buf = io.StringIO()
        sample_graph(P56, 1).to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x,F"
        assert len(lines) == 5


class TestBoxDimension:
    def test_perkins_value(self):
        assert abs(box_dimension(P56) - (1 + math.log(7 / 3) / math.log(3))) < 1e-15
        assert abs(box_dimension(P56) - 1.7712437491614224) < 1e-12

    def test_n2_value(self):
        assert abs(box_dimension(P2) - (1 + math.log(2.6) / math.log(5))) < 1e-15
        assert abs(box_dimension(P2) - 1.5936926411670822) < 1e-12

    def test_limit_near_amin(self):
        p = make_params(1, Fraction(1, 2) + Fraction(1, 10**9))
        assert abs(box_dimension(p) - 1.0) < 1e-8
