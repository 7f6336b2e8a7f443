"""Construction and evaluation of the self-affine family F and its approximants.

The function F is the uniform limit of piecewise-linear maps f_n generated by
a (2N+2)-point interpolation pattern.  Grid values of f_n are exact values of
F, which makes the sampled graphs exact up to floating-point roundoff.

All functions here are pure; graph sampling can be partitioned over disjoint
index ranges without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, TextIO

from .errors import DomainError, GridPointError, PrecisionError, ResourceError
from .numdigits import (
    DigitSeq,
    Number,
    Params,
    decimal_context,
    digits_of,
    is_exact,
    odd_count_prefix,
)

if TYPE_CHECKING:
    import numpy as np

GRAPH_POINT_CAP = 10_000_000
# 20 of eval_F's 50 digits survive at 1 - a = 1e-30; floats stop at 2^-53
NEAR_ONE = Fraction(1, 10**30)


@dataclass(frozen=True)
class GeneratorPattern:
    """Interpolation points (x_i, y_i), i = 0..2N+1, of the generating map.

    x_i = i/(2N+1); y_{2j} = j(a-b), y_{2j+1} = (j+1)a - jb.  Consecutive
    slope ratios after the first lie in {-a/b, -b/a}.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Number, ...]


def generator_pattern(p: Params) -> GeneratorPattern:
    B = 2 * p.N + 1
    return GeneratorPattern(xs=tuple(Fraction(i, B) for i in range(B + 1)), ys=p.ys)


def eval_fn(p: Params, n: int, x: Number) -> Number:
    """Value of the n-th piecewise-linear approximant f_n at x; f_0(x) = x.

    O(n) work: descends one subdivision level per step, accumulating the
    affine image of the current cell.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not (0 <= x <= 1):
        raise DomainError(f"x must lie in [0,1], got {x}")
    B = 2 * p.N + 1
    ys = p.ys
    offset: Number = 0 * x  # matches the arithmetic type of x
    scale: Number = 1
    t = x
    for _ in range(n):
        u = B * t
        i = min(int(u), B - 1)
        offset = offset + scale * ys[i]
        scale = scale * (ys[i + 1] - ys[i])
        t = u - i
    return offset + scale * t


def eval_F(p: Params, d: DigitSeq) -> float:
    """Value of F at the point represented by d, as a float.

    The result lies within one ulp of float(eval_F_exact(q, d)), with
    q = make_params(N, Fraction(a)) at a's exact value: the series is summed
    in closed form at 50 digits (DigitSeq.series_sum of the tables that
    decimal_series_sum builds), then rounded.  A rational a within NEAR_ONE =
    1e-30 of 1, far nearer than any float, raises PrecisionError: 1 - a^m
    would cancel too many of those digits.  The tables depend on (N, a) alone
    and are built at p's first call (Params.series_tables), so points that
    share one p share one build.
    """
    if d.N != p.N:
        raise DomainError(f"digit sequence has N={d.N}, params have N={p.N}")
    s = p.series_tables
    if 1 - s.a < NEAR_ONE:
        raise PrecisionError(
            f"a lies within {float(NEAR_ONE)} of 1; use eval_F_exact for its exact value"
        )
    with decimal_context():
        return float(d.series_sum(*s.decimal))


def eval_F_exact(p: Params, d: DigitSeq) -> Fraction:
    """Exact value of F at an eventually periodic point, for rational a.

    The digit series is summed in closed form over one period, on integers
    over one shared denominator (DigitSeq.series_sum), from the Fraction
    tables that p builds once for every point (Params.series_tables).
    """
    if not is_exact(p.a):
        raise DomainError("eval_F_exact requires a rational slope parameter a")
    if d.N != p.N:
        raise DomainError(f"digit sequence has N={d.N}, params have N={p.N}")
    s = p.series_tables
    return d.series_sum(s.term, s.ratio)


def eval_F_rational(p: Params, x: Fraction) -> float:
    """Convenience wrapper: expand a rational x and evaluate F there."""
    return eval_F(p, digits_of(x, p.N))


def slope_fn(p: Params, d: DigitSeq, n: int) -> Number:
    """Signed slope of f_n on the level-n cell containing the point.

    Equals (2N+1)^n a^(n-i) (-b)^i with i the number of odd digits among the
    first n.  Undefined (GridPointError) when the point is a grid point of
    level <= n, i.e. its digit tail beyond n is all zeros.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if d.N != p.N:
        raise DomainError(f"digit sequence has N={d.N}, params have N={p.N}")
    if d.tail_is_zero_beyond(n):
        raise GridPointError(
            f"x = {d} is a grid point of level <= {n}; f_{n} has no slope there"
        )
    B = 2 * p.N + 1
    i = odd_count_prefix(d, n)
    return B**n * p.a ** (n - i) * (-p.b) ** i


@dataclass(frozen=True)
class GraphSample:
    """Exact values of F on the uniform level-`depth` grid.

    Endpoints of adjacent cells are shared, so plotted polylines are closed.
    """

    depth: int
    xs: np.ndarray
    ys: np.ndarray

    def to_csv(self, out: TextIO) -> None:
        out.write("x,F\n")
        for x, y in zip(self.xs, self.ys):
            out.write(f"{x:.17g},{y:.17g}\n")

    def to_json_obj(self) -> list[list[float]]:
        return [[float(x), float(y)] for x, y in zip(self.xs, self.ys)]


def sample_graph(p: Params, depth: int) -> GraphSample:
    """F at all grid points j/(2N+1)^depth, computed by level-wise subdivision."""
    import numpy as np

    if depth < 0:
        raise DomainError("depth must be nonnegative")
    B = 2 * p.N + 1
    npts = B**depth + 1
    if npts > GRAPH_POINT_CAP:
        raise ResourceError(
            f"(2N+1)^depth = {npts - 1} grid cells exceed the cap of {GRAPH_POINT_CAP}"
        )
    ys_pat = [float(v) for v in p.ys]
    vals = np.array([0.0, 1.0])
    for _ in range(depth):
        parts = []
        for i in range(B):
            seg = ys_pat[i] + (ys_pat[i + 1] - ys_pat[i]) * vals
            parts.append(seg[:-1] if i < B - 1 else seg)
        vals = np.concatenate(parts)
    xs = np.arange(npts, dtype=float) / (npts - 1) if depth > 0 else np.array([0.0, 1.0])
    return GraphSample(depth=depth, xs=xs, ys=vals)


def box_dimension(p: Params) -> float:
    """Closed-form box-counting dimension of the graph: 1 + log(2(N+1)a-1)/log(2N+1)."""
    return 1.0 + math.log(2 * (p.N + 1) * float(p.a) - 1.0) / math.log(2 * p.N + 1)
