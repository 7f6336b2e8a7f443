"""Output checks shared by the in-process workloads and the CLI workload.

Every function takes plain values (so a CLI's parsed JSON and a library
result are checked alike) and returns a list of problems, empty when the
output is right.  The expected values come from `oracle`, never from okamoto.
"""

from __future__ import annotations

from fractions import Fraction

import oracle

F_TOL = 1e-12  # eval_F's documented absolute error bound (DEFAULT_TOL)
FLOAT_SLACK = 1e-14  # roundoff allowed on top of a documented bound
THRESHOLD_TOL = 1e-10
DIM_TOL = 1e-9
TIE = 1e-9  # a float input this close to a decision boundary may go either way
INFINITE_TAGS = ("PLUS_INFINITY", "MINUS_INFINITY")


def close(label, got, want, tol) -> list[str]:
    if abs(float(got) - float(want)) <= tol:
        return []
    return [f"{label}: got {float(got)!r}, expected {float(want)!r} (tol {tol})"]


def point(N: int, a, x: Fraction, tag: str, F: float, tol: float = F_TOL) -> list[str]:
    """Verdict and series value of F at a rational x, for a given as Fraction or float."""
    out = []
    want, decided_on = oracle.verdict(N, Fraction(a), *oracle.expand(x, 2 * N + 1))
    tie = isinstance(a, float) and abs(decided_on) <= TIE
    if tag != want and not tie:
        out.append(f"verdict at N={N} a={a} x={x}: got {tag}, expected {want}")
    return out + series_value(N, a, x, F, tol)


def series_value(N: int, a, x: Fraction, F: float, tol: float = F_TOL) -> list[str]:
    """eval_F's value against an mpmath sum of the digit series, within tol."""
    ref = oracle.F_mp(N, Fraction(a), *oracle.expand(x, 2 * N + 1))
    return close(f"eval_F at N={N} a={a} x={x}", F, ref, tol + FLOAT_SLACK)


def self_affine(N: int, a: Fraction, i: int, F_x: Fraction, F_shifted: Fraction) -> list[str]:
    """F((i+x)/(2N+1)) = y_i + (y_{i+1} - y_i) F(x), exactly."""
    ys, _ = oracle.pattern(N, a)
    if F_shifted == ys[i] + (ys[i + 1] - ys[i]) * F_x:
        return []
    return [f"self-affine equation fails at N={N} a={a} digit {i}"]


def exact_value(N: int, a: Fraction, x: Fraction, F_x) -> list[str]:
    if not isinstance(F_x, Fraction):
        return [f"eval_F_exact at N={N} a={a} x={x} returned {type(F_x).__name__}"]
    ref = oracle.F_mp(N, a, *oracle.expand(x, 2 * N + 1))
    return close(f"eval_F_exact at N={N} a={a} x={x}", F_x, ref, 1e-25)


def threshold_row(N: int, row) -> list[str]:
    """(a_min, a0_tilde, a0_star, a_inf_hat, a_inf_star) against mpmath solves."""
    want = oracle.thresholds_mp(N)
    names = ("a_min", "a0_tilde", "a0_star", "a_inf_hat", "a_inf_star")
    out = []
    for name, got, ref in zip(names, row, want):
        out += close(f"{name}(N={N})", got, ref, THRESHOLD_TOL)
    if N >= 5 and not all(float(row[i]) < float(row[i + 1]) for i in range(4)):
        out.append(f"thresholds for N={N} are out of order: {row}")
    return out


def _near(a, t) -> bool:
    return abs(oracle.mpf_of(a) - t) <= TIE


def dim_zero(N: int, a: Fraction, regime: str, value: float) -> list[str]:
    a_min, a0t, a0s, _, _ = oracle.thresholds_mp(N)
    if a >= a0s:
        want, ref = "EMPTY", 0.0
    else:
        want = "FULL_MEASURE" if oracle.mpf_of(a) < a0t else "NULL_UNCOUNTABLE"
        ref = oracle.h_phi(N, a)
    out = []
    if regime != want and not _near(a, a0t):
        out.append(f"dim_zero_set(N={N}, a={a}) regime {regime}, expected {want}")
    return out + close(f"dim_zero_set(N={N}, a={a})", value, ref, DIM_TOL)


def dim_inf_counting_free(N: int, a: Fraction, regime: str, value: float) -> list[str]:
    """Regimes of dim_infinite_set above a_inf_hat, where the value is 0."""
    _, _, _, hat, star = oracle.thresholds_mp(N)
    want = "EMPTY" if oracle.mpf_of(a) >= star else "COUNTABLE_RATIONAL"
    out = []
    if oracle.mpf_of(a) <= hat + TIE:
        out.append(f"dim_infinite_set(N={N}, a={a}) input is not above a_inf_hat")
    if regime != want and not _near(a, star):
        out.append(f"dim_infinite_set(N={N}, a={a}) regime {regime}, expected {want}")
    if value != 0.0:
        out.append(f"dim_infinite_set(N={N}, a={a}) value {value}, expected 0")
    return out


def curve_point(N: int, a: float, value: float) -> list[str]:
    return close(f"h(phi({a})) for N={N}", value, oracle.h_phi(N, a), DIM_TOL)


def entropy_recount(N: int, beta: Fraction, depth: int, lower: float, upper: float, scale: float = 1.0) -> list[str]:
    """Bounds at a depth small enough to recount every word (times `scale`)."""
    (lo_min, lo_max), up = oracle.entropy_bounds(N, beta, depth)
    out = close(f"upper bound N={N} beta={beta} d={depth}", upper, scale * up, 1e-12)
    if not (scale * lo_min - 1e-12 <= lower <= scale * lo_max + 1e-12):
        out.append(
            f"lower bound N={N} beta={beta} d={depth}: got {lower}, "
            f"recount gives [{scale * lo_min}, {scale * lo_max}]"
        )
    return out


def ordered_bounds(label: str, lower: float, upper: float, top: float = 1.0) -> list[str]:
    if 0.0 <= lower <= upper <= top + FLOAT_SLACK:
        return []
    return [f"{label}: bounds ({lower}, {upper}) are not ordered within [0, {top}]"]


def enumeration(N: int, a: Fraction, max_prefix: int, max_period: int, points, rejected) -> list[str]:
    """Points given as (x, prefix, omega period, tag) certificates.

    Every certificate must reconstruct its x, carry a univoque omega and the
    verdict the bench decides; together they must be exactly the points the
    bench builds from its own list of univoque words.
    """
    B = 2 * N + 1
    admissible = [
        w
        for plen in range(1, max_period + 1)
        for w in oracle.primitive_words(N + 1, plen)
        if oracle.is_univoque_periodic(w, N, a)
    ]
    from itertools import product

    expected = {
        oracle.value_of(v, tuple(2 * t for t in w), B)
        for plen in range(max_prefix + 1)
        for v in product(range(B), repeat=plen)
        for w in admissible
    }
    out = []
    seen = set()
    for x, prefix, omega, tag in list(points) + list(rejected):
        seen.add(x)
        if oracle.value_of(prefix, tuple(2 * t for t in omega), B) != x:
            out.append(f"certificate {prefix} {omega} does not give x={x}")
        if not oracle.is_univoque_periodic(omega, N, a):
            out.append(f"omega {omega} is not univoque in base 1/{a}")
        want, _ = oracle.verdict(N, a, *oracle.expand(x, B))
        if tag != want:
            out.append(f"enumerated x={x}: tag {tag}, expected {want}")
    for x, _, _, tag in points:
        if tag not in INFINITE_TAGS:
            out.append(f"point x={x} listed with tag {tag}")
    if seen != expected:
        out.append(
            f"enumeration N={N} a={a}: {len(seen)} points, expected {len(expected)}"
        )
    return out


def expansion_count(x, N: int, beta, count: int, saturated: bool, want: int) -> list[str]:
    if (count, saturated) == (want, False):
        return []
    return [f"count_expansions({x}, N={N}, beta={beta}) = {count} (saturated={saturated}), expected {want}"]
