"""Regime thresholds and Hausdorff-dimension quantities.

Five thresholds of the slope parameter a partition the family's behavior:
below a0_tilde the zero-derivative set has full measure, above a0_star it is
empty; below a_inf_hat the infinite-derivative set has positive dimension,
above a_inf_star it is empty, with a countable regime in between.  Closed
forms exist for a_min, a0_star and a_inf_star; a0_tilde and a_inf_hat are
roots of increasing functions with closed-form slopes, found by safeguarded
Newton steps (betaexp.newton_root) inside a sign bracket, a_inf_hat then
rounded to nearest by the exact sign of its Thue-Morse product
(betaexp.thue_morse_order).

The dimension reports decide an int or Fraction a exactly against all five
thresholds: the rational ones by comparison, the others by the sign of their
increasing defining function at a.  A float a meets numdigits.compare, the
package's one tie rule, against the float thresholds.

Everything here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Sequence

from . import betaexp
from .betaexp import (
    EntropyBounds,
    generalized_golden_ratio,
    newton_root,
    polish_root,
    thue_morse_order,
    thue_morse_root,
)
from .derivative import DerivativeTag
from .errors import DomainError, ResourceError
from .numdigits import Number, OmegaSeq, compare, is_exact, make_params

THRESHOLD_NAMES = ("a_min", "a0_tilde", "a0_star", "a_inf_hat", "a_inf_star")  # Thresholds row order
ASYMPTOTIC_LIMITS = (1.0, (1.0 + math.sqrt(2.0)) / 2.0, 1.5, 2.0, 2.0)
# a step scans a candidate word (about 2.5 us; about 15 us for an admissible
# one, with its OmegaSeq, its point and its class's share of is_univoque) or
# builds one point (about 3 us), so at most about 0.5 s at the cap, at N = 1
# and a = 0.501 (2-CPU x86, Python 3.11)
ENUMERATION_WORK_CAP = 100_000
DIMENSION_CURVE_CAP = 100_000  # grid points: about 0.4 s, 0.7 s through the CLI (2-CPU x86)


@dataclass(frozen=True)
class Thresholds:
    """The five regime boundaries for one N.

    Ordering for N >= 5: a_min < a0_tilde < a0_star < a_inf_hat < a_inf_star.
    """

    N: int
    a_min: Fraction
    a0_tilde: float
    a0_star: Fraction
    a_inf_hat: float
    a_inf_star: Number

    def as_row(self) -> tuple[float, ...]:
        """The five thresholds as floats, in THRESHOLD_NAMES order."""
        return tuple(float(getattr(self, name)) for name in THRESHOLD_NAMES)

    def to_json_obj(self) -> dict:
        return {"N": self.N, **dict(zip(THRESHOLD_NAMES, self.as_row()))}


def log_g(N: int, a: float) -> float:
    """log of the normalized defining polynomial for a0_tilde.

    g_N(a) = N^-N (2N+1)^(2N+1) a^(N+1) ((N+1)a - 1)^N is strictly increasing
    on (1/(N+1), 1) with g_N(a0_tilde) = 1.  Its log is taken as (N+1) log(B a)
    + N log(B ((N+1)a - 1) / N), B = 2N+1, with each argument rounded once
    from a's exact value: no terms of size N log N cancel, and no bits of (N+1)a - 1.
    """
    B = 2 * N + 1
    n, d = a.as_integer_ratio()
    return (N + 1) * math.log(B * n / d) + N * math.log(B * ((N + 1) * n - d) / (N * d))


def a0_tilde(N: int) -> float:
    """The root of log_g by betaexp.newton_root, with slope (N+1)/a + N(N+1)/((N+1)a - 1).

    Over N = 1..3000 it is within 0.81 ulp of a 60-digit root, the nearest
    float at 2,765 of them.  Rounding it by exact signs of P_N
    (_a0_tilde_sign) would cost about 12 ms a sign at N = 1999.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    B = 2 * N + 1

    def f(a: float) -> tuple[float, float]:
        n, d = a.as_integer_ratio()
        return log_g(N, a), (N + 1) / a + N * (N + 1) * d / ((N + 1) * n - d)

    try:
        # start at the root of B^2 a ((N+1)a - 1) = N: g_N = 1 with N for N+1 in a's power
        x0 = (B + math.sqrt(8 * N * N + 8 * N + 1)) / (2 * B * (N + 1))
        return newton_root(f, x0, math.nextafter(1 / (N + 1), 1), 1.0)
    except OverflowError:  # the slope at the bracket's left end, from N of about 10^147
        raise ResourceError(f"a0_tilde for N={N} is past float range") from None


def a0_star(N: int) -> Fraction:
    if N < 1:
        raise DomainError("N must be >= 1")
    return Fraction(3 * N + 1, (N + 1) * (2 * N + 1))


def a_inf_star(N: int) -> Number:
    """1/G for the generalized golden ratio G: exact for even N, a float for odd N."""
    G = generalized_golden_ratio(N)
    return Fraction(1, G) if isinstance(G, int) else 1.0 / G


def a_inf_hat(N: int) -> float:
    """1/q_KL(N) rounded to nearest: thue_morse_root(N) polished by the exact sign of S(a) - 1."""
    return polish_root(thue_morse_root(N), lambda n, d: thue_morse_order(N, n, d) == -1)


def thresholds(N: int) -> Thresholds:
    """All five thresholds for one N; closed forms where they exist."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return Thresholds(
        N=N,
        a_min=Fraction(1, N + 1),
        a0_tilde=a0_tilde(N),
        a0_star=a0_star(N),
        a_inf_hat=a_inf_hat(N),
        a_inf_star=a_inf_star(N),
    )


def critical_frequency(N: int, a: Number) -> float:
    """Odd-digit frequency at which the approximant slopes neither grow nor decay.

    phi = log((2N+1)a) / log(1 + r), r = (1 - a) / ((N+1)a - 1); it satisfies
    (2N+1) a (b/a)^phi = 1.  The domain test is exact.  r is exact for an
    int/Fraction a; for a float a, (N+1)a - 1 is rounded once, so nothing
    cancels near either end.  log(1 + r) is log1p(r), or log(numerator +
    denominator) - log(denominator) once an exact r is past float range; a
    denominator that underflows to 0 gives inf.
    """
    exact = is_exact(a)
    q = Fraction(a) if exact else a
    # (N+1)a - 1, exact or rounded once: either way its sign is exact
    excess = (N + 1) * q - 1 if exact else math.fsum([a] * (N + 1) + [-1.0])
    if not (excess > 0 and a < 1):
        raise DomainError(f"a must lie in (1/{N + 1}, 1), got {a}")
    r = (1 - q) / excess
    if r < 2**1000:
        log_ratio = math.log1p(r)
    else:  # an exact r past float range
        log_ratio = math.log(r.numerator + r.denominator) - math.log(r.denominator)
    if log_ratio == 0.0:
        return math.inf
    return math.log((2 * N + 1) * float(a)) / log_ratio


def frequency_dimension(N: int, p: float) -> float:
    """Dimension of the set of points with odd-digit frequency p.

    -(p log(p/N) + (1-p) log((1-p)/(N+1))) / log(2N+1); equals 1 at
    p = N/(2N+1) and tends to log(N+1)/log(2N+1), log(N)/log(2N+1) at the
    endpoints.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")
    return -(
        p * math.log(p / N) + (1 - p) * math.log((1 - p) / (N + 1))
    ) / math.log(2 * N + 1)


def frequency_set_dimension(N: int, probs: Sequence[float]) -> float:
    """Dimension of the set of points with prescribed digit frequencies.

    Shannon entropy of the 2N+1 probabilities in base 2N+1, with the
    convention 0 log 0 = 0.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if len(probs) != 2 * N + 1:
        raise DomainError(f"expected {2 * N + 1} probabilities, got {len(probs)}")
    total = 0.0
    for q in probs:
        q = float(q)
        if not q >= 0:  # also a NaN
            raise DomainError(f"probability {q} is not a number >= 0")
        total += q
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {total}, not 1")
    acc = 0.0
    for q in probs:
        q = float(q)
        if q > 0:
            acc -= q * math.log(q)
    return acc / math.log(2 * N + 1)


@dataclass(frozen=True)
class DimensionReport:
    """Dimension value (or bounds) with the regime label and echoed inputs."""

    N: int
    a: float
    regime: str
    value: float | tuple[float, float]
    depth: int | None = None
    note: str | None = None
    at_threshold: bool = False

    def to_json_obj(self) -> dict:
        obj: dict = {"N": self.N, "a": self.a, "regime": self.regime}
        if isinstance(self.value, tuple):
            obj["lower"], obj["upper"] = self.value
        else:
            obj["value"] = self.value
        if self.depth is not None:
            obj["depth"] = self.depth
        if self.note is not None:
            obj["note"] = self.note
        if self.at_threshold:
            obj["at_threshold"] = True
        return obj


def _a0_tilde_sign(N: int, p: int, q: int) -> int:
    """Sign of p/q - a0_tilde: that of log_g, so of
    P_N(p/q) = (2N+1)^(2N+1) p^(N+1) ((N+1)p - q)^N - N^N q^(2N+1)."""
    B = 2 * N + 1
    return compare(B**B * p ** (N + 1) * ((N + 1) * p - q) ** N - N**N * q**B, 0)


def _golden_sign(N: int, p: int, q: int) -> int:
    """Sign of p/q - a_inf_star for odd N = 2m-1: that of m a^2 + m a - 1 at a = p/q."""
    m = (N + 1) // 2
    return compare(m * p * (p + q) - q * q, 0)


def _regime_index(N: int, a: Number, thresholds: Sequence[tuple]) -> tuple[int, bool]:
    """How many ascending thresholds a reaches (a tie reaches one), and whether it ties the last.

    thresholds holds one (value, sign) pair per threshold.  An exact a = p/q
    is placed by sign(N, p, q) where a sign is given; every other a by
    numdigits.compare(a, value(N)), exact against a Fraction value.  They are
    asked from the top down, so a threshold is decided only when a lies below
    every higher one.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if (compare(a, Fraction(1, N + 1), what="a"), compare(a, 1, what="a")) != (1, -1):
        raise DomainError(f"a must lie in (1/{N + 1}, 1), got {a}")
    pq = Fraction(a).as_integer_ratio() if is_exact(a) else None
    for k in range(len(thresholds), 0, -1):
        value, sign = thresholds[k - 1]
        order = sign(N, *pq) if pq and sign else compare(a, value(N))
        if order != -1:
            return k, order is None
    return 0, False


def dim_zero_set(N: int, a: Number) -> DimensionReport:
    """Dimension report for the set where F' = 0.

    EMPTY (value 0) from a0_star on, including the endpoint;
    NULL_UNCOUNTABLE with value h(phi(a)) on [a0_tilde, a0_star); below
    a0_tilde the set has full measure and the reported value is the dimension
    of its complement.  An exact a is placed exactly; a float a that ties a
    threshold (numdigits.compare) gets the regime at that threshold, flagged
    at_threshold.
    """
    k, tie = _regime_index(N, a, ((a0_tilde, _a0_tilde_sign), (a0_star, None)))
    regime = ("FULL_MEASURE", "NULL_UNCOUNTABLE", "EMPTY")[k]
    value = frequency_dimension(N, critical_frequency(N, a)) if k < 2 else 0.0
    note = "set has full measure; value is the dimension of its complement" if k == 0 else None
    return DimensionReport(N, float(a), regime, value, note=note, at_threshold=tie)


def dim_infinite_set(N: int, a: Number, depth: int = 20) -> DimensionReport:
    """Dimension report for the set where F' = +/-infinity.

    EMPTY from a_inf_star on; COUNTABLE_RATIONAL strictly between a_inf_hat
    and a_inf_star; UNCOUNTABLE_DIM_ZERO at the computed a_inf_hat (neighbors
    listed); below that, bounds log(1/a)/log(2N+1) times the univoque-set
    entropy bounds at the given depth, which must be >= 2 in every regime.
    An exact a is placed exactly, against a_inf_hat by the sign of S(a) - 1
    (betaexp.thue_morse_order, S increasing with S = 1 at a_inf_hat), whose
    fixed-point bits double from 64 until they decide; past
    betaexp.A_INF_HAT_BITS_CAP bits it raises ResourceError.  A float a that
    ties a threshold (numdigits.compare) gets the regime at it, flagged
    at_threshold.
    """
    star_sign = _golden_sign if N % 2 else None  # an even N's a_inf_star is a Fraction
    k, tie = _regime_index(N, a, ((a_inf_hat, thue_morse_order), (a_inf_star, star_sign)))
    if depth < 2:
        raise DomainError("depth must be >= 2")
    af = float(a)
    if k == 1 and tie:
        note = "at the countable/positive-dimension threshold; "
        note += "COUNTABLE_RATIONAL above, POSITIVE_DIM below"
        return DimensionReport(N, af, "UNCOUNTABLE_DIM_ZERO", 0.0, note=note, at_threshold=True)
    if k:
        regime = ("COUNTABLE_RATIONAL", "EMPTY")[k - 1]
        return DimensionReport(N, af, regime, 0.0, at_threshold=tie)
    beta = 1 / Fraction(a) if is_exact(a) else 1.0 / af
    eb: EntropyBounds = betaexp.univoque_entropy_bounds(N, beta, depth)
    factor = math.log(1.0 / af) / math.log(2 * N + 1)
    return DimensionReport(
        N=N,
        a=af,
        regime="POSITIVE_DIM",
        value=(factor * eb.lower, factor * eb.upper),
        depth=depth,
    )


@dataclass(frozen=True)
class PointCertificate:
    """A point of the infinite-derivative set with its construction witness."""

    x: Fraction
    prefix: tuple[int, ...]
    omega: OmegaSeq
    tag: DerivativeTag

    def to_json_obj(self) -> dict:
        return {
            "x": f"{self.x.numerator}/{self.x.denominator}",
            "x_float": float(self.x),
            "prefix": list(self.prefix),
            "omega": str(self.omega),
            "tag": self.tag.value,
        }


@dataclass(frozen=True)
class InfiniteSetEnumeration:
    """Points prefix . (2w)^inf of D_inf(a), each with its (prefix, w) witness.

    For an all-even period 2w, the derivative's tail margins and
    is_univoque's two conditions in base beta = 1/a are one object,
    numdigits.TailMargins of w.  So every admissible w gives F' = +-inf,
    and the sign is the parity of the prefix's odd digits.
    `rejected` is always empty; it stays so that the enumerate-dinf JSON
    keeps its shape.
    """

    points: tuple[PointCertificate, ...]
    rejected: tuple[PointCertificate, ...]


def enumerate_infinite_points(
    N: int, a: Number, max_prefix_len: int, max_period: int
) -> InfiniteSetEnumeration:
    """All points prefix . (2w)^inf with w primitive, periodic and univoque.

    is_univoque in base 1/a reads only the extremes of the shift values, one
    set for every rotation, so it runs once per rotation class up to
    max_period, at the Lyndon word (strictly less than each proper rotation),
    and a class that passes adds all its rotations.  Prefixes run over all
    base-(2N+1) words up to max_prefix_len.  The tag is PLUS_INFINITY for a
    prefix with an even number of odd digits and MINUS_INFINITY otherwise
    (see InfiniteSetEnumeration).  With B = 2N+1, V the prefix and W the
    period 2w read in base B, x = (V (B^m - 1) + W) / (B^L (B^m - 1)) over
    the one denominator B^max_prefix_len lcm(B^m - 1).  A point is emitted
    once, from its canonical (prefix, w): a prefix ending in 2w's last digit
    gives the point of the shorter prefix with w rotated, so it is skipped.
    The work is estimated up front as the candidate words plus the prefixes
    times them; above ENUMERATION_WORK_CAP it raises ResourceError.
    """
    if max_prefix_len < 0 or max_period < 1:
        raise DomainError("max_prefix_len must be >= 0 and max_period >= 1")
    make_params(N, a)  # validates N and a
    # there are at least 2^k words of length k, so lengths past 64 are over
    # the cap without summing huge powers
    if max(max_period, max_prefix_len) > 64:
        raise ResourceError(
            f"max_period {max_period} and max_prefix_len {max_prefix_len} put the "
            f"enumeration over its cap of {ENUMERATION_WORK_CAP} steps"
        )
    # every candidate word may prove admissible and pair with every prefix
    words = sum((N + 1) ** k for k in range(1, max_period + 1))
    prefixes = sum((2 * N + 1) ** k for k in range(max_prefix_len + 1))
    work = words + prefixes * words
    if work > ENUMERATION_WORK_CAP:
        raise ResourceError(
            f"enumeration would test {words} candidate words and build up to "
            f"{prefixes} x {words} points, one per prefix and word ({work} steps "
            f"in all), over the cap of {ENUMERATION_WORK_CAP}"
        )
    beta = 1 / Fraction(a) if is_exact(a) else 1.0 / float(a)
    admissible: list[OmegaSeq] = []
    for plen in range(1, max_period + 1):
        for word in product(range(N + 1), repeat=plen):
            lyndon = all(word < word[k:] + word[:k] for k in range(1, plen))
            if lyndon and betaexp.is_univoque(OmegaSeq(N, (), word), N, beta):
                admissible += (OmegaSeq(N, (), word[k:] + word[:k]) for k in range(plen))
    B = 2 * N + 1
    # the all-zero period (x = 0) never occurs: a constant word is not univoque
    lcm = math.lcm(*{B ** len(w.period) - 1 for w in admissible})
    tails = []  # (w, W, 2w's last digit) with W over the denominator lcm
    for w in admissible:
        W = reduce(lambda s, t: s * B + 2 * t, w.period, 0)
        tails.append((w, W * (lcm // (B ** len(w.period) - 1)), 2 * w.period[-1]))
    found = []  # (numerator, prefix, w, tag), one per point
    for plen in range(max_prefix_len + 1):
        scale = B ** (max_prefix_len - plen)
        scaled = [(w, scale * t, last) for w, t, last in tails]
        for v in product(range(B), repeat=plen):
            head = reduce(lambda s, d: s * B + d, v, 0) * scale * lcm
            # sum(v) has the parity of v's odd-digit count
            tag = (DerivativeTag.PLUS_INFINITY, DerivativeTag.MINUS_INFINITY)[sum(v) % 2]
            found += ((head + t, v, w, tag) for w, t, last in scaled if not v or v[-1] != last)
    D = B ** max_prefix_len * lcm
    found.sort(key=lambda r: r[0])
    points = tuple(PointCertificate(Fraction(k, D), v, w, tag) for k, v, w, tag in found)
    return InfiniteSetEnumeration(points=points, rejected=())


@dataclass(frozen=True)
class AsymptoticsReport:
    """N-scaled thresholds against their large-N limits.

    rows hold N and N times each threshold, in THRESHOLD_NAMES order;
    deltas compare the last row against the limits 1, (1+sqrt 2)/2, 3/2, 2, 2.
    """

    rows: tuple[tuple[float, ...], ...]
    limits: tuple[float, ...] = field(default=ASYMPTOTIC_LIMITS)
    deltas: tuple[float, ...] = ()
    columns = ("N", *(f"N*{name}" for name in THRESHOLD_NAMES))  # a class constant, no field

    def to_json_obj(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "limits": list(self.limits),
            "last_row_deltas": list(self.deltas),
        }


def threshold_asymptotics(N_values: Sequence[int]) -> AsymptoticsReport:
    rows = []
    for N in N_values:
        t = thresholds(N)
        rows.append((float(N),) + tuple(N * v for v in t.as_row()))
    deltas = tuple(abs(v - lim) for v, lim in zip(rows[-1][1:], ASYMPTOTIC_LIMITS)) if rows else ()
    return AsymptoticsReport(rows=tuple(rows), deltas=deltas)


def dimension_curve(N: int, count: int = 200) -> list[tuple[float, float]]:
    """count grid samples of a -> h(phi(a)) on (a_min, a0_star), at most DIMENSION_CURVE_CAP."""
    if count < 2:
        raise DomainError("count must be >= 2")
    if count > DIMENSION_CURVE_CAP:
        raise ResourceError(f"count = {count} grid points exceed the cap of {DIMENSION_CURVE_CAP}")
    hi = float(a0_star(N))  # validates N
    lo = 1.0 / (N + 1)
    out = []
    for k in range(count):
        a = lo + (hi - lo) * (k + 1) / (count + 1)
        out.append((a, frequency_dimension(N, critical_frequency(N, a))))
    return out
