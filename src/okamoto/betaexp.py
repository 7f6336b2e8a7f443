"""Expansions in a non-integer base beta over the alphabet {0,...,N}.

Covers the projection map, shift/complement operations, greedy-style
expansions of 1, membership in the set of uniquely expandable points, a
branching oracle that counts expansions, Thue-Morse style sequences with the
associated critical bases, and entropy-based dimension bounds for the set of
points with a unique expansion.

Numeric policy: strict comparisons follow numdigits.compare.  A beta given
as an int or Fraction is decided exactly; a beta given as a float is taken at
its exact value, and a comparison within numdigits.TIE_TOL of a boundary
raises PrecisionError instead of guessing.  The expansion of 1 is computed
at beta's exact value too; only an integer beta gives a periodic one.

All operations are pure.  The word counting in univoque_entropy_bounds grows
admissible prefixes one digit at a time, so its cost follows the surviving
words rather than all (N+1)^d of them, and it grows them in blocks of one
size, so its memory stays within that block's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ConvergenceError, DomainError, PrecisionError, ResourceError
from .numdigits import (
    TIE_TOL, Number, OmegaSeq, TailMargins, _projection_tables, as_fraction, compare, is_exact,
)

DEFAULT_FRONTIER_CAP = 50_000_000
QUASI_GREEDY_DIGIT_CAP = 4096  # bounds --max-len; entropy bounds read at most 51 digits
# b bits resolve a to about 2^-b from a_inf_hat, so 2^16 cover every a of the CLI's
# 4,300 digits; the doubling chain up to the cap takes about 0.12 s (2-CPU x86, Python 3.11)
A_INF_HAT_BITS_CAP = 1 << 16
TM_PREFIX_CAP = 1_000_000  # Thue-Morse terms: about 0.35 s, 0.6 s through the CLI (2-CPU x86)
# count_expansions' levels; den gains digits every level, so time grows with depth^2:
# about 0.4 s at the cap at beta = kl:1 (2-CPU x86, Python 3.11)
COUNT_DEPTH_CAP = 4096
# bounds depth * cap, so 2 depth cap steps: the slowest input found at the cap, beta = kl:1
# at x = 1, takes about 0.2 s (depth 150); cap 10^5 at depth 200 took 2.4 s (2-CPU x86)
COUNT_WORK_CAP = 1_000_000


def pi_beta(w: OmegaSeq, beta) -> Number:
    """Projection sum(w_j * beta^-j), in closed form for eventually periodic w.

    Exact (Fraction) when beta is an int or Fraction.  A float beta is summed
    at its exact value at 50 digits (decimal_series_sum) and rounded once, as
    eval_F does: 1 - beta^-m > 2^-53, so it is within one ulp of the exact sum.
    """
    if beta <= 1:
        raise DomainError(f"beta must exceed 1, got {beta}")
    tables = _projection_tables(w.N, beta)
    return w.series_sum(*tables) if is_exact(beta) else float(w.decimal_series_sum(*tables))


def shift(w: OmegaSeq, n: int = 1) -> OmegaSeq:
    """Left shift by n digits; eventual periodicity is preserved."""
    if n < 0:
        raise DomainError("shift count must be nonnegative")
    L = len(w.preperiod)
    m = len(w.period)
    if n <= L:
        return OmegaSeq(w.N, w.preperiod[n:], w.period)
    k = (n - L) % m
    return OmegaSeq(w.N, (), w.period[k:] + w.period[:k])


def complement(w: OmegaSeq) -> OmegaSeq:
    """Digitwise reflection d -> N - d."""
    return OmegaSeq(
        w.N,
        tuple(w.N - d for d in w.preperiod),
        tuple(w.N - d for d in w.period),
    )


@dataclass(frozen=True)
class QuasiGreedyResult:
    """Expansion of 1: the largest digit sequence not ending in all zeros.

    Only an integer beta has a periodic expansion, the period (beta - 1);
    then `seq` holds it and `truncated` is False.  For every other beta
    `digits` is a plain prefix, `seq` is None and `truncated` is True.
    """

    N: int
    digits: tuple[int, ...]
    seq: OmegaSeq | None
    truncated: bool

    def digits_extended(self, length: int) -> list[int]:
        """First `length` digits; a truncated prefix is padded with N.

        Padding with the maximal digit only enlarges the sequence
        lexicographically, so upper-bound uses remain valid.
        """
        if self.seq is not None:
            return self.seq.digits(length)
        out = list(self.digits[:length])
        out.extend([self.N] * (length - len(out)))
        return out


def quasi_greedy_one(N: int, beta, max_len: int) -> QuasiGreedyResult:
    """Digits of the quasi-greedy expansion of 1 in base beta over {0,...,N}.

    Each digit is the largest that leaves a strictly positive remainder:
    d_k = min(N, ceil(beta * r) - 1), r <- beta*r - d_k, starting from r = 1,
    in exact arithmetic at beta's exact value.  For beta = p/q with q > 1 the
    k-th remainder has denominator q^k, so r returns to 1 only for an integer
    beta, whose expansion is the period (beta - 1); any other beta gives a
    truncated prefix of max_len digits.  For a float beta, beta*r within
    numdigits.TIE_TOL of a digit boundary 1..N raises PrecisionError.
    max_len above QUASI_GREEDY_DIGIT_CAP raises ResourceError.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    if max_len > QUASI_GREEDY_DIGIT_CAP:
        raise ResourceError(
            f"max_len = {max_len} digits exceed the cap of {QUASI_GREEDY_DIGIT_CAP}"
        )
    if not (1 < beta <= N + 1):
        raise DomainError(f"beta must lie in (1, {N + 1}], got {beta}")
    inexact = not is_exact(beta)
    bq = Fraction(beta)
    r = Fraction(1)
    digits: list[int] = []
    for _ in range(max_len):
        if digits and r == 1:
            return QuasiGreedyResult(N, tuple(digits), OmegaSeq(N, (), tuple(digits)), False)
        br = bq * r
        if inexact and 1 <= (k := round(br)) <= N:
            compare(br, k, True, what="beta * remainder in the expansion of 1")
        d = min(N, math.ceil(br) - 1)
        digits.append(d)
        r = br - d
    return QuasiGreedyResult(N, tuple(digits), None, True)


def is_univoque(w: OmegaSeq, N: int, beta) -> bool:
    """Whether w projects to a point of the univoque set in base beta.

    Criterion: pi(shift^n(w)) < 1 and pi(shift^n(complement(w))) < 1 for all
    n >= 0.  With a = 1/beta at beta's exact value these are the two tail
    conditions of derivative.check_infinite_conditions over every shift:
    numdigits.TailMargins (start 0) decides both, by the signs of integers
    for an exact beta, under the tie rule for a float one.  Endpoint
    sequences (the constant 0 and constant N sequences) fail the criterion
    by definition even though they are the unique expansions of their values.
    """
    if w.N != N:
        raise DomainError(f"sequence alphabet N={w.N} does not match N={N}")
    if not (1 < beta <= N + 1):
        raise DomainError(f"beta must lie in (1, {N + 1}], got {beta}")
    tie = (f"a projection value is within {TIE_TOL} of a strict boundary; "
           "supply beta as an exact rational")
    a = beta.as_integer_ratio()[::-1]  # 1/beta at beta's exact value
    return all(TailMargins(w, *a, 0).conditions(is_exact(beta), tie))


@dataclass(frozen=True)
class ExpansionCount:
    """Result of the branching count; `saturated` means at least `count`."""

    count: int
    saturated: bool

    def __str__(self) -> str:
        return f"AT_LEAST({self.count})" if self.saturated else str(self.count)


def count_expansions(x, N: int, beta, cap: int = 10, depth: int = 40) -> ExpansionCount:
    """Count digit prefixes surviving `depth` levels of t -> beta*t - d.

    A branch with digit d in {0,...,N} survives when 0 <= beta*t - d <=
    N/(beta-1).  Branches never die, so once the count reaches `cap` the
    result AT_LEAST(cap) is sound for every larger depth.  Exact arithmetic
    throughout (a float beta is used via its exact binary value): with beta =
    b/c, the branches after k levels are integers n over the one denominator
    den = q c^k, q that of x, so a step is u = b n - d c den over c den, and
    it survives when 0 <= u <= M = N c (c den) // (b - c).  As u falls with
    d, a branch's survivors are one run from the least d >= 0 with u <= M, so
    a call takes at most depth (frontier + cap) <= 2 depth cap steps, any N.
    A depth above COUNT_DEPTH_CAP, or depth * cap above COUNT_WORK_CAP, raises
    ResourceError.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if cap < 1 or depth < 1:
        raise DomainError("cap and depth must be >= 1")
    if depth > COUNT_DEPTH_CAP:
        raise ResourceError(f"depth = {depth} levels exceed the cap of {COUNT_DEPTH_CAP}")
    if depth * cap > COUNT_WORK_CAP:
        raise ResourceError(f"depth * cap = {depth} * {cap} exceeds the cap of {COUNT_WORK_CAP}")
    if beta <= 1:
        raise DomainError(f"beta must exceed 1, got {beta}")
    bq = as_fraction(beta, "beta")
    K = Fraction(N) / (bq - 1)
    xq = as_fraction(x, "x")
    if not (0 <= xq <= K):
        raise DomainError(f"x must lie in [0, N/(beta-1)] = [0, {K}], got {x}")
    b, c = bq.as_integer_ratio()
    frontier, den = [xq.numerator], xq.denominator
    for _ in range(depth):
        den *= c
        M = N * c * den // (b - c)  # u <= M, that is u / den <= K
        nxt: list[int] = []
        for n in frontier:
            u = b * n
            d = 0 if u <= M else -((M - u) // den)  # the least d with u - d den <= M
            u -= d * den
            while d <= N and u >= 0:
                nxt.append(u)
                if len(nxt) >= cap:
                    return ExpansionCount(cap, True)
                d, u = d + 1, u - den
        frontier = nxt
    return ExpansionCount(len(frontier), False)


def thue_morse_prefix(n: int) -> list[int]:
    """First n terms (from index 0) of the parity-of-bit-count sequence.

    n above TM_PREFIX_CAP raises ResourceError.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > TM_PREFIX_CAP:
        raise ResourceError(f"n = {n} terms exceed the cap of {TM_PREFIX_CAP}")
    return [bin(j).count("1") % 2 for j in range(n)]


def generalized_tm_prefix(N: int, n: int) -> list[int]:
    """First n digits (index starting at 1) of the base sequence for beta_c(N).

    For N = 2m-1 the i-th digit is m-1+t_i; for N = 2m it is m+t_i-t_{i-1},
    where t is the parity-of-bit-count sequence and t_0 = 0.  It reads
    thue_morse_prefix(n + 1), so n of TM_PREFIX_CAP or more raises ResourceError.
    """
    if N < 1 or n < 1:
        raise DomainError("N and n must be >= 1")
    t = thue_morse_prefix(n + 1)
    if N % 2 == 1:
        m = (N + 1) // 2
        return [m - 1 + t[i] for i in range(1, n + 1)]
    m = N // 2
    return [m + t[i] - t[i - 1] for i in range(1, n + 1)]


def generalized_golden_ratio(N: int) -> int | float:
    """Base below which no point has a unique expansion over {0,...,N}.

    Exact integer m+1 for N = 2m; (m + sqrt(m^2+4m))/2 for N = 2m-1.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if N % 2 == 0:
        return N // 2 + 1
    m = (N + 1) // 2
    try:
        return (m + math.sqrt(m * m + 4 * m)) / 2
    except OverflowError:  # m^2 passes float range from N of about 10^154
        raise ResourceError(f"the generalized golden ratio for N={N} is past float range") from None


def _thue_morse_coefficients(N: int, p, q) -> tuple:
    """(c0, c1) with sign(S(p/q) - 1) = sign(c0 - c1 P(p/q)), as in thue_morse_sign."""
    if N % 2:
        return (N + 1) * p - q, q - p
    return N * p * q - (q - p) * q, (q - p) ** 2


def thue_morse_sign(N: int, p: int, q: int, bits: int) -> int | None:
    """Sign of S(a) - 1 at a = p/q <= 1 - 2^-bits, or None where `bits` bits cannot tell.

    S(a) = sum(tau_i a^i), tau from generalized_tm_prefix, is 1 at a = 1/q_KL(N).
    P(a) = prod_k (1 - a^(2^k)) = sum((-1)^t_i a^i) (Allouche-Shallit 1999), so
    T = sum(t_i a^i) = (1/(1-a) - P)/2; S is (m-1)a/(1-a) + T for N = 2m-1 and
    m a/(1-a) + (1-a)T for N = 2m.  Clearing 2(1-a)q (odd N) or 2(1-a)q^2 leaves
    c0 - c1 P, with c1 > 0 (a float a passes q = 1).  P is bracketed in fixed
    point: y = a^(2^k) by squaring, rounded down in the upper bound's factors 1 -
    y and up in the lower's, until y <= 2^-bits; the factors left lie in [1 -
    y/(1-a), 1].
    """
    c0, c1 = _thue_morse_coefficients(N, p, q)
    one = 1 << bits
    y_lo, y_hi = (p << bits) // q, -(-(p << bits) // q)
    lo = hi = one  # lo <= one * prod(1 - a^(2^j), j < k) <= hi
    while y_hi > 1:
        lo, hi = lo * (one - y_hi) >> bits, -(-hi * (one - y_lo) >> bits)
        y_lo, y_hi = y_lo * y_lo >> bits, -(-y_hi * y_hi >> bits)
    lo -= -(-lo * y_hi * q // ((q - p) << bits))
    if c0 * one > c1 * hi:
        return 1
    return -1 if c0 * one < c1 * lo else None


def thue_morse_order(N: int, p: int, q: int) -> int:
    """Sign of S(p/q) - 1 by thue_morse_sign, its bits doubling from 64 until it decides.

    64 bits leave undecided a p/q where |S - 1| is below about 2^-64: the
    integer beta = (N+3)/2 next to q_KL(N) for odd N from about 10^7, and
    points near the root at N of every size (with 64 bits alone,
    komornik_loreti rounded the wrong way at 4 of 10,000 seeded N below
    10^6, N = 1123 among them).  Past A_INF_HAT_BITS_CAP bits it raises
    ResourceError.
    """
    bits = 64
    while bits <= A_INF_HAT_BITS_CAP:
        sign = thue_morse_sign(N, p, q, bits)
        if sign is not None:
            return sign
        bits *= 2
    raise ResourceError(
        f"deciding a = {p / q!r} ({len(str(q))}-digit denominator) against a_inf_hat for "
        f"N={N} needs more than {A_INF_HAT_BITS_CAP} bits of fixed point (the cap)"
    )


def thue_morse_root(N: int) -> float:
    """The root a of S(a) = 1, S as in thue_morse_sign, to float noise: a_inf_hat = 1/q_KL(N).

    Newton (newton_root) on c0 - c1 P(a), at q = 1 c0 = (N+1)a - 1 and c1 =
    (1-a)^k, k = 2 - N mod 2.  The loop over P's factors 1 - y, y = a^(2^j),
    also sums D = -a P'/P = sum(2^j y / (1 - y)), for the slope N + 1 + c1 P
    (k/(1-a) + D/a).  S < 1 at 1/(N+1) and S > 1 at 1/G, G the generalized
    golden ratio; 1/G lies within a relative 2/N of the root, so past N of
    about 10^16 the float 1/G can round below it, and the bracket ends 2^-50
    above that float.  c0 and c1 P cancel there, but f's rounding error of
    about 2^-52 over its slope, about N, moves the root by about an ulp of
    a, which polish_root corrects.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    k = 2 - N % 2

    def f(a: float) -> tuple[float, float]:
        c0, c1 = _thue_morse_coefficients(N, a, 1.0)
        P, D, y, w = 1.0, 0.0, a, 1.0
        while 1.0 - y != 1.0:
            P *= 1.0 - y
            D += w * y / (1.0 - y)
            y *= y
            w *= 2.0
        return c0 - c1 * P, N + 1 + c1 * P * (k / (1.0 - a) + D / a)

    try:
        lo, hi = 1.0 / (N + 1), 1.0 / generalized_golden_ratio(N)
    except OverflowError:  # N + 1 past float range, from N of about 10^308
        raise ResourceError(f"thue_morse_root for N={N} is past float range") from None
    return newton_root(f, 0.5 * (lo + hi), lo, hi * (1.0 + 2.0**-50))


def komornik_loreti(N: int) -> float:
    """Critical base q_KL(N) rounded to nearest: 1/thue_morse_root(N), polished by S's exact sign.

    S is that of thue_morse_sign, its sign read by thue_morse_order.
    """
    # beta lies below q_KL when 1/beta lies above 1/q_KL, where S(1/beta) > 1
    return polish_root(1.0 / thue_morse_root(N), lambda n, d: thue_morse_order(N, d, n) == 1)


def newton_root(f: Callable[[float], tuple[float, float]], x0: float, lo: float, hi: float) -> float:
    """The root of an increasing f on [lo, hi], f(x) = (value, slope), by Newton's method from x0.

    Each point evaluated shrinks the sign bracket, and a step that leaves it
    (or a zero slope) falls back to its midpoint.  It stops at a step of at
    most one ulp, returning the stepped point, or when the bracket collapses.
    Unless f(lo) < 0 < f(hi), or with no stop within 100 steps, it raises
    ConvergenceError.
    """
    if not f(lo)[0] < 0 < f(hi)[0]:
        raise ConvergenceError(f"no sign change from - to + on [{lo}, {hi}]")
    x = x0
    for _ in range(100):
        v, s = f(x)
        lo, hi = (lo, x) if v > 0 else (x, hi)
        step = x - v / s if s else math.nan
        if abs(step - x) <= math.ulp(x):  # also a zero of f at x
            return step
        if not lo < step < hi:  # also a NaN step
            step = 0.5 * (lo + hi)
            if step == lo or step == hi:
                return step
        x = step
    raise ConvergenceError(f"no convergence within 100 steps on [{lo}, {hi}]")


def polish_root(x: float, below: Callable[[int, int], bool]) -> float:
    """The float nearest a root, stepping from x; below(n, d) says whether n/d lies below the root.

    `below` must be exact: it is asked at floats and at the midpoint of the
    two floats around the root.
    """
    up = below(*x.as_integer_ratio())
    toward = math.inf if up else -math.inf
    while below(*(step := math.nextafter(x, toward)).as_integer_ratio()) == up:
        x = step
    (n, d), (m, e) = x.as_integer_ratio(), step.as_integer_ratio()
    return step if below(n * e + m * d, 2 * d * e) == up else x


def reference_index(spec: str, prefix: str) -> int:
    """The N of a threshold reference such as "kl:N"; DomainError if malformed."""
    try:
        return int(spec.strip()[len(prefix):])
    except ValueError:
        raise DomainError(f"malformed reference {spec!r}") from None


def resolve_reference(spec, references, what: str):
    """A number as-is; fn(N) for a string "<prefix>N" of the (prefix, fn) table
    `references`; else a string parsed as an exact rational ("5/6", "1.9", "2")."""
    if not isinstance(spec, str):
        return spec
    text = spec.strip()
    for prefix, fn in references:
        if text.startswith(prefix):
            return fn(reference_index(text, prefix))
    return parse_rational(spec, what)


BETA_REFERENCES = (("kl:", komornik_loreti), ("gr:", generalized_golden_ratio))


def resolve_beta(spec):
    """A beta: a number, an exact rational, or the critical base "kl:N" or the
    generalized golden ratio "gr:N" (BETA_REFERENCES)."""
    return resolve_reference(spec, BETA_REFERENCES, "beta")


def parse_rational(text: str, what: str = "rational") -> Fraction:
    """An exact rational such as "5/6" or "1.9"; a malformed text raises DomainError,
    quoted by its ends and digit count when long (Python's int conversion limit)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        shown = repr(text)
        if len(text) > 60:
            shown = (f"{text[:24]!r}...{text[-12:]!r} ({sum(map(str.isdigit, text))} digits; "
                     f"the int conversion limit is {sys.get_int_max_str_digits() or 'off'})")
        raise DomainError(f"cannot parse {what} value {shown}") from None


@dataclass(frozen=True)
class EntropyBounds:
    """Dimension bounds for the univoque set, as entropy divided by log beta.

    `counts` is the evidence: (d, U_d, L_d) for each depth d of the halving
    chain.  L_d is counted at the full depth only and is None elsewhere.
    """

    depth: int
    lower: float
    upper: float
    counts: tuple[tuple[int, int, int | None], ...] = ()

    def to_json_obj(self) -> dict:
        return {"depth": self.depth, "lower": self.lower, "upper": self.upper}


def _pair_automaton(N: int, alpha: list[int], d: int):
    """KMP automata of the longest tight match against alpha, run on a word and its complement.

    fail[L] is the longest proper border of alpha[:L]; cap[L] is the largest
    digit allowed after a match of length L (the least of alpha over its
    border chain); delta[L][c] is the match length after digit c.  All three
    are plain lists.  Returns (step, dead): a pair state (Lw, Lb) holds the
    match lengths of the word and of its complement and is stored as s = (Lw
    * (2d+1) + Lb) * (N+1), so that step[s + c] is the state after digit c.
    A digit above cap[Lw], or whose complement N - c is above cap[Lb], leads
    to `dead`, which is absorbing.  A match length grows by at most one per
    digit, so the 2d digits of w.w read only rows below 2d; the successors of
    row 2d, which may lie past the table, are never used.
    """
    import numpy as np

    A = N + 1
    n = 2 * d + 1
    fail, cap, delta = [0, 0], [alpha[0]], [[int(c == alpha[0]) for c in range(A)]]
    for L in range(1, n):
        f = fail[L]
        fail.append(delta[f][alpha[L]])
        cap.append(min(alpha[L], cap[f]))
        delta.append(delta[f][:])
        delta[L][alpha[L]] = L + 1
    cap, delta = np.array(cap), np.array(delta)
    Lw, Lb = np.divmod(np.arange(n * n), n)
    c = np.arange(A)
    ok = (c <= cap[Lw][:, None]) & ((N - c) <= cap[Lb][:, None])
    nxt = (delta[Lw] * n + delta[Lb][:, ::-1]) * A
    dead = n * n * A
    step = np.full(dead + A, dead, dtype=np.intp)
    step[:dead] = np.where(ok, nxt, dead).ravel()
    return step, dead


def _periodic_counts(N, beta_f, alpha, d, want_lower, chunk=1 << 22):
    """Counts over all (N+1)^d period words w, evaluated on w repeated.

    upper: words whose doubled form w.w passes every suffix-vs-alpha
    lexicographic constraint for both the word and its complement (the
    admissibility relaxation applied to the periodic extension).
    lower: among those, words whose periodic extension passes the exact
    projection criterion (every rotation value within the open interval).
    The first d digits of w.w are the word itself, so the automaton prunes
    prefixes as they grow and only surviving words are ever built, as integer
    indices.  The frontier is grown depth first in blocks of at most rows =
    max(N+1, chunk // (8d)) words, so that no block's float64 digit matrix
    takes more than `chunk` bytes.  A finished block decodes its digits, runs
    the second pass over w, and for the lower count tests the projections of
    its survivors.
    """
    import numpy as np

    A = N + 1
    step, dead = _pair_automaton(N, alpha, d)
    K = N / (beta_f - 1.0)
    pows = beta_f ** -(np.arange(1, d + 1, dtype=float))
    C = np.empty((d, d))
    for k in range(d):
        for j in range(d):
            C[(k + j) % d, k] = pows[j]
    denom = 1.0 - beta_f ** (-d)
    hi_bound = denom
    lo_bound = (K - 1.0) * denom
    rows = max(A, chunk // (8 * d))
    digits = np.arange(A)
    n_upper = n_lower = 0
    stack = [(0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp))]
    while stack:
        t, idx, state = stack.pop()
        while t < d and idx.shape[0]:
            if idx.shape[0] * A > rows:  # its children could overflow a block: split it
                size = rows // A
                stack.extend((t, idx[s:s + size], state[s:s + size])
                             for s in range(0, idx.shape[0], size))
                break
            nxt = step[state[:, None] + digits]
            keep = nxt != dead
            idx = (idx[:, None] * A + digits)[keep]
            state = nxt[keep]
            t += 1
        else:
            if not idx.shape[0]:
                continue
            D = np.empty((d, idx.shape[0]), dtype=np.min_scalar_type(N))
            q = idx
            for t in range(d - 1, -1, -1):
                r = q // A
                D[t] = q - r * A
                q = r
            for t in range(d):
                state = step[state + D[t]]
            alive = state != dead
            n_upper += int(np.count_nonzero(alive))
            if want_lower:
                S = np.ascontiguousarray(D[:, alive].T, dtype=np.float64) @ C
                n_lower += int(np.count_nonzero(((S < hi_bound) & (S > lo_bound)).all(axis=1)))
    return n_upper, (n_lower if want_lower else None)


def univoque_entropy_bounds(N: int, beta, depth: int = 20) -> EntropyBounds:
    """Bounds on the dimension of the univoque set from period-word counts.

    upper: log(U_d)/(d log beta) where U_d counts length-d words whose
    periodic extension (and its complement) stays lexicographically at or
    below the expansion of 1 at every shift; the reported value is the
    minimum over the halving chain of depths, which makes it nonincreasing
    along doubling depths by construction.
    lower: log(L_d)/(d log beta) where L_d counts words whose periodic
    extension passes is_univoque's projection criterion; clamped to stay at
    or below the reported upper.  Counts of one or zero words carry no
    exponential content and report as 0.  A beta whose float is 1.0 raises
    PrecisionError before any word is counted.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if not (1 < beta < N + 1):
        raise DomainError(f"beta must lie in (1, {N + 1}), got {beta}")
    if depth < 2:
        raise DomainError("depth must be >= 2")
    if (N + 1) ** depth > DEFAULT_FRONTIER_CAP:
        raise ResourceError(
            f"(N+1)^depth = {(N + 1) ** depth} words exceed the cap of {DEFAULT_FRONTIER_CAP}"
        )
    beta_f = float(beta)
    if beta_f == 1.0:  # the counts divide by beta_f - 1 and the bounds by log(beta_f)
        raise PrecisionError(f"beta = {beta} rounds to the float 1.0, whose log is 0")
    log_b = math.log(beta_f)
    # the automata of every depth in the chain read alpha[0..2*depth] at most
    alpha_len = 2 * depth + 1
    alpha = quasi_greedy_one(N, beta, alpha_len).digits_extended(alpha_len)
    chain = []
    dd = depth
    while dd >= 2:
        chain.append(dd)
        if dd == 2:
            break
        dd = (dd + 1) // 2
    upper = 1.0
    lower_raw = 0.0
    counts = []
    for dc in chain:
        u_count, l_count = _periodic_counts(N, beta_f, alpha, dc, want_lower=(dc == depth))
        counts.append((dc, u_count, l_count))
        u_val = math.log(u_count) / (dc * log_b) if u_count > 1 else 0.0
        upper = min(upper, max(0.0, min(1.0, u_val)))
        if dc == depth and l_count is not None and l_count > 1:
            lower_raw = math.log(l_count) / (dc * log_b)
    lower = max(0.0, min(lower_raw, upper))
    return EntropyBounds(depth=depth, lower=lower, upper=upper, counts=tuple(counts))
