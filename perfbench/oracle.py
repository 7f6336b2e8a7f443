"""Independent computations that the benchmark checks okamoto's outputs against.

Nothing here imports okamoto.  Each routine works from the definition: exact
rational arithmetic for digits, verdicts and word counts, mpmath for
transcendental thresholds and dimension values.  mpmath is imported on first
use, so it never counts towards set-up time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

DPS = 30


def _mp():
    from mpmath import mp

    mp.dps = DPS
    return mp


def mpf_of(q) -> "object":
    mp = _mp()
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


# ----------------------------------------------------------------- digits --

def expand(x: Fraction, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Base-`base` digits of x in (0,1) as (preperiod, period) by long division.

    A terminating expansion gets the period (0,).
    """
    num, den = x.numerator, x.denominator
    digits: list[int] = []
    seen: dict[int, int] = {}
    r = num
    while r not in seen:
        if r == 0:
            return tuple(digits), (0,)
        seen[r] = len(digits)
        r *= base
        digits.append(r // den)
        r %= den
    k = seen[r]
    return tuple(digits[:k]), tuple(digits[k:])


def value_of(pre, per, base: int) -> Fraction:
    """Value of the digit sequence pre (per)^inf in base `base`."""
    acc = Fraction(0)
    scale = Fraction(1)
    for d in pre:
        scale /= base
        acc += d * scale
    block = Fraction(0)
    s = Fraction(1)
    for d in per:
        s /= base
        block += d * s
    return acc + scale * block / (1 - s)


# --------------------------------------------------- self-affine function --

def pattern(N: int, a):
    """Interpolation heights y_0..y_{2N+1} of the generating map."""
    b = ((N + 1) * a - 1) / N
    ys = []
    for j in range(N + 1):
        ys.append(j * (a - b))
        ys.append((j + 1) * a - j * b)
    return ys, b


def F_mp(N: int, a, pre, per):
    """F at the point with base-(2N+1) digits pre (per)^inf, summed in mpmath.

    F = sum_n y_{x_n} prod_{k<n} s_k with s = a for an even digit and -b for
    an odd one; the periodic part is summed as a geometric series.
    """
    mp = _mp()
    am = mpf_of(a)
    ys, bm = pattern(N, am)
    acc = mp.mpf(0)
    factor = mp.mpf(1)
    for d in pre:
        acc += factor * ys[d]
        factor *= am if d % 2 == 0 else -bm
    block = mp.mpf(0)
    g = mp.mpf(1)
    for d in per:
        block += g * ys[d]
        g *= am if d % 2 == 0 else -bm
    return acc + factor * block / (1 - g)


# ------------------------------------------------------ unique expansions --

def pi_periodic(word, a: Fraction) -> Fraction:
    """Value sum_{j>=1} a^j w_j of the periodic sequence word^inf in base 1/a."""
    P = Fraction(0)
    for d in reversed(word):
        P = a * (d + P)
    return P / (1 - a ** len(word))


def univoque_margin(word, N: int, a: Fraction) -> Fraction:
    """Smallest tail margin of the periodic sequence word^inf in base 1/a.

    S_r = sum_{j>=1} a^j w_{r+j}; the margins are 1 - S_r and 1 - (N a/(1-a) -
    S_r) over every rotation r.  The sequence has a unique expansion (in the
    strict sense of the univoque criterion) iff the result is > 0.  The tail
    sums roll by S_{r+1} = S_r / a - w_{r+1}, so this costs O(m) operations.
    """
    S = pi_periodic(word, a)
    full = N * a / (1 - a)
    worst = None
    for r in range(len(word)):
        t = min(1 - S, 1 - (full - S))
        worst = t if worst is None else min(worst, t)
        S = S / a - word[r]
    return worst


def is_univoque_periodic(word, N: int, a: Fraction) -> bool:
    return univoque_margin(word, N, a) > 0


def verdict(N: int, a: Fraction, pre, per) -> tuple[str, Fraction | None]:
    """Derivative verdict at the point pre (per)^inf, decided from first principles.

    A period with an odd digit: gamma = ((2N+1)a)^even ((2N+1)b)^odd against 1.
    An all-even period: the halved period must be univoque in base 1/a; the
    sign is the parity of the odd digits of the preperiod.  Returns the tag
    and the quantity the decision was made on (gamma - 1 or the margin), so
    a float caller can tell a near tie.
    """
    B = 2 * N + 1
    b = ((N + 1) * a - 1) / N
    odd = sum(1 for d in per if d % 2)
    if odd:
        gamma = (B * a) ** (len(per) - odd) * (B * b) ** odd
        return ("ZERO" if gamma < 1 else "NOT_DIFFERENTIABLE"), gamma - 1
    margin = univoque_margin([d // 2 for d in per], N, a)
    if margin <= 0:
        return "NOT_DIFFERENTIABLE", margin
    sign_odd = sum(1 for d in pre if d % 2) % 2
    return ("MINUS_INFINITY" if sign_odd else "PLUS_INFINITY"), margin


def quasi_greedy(N: int, beta: Fraction, n: int) -> tuple[int, ...]:
    """First n digits of the quasi-greedy expansion of 1 in base beta."""
    r = Fraction(1)
    out = []
    for _ in range(n):
        br = beta * r
        d = min(N, math.ceil(br) - 1)
        out.append(d)
        r = br - d
    return tuple(out)


def primitive_words(A: int, length: int):
    """Words over range(A) of the given length that are not a proper power."""
    from itertools import product

    for w in product(range(A), repeat=length):
        if not any(length % p == 0 and w == w[:p] * (length // p) for p in range(1, length)):
            yield w


# ------------------------------------------------------------ word counts --

def _lex_ok(s, alpha) -> bool:
    n = len(s)
    return all(s[i:] <= alpha[: n - i] for i in range(n))


def count_words(N: int, beta: Fraction, d: int, want_lower: bool):
    """(U_d, L_d, ambiguous) recounted from the definitions by brute force.

    U_d: length-d words w such that every suffix of w.w, and of its
    complement, is lexicographically at most the equally long prefix of the
    quasi-greedy expansion of 1.  L_d: those of them whose periodic extension
    has every rotation value pi = sum_j w_{r+j} beta^-j / (1 - beta^-d) inside
    (N/(beta-1) - 1, 1), decided exactly.  `ambiguous` counts U-words whose
    rotation values come within 1e-9 of either end, where a float evaluation
    may decide either way.
    """
    from itertools import product

    alpha = quasi_greedy(N, beta, 2 * d)
    a = 1 / beta
    K = N / (beta - 1)
    u = l = amb = 0
    for w in product(range(N + 1), repeat=d):
        s = w + w
        if not (_lex_ok(s, alpha) and _lex_ok(tuple(N - c for c in s), alpha)):
            continue
        u += 1
        if not want_lower:
            continue
        S = pi_periodic(w, a)
        vals = []
        for r in range(d):
            vals.append(S)
            S = S / a - w[r]
        lo, hi = min(vals), max(vals)
        if lo > K - 1 and hi < 1:
            l += 1
        if abs(hi - 1) < 1e-9 or abs(lo - (K - 1)) < 1e-9:
            amb += 1
    return u, l, amb


def halving_chain(depth: int) -> list[int]:
    """depth, ceil(depth/2), ... down to 2: the depths the upper bound is minimised over."""
    chain = []
    d = depth
    while d >= 2:
        chain.append(d)
        if d == 2:
            break
        d = (d + 1) // 2
    return chain


def entropy_bounds(N: int, beta: Fraction, depth: int):
    """(lower interval, upper) of the univoque entropy bounds from recounts.

    upper = min over the halving chain of log(U_d) / (d log beta) clamped to
    [0, 1]; lower = log(L_depth) / (depth log beta) clamped to [0, upper].
    The lower bound comes back as the interval the float rule may land in.
    """
    log_b = math.log(float(beta))
    upper = 1.0
    lows = (0, 0)
    for d in halving_chain(depth):
        u, l, amb = count_words(N, beta, d, want_lower=(d == depth))
        val = math.log(u) / (d * log_b) if u > 1 else 0.0
        upper = min(upper, max(0.0, min(1.0, val)))
        if d == depth:
            lows = (max(0, l - amb), l + amb)

    def lower_of(count):
        raw = math.log(count) / (depth * log_b) if count > 1 else 0.0
        return max(0.0, min(raw, upper))

    return (lower_of(lows[0]), lower_of(lows[1])), upper


# ------------------------------------------------------------- thresholds --

def tm_digits(N: int, n: int) -> list[int]:
    """Digits 1..n of the generalized Thue-Morse sequence defining q_KL(N)."""
    t = [bin(i).count("1") % 2 for i in range(n + 1)]
    if N % 2:
        m = (N + 1) // 2
        return [m - 1 + t[i] for i in range(1, n + 1)]
    m = N // 2
    return [m + t[i] - t[i - 1] for i in range(1, n + 1)]


def golden(N: int):
    """Generalized golden ratio, from its defining equation, in mpmath.

    N = 2m: m/(G-1) = 1.  N = 2m-1: the expansion (m, m-1)^inf of 1 gives
    G^2 - mG - m = 0.
    """
    mp = _mp()
    if N % 2 == 0:
        return mp.mpf(N // 2 + 1)
    m = (N + 1) // 2
    return mp.findroot(lambda g: g * g - m * g - m, (mp.mpf(m), mp.mpf(m + 1)), solver="anderson")


@lru_cache(maxsize=None)
def thresholds_mp(N: int):
    """(a_min, a0_tilde, a0_star, a_inf_hat, a_inf_star) solved in mpmath."""
    mp = _mp()
    lo = mp.mpf(1) / (N + 1)

    def log_g(a):
        return (
            (2 * N + 1) * mp.log(2 * N + 1)
            + (N + 1) * mp.log(a)
            + N * mp.log((N + 1) * a - 1)
            - N * mp.log(N)
        )

    a0t = mp.findroot(log_g, (lo * (1 + mp.mpf(10) ** -20), mp.mpf(1)), solver="anderson")
    G = golden(N)
    k = int((DPS + 5) * math.log(10) / math.log(float(G))) + 10
    digs = tm_digits(N, k)

    def tm(q):
        s = mp.mpf(0)
        for d in reversed(digs):
            s = (s + d) / q
        return s - 1

    q_kl = mp.findroot(tm, (G * (1 + mp.mpf(10) ** -12), mp.mpf(N + 1)), solver="anderson")
    return (
        Fraction(1, N + 1),
        a0t,
        Fraction(3 * N + 1, (N + 1) * (2 * N + 1)),
        1 / q_kl,
        1 / G,
    )


def h_phi(N: int, a):
    """h(phi(a)): the dimension of the points of critical odd-digit frequency."""
    mp = _mp()
    am = mpf_of(a)
    phi = mp.log((2 * N + 1) * am) / (mp.log(N * am) - mp.log((N + 1) * am - 1))
    return -(phi * mp.log(phi / N) + (1 - phi) * mp.log((1 - phi) / (N + 1))) / mp.log(2 * N + 1)
