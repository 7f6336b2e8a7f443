"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from okamoto import DigitSeq, OmegaSeq


def random_digitseq(rng: random.Random, N: int, max_pre: int = 4, max_per: int = 6) -> DigitSeq:
    """A random canonical digit sequence with value in (0,1)."""
    top = 2 * N
    while True:
        pre = tuple(rng.randrange(top + 1) for _ in range(rng.randrange(max_pre + 1)))
        per = tuple(rng.randrange(top + 1) for _ in range(rng.randrange(1, max_per + 1)))
        if all(d == top for d in per):
            continue
        d = DigitSeq(N, pre, per)
        if d.preperiod == () and d.period == (0,):
            continue
        return d


def random_omegaseq(
    rng: random.Random,
    N: int,
    max_pre: int = 3,
    max_per: int = 6,
    exclude_constant: bool = False,
) -> OmegaSeq:
    """A random sequence over {0,...,N}; optionally skip the constant 0/N ones."""
    while True:
        pre = tuple(rng.randrange(N + 1) for _ in range(rng.randrange(max_pre + 1)))
        per = tuple(rng.randrange(N + 1) for _ in range(rng.randrange(1, max_per + 1)))
        w = OmegaSeq(N, pre, per)
        if exclude_constant and w.preperiod == () and w.period in ((0,), (N,)):
            continue
        return w


def tail_sums(seq, term, ratio) -> list:
    """S_n = term[x_{n+1}] + ratio[x_{n+1}] * S_{n+1} for n = 0..L+m-1, seq's L+m distinct shifts.

    The period's sum is taken once in closed form (_period_sum) and rolled
    backwards through the period and the preperiod, in the arithmetic of term
    and ratio: the plain roll that shift_numerators and series_sum are held to.
    """
    word = seq.preperiod + seq.period
    s = seq._period_sum(term, ratio)  # S_{L+m} = S_L
    sums = [s] * len(word)
    for n in reversed(range(len(word))):
        d = word[n]
        s = sums[n] = term[d] + ratio[d] * s
    return sums


def random_proper_fraction(rng: random.Random, max_den: int = 10**6) -> Fraction:
    den = rng.randrange(2, max_den)
    num = rng.randrange(1, den)
    return Fraction(num, den)


def random_omegaseq_for_oracle(rng: random.Random, N: int, beta_exact: Fraction) -> OmegaSeq:
    """A random sequence suitable for the univoque-vs-counting comparison.

    The univoque set lives on the open interval ((N-beta+1)/(beta-1), 1); a
    sequence projecting outside it can be the unique expansion of its value
    while failing the membership criterion (the criterion's n = 0 case encodes
    the interval).  When that interval is nonempty, sample until the
    projection lands inside it; otherwise (beta <= (N+2)/2, where no point
    has a unique interval expansion) any nonconstant sequence works.
    """
    from okamoto import pi_beta

    lo = Fraction(N) / (beta_exact - 1) - 1
    for _ in range(100000):
        w = random_omegaseq(rng, N, exclude_constant=True)
        if lo >= 1:
            return w
        if lo < pi_beta(w, beta_exact) < 1:
            return w
    raise RuntimeError("could not sample an in-interval sequence")


def probe_trend(rows, big: float = 100.0, small: float = 1e-2) -> str:
    """Coarse classification of two-sided difference quotients.

    Heuristic thresholds for testing only: VANISHING when the trailing
    quotients are all tiny, DIVERGING_PLUS/MINUS when both sides end beyond
    +/-`big` and beyond everything in the first three levels, IRREGULAR
    otherwise.
    """
    rights = [r.right for r in rows if r.right is not None]
    lefts = [r.left for r in rows if r.left is not None]
    if len(rights) < 6 or len(lefts) < 6:
        return "IRREGULAR"
    tail = rights[-3:] + lefts[-3:]
    head = rights[:3] + lefts[:3]
    if all(abs(q) < small for q in tail):
        return "VANISHING"
    if all(q > big for q in tail) and min(tail) > max(head):
        return "DIVERGING_PLUS"
    if all(q < -big for q in tail) and max(tail) < min(head):
        return "DIVERGING_MINUS"
    return "IRREGULAR"


def derivative_witness_trend(p, x, levels: int, big: float = 100.0, small: float = 1e-2) -> str:
    """Trend classification from difference quotients around x.

    Besides the standard probe quotients at h = (2N+1)^-n, this also takes
    the secants toward the nearby grid points (floor(x B^n) + 2)/B^n and
    (floor(x B^n) - 1)/B^n.  Quotients at exact multiples of (2N+1)^-n
    compare points with identical digit tails and can diverge even when no
    infinite derivative exists; the grid-companion secants compare against
    zero-tailed points and expose that failure.  Thresholds are testing
    heuristics, not definitions.
    """
    from fractions import Fraction as _F

    from okamoto import digits_of, eval_F, finite_difference_probe

    B = 2 * p.N + 1
    base = finite_difference_probe(p, x, levels)
    f_x = eval_F(p, digits_of(_F(x), p.N))

    def secant(y):
        if not (0 <= y <= 1) or y == x:
            return None
        f_y = 1.0 if y == 1 else (0.0 if y == 0 else eval_F(p, digits_of(y, p.N)))
        return (f_y - f_x) / float(y - x)

    samples = []  # one list of available quotients per level
    for r in base:
        j = (_F(x) * B**r.level).__floor__()
        vals = [q for q in (r.right, r.left) if q is not None]
        for y in (_F(j + 2, B**r.level), _F(j - 1, B**r.level)):
            q = secant(y)
            if q is not None:
                vals.append(q)
        samples.append(vals)
    tail = [q for vals in samples[-3:] for q in vals]
    head = [q for vals in samples[:3] for q in vals]
    if not tail or not head:
        return "IRREGULAR"
    if all(abs(q) < small for q in tail):
        return "VANISHING"
    if all(q > big for q in tail) and min(tail) > max(head):
        return "DIVERGING_PLUS"
    if all(q < -big for q in tail) and max(tail) < min(head):
        return "DIVERGING_MINUS"
    return "IRREGULAR"


TREND_FOR_TAG = {
    "ZERO": "VANISHING",
    "PLUS_INFINITY": "DIVERGING_PLUS",
    "MINUS_INFINITY": "DIVERGING_MINUS",
    "NOT_DIFFERENTIABLE": "IRREGULAR",
}
