"""Exact classification of F'(x) for eventually periodic points.

For such points the derivative is always one of 0, +infinity, -infinity, or
undefined, and the verdict is decidable in closed form:

* a period containing an odd digit forces the approximant slopes to grow or
  shrink geometrically with per-period factor gamma = ((2N+1)a)^e ((2N+1)b)^o;
  gamma < 1 gives derivative 0, gamma >= 1 gives non-differentiability;
* an all-even period makes an infinite derivative possible exactly when the
  two families of tail margins 1 - sum_j a^j w_{n+j} (for the halved digits w
  and their complement) stay strictly positive over every residue class of
  the period; the sign is then + for an even total number of odd digits and
  - for an odd total.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, ResourceError
from .numdigits import (
    TIE_TOL,
    DigitSeq,
    Number,
    OmegaSeq,
    Params,
    TailMargins,
    as_fraction,
    compare,
    decimal_context,
    digits_of,
    is_exact,
    odd_total,
)
from .selfaffine import eval_F

# digits the probe expands over all its levels: about 1 s at x = 1/100003, whose base-3
# period has 100,002 digits (2-CPU x86, Python 3.11)
PROBE_DIGIT_CAP = 1_000_000


class DerivativeTag(enum.Enum):
    ZERO = "ZERO"
    PLUS_INFINITY = "PLUS_INFINITY"
    MINUS_INFINITY = "MINUS_INFINITY"
    NOT_DIFFERENTIABLE = "NOT_DIFFERENTIABLE"


@dataclass(frozen=True)
class DerivativeClass:
    """Verdict plus the evidence it was decided on.

    growth_factor is the per-period slope factor gamma; odd_digits is the
    total count of odd digits (math.inf when the period contains one);
    tail_margins holds the (direct, complement) margin pairs per residue
    class at a's exact value when the all-even analysis ran, else None.
    """

    tag: DerivativeTag
    growth_factor: Number
    odd_digits: int | float
    tail_margins: TailMargins | None

    def to_json_obj(self) -> dict:
        if self.growth_factor > sys.float_info.max:
            raise ResourceError("the growth factor gamma is past float range")
        margins = self.tail_margins
        return {
            "tag": self.tag.value,
            "gamma": float(self.growth_factor),
            "M": "INFINITE" if self.odd_digits == math.inf else int(self.odd_digits),
            "T_values": None if margins is None else margins.floats(),
        }


def check_infinite_conditions(p: Params, w: OmegaSeq) -> tuple[bool, bool, TailMargins]:
    """Evaluate the two infinite-derivative tail conditions for w's period.

    For each residue class r of the period, the direct margin is
    T_r = 1 - sum_{j>=1} a^j w_{r+j} and the complement margin, which uses
    digits N - w instead, is 2 - N a/(1 - a) - T_r.  The first flag is true
    iff every direct margin is strictly positive, the second for the
    complement margins.  Preperiod digits are irrelevant: the limits depend
    only on large indices, so the margins start at the shift past the
    preperiod.  numdigits.TailMargins holds them at a's exact value, a
    float's too, and decides the flags: by signs of integers for an exact a,
    by the tie rule for a float.  The margins come back as that object.
    """
    if w.N != p.N:
        raise DomainError(f"sequence alphabet N={w.N} does not match params N={p.N}")
    margins = TailMargins(w, *p.a.as_integer_ratio(), len(w.preperiod))
    tie = f"a tail margin lies within {TIE_TOL} of 0; supply an exact rational"
    return *margins.conditions(is_exact(p.a), tie), margins


def classify_derivative(p: Params, d: DigitSeq) -> DerivativeClass:
    """Four-way classification of F'(x) for an eventually periodic point.

    Decision procedure: compute the per-period growth factor gamma.  If the
    period contains an odd digit, infinitely many odd digits occur and the
    verdict is ZERO when gamma < 1, otherwise NOT_DIFFERENTIABLE (this covers
    gamma == 1, where the slopes stay bounded away from zero).  Otherwise the
    two tail-margin families decide: all strictly positive gives an infinite
    derivative signed by the parity of the odd-digit total; a zero margin
    breaks the required divergence, so any non-positive margin means
    NOT_DIFFERENTIABLE.  Grid points j/(2N+1)^n fall out automatically: their
    all-zero tail makes the complement margin 1 - aN/(1-a) < 0.  For a float
    a, gamma is that of its exact value, compared with 1 at 50 digits
    (numdigits.compare; a tie raises PrecisionError) and returned as a float.
    """
    if d.N != p.N:
        raise DomainError(f"digit sequence has N={d.N}, params have N={p.N}")
    if not d.preperiod and d.period == (0,):
        raise DomainError("x = 0 is outside the open interval (0,1)")
    B = 2 * p.N + 1
    odd = sum(1 for t in d.period if t % 2 == 1)
    even = len(d.period) - odd
    if is_exact(p.a):
        gamma = (B * p.a) ** even * (B * p.b) ** odd
        below = odd > 0 and gamma < 1
    else:
        with decimal_context():
            a = Decimal(p.a)
            gamma = (B * a) ** even * (B * ((p.N + 1) * a - 1) / p.N) ** odd
            below = odd > 0 and compare(gamma, 1, what="the growth factor gamma") < 0
        gamma = float(gamma)
    M = odd_total(d)
    if odd > 0:
        tag = DerivativeTag.ZERO if below else DerivativeTag.NOT_DIFFERENTIABLE
        return DerivativeClass(tag, gamma, M, None)
    omega = OmegaSeq(p.N, (), tuple(t // 2 for t in d.period))
    cond_direct, cond_comp, margins = check_infinite_conditions(p, omega)
    if cond_direct and cond_comp:
        tag = (
            DerivativeTag.PLUS_INFINITY
            if M % 2 == 0
            else DerivativeTag.MINUS_INFINITY
        )
    else:
        tag = DerivativeTag.NOT_DIFFERENTIABLE
    return DerivativeClass(tag, gamma, M, margins)


@dataclass(frozen=True)
class ProbeQuotients:
    """Two-sided difference quotients at scale h = (2N+1)^-level.

    A side is None when x +/- h falls outside [0,1].
    """

    level: int
    h: float
    right: float | None
    left: float | None


def finite_difference_probe(
    p: Params, x: Fraction | int, levels: int
) -> list[ProbeQuotients]:
    """Empirical difference quotients (F(x+h)-F(x))/(+h), (F(x-h)-F(x))/(-h).

    h runs over (2N+1)^-n for n = 1..levels.  Each F value is the exact
    value rounded once (eval_F), so a quotient's only error is the float
    roundoff of F(x+-h) - F(x) divided by h, about 1e-16/h: below 2e-4 while
    h >= about 1e-12, i.e. up to level 25 for N = 1.  Beyond that it grows
    by a factor of about 2N+1 per level.  h must be a normal float, (2N+1)^n
    <= 2^1022: levels past that bound (644 for N = 1, 295 for N = 5) raise
    ResourceError before any level is probed.  Level n expands x +- h to at
    most n + L + m digits, L and m those of x's preperiod and period, so
    levels (L + m) + levels (levels + 1) / 2 above PROBE_DIGIT_CAP raises
    ResourceError too, once x is expanded.
    """
    if levels < 1:
        raise DomainError("levels must be >= 1")
    xq = as_fraction(x, "x")
    if not (0 < xq < 1):
        raise DomainError(f"x must lie in (0,1), got {x}")
    B = 2 * p.N + 1
    last = 0  # the last level up to `levels` whose h is a normal float
    while last < levels and B ** (last + 1) <= 2**1022:
        last += 1
    if levels > last:
        raise ResourceError(
            f"probe level {last + 1} puts h = {B}^-{last + 1} below the least normal float; "
            f"levels must be <= {last} at N={p.N}"
        )
    d = digits_of(xq, p.N)
    work = levels * (len(d.preperiod) + len(d.period)) + levels * (levels + 1) // 2
    if work > PROBE_DIGIT_CAP:
        raise ResourceError(
            f"{levels} probe levels expand about {work} digits, past the cap of {PROBE_DIGIT_CAP}"
        )
    f_x = eval_F(p, d)
    rows: list[ProbeQuotients] = []
    for n in range(1, levels + 1):
        h = Fraction(1, B**n)
        right = left = None
        if xq + h <= 1:
            f_r = eval_F(p, digits_of(xq + h, p.N)) if xq + h < 1 else 1.0
            right = (f_r - f_x) / float(h)
        if xq - h >= 0:
            f_l = eval_F(p, digits_of(xq - h, p.N)) if xq - h > 0 else 0.0
            left = (f_x - f_l) / float(h)
        rows.append(ProbeQuotients(level=n, h=float(h), right=right, left=left))
    return rows
