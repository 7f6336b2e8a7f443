"""Exact representation of points via eventually periodic digit sequences.

A point x in (0,1) is stored by its base-(2N+1) expansion split into a finite
preperiod and a repeating period (DigitSeq); expansions in a base beta over
{0,...,N} use the same type on the smaller alphabet (OmegaSeq).  Their
shift_numerators sums every shift of sum_j a^j x_{n+j} for a rational a as
integers over one denominator, in one O(L+m) roll; TailMargins holds the
tail margins of F' = +-inf and of the univoque test on those integers, at
a's exact value whether a is given exactly or as a float, and decides them.
series_sum sums the sequence alone, for F's values, the projections in base
beta and a DigitSeq's own value, in Fractions or at DECIMAL_DIGITS digits.
Params keeps the (N, a) pair and builds the tables of F's digit series once
per object.  Long division stops at EXPANSION_DIGIT_CAP digits.  The
package's numeric policy is compare: int and Fraction inputs are decided
exactly, a float within TIE_TOL of a strict boundary is a tie.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import NamedTuple

from .errors import DomainError, PrecisionError, ResourceError

Number = float | Fraction
EXPANSION_DIGIT_CAP = 1_000_000  # about a second of long division
DECIMAL_DIGITS = 50  # 33 digits beyond a float's 17, for cancellation near a = 1
TIE_TOL = 1e-12  # an approximate value this near a strict boundary is a tie


def decimal_context():
    """A with-block running Decimal arithmetic in a fresh DECIMAL_DIGITS context."""
    return localcontext(Context(prec=DECIMAL_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN))


def decimal_tables(*tables) -> tuple[list[Decimal], ...]:
    """Exact (int or Fraction) tables, each entry rounded once to DECIMAL_DIGITS digits."""
    with decimal_context():
        return tuple([Decimal(v.numerator) / v.denominator for v in t] for t in tables)


def is_exact(v) -> bool:
    """Whether v is decided exactly: an int or Fraction is, a float is not."""
    return isinstance(v, (int, Fraction)) or isinstance(v, Rational)  # ABC check last: slow


def as_fraction(v, what: str) -> Fraction:
    """v's exact value as a Fraction; a NaN or an infinity raises DomainError naming `what`."""
    try:
        return Fraction(v)
    except (ValueError, OverflowError):
        raise DomainError(f"{what} must be a finite number, got {v}") from None


def compare(x, bound, inexact: bool = False, what: str | None = None) -> int | None:
    """Sign of x - bound (-1, 0 or 1) under the numeric policy; None for a tie.

    Exact when x and bound are int or Fraction and the caller does not flag x
    as computed from a float; otherwise a difference within TIE_TOL is a tie,
    which raises PrecisionError once `what` names a verdict.  A NaN raises
    DomainError.  A Decimal x is compared inside decimal_context().
    """
    if not inexact and is_exact(x) and is_exact(bound):
        return 1 if x > bound else -1 if x < bound else 0
    diff = x - bound
    if diff != diff:
        raise DomainError(f"{what or 'a value'} is not a number, got {x}")
    if abs(diff) > TIE_TOL:
        return 1 if diff > 0 else -1
    if what is not None:
        raise PrecisionError(f"{what} lies within {TIE_TOL} of {bound}; supply an exact rational")
    return None


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest word u with period == u repeated."""
    m = len(period)
    for p in range(1, m + 1):
        if m % p == 0 and period == period[:p] * (m // p):
            return period[:p]
    return period


def _canonical(preperiod: tuple[int, ...], period: tuple[int, ...]):
    """Minimal (preperiod, primitive period) form of the same sequence."""
    period = _primitive(period)
    pre = list(preperiod)
    per = list(period)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return tuple(pre), _primitive(tuple(per))


@dataclass(frozen=True)
class EventuallyPeriodic:
    """Eventually periodic digit sequence, preperiod then a repeating period.

    The representation is canonical: the period is primitive and the
    preperiod is minimal.  Subclasses fix alphabet_size, the digits being
    0..alphabet_size-1, and the text form; a DigitSeq never equals an
    OmegaSeq with the same digits.
    """

    N: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    _text_prefix = ""

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"N must be a positive integer, got {self.N}")
        if not self.period:
            raise DomainError("period must be nonempty")
        pre, per = _canonical(tuple(self.preperiod), tuple(self.period))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        top = self.alphabet_size - 1
        for d in self.preperiod + self.period:
            if not (0 <= d <= top):
                raise DomainError(f"digit {d} outside 0..{top}")

    def digit(self, i: int) -> int:
        """The i-th digit, 1-indexed."""
        if i < 1:
            raise DomainError("digit index starts at 1")
        L = len(self.preperiod)
        if i <= L:
            return self.preperiod[i - 1]
        return self.period[(i - L - 1) % len(self.period)]

    def digits(self, n: int) -> list[int]:
        return [self.digit(i) for i in range(1, n + 1)]

    def shift_numerators(self, p: int, q: int) -> tuple[list[int], int]:
        """Integers U_n over one denominator E with U_n / E = sum_{j>=1} a^j x_{n+j}.

        a = p/q with 0 < p < q, n = 0..L+m-1 and E = q^L (q^m - p^m): U_n / E
        is the sum over the n-th shift, and shift L+m equals shift L, so these
        are all the distinct values.  U_L is one Horner pass over the period,
        sum_j x_{L+j} p^j q^{m-j}, times q^L; the roll U_n = p (x_{n+1} E +
        U_{n+1}) / q divides exactly, so no step takes a gcd.
        A q = 2^t, the denominator of every float's exact value, divides by a
        shift: a multi-digit // costs about three times as much.
        """
        word = self.preperiod + self.period
        L, m = len(self.preperiod), len(self.period)
        s, pj = 0, 1
        for d in self.period:
            pj *= p
            s = s * q + d * pj
        E = q**L * (q**m - p**m)
        u = s * q**L  # U_{L+m} = U_L
        dE = [d * E for d in range(self.alphabet_size)]
        U = [u] * len(word)
        t = q.bit_length() - 1
        two = q == 1 << t
        for n in reversed(range(len(word))):
            v = p * (dE[word[n]] + u)
            u = U[n] = v >> t if two else v // q
        return U, E

    def _period_sum(self, term, ratio):
        """S_L = block / (1 - g), g the product of ratio over the period (|g| < 1)."""
        per = self.period
        block = term[per[-1]]
        for d in reversed(per[:-1]):
            block = term[d] + ratio[d] * block
        # powers, not a running product: float rounding stays at a few ulps
        return block / (1 - math.prod(ratio[d] ** k for d, k in Counter(per).items()))

    def series_sum(self, term, ratio):
        """S_0 = term[x_1] + ratio[x_1] * S_1, the sum over the whole sequence:
        _period_sum carried back through the preperiod by Horner's rule.  Exact
        (int or Fraction) tables run on integers T = term*Q, R = ratio*Q over
        Q^m - prod R, Q their denominators' lcm."""
        if not all(map(is_exact, (*term, *ratio))):
            s = self._period_sum(term, ratio)
            for d in reversed(self.preperiod):
                s = term[d] + ratio[d] * s
            return s
        Q = math.lcm(*(v.denominator for v in (*term, *ratio)))
        T, R = ([v.numerator * (Q // v.denominator) for v in t] for t in (term, ratio))
        s, den = 0, 1
        for d in reversed(self.period):
            s, den = T[d] * den + R[d] * s, den * Q
        den -= math.prod(R[d] ** k for d, k in Counter(self.period).items())
        for d in reversed(self.preperiod):
            s, den = T[d] * den + R[d] * s, den * Q
        return Fraction(s, den)

    def decimal_series_sum(self, term, ratio) -> Decimal:
        """series_sum of exact (Fraction) tables, at DECIMAL_DIGITS digits.

        Each entry is rounded once to a Decimal (decimal_tables) and every
        operation runs in decimal_context().  1 - g cancels about -log10(1 - g)
        digits, so while 1 - g > 1e-30 a result rounded to a float is the exact
        sum rounded once.
        """
        with decimal_context():
            return self.series_sum(*decimal_tables(term, ratio))

    def __str__(self) -> str:
        head = " ".join(str(d) for d in self.preperiod)
        tail = " ".join(str(d) for d in self.period)
        return f"{self._text_prefix}{head}{' ' if head else ''}({tail})"

    @classmethod
    def parse(cls, text: str, N: int):
        """Parse the text form of str(); a DigitSeq's leading "0." is optional."""
        body = text.strip()
        if body.startswith(cls._text_prefix):
            body = body[len(cls._text_prefix):]
        head, paren, rest = body.partition("(")
        if not paren or not rest.endswith(")"):
            raise DomainError(f"malformed sequence {text!r}")
        try:
            pre, per = (tuple(map(int, part.split())) for part in (head, rest[:-1]))
        except ValueError:
            raise DomainError(f"non-integer digit in sequence {text!r}") from None
        return cls(N, pre, per)


class DigitSeq(EventuallyPeriodic):
    """Eventually periodic base-(2N+1) expansion of a point in [0,1).

    Digits lie in {0,...,2N}.  A period of all (2N)'s is rejected (ties are
    resolved toward the expansion ending in zeros).
    """

    _text_prefix = "0."

    @property
    def alphabet_size(self) -> int:
        return 2 * self.N + 1

    base = alphabet_size

    def __post_init__(self):
        super().__post_init__()
        top = 2 * self.N
        if all(d == top for d in self.period):
            raise DomainError(
                "non-canonical expansion ending in all %d's; use the "
                "terminating form instead" % top
            )

    def value(self) -> Fraction:
        """Exact value sum(digit_i * (2N+1)^-i)."""
        return self.series_sum(*_projection_tables(2 * self.N, self.base))

    def tail_is_zero_beyond(self, n: int) -> bool:
        """True iff digits n+1, n+2, ... are all zero (x is a level-n grid point)."""
        if self.period != (0,):
            return False
        return all(d == 0 for d in self.preperiod[n:])


class OmegaSeq(EventuallyPeriodic):
    """Eventually periodic sequence over the alphabet {0,...,N}.

    Used for expansions in a (typically non-integer) base beta.
    """

    @property
    def alphabet_size(self) -> int:
        return self.N + 1


def _projection_tables(N: int, beta) -> tuple[list, list]:
    """Digit-indexed (term, ratio) tables of sum_j x_j beta^-j over {0,...,N}, in
    Fractions at beta's exact value; a NaN or infinite beta raises DomainError."""
    inv = 1 / as_fraction(beta, "beta")
    return [d * inv for d in range(N + 1)], [inv] * (N + 1)


class TailMargins:
    """The tail margins of F' = +-inf and of the univoque test, on integers, at a = p/q.

    One roll of seq.shift_numerators gives U_n / E = sum_{j>=1} a^j x_{n+j}
    for the shifts n from `start` on: 0 for the univoque test, the
    preperiod's length for F', whose limits read only the period.  With gap
    = q - p and k = gap - N p, the direct margin 1 - U_n / E is (E - U_n) /
    E and the complement margin, the same sum over the digits N - x, is (k
    E + gap U_n) / (gap E).  A float a is given by its exact value's p and
    q.  conditions() decides both families; the object reads as the tuple
    of the (direct, complement) Fraction pairs: indexing, iteration, len,
    ==, hash and repr all go through it, and each Fraction is built only
    when read.
    """

    __slots__ = ("sums", "den", "gap", "kden")  # a plain class: no dataclass cost at import

    def __init__(self, seq: EventuallyPeriodic, p: int, q: int, start: int):
        U, self.den = seq.shift_numerators(p, q)
        self.sums = tuple(U[start:])
        self.gap = q - p
        self.kden = (self.gap - seq.N * p) * self.den

    def _numerators(self, u: int) -> tuple[int, int]:
        """The (direct, complement) margins of a shift's U_n, over E and gap E."""
        return self.den - u, self.kden + self.gap * u

    def conditions(self, exact: bool, tie: str) -> tuple[bool, bool]:
        """Whether every direct and every complement margin is strictly positive.

        Only the largest and the least sums can fail.  An exact a is decided
        by the signs of integers.  Otherwise the margins meet compare's tie
        band: a condition that fails outright decides, and a tie beside it
        reads False; a tie with no failure raises PrecisionError with the
        message `tie`.
        """
        hi, lo = self._numerators(max(self.sums))[0], self._numerators(min(self.sums))[1]
        if exact:
            return hi > 0, lo > 0
        signs = compare(hi / self.den, 0, True), compare(lo / (self.gap * self.den), 0, True)
        if None in signs and -1 not in signs:
            raise PrecisionError(tie)
        return signs[0] == 1, signs[1] == 1

    def __len__(self) -> int:
        return len(self.sums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        direct, comp = self._numerators(self.sums[i])
        return Fraction(direct, self.den), Fraction(comp, self.gap * self.den)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def floats(self) -> list[list[float]]:
        """Each pair as floats; int true division rounds as float(Fraction) does."""
        E, gE = self.den, self.gap * self.den
        return [[d / E, c / gE] for d, c in map(self._numerators, self.sums)]


class SeriesTables(NamedTuple):
    """F's digit-series tables at a's exact value: the part of F(x) that does not depend on x.

    F(x) = term[x_1] + ratio[x_1] F(sigma x): term holds the generator's y_i
    (Params.ys) and ratio is a for an even digit and -b for an odd one, in
    Fractions at a's exact value; the per-period factor has modulus a^e b^o <
    1.  decimal is (term, ratio) rounded by decimal_tables, the tables that
    decimal_series_sum would build; a is a's exact value.
    """

    term: tuple[Fraction, ...]
    ratio: tuple[Fraction, ...]
    decimal: tuple[list[Decimal], ...]
    a: Fraction


@dataclass(frozen=True)
class Params:
    """Validated parameter pair (N, a) with the derived slope parameter b.

    b solves (N+1)a - Nb = 1, so 0 < b < a < 1 on the admissible range.
    a (and hence b) may be a Fraction for exact work or a float.
    series_tables, F's digit-series tables, is built on first use and kept on
    the object for every later x; it is not a field, so ==, hash and repr see
    (N, a, b) only.  Two threads may both build it, with equal results.
    """

    N: int
    a: Number
    b: Number

    @property
    def ys(self) -> tuple[Number, ...]:
        """The generator's y_{2j} = j(a-b) and y_{2j+1} = (j+1)a - jb, j = 0..N, in a's type."""
        a, b = self.a, self.b
        return tuple(y for j in range(self.N + 1) for y in (j * (a - b), (j + 1) * a - j * b))

    @cached_property
    def series_tables(self) -> SeriesTables:
        """series_tables(self), computed once per object."""
        return series_tables(self)


def series_tables(p: Params) -> SeriesTables:
    """The SeriesTables of p; a float a is taken at its exact value, make_params(N, Fraction(a))."""
    q = p if is_exact(p.a) else make_params(p.N, Fraction(p.a))
    term, ratio = q.ys, tuple(q.a if i % 2 == 0 else -q.b for i in range(2 * q.N + 1))
    return SeriesTables(term, ratio, decimal_tables(term, ratio), q.a)


def make_params(N: int, a: Number) -> Params:
    """Validate (N, a) and derive b = ((N+1)a - 1)/N.

    Raises DomainError unless N >= 1 and 1/(N+1) < a < 1; values of a at or
    below 1/(N+1) give a Cantor-type or singular function and are out of scope.
    A float a gives the b of its exact value rounded once.  F's digit-series
    tables (Params.series_tables) are left to the first evaluation: most
    callers validate (N, a) and evaluate no F.  Build one Params per (N, a)
    and evaluate every point with it, so that they are built once.
    """
    if not isinstance(N, int) or N < 1:
        raise DomainError(f"N must be a positive integer, got {N!r}")
    if not (Fraction(1, N + 1) < a < 1):
        raise DomainError(f"a must lie in (1/{N + 1}, 1), got {a}")
    b = ((N + 1) * Fraction(a) - 1) / N
    return Params(N, Fraction(a), b) if is_exact(a) else Params(N, a, float(b))


def digits_of_rational(numerator: int, denominator: int, N: int) -> DigitSeq:
    """Canonical base-(2N+1) expansion of a rational in (0,1) by long division.

    The returned sequence reconstructs the input exactly via DigitSeq.value().
    An expansion whose preperiod and period together pass EXPANSION_DIGIT_CAP
    digits raises ResourceError: a period can be as long as the denominator.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if denominator == 0:
        raise DomainError("zero denominator")
    g = math.gcd(numerator, denominator)
    num, den = numerator // g, denominator // g
    if den < 0:
        num, den = -num, -den
    if not (0 < Fraction(num, den) < 1):
        raise DomainError(f"{numerator}/{denominator} not in (0,1)")
    B = 2 * N + 1
    # the preperiod L is the number of gcd steps that strip the factors den shares with B
    L, q = 0, den
    while L <= EXPANSION_DIGIT_CAP and (g := math.gcd(q, B)) > 1:
        q, L = q // g, L + 1
    # the period is a multiple of B's order mod q's 2-part, a power of two (B is odd) below
    # that part: one above the cap's largest power of two puts the period past the cap
    two = q & -q
    cap = EXPANSION_DIGIT_CAP
    if two > cap and pow(B, (1 << cap.bit_length()) >> 1, two) != 1:
        cap = 0  # no division
    digits: list[int] = []
    r = num
    for _ in range(min(L, cap)):
        digit, r = divmod(r * B, den)
        digits.append(digit)
    if r == 0:
        return DigitSeq(N, tuple(digits), (0,))
    # the period is the first k > 0 with r_{L+k} = r_L, so only r_L is kept
    r_L = r
    while len(digits) < cap:
        digit, r = divmod(r * B, den)
        digits.append(digit)
        if r == r_L:
            return DigitSeq(N, tuple(digits[:L]), tuple(digits[L:]))
    raise ResourceError(
        f"the base-{B} expansion of {num}/{den} runs past the cap of "
        f"{EXPANSION_DIGIT_CAP} digits"
    )


def digits_of(x: Rational | Fraction, N: int) -> DigitSeq:
    """Convenience wrapper: canonical expansion of an exact rational x."""
    q = as_fraction(x, "x")
    return digits_of_rational(q.numerator, q.denominator, N)


def _odd(word) -> int:
    """Number of odd digits in word."""
    return sum(t % 2 for t in word)


def odd_count_prefix(d: DigitSeq, n: int) -> int:
    """Number of odd digits among the first n digits; 0 for n = 0."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    L = len(d.preperiod)
    if n <= L:
        return _odd(d.preperiod[:n])
    full, rest = divmod(n - L, len(d.period))
    return _odd(d.preperiod) + full * _odd(d.period) + _odd(d.period[:rest])


def odd_total(d: DigitSeq) -> int | float:
    """Total number of odd digits; math.inf when the period contains one."""
    return math.inf if any(t % 2 for t in d.period) else _odd(d.preperiod)


def odd_liminf_frequency(d: DigitSeq) -> Fraction:
    """Limiting frequency of odd digits, exact; the limit exists for periodic tails."""
    return Fraction(_odd(d.period), len(d.period))


parse_digitseq = DigitSeq.parse
parse_omegaseq = OmegaSeq.parse
