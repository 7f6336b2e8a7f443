"""The four workloads: seeded inputs, the timed tasks and the checks on their outputs.

A task calls okamoto's public functions through their module attributes
(`betaexp.univoque_entropy_bounds`, not a name bound at import), so the
traced run's wrappers see every call.  The seed perturbs the inputs without
changing their sizes: a workload costs about the same on every seed, and its
checks decide every output afresh.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from okamoto import betaexp, derivative, numdigits, selfaffine, spectrum

import checks
import oracle


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # the reason an output counts as a failed operation, or None
    failure: Callable[[object], str | None] = lambda out: None
    argv: list[str] | None = None  # CLI tasks only


def build(workload: str, seed: int, smoke: bool, okamoto_cli: Callable | None = None) -> list[Task]:
    """The workload's task list; `okamoto_cli(argv)` runs one CLI process (cli only)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return cli_tasks(rng, okamoto_cli)
    return {"entropy": entropy_tasks, "classify": classify_tasks, "reports": report_tasks}[
        workload
    ](rng, smoke)


def _near(rng: random.Random, centre: float, spread: int, prime: int) -> Fraction:
    """A seeded rational k/prime within spread/prime of centre.

    The prime denominator never cancels, so exact arithmetic on the result
    costs the same on every seed.
    """
    return Fraction(round(centre * prime) + rng.randint(-spread, spread), prime)


# ---------------------------------------------------------------- entropy --

# (N, centre of beta, depth, recount depth): thin and thick languages on both sides of
# q_KL (1.787 for N=1, 2.536 for N=2); each recount depth is in the halving
# chain of the full depth, so the full-depth upper bound can only be lower.
ENTROPY_SPECS = (
    (1, 1.7, 22, 11),
    (1, 1.99, 18, 9),
    (2, 2.5, 13, 7),
    (2, 2.9, 12, 6),
    (3, 3.5, 11, 6),
)
# The count of surviving words moves with the base, so the seed moves it by
# at most 4/20011.
ENTROPY_PRIME = 20011
ENTROPY_SMOKE = {22: 12, 18: 10, 13: 7, 12: 7, 11: 6}


def entropy_tasks(rng: random.Random, smoke: bool) -> list[Task]:
    tasks = []
    for N, centre, depth, small in ENTROPY_SPECS:
        beta = _near(rng, centre, 4, ENTROPY_PRIME)
        if smoke:
            depth = ENTROPY_SMOKE[depth]
            small = (depth + 1) // 2
        tasks.append(
            Task(
                f"entropy N={N} beta={beta} d={depth}",
                lambda N=N, beta=beta, depth=depth: betaexp.univoque_entropy_bounds(N, beta, depth),
                lambda out, N=N, beta=beta, depth=depth, small=small: _check_entropy(
                    N, beta, depth, small, out
                ),
            )
        )
    a = _near(rng, 0.52, 4, ENTROPY_PRIME)
    depth, small = (10, 5) if smoke else (20, 10)
    tasks.append(
        Task(
            f"dim_infinite_set N=1 a={a} d={depth}",
            lambda: spectrum.dim_infinite_set(1, a, depth),
            lambda out: _check_dim_positive(1, a, depth, small, out),
        )
    )
    return tasks


def _check_entropy(N, beta, depth, small, out) -> list[str]:
    label = f"univoque_entropy_bounds({N}, {beta}, {depth})"
    problems = checks.ordered_bounds(label, out.lower, out.upper)
    if out.depth != depth:
        problems.append(f"{label} reports depth {out.depth}")
    low = betaexp.univoque_entropy_bounds(N, beta, small)
    problems += checks.entropy_recount(N, beta, small, low.lower, low.upper)
    if out.upper > low.upper:
        problems.append(f"{label}: upper {out.upper} exceeds the depth-{small} upper {low.upper}")
    return problems


def _check_dim_positive(N, a, depth, small, out) -> list[str]:
    label = f"dim_infinite_set({N}, {a}, {depth})"
    factor = math.log(1 / float(a)) / math.log(2 * N + 1)
    problems = []
    if out.regime != "POSITIVE_DIM" or not oracle.mpf_of(a) < oracle.thresholds_mp(N)[3]:
        problems.append(f"{label}: regime {out.regime} at a below a_inf_hat")
    lower, upper = out.value
    problems += checks.ordered_bounds(label, lower, upper, factor)
    low = spectrum.dim_infinite_set(N, a, small)
    problems += checks.entropy_recount(N, 1 / a, small, *low.value, scale=factor)
    if upper > low.value[1]:
        problems.append(f"{label}: upper {upper} exceeds the depth-{small} upper {low.value[1]}")
    return problems


# --------------------------------------------------------------- classify --

MIXED_PERIODS = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 12, 16, 24, 32, 48, 64, 96, 128)
EVEN_PERIODS = (20, 50, 100, 200)
# (N, centre of a): the positive-dimension regime, and a near 1.  Near 1 the
# seed picks a = 1 - 1/p for a prime p close to 1000, which keeps the length
# of eval_F's series, about log(tol (1-a)) / log(a) terms, within 2%.
CLASSIFY_PARAMS = ((1, 0.52), (1, 0.999), (2, 0.36))
NEAR_ONE_PRIMES = (983, 991, 997, 1009, 1013, 1019)


def _halved_word(rng: random.Random, N: int, m: int, long_run: bool) -> list[int]:
    """A word over {0..N} near the middle of the alphabet, so that many are univoque.

    With long_run, a block of six top digits is written in, which no base in
    the workload admits.
    """
    lo, hi = N // 2, (N + 1) // 2
    if lo == hi:
        lo, hi = max(0, lo - 1), min(N, hi + 1)
    w = []
    for _ in range(m):
        if len(w) >= 2 and w[-1] == w[-2]:
            w.append(hi if w[-1] == lo else lo)
        else:
            w.append(rng.choice((lo, hi)) if N % 2 else rng.choice((N // 2,) * 3 + (lo, hi)))
    if long_run:
        k = rng.randrange(m - 6)
        w[k : k + 6] = [N] * 6
    return w


def classify_points(rng: random.Random, N: int, smoke: bool) -> list[tuple[Fraction, int]]:
    """Seeded rationals with a shift digit i each for the self-affine check."""
    B = 2 * N + 1
    pts = []
    mixed = [m for m in MIXED_PERIODS if m <= 8] if smoke else MIXED_PERIODS
    for k, m in enumerate(mixed):
        step = 2 if k % 2 else 1  # every second point has even digits only
        while True:
            pre = tuple(rng.randrange(B) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randrange(0, B, step) for _ in range(m))
            x = oracle.value_of(pre, per, B)
            if 0 < x < 1 and set(per) != {2 * N}:
                break
        pts.append((x, rng.randrange(B)))
    for k, m in enumerate((20, 40) if smoke else EVEN_PERIODS):
        pre = tuple(rng.randrange(B) for _ in range(rng.randint(1, 3)))
        per = tuple(2 * t for t in _halved_word(rng, N, m, long_run=bool(k % 2)))
        pts.append((oracle.value_of(pre, per, B), rng.randrange(B)))
    return pts


def _analyse(N: int, a, xs, exact: bool):
    p = numdigits.make_params(N, a)
    out = []
    for x in xs:
        d = numdigits.digits_of(x, N)
        tag = derivative.classify_derivative(p, d).tag.value
        F = selfaffine.eval_F(p, d)
        out.append((tag, F, selfaffine.eval_F_exact(p, d) if exact else None))
    return out


def _check_analysis(N, a, pts, out) -> list[str]:
    problems = []
    B = 2 * N + 1
    exact = isinstance(a, Fraction)
    p = numdigits.make_params(N, a)
    for (x, i), (tag, F, Fe) in zip(pts, out):
        problems += checks.point(N, a, x, tag, F)
        if exact:
            problems += checks.exact_value(N, a, x, Fe)
            shifted = selfaffine.eval_F_exact(p, numdigits.digits_of((i + x) / B, N))
            problems += checks.self_affine(N, a, i, Fe, shifted)
    return problems


def classify_tasks(rng: random.Random, smoke: bool) -> list[Task]:
    points = {N: classify_points(rng, N, smoke) for N in sorted({N for N, _ in CLASSIFY_PARAMS})}
    tasks = []
    for N, centre in CLASSIFY_PARAMS:
        if centre > 0.99:
            a = 1 - Fraction(1, rng.choice(NEAR_ONE_PRIMES))
        else:
            a = _near(rng, centre, 5, 1009)
        pts = points[N]
        xs = [x for x, _ in pts]
        for av in (a, float(a)):
            kind = "Fraction" if av is a else "float"
            tasks.append(
                Task(
                    f"classify N={N} a={a} ({kind}), {len(xs)} points",
                    lambda N=N, av=av, xs=xs: _analyse(N, av, xs, isinstance(av, Fraction)),
                    lambda out, N=N, av=av, pts=pts: _check_analysis(N, av, pts, out),
                )
            )
    return tasks


# ---------------------------------------------------------------- reports --

# a_inf_hat rounded up (1/q_KL), so the sweeps start inside COUNTABLE_RATIONAL
ABOVE_HAT = {1: Fraction(561, 1000), 2: Fraction(396, 1000), 3: Fraction(345, 1000)}


def _grid(lo: Fraction, hi: Fraction, n: int, offset: Fraction) -> list[Fraction]:
    return [lo + (hi - lo) * (k + offset) / n for k in range(n)]


def report_tasks(rng: random.Random, smoke: bool) -> list[Task]:
    tasks = []
    n_max = 12 if smoke else 100
    table_ns = list(range(1, n_max + 1)) + sorted(rng.sample(range(n_max + 1, 10 * n_max), n_max // 5))
    tasks.append(
        Task(
            f"threshold table, {len(table_ns)} N up to {table_ns[-1]}",
            lambda: [spectrum.thresholds(n) for n in table_ns],
            lambda out: [e for t in out for e in checks.threshold_row(t.N, t.as_row())],
        )
    )
    grid_n = 20 if smoke else 98
    for N in (1, 2) if smoke else (1, 2, 3, 5):
        grid = _grid(Fraction(1, N + 1), Fraction(1), grid_n, Fraction(rng.randint(1, 999), 1000))
        tasks.append(
            Task(
                f"dim_zero_set N={N}, {len(grid)}-point grid",
                lambda N=N, grid=grid: [spectrum.dim_zero_set(N, a) for a in grid],
                lambda out, N=N, grid=grid: [
                    e for a, r in zip(grid, out) for e in checks.dim_zero(N, a, r.regime, r.value)
                ],
            )
        )
    sweep_n = 15 if smoke else 60
    for N in (1, 2) if smoke else (1, 2, 3):
        grid = _grid(ABOVE_HAT[N], Fraction(1), sweep_n, Fraction(rng.randint(1, 999), 1000))
        tasks.append(
            Task(
                f"dim_infinite_set N={N}, {len(grid)} a above a_inf_hat",
                lambda N=N, grid=grid: [spectrum.dim_infinite_set(N, a) for a in grid],
                lambda out, N=N, grid=grid: [
                    e
                    for a, r in zip(grid, out)
                    for e in checks.dim_inf_counting_free(N, a, r.regime, r.value)
                ],
            )
        )
    curve_ns = sorted(rng.sample(range(1, 30), 3 if smoke else 8))
    count = 100 if smoke else 500
    tasks.append(
        Task(
            f"dimension_curve for N in {curve_ns}, {count} points each",
            lambda: [spectrum.dimension_curve(N, count) for N in curve_ns],
            lambda out: [
                e
                for N, curve in zip(curve_ns, out)
                for a, v in curve[::25]
                for e in checks.curve_point(N, a, v)
            ],
        )
    )
    asym_ns = list(range(1, 11 if smoke else 51)) + sorted(rng.sample(range(51, 2000), 5 if smoke else 50))
    tasks.append(
        Task(
            f"threshold_asymptotics over {len(asym_ns)} N",
            lambda: spectrum.threshold_asymptotics(asym_ns),
            lambda out: _check_asymptotics(asym_ns, out),
        )
    )
    # Fixed parameters: the cost is set by how many words are univoque, which
    # jumps as a moves.
    enum_specs = [
        (2, Fraction(7, 20), 1 if smoke else 2, 3 if smoke else 4),
        (1, Fraction(13, 25), 2, 4 if smoke else 6),
    ]
    for N, a, pl, per in enum_specs:
        tasks.append(
            Task(
                f"enumerate_infinite_points({N}, {a}, {pl}, {per})",
                lambda N=N, a=a, pl=pl, per=per: spectrum.enumerate_infinite_points(N, a, pl, per),
                lambda out, N=N, a=a, pl=pl, per=per: checks.enumeration(
                    N, a, pl, per, _certs(out.points), _certs(out.rejected)
                ),
            )
        )
    tasks.append(_count_task(rng, smoke))
    return tasks


def _certs(certs):
    return [(c.x, c.prefix, c.omega.period, c.tag.value) for c in certs]


def _check_asymptotics(ns, out) -> list[str]:
    problems = []
    if len(out.rows) != len(ns):
        return [f"threshold_asymptotics gave {len(out.rows)} rows for {len(ns)} N"]
    for N, row in zip(ns, out.rows):
        if row[0] != N:
            problems.append(f"asymptotics row {row[0]} where N={N} was asked")
        problems += checks.threshold_row(N, [v / N for v in row[1:]])
    limits = (1.0, (1.0 + 2.0**0.5) / 2.0, 1.5, 2.0, 2.0)
    for got, lim, last in zip(out.deltas, limits, out.rows[-1][1:]):
        if abs(got - abs(last - lim)) > 1e-15:
            problems.append(f"asymptotic delta {got} is not |{last} - {lim}|")
    return problems


def _count_task(rng: random.Random, smoke: bool) -> Task:
    """count_expansions at integer bases (off-grid: 1, grid: 2) and at univoque points."""
    cases = []
    n_off, n_grid = (10, 4) if smoke else (60, 20)
    for N in (1, 2):
        for _ in range(n_off):
            while True:
                q = rng.randint(7, 500)
                x = Fraction(rng.randint(1, q - 1), q)
                r = x.denominator
                while r % (N + 1) == 0:
                    r //= N + 1
                if r > 1:
                    break
            cases.append((x, N, N + 1, 1))
        for _ in range(n_grid):
            k = rng.randint(1, 6)
            j = rng.randrange(1, (N + 1) ** k)
            cases.append((Fraction(j, (N + 1) ** k), N, N + 1, 2))
    a = Fraction(13, 25)
    while len(cases) < (2 * n_off + 2 * n_grid) + (6 if smoke else 20):
        w = tuple(rng.randrange(2) for _ in range(rng.randint(2, 9)))
        if oracle.is_univoque_periodic(w, 1, a):
            cases.append((oracle.pi_periodic(w, a), 1, 1 / a, 1))
    return Task(
        f"count_expansions on {len(cases)} points",
        lambda: [betaexp.count_expansions(x, N, b) for x, N, b, _ in cases],
        lambda out: [
            e
            for (x, N, b, want), c in zip(cases, out)
            for e in checks.expansion_count(x, N, b, c.count, c.saturated, want)
        ],
    )


# -------------------------------------------------------------------- cli --

TRACEBACK = "Traceback (most recent call last)"


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = field(default=0, compare=False)  # measured, not compared


def spawn(args: list[str], env: dict, tmpdir: str) -> CliRun:
    """Run one fresh interpreter to completion and reap it with its resource usage."""
    with tempfile.TemporaryFile(dir=tmpdir) as fo, tempfile.TemporaryFile(dir=tmpdir) as fe:
        proc = subprocess.Popen(args, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return CliRun(proc.returncode, fo.read().decode(), fe.read().decode(), usage.ru_maxrss)


def _cli_failure(out: CliRun, valid: bool) -> str | None:
    if TRACEBACK in out.stderr:
        return "traceback: " + out.stderr.strip().splitlines()[-1]
    if valid and out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()}"
    if not valid and (out.code not in (1, 2, 3, 4) or out.stdout):
        return f"malformed invocation gave exit {out.code}"
    return None


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def cli_invocations(rng: random.Random):
    """(argv, check on the parsed JSON) for light invocations of all nine verbs."""
    inv = []

    def add(argv, check):
        inv.append((argv, lambda out: check(json.loads(out.stdout))))

    for N in (1, 2):
        a = Fraction(rng.randint(56, 95), 100) if N == 1 else Fraction(rng.randint(40, 95), 100)
        x = Fraction(rng.randint(1, 996), 997)
        add(
            ["eval", "--N", str(N), "--a", _rat(a), "--x", _rat(x)],
            lambda o, N=N, a=a, x=x: checks.series_value(N, a, x, o["F"]) + _box(N, a, o["box_dimension"]),
        )
    a = _near(rng, 0.52, 20, 1009)
    x = oracle.value_of((rng.randrange(3),), tuple(2 * t for t in _halved_word(rng, 1, 12, False)), 3)
    add(
        ["classify", "--N", "1", "--a", _rat(a), "--x", _rat(x), "--probe-levels", "8"],
        lambda o, a=a, x=x: _check_classify(1, a, x, o, 8),
    )
    add(["thresholds", "--N", "1..12"], lambda o: [e for r in o for e in _row(r)])
    N = rng.randint(1, 4)
    a = Fraction(1, N + 1) + Fraction(rng.randint(1, 99), 100) * Fraction(N, N + 1)
    add(["dim-d0", "--N", str(N), "--a", _rat(a)], lambda o, N=N, a=a: checks.dim_zero(N, a, o["regime"], o["value"]))
    add(
        ["dim-d0", "--N", "1", "--a", "3/5", "--grid", "64"],
        lambda o: [e for av, dv in o[::8] for e in checks.curve_point(1, av, dv)],
    )
    a = _near(rng, 0.45, 30, 1009)
    add(
        ["dim-dinf", "--N", "2", "--a", _rat(a)],
        lambda o, a=a: checks.dim_inf_counting_free(2, a, o["regime"], o["value"]),
    )
    a = _near(rng, 0.52, 10, 1009)
    add(["dim-dinf", "--N", "1", "--a", _rat(a), "--depth", "10"], lambda o, a=a: _check_dinf_small(a, o))
    a = Fraction(rng.randint(60, 90), 100)
    add(
        ["graph", "--N", "1", "--a", _rat(a), "--depth", "4"],
        lambda o, a=a: _check_graph(1, a, 4, o),
    )
    beta = _near(rng, 1.9, 50, 1009)
    w = _halved_word(rng, 1, 7, False)
    wtxt = "(" + " ".join(map(str, w)) + ")"
    add(
        ["beta", "--op", "pi", "--N", "1", "--beta", _rat(beta), "--w", wtxt],
        lambda o, beta=beta, w=w: checks.close("pi", o["value"], oracle.mpf_of(oracle.pi_periodic(w, 1 / beta)), 1e-14),
    )
    add(
        ["beta", "--op", "quasi-greedy", "--N", "1", "--beta", _rat(beta), "--max-len", "32"],
        lambda o, beta=beta: [] if tuple(o["digits"]) == oracle.quasi_greedy(1, beta, len(o["digits"]))
        and len(o["digits"]) >= 1 else [f"quasi-greedy digits {o['digits']} for beta={beta}"],
    )
    add(
        ["beta", "--op", "univoque", "--N", "1", "--beta", _rat(beta), "--w", wtxt],
        lambda o, beta=beta, w=w: [] if o["univoque"] == oracle.is_univoque_periodic(w, 1, 1 / beta)
        else [f"univoque {w} at beta={beta}: got {o['univoque']}"],
    )
    q = rng.choice((3, 5, 7, 9, 11, 13))
    x = Fraction(rng.randint(1, q - 1), q)
    add(
        ["beta", "--op", "count", "--N", "1", "--beta", "2", "--x", _rat(x)],
        lambda o, x=x: checks.expansion_count(x, 1, 2, o["count"], o["at_least"], 1),
    )
    n = rng.randint(16, 64)
    add(
        ["beta", "--op", "tm", "--count", str(n)],
        lambda o, n=n: [] if o["digits"] == [bin(i).count("1") % 2 for i in range(n)] else ["tm digits"],
    )
    N = rng.randint(1, 6)
    add(
        ["beta", "--op", "gtm", "--N", str(N), "--count", str(n)],
        lambda o, N=N, n=n: [] if o["digits"] == oracle.tm_digits(N, n) else [f"gtm digits N={N}"],
    )
    beta = _near(rng, 1.9, 50, 1009)
    add(
        ["beta", "--op", "entropy", "--N", "1", "--beta", _rat(beta), "--depth", "8"],
        lambda o, beta=beta: checks.entropy_recount(1, beta, 8, o["lower"], o["upper"])
        + checks.ordered_bounds("beta --op entropy", o["lower"], o["upper"]),
    )
    a = _near(rng, 0.58, 5, 1009)
    add(
        ["enumerate-dinf", "--N", "1", "--a", _rat(a), "--max-prefix", "2", "--max-period", "3"],
        lambda o, a=a: checks.enumeration(1, a, 2, 3, _json_certs(o["points"]), _json_certs(o["rejected"])),
    )
    ns = sorted({1, 2, 5, 10, 100} | set(rng.sample(range(11, 99), 3)))
    add(
        ["asymptotics", "--N", ",".join(map(str, ns))],
        lambda o, ns=ns: [e for N, r in zip(ns, o["rows"]) for e in checks.threshold_row(N, [v / N for v in r[1:]])],
    )
    return inv


# The documented exit codes are 1 (usage) and 2 (domain).  These six end in a
# Python traceback today (ValueError in cli.parse_a, parse_n_range and
# selfaffine._series_terms, AttributeError in cli._cmd_beta) and count as
# failed operations until that is fixed; their inputs do not depend on the seed.
MALFORMED = (
    ["eval", "--N", "1", "--a", "kl:x", "--x", "1/3"],
    ["thresholds", "--N", "a..b"],
    ["eval", "--N", "1", "--a", "3/5", "--x", "1/3", "--tol", "nan"],
    ["beta", "--op", "pi", "--N", "1", "--beta", "19/10"],
    ["beta", "--op", "univoque", "--N", "1", "--beta", "19/10"],
    ["beta", "--op", "count", "--N", "1", "--beta", "2"],
)


def cli_tasks(rng: random.Random, okamoto_cli: Callable) -> list[Task]:
    tasks = []
    for argv, check in cli_invocations(rng):
        tasks.append(
            Task(
                "okamoto " + " ".join(argv),
                lambda argv=argv: okamoto_cli(argv),
                check,
                lambda out: _cli_failure(out, True),
                argv,
            )
        )
    for argv in MALFORMED:
        tasks.append(
            Task(
                "okamoto " + " ".join(argv),
                lambda argv=argv: okamoto_cli(argv),
                lambda out: [],
                lambda out: _cli_failure(out, False),
                argv,
            )
        )
    return tasks


def _json_certs(objs):
    out = []
    for o in objs:
        omega = tuple(int(t) for t in o["omega"].strip("()").split())
        out.append((Fraction(o["x"]), tuple(o["prefix"]), omega, o["tag"]))
    return out


def _row(r) -> list[str]:
    return checks.threshold_row(r["N"], [r["a_min"], r["a0_tilde"], r["a0_star"], r["a_inf_hat"], r["a_inf_star"]])


def _box(N, a, got) -> list[str]:
    return checks.close("box_dimension", got, 1 + math.log(2 * (N + 1) * float(a) - 1) / math.log(2 * N + 1), 1e-12)


def _check_classify(N, a, x, o, levels) -> list[str]:
    want, _ = oracle.verdict(N, a, *oracle.expand(x, 2 * N + 1))
    problems = [] if o["tag"] == want else [f"classify x={x}: got {o['tag']}, expected {want}"]
    if len(o["probe"]) != levels:
        problems.append(f"classify probe has {len(o['probe'])} rows, expected {levels}")
    return problems


def _check_dinf_small(a, o) -> list[str]:
    factor = math.log(1 / float(a)) / math.log(3)
    if o["regime"] != "POSITIVE_DIM":
        return [f"dim-dinf a={a}: regime {o['regime']}"]
    return checks.entropy_recount(1, 1 / a, 10, o["lower"], o["upper"], scale=factor)


def _check_graph(N, a, depth, o) -> list[str]:
    B = 2 * N + 1
    n = B**depth
    if len(o) != n + 1:
        return [f"graph has {len(o)} points, expected {n + 1}"]
    problems = []
    for j in range(1, n, 7):
        x = Fraction(j, n)
        problems += checks.close(
            f"graph F({x})", o[j][1], oracle.F_mp(N, a, *oracle.expand(x, B)), 1e-13
        )
        problems += checks.close(f"graph x[{j}]", o[j][0], x, 1e-16)
    return problems
