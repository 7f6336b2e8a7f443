"""Command-line surface with machine-readable output.

Each verb's handler returns its result and run() alone writes it to stdout:
JSON by default, or CSV when --csv asks a tabular verb for a table (--csv on
a result with no table, such as dim-d0 without --grid, is exit 2).  Output is
deterministic for fixed inputs (no timestamps, fixed ordering) and floats
are printed with 17 significant digits.  Exit codes: 0 success, 1 usage
error, 2 domain error, 3 precision/convergence error, 4 resource error.

Values passed to --a and --x are parsed as exact rationals ("5/6" and "0.58"
both work; "0.58" means 29/50 exactly), so boundary experiments see exact
constants.  --a also accepts the threshold references "a0tilde:N", "kl:N"
and "gr:N".
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, TextIO

from . import betaexp, spectrum
from .derivative import classify_derivative, finite_difference_probe
from .errors import (
    ConvergenceError,
    DomainError,
    GridPointError,
    OkamotoError,
    PrecisionError,
    ResourceError,
)
from .numdigits import digits_of, make_params, parse_omegaseq
from .selfaffine import box_dimension, eval_F, sample_graph


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def fmt17(v: float) -> str:
    return format(float(v), ".17g")


class Table(NamedTuple):
    """A CSV result: ints are written by str, floats by fmt17 and None as an empty cell."""

    header: tuple[str, ...]
    rows: Iterable[tuple]

    def to_csv(self, out: TextIO) -> None:
        out.write(",".join(self.header) + "\n")
        for row in self.rows:
            cells = ("" if v is None else str(v) if isinstance(v, int) else fmt17(v) for v in row)
            out.write(",".join(cells) + "\n")


def emit(result, out: TextIO) -> None:
    """A result with to_csv (a Table or a GraphSample) as CSV, anything else as JSON."""
    if hasattr(result, "to_csv"):
        result.to_csv(out)
    else:
        out.write(_json_text(result) + "\n")


def _json_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt17(v)
    if isinstance(v, Fraction):
        return f'"{v.numerator}/{v.denominator}"'
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(v, dict):
        inner = ",".join(f"{_json_text(str(k))}:{_json_text(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_text(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


# a0tilde:N, and the reciprocals of --beta's kl:N and gr:N bases
A_REFERENCES = (("a0tilde:", spectrum.a0_tilde), ("kl:", spectrum.a_inf_hat),
                ("gr:", spectrum.a_inf_star))
N_LIST_CAP = 100_000  # thresholds: about 57 us per N with its JSON row, 6 s here (2-CPU x86)


def parse_a(text: str):
    """An exact rational, or a threshold reference of A_REFERENCES."""
    return betaexp.resolve_reference(text.strip(), A_REFERENCES, "rational")


def parse_n_range(text: str) -> list[int]:
    """The N of "3", "1..10" or "1,4,9", counted from their bounds before the list is built."""
    ranges = []
    try:
        for part in text.split(","):
            lo, dots, hi = part.partition("..")
            ranges.append(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise DomainError(f"bad N specification {text!r}") from None
    ranges = [r for r in ranges if r]
    if not ranges or any(r.start < 1 for r in ranges):
        raise DomainError(f"bad N specification {text!r}")
    count = sum(r.stop - r.start for r in ranges)  # len() overflows past 2^63
    if count > N_LIST_CAP:
        raise ResourceError(f"--N names {count} values, past the cap of {N_LIST_CAP}")
    return [n for r in ranges for n in r]


def _build_parser() -> _Parser:
    top = _Parser(prog="okamoto", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help, na=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if na:
            p.add_argument("--N", required=True, type=int)
            p.add_argument("--a", required=True, type=str)
        return p

    p = verb("eval", _cmd_eval, "evaluate the limit function at a rational x")
    p.add_argument("--x", required=True, type=str)

    p = verb("classify", _cmd_classify, "classify the derivative at a rational x")
    p.add_argument("--x", required=True, type=str)
    p.add_argument("--probe-levels", type=int, default=0)
    p.add_argument("--csv", action="store_true", help="emit probe rows as CSV")

    p = verb("thresholds", _cmd_thresholds, "the five regime thresholds per N", na=False)
    p.add_argument("--N", required=True, type=str, help="e.g. 3 or 1..10 or 1,4,9")
    p.add_argument("--csv", action="store_true")

    p = verb("dim-d0", _cmd_dim_d0, "dimension report for the zero-derivative set")
    p.add_argument("--grid", type=int, default=0, help="emit an a,dim curve instead")
    p.add_argument("--csv", action="store_true")

    p = verb("dim-dinf", _cmd_dim_dinf, "dimension report for the infinite-derivative set")
    p.add_argument("--depth", type=int, default=20)

    p = verb("graph", _cmd_graph, "sample the graph on the level-depth grid")
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--csv", action="store_true")

    p = verb("beta", _cmd_beta, "beta-expansion operations", na=False)
    p.add_argument("--op", required=True, choices=[
        "pi", "quasi-greedy", "univoque", "count", "tm", "gtm", "entropy",
    ])
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--beta", type=str, default=None,
                   help="number, rational, or kl:N / gr:N")
    p.add_argument("--w", type=str, default=None, help='sequence "d1 d2 (p1 p2)"')
    p.add_argument("--x", type=str, default=None)
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--depth", type=int, default=None, help="default 40 for count, 20 for entropy")
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--count", type=int, default=16, help="prefix length for tm/gtm")

    p = verb("enumerate-dinf", _cmd_enumerate_dinf, "points of the infinite-derivative set")
    p.add_argument("--max-prefix", type=int, default=1)
    p.add_argument("--max-period", type=int, default=3)

    p = verb("asymptotics", _cmd_asymptotics, "N-scaled thresholds vs their limits", na=False)
    p.add_argument("--N", required=True, type=str)
    p.add_argument("--csv", action="store_true")

    return top


def _cmd_eval(args) -> dict:
    a = parse_a(args.a)
    p = make_params(args.N, a)
    x = betaexp.parse_rational(args.x)
    d = digits_of(x, args.N)
    val = eval_F(p, d)
    return {
        "N": args.N,
        "a": float(a),
        "x": x,
        "digits": str(d),
        "F": val,
        "box_dimension": box_dimension(p),
    }


def _cmd_classify(args):
    a = parse_a(args.a)
    p = make_params(args.N, a)
    x = betaexp.parse_rational(args.x)
    d = digits_of(x, args.N)
    verdict = classify_derivative(p, d)
    # any nonzero count, so that finite_difference_probe rejects a negative one
    probe_rows = finite_difference_probe(p, x, args.probe_levels) if args.probe_levels else None
    if args.csv:  # the verdict's JSON is never built here: past float range it raises
        if probe_rows is None:
            raise DomainError("--csv for classify requires --probe-levels")
        return Table(("n", "h", "right_quotient", "left_quotient"),
                     ((r.level, r.h, r.right, r.left) for r in probe_rows))
    obj = {"N": args.N, "a": float(a), "x": x}
    obj.update(verdict.to_json_obj())
    if probe_rows is not None:
        obj["probe"] = [
            {"n": r.level, "h": r.h, "right": r.right, "left": r.left}
            for r in probe_rows
        ]
    return obj


def _cmd_thresholds(args):
    rows = [spectrum.thresholds(n) for n in parse_n_range(args.N)]
    if args.csv:
        return Table(("N",) + spectrum.THRESHOLD_NAMES, ((t.N, *t.as_row()) for t in rows))
    return [t.to_json_obj() for t in rows]


def _cmd_dim_d0(args):
    a = parse_a(args.a)
    if not args.grid:
        if args.csv:
            raise DomainError("--csv for dim-d0 requires --grid")
        return spectrum.dim_zero_set(args.N, a).to_json_obj()
    curve = spectrum.dimension_curve(args.N, args.grid)
    return Table(("a", "dim"), curve) if args.csv else [[av, dv] for av, dv in curve]


def _cmd_dim_dinf(args) -> dict:
    return spectrum.dim_infinite_set(args.N, parse_a(args.a), args.depth).to_json_obj()


def _cmd_graph(args):
    sample = sample_graph(make_params(args.N, parse_a(args.a)), args.depth)
    return sample if args.csv else sample.to_json_obj()  # its own to_csv streams 10^7 rows fast


def _cmd_beta(args) -> dict:
    op = args.op
    if op in ("tm", "gtm"):
        n = args.count
        seq = (
            betaexp.thue_morse_prefix(n)
            if op == "tm"
            else betaexp.generalized_tm_prefix(args.N, n)
        )
        return {"op": op, "N": args.N, "count": n, "digits": seq}
    if args.beta is None:
        raise DomainError(f"--beta is required for op {op!r}")
    needed = {"pi": "w", "univoque": "w", "count": "x"}.get(op)
    if needed and getattr(args, needed) is None:
        raise DomainError(f"--{needed} is required for op {op!r}")
    beta = betaexp.resolve_beta(args.beta)
    depth = {} if args.depth is None else {"depth": args.depth}  # else each op's own default
    if op == "pi":
        w = parse_omegaseq(args.w, args.N)
        fields = {"w": str(w), "value": float(betaexp.pi_beta(w, beta))}
    elif op == "quasi-greedy":
        r = betaexp.quasi_greedy_one(args.N, beta, args.max_len)
        fields = {
            "digits": list(r.digits),
            "seq": None if r.seq is None else str(r.seq),
            "truncated": r.truncated,
        }
    elif op == "univoque":
        w = parse_omegaseq(args.w, args.N)
        fields = {"w": str(w), "univoque": betaexp.is_univoque(w, args.N, beta)}
    elif op == "count":
        x = betaexp.parse_rational(args.x)
        c = betaexp.count_expansions(x, args.N, beta, args.cap, **depth)
        fields = {"x": x, "count": c.count, "at_least": c.saturated}
    else:  # entropy
        fields = betaexp.univoque_entropy_bounds(args.N, beta, **depth).to_json_obj()
    try:  # after the op, so that its own domain error comes first
        beta_float = float(beta)
    except OverflowError:
        raise ResourceError("beta is past float range") from None
    return {"op": op, "N": args.N, "beta": beta_float, **fields}


def _cmd_enumerate_dinf(args) -> dict:
    a = parse_a(args.a)
    res = spectrum.enumerate_infinite_points(
        args.N, a, args.max_prefix, args.max_period
    )
    return {
        "N": args.N,
        "a": float(a),
        "points": [c.to_json_obj() for c in res.points],
        "rejected": [c.to_json_obj() for c in res.rejected],
    }


def _cmd_asymptotics(args):
    rep = spectrum.threshold_asymptotics(parse_n_range(args.N))
    if args.csv:  # a row's N is a float there
        return Table(rep.columns, ((int(r[0]), *r[1:]) for r in rep.rows))
    return rep.to_json_obj()


def run(argv: list[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        err.write(f"usage error: {_clip_digits(exc)}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        emit(args.handler(args), out)
    except (DomainError, GridPointError) as exc:
        err.write(f"domain error: {_clip_digits(exc)}\n")
        return 2
    except (PrecisionError, ConvergenceError) as exc:
        err.write(f"precision error: {_clip_digits(exc)}\n")
        return 3
    except ResourceError as exc:
        err.write(f"resource error: {_clip_digits(exc)}\n")
        return 4
    except OkamotoError as exc:
        err.write(f"error: {_clip_digits(exc)}\n")
        return 2
    return 0


def _clip_digits(exc: Exception) -> str:
    """The message with each run of more than 60 digits shown by its ends and its length."""
    import re  # on the error path only

    def clip(run):
        return f"{run[0][:24]}...{run[0][-12:]} ({len(run[0])} digits)"

    return re.sub(r"\d{61,}", clip, str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
