"""Command-line surface with machine-readable output.

JSON goes to stdout by default; --csv switches tabular verbs to CSV.  Output
is deterministic for fixed inputs (no timestamps, fixed ordering) and floats
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
from typing import TextIO

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


def emit_json(obj, out: TextIO) -> None:
    out.write(_json_text(obj))
    out.write("\n")


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

    def common_na(p):
        p.add_argument("--N", required=True, type=int)
        p.add_argument("--a", required=True, type=str)

    p = sub.add_parser("eval", help="evaluate the limit function at a rational x")
    common_na(p)
    p.add_argument("--x", required=True, type=str)

    p = sub.add_parser("classify", help="classify the derivative at a rational x")
    common_na(p)
    p.add_argument("--x", required=True, type=str)
    p.add_argument("--probe-levels", type=int, default=0)
    p.add_argument("--csv", action="store_true", help="emit probe rows as CSV")

    p = sub.add_parser("thresholds", help="the five regime thresholds per N")
    p.add_argument("--N", required=True, type=str, help="e.g. 3 or 1..10 or 1,4,9")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("dim-d0", help="dimension report for the zero-derivative set")
    common_na(p)
    p.add_argument("--grid", type=int, default=0, help="emit an a,dim curve instead")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("dim-dinf", help="dimension report for the infinite-derivative set")
    common_na(p)
    p.add_argument("--depth", type=int, default=20)

    p = sub.add_parser("graph", help="sample the graph on the level-depth grid")
    common_na(p)
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("beta", help="beta-expansion operations")
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

    p = sub.add_parser("enumerate-dinf", help="points of the infinite-derivative set")
    common_na(p)
    p.add_argument("--max-prefix", type=int, default=1)
    p.add_argument("--max-period", type=int, default=3)

    p = sub.add_parser("asymptotics", help="N-scaled thresholds vs their limits")
    p.add_argument("--N", required=True, type=str)
    p.add_argument("--csv", action="store_true")

    return top


def _cmd_eval(args, out: TextIO) -> None:
    a = parse_a(args.a)
    p = make_params(args.N, a)
    x = betaexp.parse_rational(args.x)
    d = digits_of(x, args.N)
    val = eval_F(p, d)
    emit_json({
        "N": args.N,
        "a": float(a),
        "x": x,
        "digits": str(d),
        "F": val,
        "box_dimension": box_dimension(p),
    }, out)


def _cmd_classify(args, out: TextIO) -> None:
    a = parse_a(args.a)
    p = make_params(args.N, a)
    x = betaexp.parse_rational(args.x)
    d = digits_of(x, args.N)
    verdict = classify_derivative(p, d)
    probe_rows = (
        finite_difference_probe(p, x, args.probe_levels)
        if args.probe_levels > 0
        else None
    )
    if args.csv:
        if probe_rows is None:
            raise DomainError("--csv for classify requires --probe-levels")
        out.write("n,h,right_quotient,left_quotient\n")
        for r in probe_rows:
            rq = "" if r.right is None else fmt17(r.right)
            lq = "" if r.left is None else fmt17(r.left)
            out.write(f"{r.level},{fmt17(r.h)},{rq},{lq}\n")
        return
    obj = {"N": args.N, "a": float(a), "x": x}
    obj.update(verdict.to_json_obj())
    if probe_rows is not None:
        obj["probe"] = [
            {"n": r.level, "h": r.h, "right": r.right, "left": r.left}
            for r in probe_rows
        ]
    emit_json(obj, out)


def _cmd_thresholds(args, out: TextIO) -> None:
    ns = parse_n_range(args.N)
    rows = [spectrum.thresholds(n) for n in ns]
    if args.csv:
        out.write("N,a_min,a0_tilde,a0_star,a_inf_hat,a_inf_star\n")
        for t in rows:
            vals = ",".join(fmt17(v) for v in t.as_row())
            out.write(f"{t.N},{vals}\n")
        return
    emit_json([t.to_json_obj() for t in rows], out)


def _cmd_dim_d0(args, out: TextIO) -> None:
    a = parse_a(args.a)
    if args.grid:
        curve = spectrum.dimension_curve(args.N, args.grid)
        if args.csv:
            out.write("a,dim\n")
            for av, dv in curve:
                out.write(f"{fmt17(av)},{fmt17(dv)}\n")
        else:
            emit_json([[av, dv] for av, dv in curve], out)
        return
    emit_json(spectrum.dim_zero_set(args.N, a).to_json_obj(), out)


def _cmd_dim_dinf(args, out: TextIO) -> None:
    a = parse_a(args.a)
    emit_json(spectrum.dim_infinite_set(args.N, a, args.depth).to_json_obj(), out)


def _cmd_graph(args, out: TextIO) -> None:
    a = parse_a(args.a)
    p = make_params(args.N, a)
    sample = sample_graph(p, args.depth)
    if args.csv:
        sample.to_csv(out)
        return
    emit_json(sample.to_json_obj(), out)


def _cmd_beta(args, out: TextIO) -> None:
    op = args.op
    if op in ("tm", "gtm"):
        n = args.count
        seq = (
            betaexp.thue_morse_prefix(n)
            if op == "tm"
            else betaexp.generalized_tm_prefix(args.N, n)
        )
        emit_json({"op": op, "N": args.N, "count": n, "digits": seq}, out)
        return
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
    emit_json({"op": op, "N": args.N, "beta": beta_float, **fields}, out)


def _cmd_enumerate_dinf(args, out: TextIO) -> None:
    a = parse_a(args.a)
    res = spectrum.enumerate_infinite_points(
        args.N, a, args.max_prefix, args.max_period
    )
    emit_json({
        "N": args.N,
        "a": float(a),
        "points": [c.to_json_obj() for c in res.points],
        "rejected": [c.to_json_obj() for c in res.rejected],
    }, out)


def _cmd_asymptotics(args, out: TextIO) -> None:
    ns = parse_n_range(args.N)
    rep = spectrum.threshold_asymptotics(ns)
    if args.csv:
        obj = rep.to_json_obj()
        out.write(",".join(obj["columns"]) + "\n")
        for row in rep.rows:
            out.write(f"{int(row[0])}," + ",".join(fmt17(v) for v in row[1:]) + "\n")
        return
    emit_json(rep.to_json_obj(), out)


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "thresholds": _cmd_thresholds,
    "dim-d0": _cmd_dim_d0,
    "dim-dinf": _cmd_dim_dinf,
    "graph": _cmd_graph,
    "beta": _cmd_beta,
    "enumerate-dinf": _cmd_enumerate_dinf,
    "asymptotics": _cmd_asymptotics,
}


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
        _COMMANDS[args.verb](args, out)
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
