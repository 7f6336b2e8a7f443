#!/usr/bin/env python3
"""Benchmark of the okamoto package: four workloads, checked outputs, one JSON line.

Run from the root of an okamoto source tree:

    python3 perfbench/run.py --workload entropy --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced rounds of the task list, and reports the
per-layer metrics and the tracing overhead.  --smoke shrinks every input so that a workload
runs with all its checks in seconds.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; details go to .perfbench/.
See perfbench/README.md for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
# One BLAS thread: repeats of an entropy task spread by about 30% when OpenBLAS
# may use both cores, and by about 10% on one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_PROBES = 7
START_PROBES = 5
INPROCESS_PASSES = 5

END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("entropy", "classify", "reports", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, one round")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Rounds:
    """Whole rounds over a task list, timed task by task."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.task_s: list[float] = []  # wall time of each task run, in run order
        self.task_cpu: list[float] = []
        self.round_wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.outputs = None  # outputs of the first round, checked afterwards
        self.failures: list[str | None] = []
        self.mismatches: list[str] = []
        self.child_peak_kb = 0

    def run(self, seconds: float) -> "Rounds":
        start = perf_counter()
        while True:
            self.one_round()
            if perf_counter() - start >= seconds:
                return self

    def one_round(self) -> None:
        outs, why = [], []
        t0 = perf_counter()
        for task in self.tasks:
            c, s = cpu_seconds(), perf_counter()
            try:
                out = task.run()
                err = None
            except Exception as exc:  # a failed operation, counted and reported
                out, err = None, f"{type(exc).__name__}: {exc}"
            self.task_s.append(perf_counter() - s)
            self.task_cpu.append(cpu_seconds() - c)
            outs.append(out)
            why.append(err)
        self.round_wall.append(perf_counter() - t0)
        for i, (task, out) in enumerate(zip(self.tasks, outs)):
            if why[i] is None:
                why[i] = task.failure(out)
            self.child_peak_kb = max(self.child_peak_kb, getattr(out, "maxrss_kb", 0))
        self.attempted += len(self.tasks)
        self.failed += sum(e is not None for e in why)
        if not self.failures:
            self.failures = why
        if self.outputs is None:
            self.outputs = outs
        else:
            self.mismatches += [
                f"{t.name}: output differs between rounds"
                for t, o, ref in zip(self.tasks, outs, self.outputs)
                if o != ref
            ]

    def per_task_median(self, samples: list[float]) -> list[float]:
        n = len(self.tasks)
        return [statistics.median(samples[i::n]) for i in range(n)]

    def problems(self) -> list[str]:
        """Checks on the first round's outputs of every task that did not fail."""
        found = list(self.mismatches)
        for task, out, err in zip(self.tasks, self.outputs, self.failures):
            if err is not None:
                continue
            try:
                found += task.check(out)
            except Exception as exc:
                found.append(f"{task.name}: check raised {type(exc).__name__}: {exc}")
        return found


def probe_setup(args, env) -> float:
    """Seconds from a fresh interpreter to the point where the first task could start."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def start_ms(code: str, env) -> float:
    """Median wall time of `python -c code` in a fresh interpreter, in ms."""
    times = []
    for _ in range(START_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def traced_metrics(args, tasks, env, seconds):
    """Per-layer metrics per pass over the task list, and the rounds run untraced."""
    import tracing

    units = tracing.metric_units()
    plain = Rounds(tasks)
    tracer = tracing.Tracer()
    if args.workload == "cli":
        # The wrappers cannot reach the CLI processes; the traced pass runs the
        # same argv list in process instead.
        from okamoto import cli

        plain.run(seconds / 2)

        def one_pass():
            t0 = perf_counter()
            for task in tasks:
                try:
                    cli.run(task.argv, stdout=io.StringIO(), stderr=io.StringIO())
                except Exception:  # the malformed invocations still raise
                    pass
            return perf_counter() - t0

        untraced, traced = [], []
        for _ in range(INPROCESS_PASSES):
            untraced.append(one_pass())
            with tracer:
                traced.append(one_pass())
        run_ms = statistics.median(untraced) * 1000
        attempted, failed = plain.attempted, plain.failed
    else:
        # Untraced and traced rounds alternate, so a drift in the machine's
        # speed does not land on one side of the overhead.
        shadow = Rounds(tasks)
        start = perf_counter()
        while True:
            plain.one_round()
            with tracer:
                shadow.one_round()
            if perf_counter() - start >= seconds:
                break
        untraced, traced = plain.round_wall, shadow.round_wall
        run_ms = 0.0
        attempted, failed = plain.attempted + shadow.attempted, plain.failed + shadow.failed
        plain.mismatches += shadow.mismatches + [
            f"{t.name}: traced output differs from untraced"
            for t, o, ref in zip(tasks, shadow.outputs, plain.outputs)
            if o != ref
        ]
    passes = len(traced)
    values = {}
    for name in tracing.FUNCTIONS:
        values[name + ".calls"] = tracer.calls[name] / passes
        values[name + ".self_ms"] = tracer.self_s[name] * 1000 / passes
    values[tracing.PERIOD_DIGITS] = tracer.period_digits / passes
    bare = start_ms("pass", env)
    values["cli.interpreter_ms"] = bare
    values["cli.import_ms"] = start_ms("import okamoto.cli", env) - bare
    values["cli.numpy_import_ms"] = start_ms("import numpy", env) - bare
    values["cli.run_ms"] = run_ms
    values[tracing.OVERHEAD] = (statistics.median(traced) - statistics.median(untraced)) * 1000
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return plain, metrics, attempted, failed


def end_to_end_metrics(args, tasks, setup, seconds) -> tuple["Rounds", dict]:
    rounds = Rounds(tasks).run(seconds)
    if args.workload == "cli":
        peak_kb = rounds.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A pass is costed as the sum of each task's median over the rounds, so a
    # slow spell of the machine during one round does not move the figure.
    values = {
        "tasks_per_s": len(tasks) / sum(rounds.per_task_median(rounds.task_s)),
        "task_p50_ms": statistics.median(rounds.per_task_median(rounds.task_s)) * 1000,
        "cpu_s": sum(rounds.per_task_median(rounds.task_cpu)),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup),
    }
    return rounds, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "okamoto", "__init__.py")):
        print("perfbench: src/okamoto not found; run from the root of an okamoto source tree",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = src
    sys.path[:0] = [src, HERE]
    env = dict(os.environ)
    out_dir = os.path.join(root, OUT_DIR)
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    setup = [probe_setup(args, env) for _ in range(1 if args.smoke else SETUP_PROBES)]

    import okamoto
    import workloads

    if os.path.dirname(os.path.abspath(okamoto.__file__)) != os.path.join(src, "okamoto"):
        print(f"perfbench: imported okamoto from {okamoto.__file__}, not {src}", file=sys.stderr)
        return 2

    def okamoto_cli(cli_argv):
        return workloads.spawn([sys.executable, "-m", "okamoto.cli"] + cli_argv, env, tmp_dir)

    tasks = workloads.build(args.workload, args.seed, args.smoke, okamoto_cli)
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        rounds, metrics, attempted, failed = traced_metrics(args, tasks, env, seconds)
    else:
        rounds, metrics = end_to_end_metrics(args, tasks, setup, seconds)
        attempted, failed = rounds.attempted, rounds.failed
    t0 = perf_counter()
    problems = rounds.problems()
    check_s = perf_counter() - t0

    failed_names = sorted({t.name + ": " + e for t, e in zip(tasks, rounds.failures) if e})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds.round_wall),
        "task_median_ms": [
            [t.name, ms * 1000] for t, ms in zip(tasks, rounds.per_task_median(rounds.task_s))
        ],
        "failed_operations": failed_names,
        "problems": problems,
        "check_s": check_s,
        "blas_threads": int(BLAS_THREADS),
        "metrics": metrics,
    }
    name = ("trace-" if args.trace else "result-") + tag + ".json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"{args.workload} seed={args.seed}: {len(rounds.round_wall)} round(s) of {len(tasks)} tasks")
    for line in failed_names:
        print("  failed: " + line)
    for line in problems[:20]:
        print("  PROBLEM: " + line)
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
