"""Per-layer tracing by wrapping okamoto's public functions.

A wrapper is installed at every module attribute of the package that binds
the function, so calls made inside the package are counted too (`spectrum`
imports `komornik_loreti` by name, `derivative` imports `eval_F`).  Self time
is a call's wall time minus the time spent in wrapped calls nested inside it.
"""

from __future__ import annotations

import sys
from time import perf_counter

TARGETS = {
    "numdigits": ("digits_of", "make_params"),
    "selfaffine": ("eval_F", "eval_F_exact", "sample_graph"),
    "derivative": ("classify_derivative", "check_infinite_conditions", "finite_difference_probe"),
    "betaexp": (
        "univoque_entropy_bounds",
        "quasi_greedy_one",
        "is_univoque",
        "pi_beta",
        "komornik_loreti",
        "count_expansions",
    ),
    "spectrum": (
        "thresholds",
        "a0_tilde",
        "critical_frequency",
        "dim_zero_set",
        "dim_infinite_set",
        "enumerate_infinite_points",
        "dimension_curve",
        "threshold_asymptotics",
    ),
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
CLI_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.numpy_import_ms", "cli.run_ms")
PERIOD_DIGITS = "numdigits.period_digits"
OVERHEAD = "trace.overhead_ms"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[name + ".calls"] = "count"
        units[name + ".self_ms"] = "ms"
    units[PERIOD_DIGITS] = "count"
    for name in CLI_METRICS:
        units[name] = "ms"
    units[OVERHEAD] = "ms"
    return units


class Tracer:
    """Context manager that counts calls and self time while it is active."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.period_digits = 0
        self._nested: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nested = self._nested

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = nested.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - inner
                if nested:
                    nested[-1] += dt
            if name == "numdigits.digits_of":
                self.period_digits += len(result.period)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "okamoto" or n.startswith("okamoto.")]
        for mod, fns in TARGETS.items():
            home = sys.modules["okamoto." + mod]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()
        return False
