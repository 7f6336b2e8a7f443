"""Smoke test of the benchmark: every workload, reduced inputs, all checks.

Run from the root of the source tree:  python -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_workload_smoke(workload):
    proc = bench("--workload", workload, "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    # only the malformed CLI invocations may fail
    assert result["failed"] <= (6 if workload == "cli" else 0), proc.stdout
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_reports_every_per_layer_metric():
    proc = bench("--workload", "cli", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert result["metrics"]["cli.run_ms"]["value"] > 0
    assert result["metrics"]["numdigits.digits_of.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "entropy", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
