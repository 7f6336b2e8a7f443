import io
import json
import os
import subprocess
import sys
import time

import pytest

import okamoto
from okamoto import ResourceError
from okamoto.cli import N_LIST_CAP, parse_n_range, run


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_value_at_breakpoint(self):
        code, out, _ = call(["eval", "--N", "1", "--a", "5/6", "--x", "1/3"])
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["F"] - 5 / 6) < 1e-12
        assert obj["x"] == "1/3"
        assert abs(obj["box_dimension"] - 1.7712437491614224) < 1e-12

    def test_decimal_a_is_exact(self):
        code, out, _ = call(["eval", "--N", "1", "--a", "0.58", "--x", "1/2"])
        assert code == 0
        assert abs(json.loads(out)["F"] - 0.5) < 1e-11


class TestClassify:
    def test_verdict_json(self):
        code, out, _ = call(["classify", "--N", "1", "--a", "0.58", "--x", "1/4"])
        assert code == 0
        obj = json.loads(out)
        assert obj["tag"] == "PLUS_INFINITY"
        assert obj["M"] == 0
        assert len(obj["T_values"]) == 2

    def test_probe_csv(self):
        code, out, _ = call([
            "classify", "--N", "1", "--a", "0.58", "--x", "1/4",
            "--probe-levels", "6", "--csv",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,h,right_quotient,left_quotient"
        assert len(lines) == 7
        # level 1 has no left quotient at x=1/4
        assert lines[1].endswith(",")


class TestThresholds:
    def test_csv_layout(self):
        code, out, _ = call(["thresholds", "--N", "1..10", "--csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,a_min,a0_tilde,a0_star,a_inf_hat,a_inf_star"
        assert len(lines) == 11

    def test_json_mode(self):
        code, out, _ = call(["thresholds", "--N", "2"])
        obj = json.loads(out)
        assert obj[0]["N"] == 2 and abs(obj[0]["a_inf_star"] - 0.5) < 1e-15

    def test_a_inf_hat_at_n_1e20(self):
        # 1e17 and up exited 3: no sign change of the float Thue-Morse function
        t0 = time.perf_counter()
        code, out, err = call(["thresholds", "--N", str(10**20)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0, err
        assert abs(10**20 * json.loads(out)[0]["a_inf_hat"] - 2) < 1e-3


class TestDeterminism:
    def test_byte_identical_runs(self):
        for argv in (
            ["thresholds", "--N", "1..4", "--csv"],
            ["eval", "--N", "2", "--a", "0.6", "--x", "7/30"],
            ["enumerate-dinf", "--N", "1", "--a", "0.58", "--max-prefix", "1",
             "--max-period", "2"],
            ["beta", "--op", "entropy", "--N", "1", "--beta", "1.9", "--depth", "8"],
        ):
            assert call(argv) == call(argv)


class TestBetaVerb:
    def test_pi(self):
        code, out, _ = call(["beta", "--op", "pi", "--N", "1", "--beta", "2",
                             "--w", "(0 1)"])
        assert code == 0
        assert abs(json.loads(out)["value"] - 1 / 3) < 1e-15

    def test_tm(self):
        code, out, _ = call(["beta", "--op", "tm", "--count", "16"])
        assert json.loads(out)["digits"] == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]

    def test_gtm(self):
        code, out, _ = call(["beta", "--op", "gtm", "--N", "2", "--count", "8"])
        assert json.loads(out)["digits"] == [2, 1, 0, 2, 0, 1, 2, 1]

    def test_univoque_with_reference_beta(self):
        code, out, _ = call(["beta", "--op", "univoque", "--N", "1",
                             "--beta", "1.9", "--w", "(0 1)"])
        assert json.loads(out)["univoque"] is True

    def test_count(self):
        code, out, _ = call(["beta", "--op", "count", "--N", "1", "--beta", "2",
                             "--x", "1/3", "--depth", "40"])
        obj = json.loads(out)
        assert obj["count"] == 1 and obj["at_least"] is False

    def test_count_default_depth_is_40(self):
        # 8 expansions survive 40 levels here, 7 survive 39 and 2 survive 20
        argv = ["beta", "--op", "count", "--N", "1", "--beta", "1.9", "--x", "1/3",
                "--cap", "100"]
        code, out, _ = call(argv)
        assert code == 0 and json.loads(out)["count"] == 8
        assert call(argv + ["--depth", "40"]) == (0, out, "")

    def test_entropy_default_depth_is_20(self):
        argv = ["beta", "--op", "entropy", "--N", "1", "--beta", "1.9"]
        code, out, err = call(argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["depth"] == 20
        assert call(argv + ["--depth", "20"]) == (0, out, "")

    def test_quasi_greedy(self):
        # the float golden ratio is expanded at its exact value, where
        # beta * r lands within roundoff of the digit boundary 1
        code, out, err = call(["beta", "--op", "quasi-greedy", "--N", "1",
                               "--beta", "gr:1", "--max-len", "64"])
        assert (code, out) == (3, "") and err.startswith("precision error")
        code, out, _ = call(["beta", "--op", "quasi-greedy", "--N", "1",
                             "--beta", "2", "--max-len", "64"])
        obj = json.loads(out)
        assert obj["seq"] == "(1)" and obj["truncated"] is False

    @pytest.mark.parametrize("N,depth", [(1, 8), (3, 6), (5, 5)])
    def test_entropy_at_float_golden_ratio_exits_3(self, N, depth):
        code, out, err = call(["beta", "--op", "entropy", "--N", str(N),
                               "--beta", f"gr:{N}", "--depth", str(depth)])
        assert (code, out) == (3, "") and err.startswith("precision error")

    def test_entropy(self):
        code, out, _ = call(["beta", "--op", "entropy", "--N", "1", "--beta", "1.5",
                             "--depth", "8"])
        obj = json.loads(out)
        assert obj["upper"] == 0.0 and obj["lower"] == 0.0


class TestGraphVerb:
    def test_csv(self):
        code, out, _ = call(["graph", "--N", "1", "--a", "5/6", "--depth", "1", "--csv"])
        lines = out.strip().split("\n")
        assert lines[0] == "x,F"
        assert len(lines) == 5
        assert lines[1] == "0,0"

    def test_json_pairs(self):
        code, out, _ = call(["graph", "--N", "1", "--a", "5/6", "--depth", "1"])
        pairs = json.loads(out)
        assert len(pairs) == 4
        assert abs(pairs[1][1] - 5 / 6) < 1e-15


class TestDimVerbs:
    def test_dim_d0(self):
        code, out, _ = call(["dim-d0", "--N", "1", "--a", "0.6"])
        obj = json.loads(out)
        assert obj["regime"] == "NULL_UNCOUNTABLE"
        assert abs(obj["value"] - 0.92206009) < 1e-6

    def test_dim_d0_exact_a_below_float_resolution(self):
        code, out, _ = call(["dim-d0", "--N", "1", "--a", "0.500000000000000000001"])
        assert code == 0
        assert json.loads(out)["regime"] == "FULL_MEASURE"

    def test_dim_d0_grid_csv(self):
        code, out, _ = call(["dim-d0", "--N", "1", "--a", "0.6", "--grid", "10", "--csv"])
        lines = out.strip().split("\n")
        assert lines[0] == "a,dim" and len(lines) == 11

    def test_dim_dinf(self):
        code, out, _ = call(["dim-dinf", "--N", "1", "--a", "0.63"])
        assert json.loads(out)["regime"] == "EMPTY"

    @pytest.mark.parametrize("argv, regime", [
        (["dim-dinf", "--N", "1", "--a", "gr:1"], "EMPTY"),
        (["dim-d0", "--N", "1", "--a", "a0tilde:1"], "NULL_UNCOUNTABLE"),
    ])
    def test_threshold_reference_is_at_threshold(self, argv, regime):
        code, out, _ = call(argv)
        assert code == 0 and '"at_threshold":true' in out
        assert json.loads(out)["regime"] == regime


class TestAsymptoticsVerb:
    def test_csv(self):
        code, out, _ = call(["asymptotics", "--N", "5,10", "--csv"])
        lines = out.strip().split("\n")
        assert lines[0].startswith("N,") and len(lines) == 3


class TestExitCodes:
    def test_usage_error(self):
        code, _, err = call(["no-such-verb"])
        assert code == 1 and "usage error" in err

    def test_domain_error(self):
        code, _, err = call(["eval", "--N", "1", "--a", "0.4", "--x", "1/3"])
        assert code == 2 and "domain error" in err

    def test_N_below_1_is_a_domain_error(self):
        for verb in ("dim-d0", "dim-dinf"):
            for N in ("0", "-1", "-2"):
                code, out, err = call([verb, "--N", N, "--a", "1/2"])
                assert (code, out) == (2, "") and "N must be >= 1" in err, (verb, N)

    def test_precision_error(self):
        # a = 1/(golden ratio) via the float threshold reference puts the
        # classifier margins exactly on a strict boundary
        code, _, err = call(["classify", "--N", "1", "--a", "gr:1", "--x", "1/4"])
        assert code == 3 and "precision error" in err

    def test_resource_error(self):
        code, _, err = call(["graph", "--N", "1", "--a", "5/6", "--depth", "40"])
        assert code == 4 and "resource error" in err

    def test_help_exits_zero(self):
        code, _, _ = call(["--help"])
        assert code == 0


class TestMalformedCalls:
    """Malformed input ends in a typed error with exit code 1 or 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--N", "1", "--a", "kl:x", "--x", "1/3"],
        ["eval", "--N", "1", "--a", "a0tilde:x", "--x", "1/3"],
        ["eval", "--N", "1", "--a", "a0tilde:0", "--x", "1/3"],
        ["thresholds", "--N", "a..b"],
        ["eval", "--N", "1", "--a", "3/5", "--x", "1/3", "--tol", "nan"],
        ["eval", "--N", "1", "--a", "3/5", "--x", "1/3", "--tol", "inf"],
        ["beta", "--op", "pi", "--N", "1", "--beta", "19/10"],
        ["beta", "--op", "univoque", "--N", "1", "--beta", "19/10"],
        ["beta", "--op", "count", "--N", "1", "--beta", "2"],
        ["beta", "--op", "pi", "--N", "1", "--beta", "kl:-1", "--w", "(1)"],
        ["eval", "--N", "1", "--a", "kl:-1", "--x", "1/3"],
        ["dim-dinf", "--N", "1", "--a", "kl:-1"],
    ])
    def test_typed_error(self, argv):
        code, out, err = call(argv)
        assert code in (1, 2) and out == ""
        assert "Traceback" not in err and err.startswith(("usage error", "domain error"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_thresholds_has_no_tol_option(self, value):
        code, out, err = call(["thresholds", "--N", "1", "--tol", value])
        assert (code, out) == (1, "") and err.startswith("usage error")

    @pytest.mark.parametrize("argv", [
        ["dim-dinf", "--N", "1", "--a", "0." + "5" * 5000],
        ["eval", "--N", "1", "--a", "3/5", "--x", "0." + "5" * 5000],
        ["beta", "--op", "pi", "--N", "1", "--beta", "1." + "5" * 5000, "--w", "(1 1 0)"],
    ])
    def test_long_number_is_quoted_by_its_ends(self, argv):
        # past Python's 4300-digit int conversion limit
        code, out, err = call(argv)
        assert (code, out) == (2, "") and err.startswith("domain error")
        assert len(err) < 300 and "5001 digits" in err and "4300" in err

    @pytest.mark.parametrize("argv,code", [
        (["beta", "--op", "count", "--N", "1", "--beta", "1e400", "--x", "0"], 4),
        (["beta", "--op", "pi", "--N", "1", "--beta", "1e400", "--w", "(0 1)"], 4),
        (["beta", "--op", "univoque", "--N", "1", "--beta", "1e400", "--w", "(0 1)"], 2),
    ])
    def test_beta_past_float_range(self, argv, code):
        got, out, err = call(argv)
        assert (got, out) == (code, "")
        if code == 4:
            assert err == "resource error: beta is past float range\n"
        else:
            assert err.startswith("domain error: beta must lie in (1, 2]") and "(401 digits)" in err

    @pytest.mark.parametrize("argv,code", [
        (["classify", "--N", "1", "--a", "1e-4000", "--x", "1/4"], 2),
        (["beta", "--op", "pi", "--N", "1", "--beta", "1e-4000", "--w", "(1)"], 2),
        (["eval", "--N", "1", "--a", "0.6", "--x", "1e-4000"], 4),
        (["beta", "--op", "count", "--N", "1", "--beta", "1.5", "--x", "1e4000"], 2),
    ])
    def test_huge_exact_value_in_a_message_is_shown_by_its_ends(self, argv, code):
        got, out, err = call(argv)
        assert (got, out) == (code, "")
        assert len(err) < 300 and "...000000000000 (4001 digits)" in err

    def test_non_integer_digit_is_a_domain_error(self):
        code, out, err = call(["beta", "--op", "univoque", "--N", "1", "--beta", "1.9", "--w", "(x)"])
        assert (code, out) == (2, "")
        assert err.startswith("domain error") and "Traceback" not in err


def child_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(okamoto.__file__)))


def cli_process(argv, timeout=30):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "okamoto.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=child_env(),
    )
    return proc, time.perf_counter() - t0


PEAK_RSS_CHILD = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_peak_rss(argv):
    """(exit code, peak RSS in kB) of one CLI process, started by a small interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, sys.executable, "-m", "okamoto.cli", *argv],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kb = map(int, proc.stdout.split())
    return code, maxrss_kb


class TestResourceCaps:
    def test_eval_near_one_runs(self):
        # the closed form costs O(L+m) whatever a is, so no series cap applies
        proc, elapsed = cli_process(
            ["eval", "--N", "1", "--a", "99999999999/100000000000", "--x", "1/3"]
        )
        assert proc.returncode == 0 and json.loads(proc.stdout)["F"] == 0.99999999999
        assert elapsed < 10

    def test_eval_within_1e_30_of_one_exits_3(self):
        code, out, err = call(["eval", "--N", "1", "--a", "0." + "9" * 31, "--x", "1/4"])
        assert (code, out) == (3, "") and err.startswith("precision error")

    def test_eval_below_the_cap_runs(self):
        code, out, _ = call(["eval", "--N", "1", "--a", "999/1000", "--x", "1/3"])
        assert code == 0 and json.loads(out)["F"] > 0

    def test_long_division_exits_4(self):
        # 1/10^30 has an astronomically long base-3 period
        proc, elapsed = cli_process(["eval", "--N", "1", "--a", "3/5", "--x", "1e-30"])
        assert proc.returncode == 4 and "resource error" in proc.stderr
        assert "1000000" in proc.stderr and "Traceback" not in proc.stderr
        assert elapsed < 10

    def test_long_division_stays_under_100_mb(self):
        # only r_L is kept to find the period; a dict of every remainder
        # peaked at 154 MB on this call.  A small interpreter starts the CLI
        # process, because a child's ru_maxrss also counts the memory of the
        # process it was spawned from.
        code, maxrss_kb = cli_peak_rss(["eval", "--N", "1", "--a", "3/5", "--x", "1e-30"])
        assert code == 4 and maxrss_kb < 100 * 1024

    def test_entropy_counter_stays_under_120_mb(self):
        # the frontier is grown in blocks of one size; growing it whole and
        # splitting it at 4M rows peaked at about 290 MB on this call
        code, maxrss_kb = cli_peak_rss(
            ["beta", "--op", "entropy", "--N", "1", "--beta", "1999/1000", "--depth", "22"]
        )
        assert code == 0 and maxrss_kb < 120 * 1024

    @pytest.mark.parametrize("argv", [
        ["thresholds", "--N", str(10**147)],
        ["asymptotics", "--N", str(10**147)],
        ["beta", "--op", "pi", "--N", "1", "--beta", f"gr:{10**155 + 1}", "--w", "(1)"],
        ["classify", "--N", "1", "--a", f"kl:{10**155 + 1}", "--x", "1/3"],
        ["beta", "--op", "pi", "--N", "1", "--beta", f"kl:{10**309}", "--w", "(1)"],
    ], ids=["thresholds", "asymptotics", "beta-gr", "classify-kl", "beta-kl-even"])
    def test_n_past_float_range_exits_4(self, argv):
        # a0_tilde's slope, the generalized golden ratio's m^2 and, for even N,
        # thue_morse_root's 1/(N+1) overflow a float there
        code, out, err = call(argv)
        assert (code, out) == (4, "") and err.startswith("resource error")
        assert "N=" in err and "Traceback" not in err

    def test_gamma_past_float_range_exits_4(self):
        # gamma = (3a)^even (3b)^odd passes 1.8e308 over about 1,150 digits at
        # the float a = 1/golden ratio, and over 800 even digits at a = 9/10
        for a, period in (("gr:1", (2,) * 1199 + (1,)), ("9/10", (2,) * 799 + (0,))):
            x = okamoto.DigitSeq(1, (), period).value()
            code, out, err = call(["classify", "--N", "1", "--a", a, "--x", str(x)])
            assert (code, out) == (4, "") and "gamma" in err, a

    @pytest.mark.parametrize("verb", ["thresholds", "asymptotics"])
    def test_n_list_past_the_cap_exits_4(self, verb):
        # the values are counted from the bounds: a list of 10^12 ints would take about 36 TB
        t0 = time.perf_counter()
        code, out, err = call([verb, "--N", f"1..{10**12}"])
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (4, "") and err.startswith("resource error")
        assert str(10**12) in err and str(N_LIST_CAP) in err

    def test_n_list_cap_counts_every_part(self):
        assert len(parse_n_range(f"1..{N_LIST_CAP}")) == N_LIST_CAP
        assert parse_n_range(f"9..3,{N_LIST_CAP}") == [N_LIST_CAP]  # an empty range counts 0
        with pytest.raises(ResourceError):
            parse_n_range(f"1..{N_LIST_CAP},1")

    def test_quasi_greedy_digit_cap(self):
        argv = ["beta", "--op", "quasi-greedy", "--N", "1", "--beta", "19/10", "--max-len"]
        code, out, _ = call(argv + ["4096"])
        assert code == 0 and len(json.loads(out)["digits"]) == 4096
        code, out, err = call(argv + ["4097"])
        assert (code, out) == (4, "") and err.startswith("resource error")
        assert "4097" in err and "4096" in err and "Traceback" not in err

    def test_large_enumeration_exits_4(self):
        proc, elapsed = cli_process(
            ["enumerate-dinf", "--N", "3", "--a", "0.3", "--max-prefix", "6", "--max-period", "8"]
        )
        assert proc.returncode == 4 and "resource error" in proc.stderr
        assert "11993604040" in proc.stderr and "100000" in proc.stderr
        assert elapsed < 10


IMPORT_PATH_CHILD = """
import io, json, sys
import okamoto, okamoto.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    runs.append([okamoto.cli.run(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "numpy": "numpy" in sys.modules}))
"""


def fresh_process_runs(argvs):
    """(exit code, stdout, stderr) of each call, run in turn by one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    return [tuple(r) for r in got["runs"]], got["numpy"]


class TestImportPath:
    """numpy is loaded only by the calls that build arrays."""

    ARRAY_FREE = [
        ["eval", "--N", "2", "--a", "41/100", "--x", "942/997"],
        ["classify", "--N", "1", "--a", "538/1009", "--x", "199831/797160", "--probe-levels", "8"],
        ["thresholds", "--N", "1..12"],
        ["dim-d0", "--N", "4", "--a", "111/125"],
        ["dim-d0", "--N", "1", "--a", "3/5", "--grid", "64"],
        ["dim-dinf", "--N", "2", "--a", "449/1009"],
        ["beta", "--op", "pi", "--N", "1", "--beta", "1919/1009", "--w", "(1 0 0 1 1 0 1)"],
        ["beta", "--op", "quasi-greedy", "--N", "1", "--beta", "1919/1009", "--max-len", "32"],
        ["beta", "--op", "univoque", "--N", "1", "--beta", "1919/1009", "--w", "(1 0 0 1 1 0 1)"],
        ["beta", "--op", "count", "--N", "1", "--beta", "2", "--x", "2/7"],
        ["beta", "--op", "tm", "--count", "26"],
        ["beta", "--op", "gtm", "--N", "4", "--count", "26"],
        ["enumerate-dinf", "--N", "1", "--a", "582/1009", "--max-prefix", "2", "--max-period", "3"],
        ["asymptotics", "--N", "1,2,5,10,49,62,82,100"],
    ]
    MALFORMED = [
        ["eval", "--N", "1", "--a", "kl:x", "--x", "1/3"],
        ["thresholds", "--N", "a..b"],
        ["eval", "--N", "1", "--a", "3/5", "--x", "1/3", "--tol", "nan"],
        ["beta", "--op", "pi", "--N", "1", "--beta", "19/10"],
        ["beta", "--op", "univoque", "--N", "1", "--beta", "19/10"],
        ["beta", "--op", "count", "--N", "1", "--beta", "2"],
    ]
    ARRAYS = [
        ["graph", "--N", "1", "--a", "22/25", "--depth", "4"],
        ["beta", "--op", "entropy", "--N", "1", "--beta", "1947/1009", "--depth", "8"],
        ["dim-dinf", "--N", "1", "--a", "526/1009", "--depth", "10"],
    ]

    def test_array_free_calls_never_load_numpy(self):
        runs, numpy_loaded = fresh_process_runs(self.ARRAY_FREE + self.MALFORMED)
        assert not numpy_loaded
        assert runs == [call(argv) for argv in self.ARRAY_FREE + self.MALFORMED]
        assert [code for code, _, _ in runs] == [0] * len(self.ARRAY_FREE) + [2, 2, 1, 2, 2, 2]

    def test_array_calls_load_numpy_on_demand(self):
        runs, numpy_loaded = fresh_process_runs(self.ARRAYS)
        assert numpy_loaded
        assert runs == [call(argv) for argv in self.ARRAYS]
        assert all(code == 0 and out for code, out, _ in runs)
