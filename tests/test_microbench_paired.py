"""``microbench/paired.py`` compares the repo against itself (two blocks of one call),
and summarizes canned benchmark outputs in ``--bench`` mode."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRED = ROOT / "microbench" / "paired.py"


def paired(*args):
    return subprocess.run([sys.executable, str(PAIRED), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_repo_against_itself_two_blocks_of_one_call():
    case = "test_control.py::test_ten_robot_learned_run[0]"
    proc = paired(ROOT, ROOT, case, "--blocks", 2, "--calls", 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["block 1", "block 2"]
    summary = json.loads(lines[-1])
    assert summary["case"] == case and summary["blocks"] == 2 and summary["calls"] == 1
    assert summary["parent_us"] > 0 and summary["change_us"] > 0 and summary["ratio"] > 0
    assert 0 <= summary["won"] <= 2


def test_a_case_with_an_untimed_setup_runs():
    case = "test_reporting.py::test_write_output[fresh-assignment.csv]"
    proc = paired(ROOT, ROOT, case, "--blocks", 1, "--calls", 2)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["case"] == case and summary["parent_us"] > 0 and summary["change_us"] > 0


def test_unknown_parameter_id_names_the_known_ones():
    proc = paired(ROOT, ROOT, "test_control.py::test_ten_robot_learned_run[7]",
                  "--blocks", 1, "--calls", 1)
    assert proc.returncode == 1
    assert "parameter ids ['0', '20']" in proc.stderr and "Traceback" not in proc.stderr


def load_paired():
    spec = importlib.util.spec_from_file_location("microbench_paired", PAIRED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_output(units_per_s, correct=True):
    """The tail of a ``bench/run.py`` output: a report line, then the JSON summary."""
    result = {"correct": correct, "attempted": 100, "failed": 0,
              "metrics": {"units_per_s": {"value": units_per_s, "unit": "1/s"},
                          "setup_s": {"value": units_per_s / 1000, "unit": "s"}}}
    return f"  units_per_s {units_per_s} 1/s\n{json.dumps(result)}\n"


class TestBenchSummary:
    """``--bench`` mode's summary, from canned ``bench/run.py`` outputs; nothing is run."""

    def test_medians_ratios_spread_and_wins(self):
        paired_mod = load_paired()
        pairs = [(bench_output(p), bench_output(c))
                 for p, c in [(200.0, 220.0), (210.0, 200.0), (190.0, 209.0), (200.0, 230.0)]]
        summary = paired_mod.bench_summary("assign_expert", pairs)
        assert summary["workload"] == "assign_expert" and summary["pairs"] == 4
        assert summary["ratios"] == [1.1, 200.0 / 210.0, 1.1, 1.15]
        assert summary["parent"] == 200.0 and summary["change"] == 214.5
        assert summary["ratio"] == 1.1 and summary["won"] == 3
        # statistics.quantiles' exclusive method: quartiles 192.5 and 207.5
        assert summary["parent_iqr"] == 15.0
        assert summary["medians"] == {"units_per_s": [200.0, 214.5], "setup_s": [0.2, 0.2145]}

    def test_one_pair_has_no_spread(self):
        summary = load_paired().bench_summary("nav_learned", [(bench_output(100.0),
                                                              bench_output(90.0))])
        assert summary["parent_iqr"] == 0.0 and summary["won"] == 0 and summary["ratio"] == 0.9

    def test_a_run_that_is_not_correct_stops_the_summary(self):
        paired_mod = load_paired()
        with pytest.raises(RuntimeError, match="not correct"):
            paired_mod.bench_summary("assign_expert", [(bench_output(200.0),
                                                        bench_output(300.0, correct=False))])
        with pytest.raises(RuntimeError, match="not correct"):
            paired_mod.bench_metrics("Traceback (most recent call last):\n  ...\n")


def outputs(units_per_s, setup_s):
    """A ``bench/run.py`` output with both metrics set."""
    result = {"correct": True, "metrics": {"units_per_s": {"value": units_per_s},
                                           "setup_s": {"value": setup_s}}}
    return json.dumps(result)


class TestVerdicts:
    """Each end-to-end metric's sign-test verdict, in the direction ``BENCHMARK.json`` gives."""

    def verdicts(self, units, setups):
        pairs = [(outputs(p, sp), outputs(c, sc)) for (p, c), (sp, sc) in zip(units, setups)]
        return load_paired().bench_summary("assign_expert", pairs)["verdicts"]

    def test_the_exact_two_sided_p_values(self):
        p = load_paired().sign_test_p
        assert round(p(9, 1), 3) == 0.021 and round(p(1, 9), 3) == 0.021
        assert round(p(8, 2), 3) == 0.109
        assert p(10, 0) == 2 / 1024 and p(0, 0) == 1.0 and p(5, 5) == 1.0

    def test_ten_of_ten_higher_is_better_and_seven_of_ten_is_unresolved(self):
        units = [(100.0, 101.0)] * 10
        setups = [(0.2, 0.1)] * 7 + [(0.2, 0.3)] * 3  # lower is better: 7 of 10
        verdicts = self.verdicts(units, setups)
        assert verdicts["units_per_s"]["verdict"] == "better"
        assert verdicts["units_per_s"]["better"] == 10 and verdicts["units_per_s"]["worse"] == 0
        assert verdicts["setup_s"]["verdict"] == "unresolved"
        assert (verdicts["setup_s"]["better"], verdicts["setup_s"]["worse"]) == (7, 3)

    def test_ten_of_ten_higher_on_a_lower_is_better_metric_is_worse(self):
        verdicts = self.verdicts([(100.0, 100.0)] * 10, [(0.2, 0.25)] * 10)
        assert verdicts["setup_s"]["verdict"] == "worse"
        assert verdicts["setup_s"]["p"] == 2 / 1024

    def test_ties_count_for_neither_side(self):
        verdicts = self.verdicts([(100.0, 100.0)] * 10, [(0.2, 0.2)] * 9 + [(0.2, 0.1)])
        assert verdicts["units_per_s"] == {"verdict": "equal", "p": 1.0, "better": 0,
                                           "worse": 0, "interval": [0.0, 0.0], "parent_iqr": 0.0}
        assert verdicts["setup_s"]["verdict"] == "unresolved"  # 1 of 1: p = 1


class TestBootstrapInterval:
    """A verdict is resolved only when the sign test and the bootstrap interval of the
    median log-ratio agree; synthetic pairs, nothing is run."""

    def verdict(self, pairs, better="higher"):
        old, new = zip(*pairs)
        return load_paired().verdict(list(old), list(new), better)

    def test_ten_of_ten_wins_is_resolved(self):
        pairs = [(100.0, 100.0 * (1.02 + 0.01 * k)) for k in range(10)]
        v = self.verdict(pairs)
        assert v["verdict"] == "better" and v["p"] == 2 / 1024
        assert 0 < v["interval"][0] <= v["interval"][1]

    def test_seven_of_ten_wins_is_not_resolved(self):
        pairs = [(100.0, 103.0)] * 7 + [(100.0, 97.0)] * 3
        v = self.verdict(pairs)
        assert v["verdict"] == "unresolved" and (v["better"], v["worse"]) == (7, 3)
        assert v["interval"][0] < 0 < v["interval"][1]

    def test_a_sign_test_win_whose_interval_reaches_zero_is_not_resolved(self):
        # six wins and four ties: the sign test alone gives p = 2 / 64 = 0.031, but a
        # resample median is 0 whenever six of its ten draws are ties (p = 0.17)
        v = self.verdict([(100.0, 101.0)] * 6 + [(100.0, 100.0)] * 4)
        assert v["p"] == 2 / 64 and v["interval"][0] == 0.0
        assert v["verdict"] == "unresolved"

    def test_a_value_at_or_below_zero_has_no_interval_and_no_resolved_verdict(self):
        v = self.verdict([(0.0, 1.0)] * 10)
        assert v["interval"] is None and v["better"] == 10 and v["verdict"] == "unresolved"
