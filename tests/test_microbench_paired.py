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
