"""``microbench/paired.py`` compares the repo against itself: two blocks of one call."""

import json
import subprocess
import sys
from pathlib import Path

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


def test_unknown_parameter_id_names_the_known_ones():
    proc = paired(ROOT, ROOT, "test_control.py::test_ten_robot_learned_run[7]",
                  "--blocks", 1, "--calls", 1)
    assert proc.returncode == 1
    assert "parameter ids ['0', '20']" in proc.stderr and "Traceback" not in proc.stderr
