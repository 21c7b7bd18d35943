"""Microbenchmark of a run's output files: ``write_csv`` and ``write_manifest``,
each over an existing file of the same name and into a fresh path.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_reporting.py -q --benchmark-columns=median,iqr,rounds

The rows are what one call of the ``assign_expert`` benchmark workload
writes: two tests of ``assignment.csv``, then the run manifest. A rerun of
``neuromesh run`` into one output directory writes over existing files,
the "existing" cases; a first run writes fresh ones, and there each round's
untimed setup removes the file first. Each case writes into its own
temporary directory, so the cost depends on the file system that holds it
(the system's temporary directory). Compare two checkouts on one host in
alternating runs: on a shared 2-core host, medians of the same code drifted
by up to 25 % between runs.
"""

import tempfile
from pathlib import Path

import pytest

from neuromesh.reporting import write_csv, write_manifest

COLUMNS = ("test_id", "covered_goals", "C_out", "C_opt", "failed")
ROWS = [[0, 20, "45.1021", "45.1021", 0], [1, 20, "43.8876", "43.8876", 0]]
CONFIG = {"task": "assignment", "seed": 3, "network": {"seed": 11}, "team_size": 20}
ROUNDS = 200

WRITERS = {
    "assignment.csv": lambda path: write_csv(path, "assignment", COLUMNS, ROWS),
    "run_manifest.json": lambda path: write_manifest(path, CONFIG,
                                                     [path.with_name("assignment.csv")]),
}


@pytest.mark.parametrize("name", list(WRITERS))
@pytest.mark.parametrize("target", ["existing", "fresh"])
def test_write_output(benchmark, name, target):
    write = WRITERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write(path)

        def place():
            if target == "fresh":
                path.unlink()
            return (path,), {}

        out = benchmark.pedantic(write, setup=place, rounds=ROUNDS)
        assert out == path and path.stat().st_size > 0
