"""Microbenchmark of start-up: a fresh interpreter's ``import neuromesh.cli``.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_startup.py -q --benchmark-columns=median,iqr,rounds

Each round starts one interpreter that imports the command-line module, as
every ``neuromesh run`` does before its first config load, and exits. The
time covers the interpreter's own start-up, numpy and the package modules
that ``cli`` imports; a module moved off or onto that path shows here. The
child imports the same ``neuromesh`` package as this process. Compare two
checkouts on one host in alternating runs (``microbench/paired.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import neuromesh

CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(neuromesh.__file__).resolve().parent.parent))


def start_cli():
    subprocess.run([sys.executable, "-c", "import neuromesh.cli"], env=CHILD_ENV, check=True)


def test_fresh_interpreter_imports_the_cli(benchmark):
    benchmark(start_cli)
