"""Microbenchmark of pipeline handoff overhead: zero-delay stages, both schedules.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_pipeline.py -q --benchmark-columns=median,iqr,rounds

Each round pushes 300 observations through three identity stages, so the
stages cost next to nothing and the median is the runner's own work:
source pulls, ingress stamps, cost records and, for ``run_pipeline``, the
handoffs between its threads and their start and join. Divide the median
by 300 for the per-item overhead. Compare two checkouts on one host in
alternating runs: on a shared 2-core host, medians of the same code drifted
by up to 25 % between runs.
"""

import numpy as np
import pytest

from neuromesh.pipeline import identity_stage, run_pipeline, run_sequential

ITEMS = [np.float32(i) for i in range(300)]


@pytest.mark.parametrize("runner", [run_pipeline, run_sequential],
                         ids=["run_pipeline", "run_sequential"])
def test_three_hundred_zero_delay_items(benchmark, runner):
    outputs, stats = benchmark(runner, identity_stage, identity_stage, identity_stage, ITEMS)
    assert outputs == ITEMS
    assert stats.items_processed == len(ITEMS) and stats.errors == 0
