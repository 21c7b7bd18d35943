"""Microbenchmark of the assignment solver, one size per case, and of whole
n = 20 expert assignment tests, where the robots share one memo per test.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench -q --benchmark-columns=median,iqr,rounds

pytest-benchmark prints one median per case. Compare two checkouts on one
host in alternating runs: on a shared 2-core host, medians of the same code
drifted by up to 25 % between runs.
"""

import numpy as np
import pytest

from neuromesh.aggregation import AggregationConfig
from neuromesh.assignment import hungarian_solve, run_assignment_scenario
from neuromesh.netsim import LinkModel, Topology

CASES = {f"random-{n}": np.random.default_rng(n).uniform(0.0, 10.0, size=(n, n))
         for n in (20, 50, 200)}
CASES["all-equal-80"] = np.ones((80, 80))
CASES["integer-ties-200"] = (
    np.random.default_rng(200).integers(0, 3, size=(200, 200)).astype(np.float64))


@pytest.mark.parametrize("case", list(CASES))
def test_hungarian_solve(benchmark, case):
    cost = CASES[case]
    out = benchmark(hungarian_solve, cost)
    assert sorted(out.goals) == list(range(cost.shape[0]))


SCENARIO_N = 20
SCENARIOS = {
    "expert-lossless-20": {},
    # assign_expert's link and aggregation: 4.8 ms latency, 0.6 ms jitter, blocking
    "expert-jitter-20": {
        "agg_config": AggregationConfig(mode="blocking"),
        "topology": Topology.full_mesh(
            range(SCENARIO_N), LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0)),
        "seed": 11,
    },
    "expert-lossy-best-effort-20": {
        "agg_config": AggregationConfig(mode="best_effort"),
        "topology": Topology.full_mesh(range(SCENARIO_N), LinkModel(loss_prob=0.05)), "seed": 3,
    },
}


@pytest.mark.parametrize("case", list(SCENARIOS))
def test_run_assignment_scenario(benchmark, case):
    cost = np.random.default_rng(SCENARIO_N).uniform(0.0, 10.0, size=(SCENARIO_N, SCENARIO_N))
    out = benchmark(run_assignment_scenario, cost.astype(np.float32), **SCENARIOS[case])
    assert not out.failed
