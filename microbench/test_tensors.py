"""Microbenchmark of the tensor kernels at the learned policies' default shapes.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_tensors.py -q --benchmark-columns=median,iqr,rounds

pytest-benchmark prints one median per case. A 10-robot full mesh gives
each agent 9 neighbors, hence the 9-row cases. Compare two checkouts on one
host in alternating runs: on a shared 2-core host, medians of the same code
drifted by up to 25 % between runs.
"""

import numpy as np

from neuromesh.aggregation import diff_sum_aggregate
from neuromesh.tensors import attention_forward, mlp_forward, random_attention, random_mlp

PAIRWISE = random_mlp([16, 64, 64, 16], seed=1)
RNG = np.random.default_rng(0)
SELF = RNG.standard_normal(16).astype(np.float32)
NEIGHBORS = [RNG.standard_normal(16).astype(np.float32) for _ in range(9)]


def test_mlp_forward_one_vector(benchmark):
    out = benchmark(mlp_forward, PAIRWISE, NEIGHBORS[0])
    assert out.shape == (16,)


def test_mlp_forward_nine_rows(benchmark):
    rows = np.stack(NEIGHBORS)
    out = benchmark(mlp_forward, PAIRWISE, rows)
    assert out.shape == (9, 16)


def test_diff_sum_aggregate_nine_neighbors(benchmark):
    out = benchmark(diff_sum_aggregate, PAIRWISE, SELF, NEIGHBORS)
    assert out.shape == (16,)


def test_diff_sum_aggregate_ten_agents_stacked(benchmark):
    # one navigation step: 10 agents, 9 neighbors each
    selves = np.stack([SELF] + NEIGHBORS)
    neighbor_lists = [[row for j, row in enumerate(selves) if j != i] for i in range(10)]
    out = benchmark(diff_sum_aggregate, PAIRWISE, selves, neighbor_lists)
    assert out.shape == (10, 16)


def test_attention_forward_nine_context(benchmark):
    spec = random_attention(model_dim=24, heads=3, layers=2, seed=2)  # AssignmentModel.random
    query = RNG.standard_normal(24).astype(np.float32)
    context = [RNG.standard_normal(24).astype(np.float32) for _ in range(9)]
    out = benchmark(attention_forward, spec, query, context)
    assert out.shape == (24,)
