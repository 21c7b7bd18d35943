"""Microbenchmark of the navigation loop: ten-robot learned runs and the
stacked observation build.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_control.py -q --benchmark-columns=median,iqr,rounds

A run is ten robots on a 5 m circle with the learned policy (the layer
widths of ``bench/``'s ``nav_learned``), best-effort aggregation over
jittered full-mesh links and sampled actions. With ``steps=0`` it is the
run's set-up alone: the team's simulator, buffers and RNG streams and the
starting distance check. Each of the 20 steps of ``steps=20`` is one whole
navigation step: observations, encoder, publish, one tick of delivery,
neighborhoods, pairwise, decoder, Beta samples, the move and the collision
and goal checks. So (median[20] - median[0]) / 20 is the cost of a step.

The observation build is the first stage of a step on its own: ten heading
unit vectors and one (10, 8) float32 observation block. Compare two
checkouts with ``microbench/paired.py``, which alternates short blocks in
fresh processes: on a shared 2-core host, pytest-benchmark medians of the
same code drifted by up to 1.7x between runs. The runs use only names that
checkouts from before the stacked helpers have too, so they compare
against those; the observation build needs the helpers.
"""

import math

import numpy as np
import pytest

from neuromesh import control
from neuromesh.aggregation import AggregationConfig
from neuromesh.control import (
    ControlPolicy,
    NavigationParams,
    UnicycleState,
    build_observation,
    run_navigation_scenario,
)
from neuromesh.netsim import LinkModel, Topology

ROBOTS = 10
LINK = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0)
POLICY = ControlPolicy.random(seed=11)


def circle_team(radius_m=5.0):
    states, goals = {}, {}
    for a in range(ROBOTS):
        angle = 2.0 * math.pi * a / ROBOTS
        start = np.array([radius_m * math.cos(angle), radius_m * math.sin(angle)])
        states[a] = UnicycleState(start, angle + 0.5, forward_speed=0.1 * (a % 3))
        goals[a] = -start
    return states, goals


@pytest.mark.parametrize("steps", [0, 20])
def test_ten_robot_learned_run(benchmark, steps):
    states, goals = circle_team()
    topology = Topology.full_mesh(states, LINK)
    params = NavigationParams(max_steps=steps, seed=23)
    out = benchmark(run_navigation_scenario, states, goals, policy=POLICY, params=params,
                    topology=topology, agg_config=AggregationConfig(mode="best_effort"),
                    seed=3)
    assert not out.failed and not out.collided and out.steps == steps


def test_stacked_observation_build(benchmark):
    states, goals = circle_team()
    positions = np.stack([s.position for s in states.values()])
    goal_rows = np.stack(list(goals.values()))
    speeds = np.array([s.forward_speed for s in states.values()])
    headings = [s.heading for s in states.values()]

    def observe():
        return control.stacked_observations(positions, goal_rows, speeds,
                                            control.heading_vectors(headings))

    obs = benchmark(observe)
    assert obs.shape == (ROBOTS, 8) and obs.dtype == np.float32
    assert np.array_equal(obs, np.stack([build_observation(states[a], goals[a])
                                         for a in range(ROBOTS)]))
