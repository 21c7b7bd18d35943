"""Workload definitions: generated configs, unit counts, invariants, layers.

Each call of a workload runs one generated ``neuromesh run`` config. Every
link is lossless with jitter on (4.8 ms base latency, 0.6 ms jitter), so no
output depends on ``network.seed``; calls alternate between two network
seeds and must give identical CSV bodies under both.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

DEFAULT_SEED = 0

NETWORK = {"base_latency_ms": 4.8, "jitter_ms": 0.6, "loss_prob": 0.0}

# Network seeds the calls alternate between.
NETWORK_SEEDS = (11, 12)
CALL_SEEDS = 1000  # distinct config seeds per run seed
EXPECTED_CALLS = 64  # calls per worker whose default-seed output expected.json keeps

# The reference loop: fixed pure-Python work a worker times after every call.
# This host's speed drifts by up to 25 % over minutes, and the loop slows
# with it, so run.py scales every time by REF_LOOP_MS over the loop's median
# time in the run. REF_LOOP_MS is near the loop's time on the development
# host, so scaled times stay close to the wall times measured there.
REF_LOOP = 50_000
REF_LOOP_MS = 5.0

ASSIGN_N = 20
ASSIGN_TESTS = 2  # per call
ASSIGN_COST_RANGE = (1.0, 10.0)

NAV_ROBOTS = 10
NAV_RUNS = 1  # episodes per call
NAV_MAX_STEPS = 50
# Wide enough that random starts almost never begin inside the collision
# radius, so episodes run to max_steps instead of ending at step 0.
NAV_ARENA_HALF_M = 50.0
NAV_LAYERS = {
    "encoder": [8, 64, 64, 64, 16],
    "pairwise": [16, 64, 64, 16],
    "decoder": [16, 64, 64, 64, 4],
}


class Workload:
    """One named workload and everything the harness needs to know about it."""

    def __init__(self, name, task, unit, csv_name, entry, trace_calls, layers):
        self.name = name
        self.task = task
        self.unit = unit
        self.csv_name = csv_name
        self.entry = entry  # scenario entry point as bound in neuromesh.cli
        self.trace_calls = trace_calls  # cli calls per traced pass (fixed work)
        self.layers = layers  # traced ops that must record calls


_COMMON_LAYERS = ("netsim.sim_init", "netsim.send", "netsim.run_until",
                  "netsim.derive_seed", "config.load", "reporting.write_csv")
_WIRE_LAYERS = ("wire.encode", "wire.decode", "wire.insert", "wire.snapshot",
                "aggregation.resolve")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("assign_expert", "assignment", "assignment test", "assignment.csv", "run_assignment_scenario", 15,
                 _COMMON_LAYERS + _WIRE_LAYERS + ("assignment.scenario", "assignment.solve")),
        Workload("nav_learned", "control", "agent-step", "control_runs.csv", "run_navigation_scenario", 4,
                 _COMMON_LAYERS + _WIRE_LAYERS
                 + ("control.scenario", "aggregation.diff_sum", "tensors.mlp_forward")),
    )
}


def reference_loop_ns() -> int:
    """Nanoseconds the reference loop takes at this moment."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter_ns() - t0


def call_seed(seed: int, k: int) -> int:
    """Config seed of a worker's k-th call.

    Every call in a process gets its own inputs, so a cache kept across
    calls gains nothing that a single ``neuromesh run`` would not.
    """
    return seed * CALL_SEEDS + k % CALL_SEEDS


def call_network_seed(worker: int, k: int) -> int:
    """Alternate network seeds so each call index runs under both across workers."""
    return NETWORK_SEEDS[(worker + k) % len(NETWORK_SEEDS)]


def write_weights(workload: Workload, seed: int, workdir: Path) -> dict | None:
    """Seeded random weight files for the learned policy, or None if unused."""
    if workload.task != "control":
        return None
    from neuromesh.tensors import random_mlp, save_mlp

    paths = {}
    for k, (name, dims) in enumerate(NAV_LAYERS.items()):
        path = workdir / f"{name}.mwts"
        save_mlp(path, random_mlp(dims, 1000 * seed + k))
        paths[name] = str(path)
    return paths


def call_config(workload: Workload, seed: int, k: int, net_seed: int, out_dir: Path,
                weights: dict | None) -> dict:
    """The ``neuromesh run`` config of a worker's k-th call."""
    cfg = {
        "task": workload.task,
        "seed": call_seed(seed, k),
        "output_dir": str(out_dir),
        "network": dict(NETWORK, seed=net_seed),
    }
    if workload.task == "assignment":
        cfg["team_size"] = ASSIGN_N
        cfg["aggregation"] = {"mode": "blocking"}
        cfg["assignment"] = {"n_tests": ASSIGN_TESTS, "mode": "expert", "costs": "random",
                             "cost_range": list(ASSIGN_COST_RANGE),
                             "message_budget_bytes": None}
    else:
        cfg["team_size"] = NAV_ROBOTS
        cfg["aggregation"] = {"mode": "best_effort"}
        cfg["control"] = {"n_runs": NAV_RUNS, "policy": "learned", "weights": weights,
                          "arena_half_extent_m": NAV_ARENA_HALF_M, "max_steps": NAV_MAX_STEPS}
    return cfg


def parse_body(text: str) -> list[list[str]]:
    """CSV body below the header comment: column row first, then data rows."""
    return [line.split(",") for line in text.splitlines()]


def row_units(workload: Workload, row: list[str]) -> int:
    """Workload units one CSV data row stands for."""
    if workload.task == "assignment":
        return 1  # one assignment test
    return int(row[2]) * NAV_ROBOTS  # agent-steps


def call_units(workload: Workload) -> int:
    """Units a call stands for when it produced no rows (it raised)."""
    if workload.task == "assignment":
        return ASSIGN_TESTS
    return NAV_RUNS * NAV_MAX_STEPS * NAV_ROBOTS


def row_problems(workload: Workload, seed: int, rows: list[list[str]]) -> list[str | None]:
    """Check the seed-independent invariants; one entry per data row, None if it holds."""
    if workload.task == "assignment":
        oracle = _optimal_costs(seed)
        return [_assign_problem(row, k, oracle) for k, row in enumerate(rows)]
    return [_nav_problem(row, k) for k, row in enumerate(rows)]


def _assign_problem(row, k, oracle):
    test_id, covered, c_out, c_opt, failed = row
    if int(test_id) != k or failed != "0":
        return f"test {test_id}: failed={failed}"
    if oracle is not None and abs(float(c_opt) - oracle[k]) > 2e-4:
        return f"test {k}: C_opt {c_opt} but the optimum is {oracle[k]:.4f}"
    if c_out != c_opt or int(covered) != ASSIGN_N:
        return f"test {k}: expert run covered {covered} goals at C_out {c_out}, C_opt {c_opt}"
    return None


def _nav_problem(row, k):
    run_id, success, steps, distance = row
    if int(run_id) != k or success not in ("0", "1"):
        return f"run {run_id}: success={success}"
    if not 0 <= int(steps) <= NAV_MAX_STEPS:
        return f"run {k}: {steps} steps, max_steps is {NAV_MAX_STEPS}"
    if not math.isfinite(float(distance)) or float(distance) < 0:
        return f"run {k}: min pairwise distance {distance}"
    return None


def _optimal_costs(seed: int):
    """Optimal totals of the test matrices from an independent solver.

    Regenerates each test's cost matrix as the CLI documents it (uniform
    draws from ``default_rng((seed, test_id))``, cast to float32). Returns
    None when scipy is not installed, which skips this one check.
    """
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None
    import numpy as np

    out = []
    lo, hi = ASSIGN_COST_RANGE
    for test_id in range(ASSIGN_TESTS):
        rng = np.random.default_rng((seed, test_id))
        cost = rng.uniform(lo, hi, size=(ASSIGN_N, ASSIGN_N)).astype(np.float32).astype(np.float64)
        rows, cols = linear_sum_assignment(cost)
        out.append(float(cost[rows, cols].sum()))
    return out
