"""Fast self-check suite: one line per criterion, nonzero exit on failure.

Runs reduced-size versions of the acceptance checks: wire golden vector
and round-trips, keep-latest buffer semantics, solver-versus-oracle
equivalence, decentralized-versus-centralized rounds, the pipeline timing
law at small delays, metric fixtures, and fallback behavior. Learned-mode
checks are skipped with an explicit SKIP marker when no weight files are
supplied.
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

import numpy as np

from . import aggregation, assignment, control, netsim, pipeline, tensors, wire
from .aggregation import AggregationConfig
from .errors import NeighborhoodTimeoutError

GOLDEN_ENVELOPE_BYTES = bytes.fromhex(
    "4e4d53480103000700000000000000000000000001020000000000803f00000000"
)

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


def _check_wire_round_trip():
    env = wire.MessageEnvelope(
        sender_id=3, seq=7, timestamp_ns=0, round=0,
        payload=np.array([1.0, 0.0], dtype=np.float32),
    )
    blob = wire.encode_envelope(env)
    if blob != GOLDEN_ENVELOPE_BYTES:
        return FAIL, f"golden envelope mismatch: {blob.hex()}"
    rng = random.Random(7)
    for _ in range(1000):
        payload = np.array(
            [rng.uniform(-10, 10) for _ in range(rng.randint(1, 32))], dtype=np.float32
        )
        e = wire.MessageEnvelope(
            sender_id=rng.randrange(1 << 16), seq=rng.randrange(1 << 32),
            timestamp_ns=rng.randrange(1 << 63), round=rng.randrange(256),
            payload=payload,
        )
        if wire.decode_envelope(wire.encode_envelope(e)) != e:
            return FAIL, "round-trip mismatch on a random envelope"
    return PASS, "golden vector and 1000 round-trips"


def _check_buffer_semantics():
    for perm in itertools.permutations(range(1, 5)):
        buf = wire.NeighborBuffer([1])
        best = 0
        for seq in perm:
            accepted = buf.insert(wire.MessageEnvelope(1, seq, timestamp_ns=0, round=0,
                                                       payload=np.zeros(1, dtype=np.float32)))
            if accepted != (seq > best):
                return FAIL, f"keep-latest violated on arrival order {perm}"
            best = max(best, seq)
        live = buf.snapshot(0)
        if len(live) != 1:
            return FAIL, "buffer lost its only neighbor slot"
    buf = wire.NeighborBuffer([1], staleness_ns=100)
    buf.insert(wire.MessageEnvelope(1, 1, timestamp_ns=0, round=0,
                                    payload=np.zeros(1, dtype=np.float32)))
    if len(buf.snapshot(100)) != 1:
        return FAIL, "boundary age == threshold must be retained"
    if buf.snapshot(101) or buf.snapshot(100):
        return FAIL, "stale envelope survived eviction"
    return PASS, "keep-latest permutations and eviction boundary"


def _check_solver_oracle():
    rng = np.random.default_rng(11)
    memo: dict = {}
    for n in (3, 5, 6):
        for _ in range(100):
            costs = rng.uniform(0, 10, size=(n, n)).astype(np.float32)
            ours = assignment.hungarian_solve(costs)
            ref = assignment.brute_force_solve(costs)
            if ours.total_cost != ref.total_cost or ours.goals != ref.goals:
                return FAIL, f"solver disagrees with brute force on an n={n} instance"
            memoized = [assignment.hungarian_solve(costs, memo=memo) for _ in range(2)]
            if memoized != [ours, ours]:  # the first call misses, the second hits
                return FAIL, f"memoized solve differs from the fresh one on an n={n} instance"
    return PASS, "augmenting-path solver matches brute force, memoized or not (300 instances)"


def _check_rounds_equivalence():
    adjacencies = [
        {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]},  # line
        {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]},  # star
        {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]},  # full
    ]
    rng = np.random.default_rng(5)
    for adj in adjacencies:
        topo = netsim.Topology(
            agents=list(adj),
            links={(min(a, b), max(a, b)): netsim.LinkModel(base_latency_ns=1_000_000)
                   for a in adj for b in adj[a] if a < b},
        )
        features = {a: rng.uniform(-1, 1, size=8).astype(np.float32) for a in adj}
        for kind in ("mean", "sum"):
            for rounds in (1, 2):
                cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
                sim, team = aggregation.build_sim_team(topo)
                got = aggregation.run_rounds(
                    team, features, cfg,
                    lambda h, feats, k=kind: aggregation.reduce_aggregate(k, h, feats),
                    lambda: sim.now_ns, lambda: sim.run_for(aggregation.SIM_POLL_NS), rounds=rounds,
                )
                want = aggregation.centralized_rounds(adj, features, kind, rounds)
                for a in adj:
                    if got[a].tobytes() != want[a].tobytes():
                        return FAIL, f"{kind} L={rounds} differs from centralized reference"
    return PASS, "decentralized rounds match the centralized reference bit-for-bit"


def _check_timing_law():
    delays_s = (0.005, 0.015, 0.010)
    items = [np.float32(i) for i in range(16)]
    stages = [pipeline.with_delay(pipeline.identity_stage, d) for d in delays_s]
    outputs, stats = pipeline.run_pipeline(*stages, items)
    seq_outputs, seq_stats = pipeline.run_sequential(*stages, items)
    slowest_ns = max(delays_s) * 1e9
    total_ns = sum(delays_s) * 1e9
    if outputs != seq_outputs:
        return FAIL, "parallel and sequential outputs differ"
    if not slowest_ns <= stats.period_mean_ns <= slowest_ns * 1.4:
        return FAIL, f"parallel period {stats.period_mean_ns / 1e6:.2f} ms off the law"
    if not total_ns <= stats.latency_mean_ns <= total_ns * 1.4:
        return FAIL, f"parallel latency {stats.latency_mean_ns / 1e6:.2f} ms off the law"
    if not total_ns <= seq_stats.period_mean_ns <= total_ns * 1.4:
        return FAIL, f"sequential period {seq_stats.period_mean_ns / 1e6:.2f} ms off the law"
    if stats.period_mean_ns >= seq_stats.period_mean_ns:
        return FAIL, "parallel period not below sequential period"
    return PASS, "cycle time tracks the slowest stage, latency the sum"


def _check_metrics():
    if assignment.sr_metric(100, 5, 20) != 100.0 or assignment.sr_metric(85, 5, 20) != 85.0:
        return FAIL, "sr_metric fixture mismatch"
    if assignment.tcp_metric([(102.0, 100.0)]) != 2.0:
        return FAIL, "tcp_metric fixture mismatch"
    if abs(assignment.tcp_metric([(110.0, 100.0), (100.0, 100.0)]) - 5.0) > 1e-12:
        return FAIL, "tcp_metric mean mismatch"
    anchor = float(tensors.softplus_shift(np.array([0.0]))[0])
    if abs(anchor - (1.0 + math.log(2.0))) > 1e-9:
        return FAIL, f"softplus_shift(0) = {anchor}"
    return PASS, "metric and softplus anchors exact"


def _check_fallbacks():
    topo = netsim.Topology.full_mesh([0, 1, 2])
    sim, team = aggregation.build_sim_team(topo)
    cfg = AggregationConfig(mode="blocking", timeout_ns=50_000_000)
    # agent 2 stays silent; 0 should time out naming it
    ones = np.ones(2, dtype=np.float32)
    aggregation.publish_features(team, {0: ones, 1: ones}, 1, sim.now_ns, 0)
    sim.drain()
    try:
        aggregation.await_neighborhood(cfg, team[0][1], lambda: sim.now_ns,
                                       lambda: sim.run_for(10_000_000))
        return FAIL, "blocking wait returned without neighbor 2"
    except NeighborhoodTimeoutError as exc:
        if exc.missing != [2]:
            return FAIL, f"timeout names {exc.missing}, expected [2]"
    best_effort = AggregationConfig(mode="best_effort", min_neighbors=0)
    lone = {0: (lambda data: None, wire.NeighborBuffer([1, 2]))}
    f = np.array([2.0, -1.0], dtype=np.float32)
    h = aggregation.run_rounds(lone, {0: f}, best_effort,
                               lambda h_, feats: aggregation.reduce_aggregate("mean", h_, feats),
                               lambda: 0)[0]
    if h.tobytes() != f.tobytes():
        return FAIL, "single-robot fallback did not pass the feature through"
    return PASS, "blocking timeout names the silent neighbor; single-robot passthrough holds"


def _check_expert_assignment():
    rng = np.random.default_rng(3)
    covered = 0
    pairs = []
    for _ in range(3):
        costs = rng.uniform(1, 10, size=(5, 5)).astype(np.float32)
        out = assignment.run_assignment_scenario(costs)
        covered += out.covered_goals
        pairs.append((out.cost_out, out.cost_opt))
    sr = assignment.sr_metric(covered, 5, 3)
    tcp = assignment.tcp_metric(pairs)
    if sr != 100.0 or tcp != 0.0:
        return FAIL, f"expert scenario SR={sr} TCP={tcp}"
    return PASS, "expert scenario covers all goals at optimal cost"


def _check_learned_mode(weights_dir):
    if weights_dir is None:
        return SKIP, "no weight files provided; learned-mode checks skipped"
    base = Path(weights_dir)
    needed = {name: base / f"assignment_{name}.mwts" for name in ("encoder", "attention", "decoder")}
    missing = [str(p) for p in needed.values() if not p.exists()]
    if missing:
        return SKIP, f"weight files missing: {', '.join(missing)}"
    model = assignment.AssignmentModel.load(
        needed["encoder"], needed["attention"], needed["decoder"]
    )
    costs = np.random.default_rng(0).uniform(1, 10, size=(5, 5)).astype(np.float32)
    out = assignment.run_assignment_scenario(costs, model=model)
    if out.failed or len(out.choices) != 5:
        return FAIL, f"learned scenario did not produce per-robot choices: {out.failure}"
    return PASS, "learned-mode scenario produced per-robot choices"


def _check_control_chain():
    policy = control.ControlPolicy.random(seed=9)
    rng = np.random.default_rng(9)
    for _ in range(50):
        obs = rng.uniform(-2, 2, size=8).astype(np.float32)
        nbrs = [rng.uniform(-1, 1, size=policy.feature_dim).astype(np.float32)
                for _ in range(2)]
        params = control.policy_forward(policy, obs, nbrs)
        if min(params.as_array()) <= 1.0:
            return FAIL, "policy produced a Beta parameter at or below 1"
    state = control.UnicycleState(np.array([0.0, 0.0]), heading=0.0, forward_speed=0.5)
    obs = control.build_observation(state, np.array([1.0, 0.0]))
    expected = np.array([1, 0, 0, 0, 1, 0, 0.5, 0], dtype=np.float32)
    if not np.array_equal(obs, expected):
        return FAIL, f"observation layout mismatch: {obs}"
    return PASS, "policy outputs exceed 1 and the observation layout is exact"


def run_selftest(weights_dir=None, stream=None) -> int:
    """Run every check; print one line per criterion; return the exit code."""
    checks = [
        ("wire-round-trip", _check_wire_round_trip),
        ("buffer-keep-latest", _check_buffer_semantics),
        ("solver-vs-brute-force", _check_solver_oracle),
        ("decentralized-vs-centralized", _check_rounds_equivalence),
        ("pipeline-timing-law", _check_timing_law),
        ("metric-anchors", _check_metrics),
        ("fallback-modes", _check_fallbacks),
        ("expert-assignment", _check_expert_assignment),
        ("learned-assignment", lambda: _check_learned_mode(weights_dir)),
        ("control-chain", _check_control_chain),
    ]
    failures = 0
    for name, fn in checks:
        try:
            status, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            status, detail = FAIL, f"{type(exc).__name__}: {exc}"
        if status == FAIL:
            failures += 1
        line = f"{status} {name}: {detail}"
        print(line, file=stream) if stream else print(line)
    return 1 if failures else 0
