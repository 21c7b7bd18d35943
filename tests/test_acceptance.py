"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a single PASS line on success (pytest -s / -v shows
them; a failure raises with the measured numbers) and asserts its own
runtime budget.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from neuromesh.aggregation import (
    SIM_POLL_NS,
    AggregationConfig,
    ResolutionStatus,
    build_sim_team,
    centralized_rounds,
    reduce_aggregate,
    resolve_neighborhood,
    run_rounds,
)
from neuromesh.assignment import (
    AssignmentModel,
    brute_force_solve,
    hungarian_solve,
    quantize_message,
    run_assignment_scenario,
    sr_metric,
    tcp_metric,
)
from neuromesh.control import (
    ControlPolicy,
    NavigationParams,
    UnicycleState,
    build_observation,
    policy_forward,
    run_navigation_scenario,
)
from neuromesh.errors import NeighborhoodTimeoutError
from neuromesh.netsim import (
    LinkModel,
    MediumModel,
    MeshSimulator,
    Topology,
    measure_link_quality,
    scalability_sweep,
)
from neuromesh.pipeline import run_pipeline, run_sequential, with_delay
from neuromesh.tensors import softplus_shift
from neuromesh.wire import MessageEnvelope, NeighborBuffer, decode_envelope, encode_envelope

from oracles import binomial_three_sigma_pct

F32 = np.float32
MS = 1_000_000


def report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over {self.limit}s budget"


def test_criterion_1_hungarian_oracle_equivalence():
    budget = Budget(30)
    checked = 0
    for n in range(2, 8):
        rng = np.random.default_rng(1000 + n)
        for _ in range(1000):
            costs = rng.uniform(0, 10, size=(n, n)).astype(F32)
            ours = hungarian_solve(costs)
            ref = brute_force_solve(costs)
            assert ours.total_cost == ref.total_cost, (n, ours, ref)
            assert ours.goals == ref.goals
            checked += 1
    budget.check()
    report(1, f"solver equals enumeration on {checked} instances (n=2..7) "
              f"in {budget.elapsed:.1f}s")


def test_criterion_2_metric_fidelity_and_expert_anchor():
    budget = Budget(30)
    # hand-computed metric fixtures, exact
    assert sr_metric(100, 5, 20) == 100.0
    assert sr_metric(85, 5, 20) == 85.0
    assert sr_metric(0, 5, 20) == 0.0
    assert tcp_metric([(102.0, 100.0)]) == 2.0
    assert tcp_metric([(110.0, 100.0), (100.0, 100.0)]) == 5.0
    assert tcp_metric([(100.0, 100.0)]) == 0.0

    # expert-mode scenario: 20 seeded instances, SR 100 / TCP 0 exactly
    rng = np.random.default_rng(2024)
    covered = 0
    pairs = []
    for _ in range(20):
        costs = rng.uniform(1, 10, size=(5, 5)).astype(F32)
        out = run_assignment_scenario(costs)
        assert not out.failed
        covered += out.covered_goals
        pairs.append((out.cost_out, out.cost_opt))
    sr = sr_metric(covered, 5, 20)
    tcp = tcp_metric(pairs)
    assert sr == 100.0
    assert tcp == 0.0

    # learned-model SR values are out of reach without trained weights;
    # substitute: lossless-truncation property and conflict-count oracle
    vec = np.linspace(-3, 3, 16).astype(F32)
    for budget_bytes in (64, 128, 256):
        _, recovered = quantize_message(vec, budget_bytes)
        assert np.array_equal(recovered, vec)
    model = AssignmentModel.random(n_goals=5, seed=99)
    conflicts_seen = False
    for k in range(10):
        costs = np.random.default_rng(3000 + k).uniform(1, 10, size=(5, 5)).astype(F32)
        out = run_assignment_scenario(costs, model=model)
        assert out.covered_goals == len(set(out.choices))  # independent recount
        conflicts_seen |= out.covered_goals < 5
    assert conflicts_seen
    budget.check()
    report(2, f"SR={sr} TCP={tcp} on 20 expert instances; truncation and "
              f"conflict oracles hold ({budget.elapsed:.1f}s)")


def test_criterion_3_pipeline_timing_law():
    budget = Budget(10)

    def encoder(x):
        return x * np.float32(2.0)

    def aggregator(x):
        return x + np.float32(1.0)

    def decoder(x):
        return np.sqrt(np.abs(x))

    stages = [
        with_delay(encoder, 0.010),
        with_delay(aggregator, 0.030),
        with_delay(decoder, 0.020),
    ]
    items = [np.full(4, i, dtype=F32) for i in range(50)]
    par_out, par = run_pipeline(*stages, items)
    seq_out, seq = run_sequential(*stages, items)

    par_period = par.period_mean_ns / 1e6
    par_latency = par.latency_mean_ns / 1e6
    seq_period = seq.period_mean_ns / 1e6
    assert 30.0 <= par_period <= 34.5, f"parallel period {par_period:.2f} ms"
    assert 60.0 <= par_latency <= 69.0, f"parallel latency {par_latency:.2f} ms"
    assert 60.0 <= seq_period <= 69.0, f"sequential period {seq_period:.2f} ms"
    assert par_period < seq_period
    assert len(par_out) == len(seq_out) == 50
    for a, b in zip(par_out, seq_out):
        assert a.tobytes() == b.tobytes()
    budget.check()
    report(3, f"period {par_period:.1f} ms vs max=30, latency {par_latency:.1f} ms "
              f"vs sum=60, sequential {seq_period:.1f} ms; outputs bit-identical "
              f"({budget.elapsed:.1f}s)")


def _connected(edges, nodes=4):
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(nodes)}) == 1


def test_criterion_4_decentralized_equals_centralized():
    budget = Budget(20)
    all_edges = list(itertools.combinations(range(4), 2))
    rng = np.random.default_rng(4004)
    features = {a: rng.uniform(-1, 1, size=8).astype(F32) for a in range(4)}
    graphs = 0
    for mask in range(1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        if not _connected(edges):
            continue
        graphs += 1
        adjacency = {a: [] for a in range(4)}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        topo = Topology(agents=list(range(4)),
                        links={e: LinkModel(base_latency_ns=MS) for e in edges})
        for kind in ("mean", "sum"):
            for rounds in (1, 2, 3):
                cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
                sim, team = build_sim_team(topo)
                got = run_rounds(
                    team, features, cfg,
                    lambda h, feats, k=kind: reduce_aggregate(k, h, feats),
                    lambda: sim.now_ns, lambda: sim.run_for(SIM_POLL_NS), rounds=rounds,
                )
                want = centralized_rounds(adjacency, features, kind, rounds)
                for a in adjacency:
                    assert got[a].tobytes() == want[a].tobytes(), (mask, kind, rounds, a)
    assert graphs == 38  # connected labeled graphs on 4 nodes
    budget.check()
    report(4, f"{graphs} connected 4-agent topologies x L in {{1,2,3}} x "
              f"{{mean,sum}} all bit-exact ({budget.elapsed:.1f}s)")


def test_criterion_5_buffer_and_wire_semantics():
    budget = Budget(10)
    # keep-latest over every arrival order of seqs 1..5
    for perm in itertools.permutations([1, 2, 3, 4, 5]):
        buf = NeighborBuffer([1])
        running_max = 0
        for seq in perm:
            env = MessageEnvelope(1, seq, 0, 0, np.zeros(1, dtype=F32))
            assert buf.insert(env) == (seq > running_max)
            running_max = max(running_max, seq)
            assert buf._slots[1][0].seq == running_max

    # staleness boundary: age == threshold listed; a nanosecond older is evicted
    buf = NeighborBuffer([1], staleness_ns=100 * MS)
    buf.insert(MessageEnvelope(1, 1, 0, 0, np.zeros(1, dtype=F32)))
    assert len(buf.snapshot(100 * MS)) == 1
    assert buf.snapshot(100 * MS + 1) == []
    assert buf.snapshot(100 * MS) == []

    # golden 33-byte vector from the documented layout
    golden = MessageEnvelope(3, 7, 0, 0, np.array([1.0, 0.0], dtype=F32))
    blob = encode_envelope(golden)
    assert blob.hex() == (
        "4e4d53480103000700000000000000000000000001020000000000803f00000000"
    )
    assert decode_envelope(blob) == golden

    # 10^4 random envelopes round-trip
    rng = random.Random(55)
    for _ in range(10_000):
        ndims = rng.randint(1, 4)
        shape = tuple(rng.randint(1, 3) for _ in range(ndims))
        payload = np.array(
            [rng.uniform(-1e5, 1e5) for _ in range(int(np.prod(shape)))], dtype=F32
        ).reshape(shape)
        env = MessageEnvelope(rng.randrange(1 << 16), rng.randrange(1 << 32),
                              rng.randrange(1 << 64), rng.randrange(256), payload)
        assert decode_envelope(encode_envelope(env)) == env
    budget.check()
    report(5, f"120 arrival permutations, inclusive staleness boundary, golden "
              f"vector, 10^4 round-trips ({budget.elapsed:.1f}s)")


def test_criterion_6_network_self_consistency():
    budget = Budget(20)
    configured_latency = 4.8 * MS
    configured_jitter = 0.6 * MS
    configured_loss = 0.003
    link = LinkModel(base_latency_ns=int(configured_latency),
                     jitter_stddev_ns=configured_jitter,
                     loss_prob=configured_loss)
    sim = MeshSimulator(Topology.full_mesh([0, 1], link), seed=606)
    n_msgs = 10_200
    quality = measure_link_quality(sim, 0, 1, payload_bytes=128, rate_hz=200,
                                   duration_s=n_msgs / 200)
    lat_err = abs(quality.latency_mean_ns - configured_latency) / configured_latency
    jit_err = abs(quality.jitter_ns - configured_jitter) / configured_jitter
    loss_bound = binomial_three_sigma_pct(configured_loss, n_msgs)
    assert lat_err < 0.10, f"latency off by {lat_err:.1%}"
    assert jit_err < 0.10, f"jitter off by {jit_err:.1%}"
    assert abs(quality.loss_pct - 0.3) <= loss_bound, quality.loss_pct
    budget.check()
    report(6, f"latency {quality.latency_mean_ns / MS:.2f} ms (cfg 4.8), jitter "
              f"{quality.jitter_ns / MS:.2f} ms (cfg 0.6), loss {quality.loss_pct:.2f}% "
              f"(cfg 0.3 +- {loss_bound:.2f}) over {n_msgs} msgs ({budget.elapsed:.1f}s)")


def test_criterion_7_scalability_sweep():
    budget = Budget(60)
    uncontended = scalability_sweep([5, 10], medium=MediumModel(contention="none"))
    for row in uncontended:
        assert abs(row.delivered_mean - 200.0) <= 2.0, row  # +-1 %
    shared = scalability_sweep([5, 10, 30, 50],
                               medium=MediumModel(contention="shared_medium"))
    rates = [r.delivered_mean for r in shared]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:])), rates
    for row in shared:
        if row.team_size in (30, 50):
            assert row.delivered_mean == pytest.approx(row.oracle_value, rel=0.02), row
    budget.check()
    report(7, f"N=5,10 sustain 200.00 msgs/s; shared-medium rates {[f'{r:.2f}' for r in rates]} "
              f"monotone and within 2% of the closed form ({budget.elapsed:.1f}s)")


def test_criterion_8_control_chain_properties():
    budget = Budget(30)
    # softplus anchor at 1e-9
    assert abs(float(softplus_shift(np.array([0.0]))[0]) - (1 + math.log(2))) < 1e-9

    # observation layout fixtures
    s = UnicycleState(np.array([0.0, 0.0]), heading=0.0, forward_speed=0.5)
    assert np.array_equal(build_observation(s, np.array([1.0, 0.0])),
                          np.array([1, 0, 0, 0, 1, 0, 0.5, 0], dtype=F32))
    s2 = UnicycleState(np.array([2.0, 3.0]), heading=math.pi / 2, forward_speed=1.0)
    obs2 = build_observation(s2, np.array([0.0, 0.0]))
    assert np.allclose(obs2[4:6], [0, 1], atol=1e-7)
    assert np.allclose(obs2[6:8], [2, 4], atol=1e-6)

    # policy output exceeds 1 componentwise over 10^4 weight/input draws
    draws = 0
    rng = np.random.default_rng(808)
    for policy_seed in range(100):
        policy = ControlPolicy.random(feature_dim=8, hidden=16, seed=policy_seed)
        for _ in range(100):
            obs = rng.uniform(-5, 5, size=8).astype(F32)
            nbrs = [rng.uniform(-2, 2, size=8).astype(F32)
                    for _ in range(int(rng.integers(0, 3)))]
            params = policy_forward(policy, obs, nbrs)
            assert (params.as_array() > 1.0).all()
            draws += 1
    assert draws == 10_000

    # deterministic replay of a 3-robot scenario, bit-identical
    policy = ControlPolicy.random(seed=4)
    outcomes = []
    for _ in range(2):
        states = {0: UnicycleState(np.array([-1.0, 0.0]), 0.0),
                  1: UnicycleState(np.array([1.0, 0.0]), math.pi),
                  2: UnicycleState(np.array([0.0, 1.0]), -math.pi / 2)}
        goals = {0: np.array([1.0, 1.0]), 1: np.array([-1.0, 1.0]),
                 2: np.array([0.0, -1.0])}
        outcomes.append(run_navigation_scenario(
            states, goals, policy=policy, params=NavigationParams(max_steps=60, seed=11),
            record_trajectory=True,
        ))
    assert outcomes[0].trajectory == outcomes[1].trajectory
    assert outcomes[0].min_pairwise_distance_m == outcomes[1].min_pairwise_distance_m

    # published success rates need trained weights; substitute scripted-expert
    # success and forced-collision detection
    ok = run_navigation_scenario(
        {0: UnicycleState(np.array([-1.0, 0.0]), 0.0),
         1: UnicycleState(np.array([1.0, 0.0]), math.pi)},
        {0: np.array([-1.0, 2.0]), 1: np.array([1.0, 2.0])},
        params=NavigationParams(max_steps=300),
    )
    assert ok.success and not ok.collided
    crash = run_navigation_scenario(
        {0: UnicycleState(np.array([-1.0, 0.0]), 0.0),
         1: UnicycleState(np.array([1.0, 0.0]), math.pi)},
        {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])},
        params=NavigationParams(max_steps=300),
    )
    assert crash.collided and not crash.success
    budget.check()
    report(8, f"10^4 policy draws all > 1, anchors exact, replay bit-identical, "
              f"expert success and forced collision detected ({budget.elapsed:.1f}s)")


def test_criterion_9_fallback_behavior():
    budget = Budget(5)
    topo = Topology.full_mesh([0, 1, 2], LinkModel(base_latency_ns=MS))
    sim, team = build_sim_team(topo)
    for sender in (0, 1):  # agent 2 stays silent
        env = MessageEnvelope(sender, 1, sim.now_ns, 0, np.ones(3, dtype=F32))
        team[sender][0](encode_envelope(env))
    sim.drain()
    cfg = AggregationConfig(mode="blocking", timeout_ns=100 * MS)
    start = sim.now_ns
    with pytest.raises(NeighborhoodTimeoutError) as err:
        while True:
            res = resolve_neighborhood(cfg, team[0][1], sim.now_ns, waiting_since_ns=start)
            if res.status is not ResolutionStatus.PENDING:
                pytest.fail("resolve returned without the silent neighbor")
            sim.run_for(10 * MS)
    assert err.value.missing == [2]

    best_effort = AggregationConfig(mode="best_effort", min_neighbors=0)
    f = np.array([0.5, -2.0, 3.0], dtype=F32)
    empty = NeighborBuffer([1, 2])
    h = run_rounds({0: (lambda data: None, empty)}, {0: f}, best_effort,
                   lambda h_, feats: reduce_aggregate("mean", h_, feats), lambda: 0)[0]
    assert h.tobytes() == f.tobytes()
    budget.check()
    report(9, f"blocking timeout names neighbor 2; best-effort degrades to "
              f"h_i = f_i ({budget.elapsed:.1f}s)")
