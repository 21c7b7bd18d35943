import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromesh.aggregation import (
    SIM_POLL_NS,
    AggregationConfig,
    ResolutionStatus,
    broadcast_aggregate,
    build_sim_team,
    centralized_rounds,
    diff_sum_aggregate,
    reduce_aggregate,
    resolve_neighborhood,
    run_rounds,
)
from neuromesh.errors import (
    ConfigError,
    InsufficientNeighborsError,
    NeighborhoodTimeoutError,
    ShapeError,
)
from neuromesh.netsim import LinkModel, Topology
from neuromesh.tensors import identity_mlp, random_mlp
from neuromesh.wire import MessageEnvelope, NeighborBuffer, decode_envelope, encode_envelope

from oracles import naive_diff_sum

F32 = np.float32


def vec(*values):
    return np.array(values, dtype=F32)


class TestReduceAggregate:
    def test_mean(self):
        out = reduce_aggregate("mean", vec(5, 6), [vec(1, 2), vec(3, 4)])
        assert np.array_equal(out, vec(3, 4))

    def test_max(self):
        assert np.array_equal(reduce_aggregate("max", vec(0, 9), [vec(8, 1)]), vec(8, 9))

    def test_sum(self):
        assert np.array_equal(reduce_aggregate("sum", vec(1, 1), [vec(2, 3)]), vec(3, 4))

    @pytest.mark.parametrize("kind", ["sum", "mean", "max"])
    def test_empty_neighborhood_is_single_robot_passthrough(self, kind):
        f = vec(2.5, -1.0, 0.0)
        assert np.array_equal(reduce_aggregate(kind, f, []), f)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="shape"):
            reduce_aggregate("sum", vec(1, 2), [vec(1, 2, 3)])

    def test_diff_sum_needs_network(self):
        with pytest.raises(ShapeError, match="diff_sum"):
            reduce_aggregate("diff_sum", vec(1), [vec(2)])

    @given(st.lists(st.lists(st.floats(-10, 10, width=32), min_size=3, max_size=3),
                    min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, rows, rnd):
        neighbors = [np.array(r, dtype=F32) for r in rows]
        shuffled = list(neighbors)
        rnd.shuffle(shuffled)
        f = vec(0.5, -0.5, 1.0)
        for kind in ("sum", "mean", "max"):
            a = reduce_aggregate(kind, f, neighbors)
            b = reduce_aggregate(kind, f, shuffled)
            assert np.allclose(a, b, rtol=1e-6, atol=1e-6)


class TestDiffSumAggregate:
    def test_identical_neighbors_with_zero_bias_gives_zero(self):
        g = random_mlp([3, 8, 3], seed=2)
        for b in g.biases:
            b[:] = 0.0
        f = vec(1.0, -2.0, 0.5)
        out = diff_sum_aggregate(g, f, [f.copy(), f.copy()])
        assert np.array_equal(out, np.zeros(3, dtype=F32))

    def test_identity_network_sums_differences(self):
        g = identity_mlp(2)
        out = diff_sum_aggregate(g, vec(1, 1), [vec(2, 3), vec(0, 0)])
        assert np.array_equal(out, vec(0, 1))

    def test_empty_neighborhood_gives_zero_vector_of_output_dim(self):
        g = random_mlp([3, 8, 5], seed=4)
        out = diff_sum_aggregate(g, vec(1, 2, 3), [])
        assert np.array_equal(out, np.zeros(5, dtype=F32))

    def test_seeded_matches_per_neighbor_loop_oracle(self):
        g = random_mlp([4, 16, 16, 4], seed=8)
        rng = np.random.default_rng(9)
        f = rng.normal(size=4).astype(F32)
        neighbors = [rng.normal(size=4).astype(F32) for _ in range(3)]
        got = diff_sum_aggregate(g, f, neighbors)
        want = naive_diff_sum(g, f, neighbors)
        assert np.allclose(got, want, atol=1e-6)

    def test_dimension_mismatch(self):
        g = identity_mlp(3)
        with pytest.raises(ShapeError):
            diff_sum_aggregate(g, vec(1, 2), [vec(3, 4)])

    def test_permutation_invariance(self):
        g = random_mlp([3, 8, 3], seed=12)
        rng = np.random.default_rng(13)
        f = rng.normal(size=3).astype(F32)
        neighbors = [rng.normal(size=3).astype(F32) for _ in range(4)]
        base = diff_sum_aggregate(g, f, neighbors)
        for perm in itertools.permutations(range(4)):
            out = diff_sum_aggregate(g, f, [neighbors[i] for i in perm])
            assert np.allclose(out, base, atol=1e-6)


class TestBroadcastAggregate:
    def test_output_shape_is_m_by_2d(self):
        f = np.zeros(4, dtype=F32)
        out = broadcast_aggregate(f, [np.ones(4, dtype=F32)] * 3)
        assert out.shape == (3, 8)

    def test_rows_are_self_then_neighbor(self):
        out = broadcast_aggregate(vec(1, 2), [vec(3, 4)])
        assert np.array_equal(out, np.array([[1, 2, 3, 4]], dtype=F32))

    def test_identical_neighbors_give_identical_rows(self):
        out = broadcast_aggregate(vec(1, 2), [vec(9, 9), vec(9, 9)])
        assert np.array_equal(out[0], out[1])

    def test_zero_neighbors_rejected(self):
        with pytest.raises(ShapeError, match="neighbor"):
            broadcast_aggregate(vec(1, 2), [])

    def test_arrival_order_never_changes_output(self):
        # rows follow buffer snapshot order (ascending id), not arrival order
        feats = {2: vec(2, 2), 5: vec(5, 5), 9: vec(9, 9)}
        matrices = []
        for arrival in ([2, 5, 9], [9, 2, 5], [5, 9, 2]):
            buf = NeighborBuffer([2, 5, 9])
            for nid in arrival:
                buf.insert(MessageEnvelope(nid, 1, 0, 0, feats[nid]), now_ns=0)
            snap = [v for _, v, _ in buf.snapshot(0)]
            matrices.append(broadcast_aggregate(vec(0, 0), snap))
        assert np.array_equal(matrices[0], matrices[1])
        assert np.array_equal(matrices[0], matrices[2])


def fill_buffer(buf, live_ids, round_=0):
    for nid in live_ids:
        buf.insert(
            MessageEnvelope(nid, 1, 0, round_, np.full(2, nid, dtype=F32)), now_ns=0
        )


class TestResolveNeighborhood:
    def test_blocking_with_missing_neighbor_is_pending(self):
        buf = NeighborBuffer([1, 2, 3])
        fill_buffer(buf, [1, 2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
        res = resolve_neighborhood(cfg, buf, now_ns=0, waiting_since_ns=0)
        assert res.status is ResolutionStatus.PENDING

    def test_blocking_timeout_names_missing_neighbors(self):
        buf = NeighborBuffer([1, 2, 3])
        fill_buffer(buf, [2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=100)
        with pytest.raises(NeighborhoodTimeoutError) as err:
            resolve_neighborhood(cfg, buf, now_ns=200, waiting_since_ns=0)
        assert err.value.missing == [1, 3]

    def test_blocking_ready_when_all_live(self):
        buf = NeighborBuffer([1, 2])
        fill_buffer(buf, [1, 2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
        res = resolve_neighborhood(cfg, buf, now_ns=0, waiting_since_ns=0)
        assert res.status is ResolutionStatus.READY
        assert [nid for nid, _ in res.features] == [1, 2]

    def test_best_effort_empty_with_min_zero_is_single_robot(self):
        buf = NeighborBuffer([1, 2, 3])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0)
        res = resolve_neighborhood(cfg, buf, now_ns=0)
        assert res.status is ResolutionStatus.SINGLE_ROBOT

    def test_best_effort_returns_live_subset(self):
        buf = NeighborBuffer([1, 2, 3])
        fill_buffer(buf, [2])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=1)
        res = resolve_neighborhood(cfg, buf, now_ns=0)
        assert res.status is ResolutionStatus.READY
        assert [nid for nid, _ in res.features] == [2]

    def test_best_effort_insufficient_neighbors(self):
        buf = NeighborBuffer([1, 2, 3])
        fill_buffer(buf, [2])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=2)
        with pytest.raises(InsufficientNeighborsError):
            resolve_neighborhood(cfg, buf, now_ns=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AggregationConfig(mode="blocking", timeout_ns=0)
        with pytest.raises(ConfigError):
            AggregationConfig(rounds=0)


def mean_fn(h, feats):
    return reduce_aggregate("mean", h, feats)


def sum_fn(h, feats):
    return reduce_aggregate("sum", h, feats)


class TestRunRounds:
    def test_single_round_mean_over_star(self):
        buf = NeighborBuffer([1, 2])
        fill_buffer(buf, [1, 2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9, rounds=1)
        h = run_rounds({0: (lambda data: None, buf)}, {0: vec(3, 3)}, cfg, mean_fn,
                       lambda: 0)[0]
        assert np.array_equal(h, vec(2, 2))  # mean of (3,3), (1,1), (2,2)

    def test_no_neighbors_single_robot_identity(self):
        buf = NeighborBuffer([1, 2])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0, rounds=1)
        f = vec(4.5, -1.5)
        team = {0: (lambda data: None, buf)}
        assert np.array_equal(run_rounds(team, {0: f}, cfg, mean_fn, lambda: 0)[0], f)

    def test_two_round_sum_on_line_graph_reaches_two_hops(self):
        # line a-b-c with scalar features (1, 0, 0): after two sum rounds
        # agent a has absorbed c's feature through b; whole-graph oracle
        # gives h_a = 2.
        adjacency = {0: [1], 1: [0, 2], 2: [1]}
        features = {0: vec(1.0), 1: vec(0.0), 2: vec(0.0)}
        topo = Topology(agents=[0, 1, 2], links={(0, 1): LinkModel(), (1, 2): LinkModel()})
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9, rounds=2)
        sim, team = build_sim_team(topo)
        got = run_rounds(team, features, cfg, sum_fn, lambda: sim.now_ns,
                         lambda: sim.run_for(SIM_POLL_NS))
        want = centralized_rounds(adjacency, features, "sum", 2)
        assert float(got[0][0]) == 2.0
        for a in adjacency:
            assert got[a].tobytes() == want[a].tobytes()

    def test_round_tagging_keeps_rounds_separate(self):
        # a round-1 round runner must ignore round-0 envelopes
        buf = NeighborBuffer([1])
        buf.insert(MessageEnvelope(1, 1, 0, 0, vec(9, 9)), now_ns=0)
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0, rounds=1)
        res = resolve_neighborhood(cfg, buf, now_ns=0, round_index=1)
        assert res.status is ResolutionStatus.SINGLE_ROBOT

    def test_publish_and_advance_hooks(self):
        published = []
        buf = NeighborBuffer([1])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0, rounds=2)
        run_rounds({0: (published.append, buf)}, {0: vec(1, 1)}, cfg, sum_fn, lambda: 0)
        assert [decode_envelope(data).round for data in published] == [0, 1]

    def test_blocking_run_rounds_times_out_on_wall_clock_by_default(self):
        buf = NeighborBuffer([1, 2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=20_000_000, rounds=1)
        with pytest.raises(NeighborhoodTimeoutError) as err:
            run_rounds({0: (lambda data: None, buf)}, {0: vec(1, 1)}, cfg, mean_fn,
                       time.monotonic_ns, lambda: time.sleep(0.001))
        assert err.value.missing == [1, 2]

    def test_blocking_run_rounds_with_advance_hook(self):
        # neighbor messages land only when the advance hook pumps the sim
        topo = Topology.full_mesh([0, 1], LinkModel(base_latency_ns=5_000_000))
        sim, team = build_sim_team(topo)
        env = MessageEnvelope(1, 1, 0, 0, vec(4, 4))
        team[1][0](encode_envelope(env))
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9, rounds=1)
        h = run_rounds(team, {0: vec(2, 2)}, cfg, mean_fn, lambda: sim.now_ns,
                       advance=lambda: sim.run_for(1_000_000))[0]
        assert np.array_equal(h, vec(3, 3))

    def test_blocking_team_rounds_name_a_silent_agent(self):
        # the live neighbor's envelope lands; the silent one times out by name
        topo = Topology.full_mesh([0, 1, 2], LinkModel(base_latency_ns=1_000_000))
        sim, team = build_sim_team(topo)
        team[2] = (lambda data: None, team[2][1])  # agent 2 never publishes
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
        features = {a: vec(a, a) for a in team}
        with pytest.raises(NeighborhoodTimeoutError) as err:
            run_rounds(team, features, cfg, sum_fn, lambda: sim.now_ns,
                       lambda: sim.run_for(SIM_POLL_NS))
        assert err.value.missing == [2]

    def test_fallback_soundness_dropping_any_neighbor(self):
        # best-effort with min_neighbors 0 never errors, whatever subset is live
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0)
        for live in itertools.chain.from_iterable(
            itertools.combinations([1, 2, 3], k) for k in range(4)
        ):
            buf = NeighborBuffer([1, 2, 3])
            fill_buffer(buf, live)
            res = resolve_neighborhood(cfg, buf, now_ns=0)
            assert res.status in (ResolutionStatus.READY, ResolutionStatus.SINGLE_ROBOT)


class TestDecentralizedEqualsCentralized:
    def test_sampled_connected_six_agent_topologies(self):
        rng = np.random.default_rng(33)
        n = 6
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        features = {a: rng.normal(size=4).astype(F32) for a in range(n)}
        found = 0
        while found < 8:
            keep = rng.random(len(pairs)) < 0.4
            edges = [p for p, k in zip(pairs, keep) if k]
            adjacency = {a: [] for a in range(n)}
            for a, b in edges:
                adjacency[a].append(b)
                adjacency[b].append(a)
            seen, frontier = {0}, [0]
            while frontier:
                node = frontier.pop()
                for peer in adjacency[node]:
                    if peer not in seen:
                        seen.add(peer)
                        frontier.append(peer)
            if len(seen) != n:
                continue
            found += 1
            topo = Topology(agents=list(range(n)),
                            links={e: LinkModel(base_latency_ns=1_000_000) for e in edges})
            cfg = AggregationConfig(mode="blocking",
                                    timeout_ns=10**9, rounds=3)
            sim, team = build_sim_team(topo)
            got = run_rounds(team, features, cfg, sum_fn, lambda: sim.now_ns,
                             lambda: sim.run_for(SIM_POLL_NS))
            want = centralized_rounds(adjacency, features, "sum", 3)
            for a in adjacency:
                assert got[a].tobytes() == want[a].tobytes()

    def test_all_connected_three_agent_topologies(self):
        rng = np.random.default_rng(21)
        features = {a: rng.normal(size=6).astype(F32) for a in range(3)}
        edge_sets = [
            {(0, 1), (1, 2)}, {(0, 1), (0, 2)}, {(0, 2), (1, 2)},
            {(0, 1), (0, 2), (1, 2)},
        ]
        for edges in edge_sets:
            adjacency = {a: [] for a in range(3)}
            for a, b in edges:
                adjacency[a].append(b)
                adjacency[b].append(a)
            topo = Topology(agents=[0, 1, 2],
                            links={e: LinkModel(base_latency_ns=2_000_000) for e in edges})
            for kind, fn in (("mean", mean_fn), ("sum", sum_fn)):
                for rounds in (1, 2, 3):
                    cfg = AggregationConfig(mode="blocking",
                                            timeout_ns=10**9, rounds=rounds)
                    sim, team = build_sim_team(topo)
                    got = run_rounds(team, features, cfg, fn, lambda: sim.now_ns,
                                     lambda: sim.run_for(SIM_POLL_NS))
                    want = centralized_rounds(adjacency, features, kind, rounds)
                    for a in adjacency:
                        assert got[a].tobytes() == want[a].tobytes()
