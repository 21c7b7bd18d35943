import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neuromesh.aggregation as aggregation_mod
import neuromesh.wire as wire_mod
from neuromesh.aggregation import (
    SIM_POLL_NS,
    AggregationConfig,
    ResolutionStatus,
    await_neighborhood,
    build_sim_team,
    centralized_rounds,
    diff_sum_aggregate,
    publish_features,
    reduce_aggregate,
    resolve_neighborhood,
    run_rounds,
)
from neuromesh.assignment import run_assignment_scenario
from neuromesh.control import (
    ControlPolicy,
    NavigationParams,
    UnicycleState,
    run_navigation_scenario,
)
from neuromesh.errors import (
    ConfigError,
    InsufficientNeighborsError,
    NeighborhoodTimeoutError,
    ShapeError,
)
from neuromesh.netsim import LinkModel, MeshSimulator, SimTransport, Topology
from neuromesh.tensors import identity_mlp, mlp_forward, random_mlp
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

    def test_identical_neighbors_with_zero_bias_gives_positive_zero_bytes(self):
        g = random_mlp([3, 8, 3], seed=2)
        for b in g.biases:
            b[:] = 0.0
        f = vec(1.0, -2.0, 0.5)
        out = diff_sum_aggregate(g, f, [f.copy(), f.copy()])
        assert out.tobytes() == np.zeros(3, dtype=F32).tobytes()

    def test_stacked_rows_sum_in_neighbor_order(self):
        g = random_mlp([16, 64, 64, 16], seed=3)
        rng = np.random.default_rng(4)
        f = rng.normal(size=16).astype(F32)
        for m in range(1, 30):
            neighbors = [rng.normal(size=16).astype(F32) for _ in range(m)]
            acc = np.zeros(16)
            for n in neighbors:
                acc += mlp_forward(g, n - f)
            assert diff_sum_aggregate(g, f, neighbors).tobytes() == acc.astype(F32).tobytes()

    def test_neighbors_of_mixed_lengths_rejected(self):
        g = identity_mlp(2)
        with pytest.raises(ShapeError, match="shape"):
            diff_sum_aggregate(g, vec(1, 2), [vec(3, 4), vec(1, 2, 3)])
        with pytest.raises(ShapeError, match="shape"):
            diff_sum_aggregate(g, vec(1, 2), [vec(1, 2, 3)])

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


# Signed zeros, and magnitudes 2**100 apart: a small value that meets a large
# one before or after the large one cancels sums to different bits.
SUM_EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**100, -(2.0**100)])


class TestStackedDiffSumAggregate:
    def team_case(self, rng, g, team):
        """(A, D) self features and A neighbor lists: random subsets of the
        other agents' features, empty lists, and copies of the agent's own."""
        scale = (0.01, 1.0, 50.0)[team % 3]
        selves = (scale * rng.standard_normal((team, g.input_dim))).astype(F32)
        lists = []
        for i in range(team):
            kind = rng.integers(3)
            if kind == 0:
                lists.append([])
            elif kind == 1:
                lists.append([selves[i].copy() for _ in range(rng.integers(1, 12))])
            else:
                others = [j for j in range(team) if j != i and rng.random() < 0.7]
                lists.append([selves[j].copy() for j in others])
        return selves, lists

    def test_each_row_equals_the_one_agent_call_and_the_per_row_loop(self):
        zero_bias = random_mlp([16, 64, 64, 16], seed=22)
        for b in zero_bias.biases:
            b[:] = 0.0
        rng = np.random.default_rng(23)
        for g in (random_mlp([16, 64, 64, 16], seed=21), zero_bias, random_mlp([5, 9, 3], seed=24)):
            for team in range(1, 13):
                for _ in range(5):
                    selves, lists = self.team_case(rng, g, team)
                    out = diff_sum_aggregate(g, selves, lists)
                    assert out.shape == (team, g.output_dim) and out.dtype == F32
                    for i in range(team):
                        one = diff_sum_aggregate(g, selves[i], lists[i])
                        assert out[i].tobytes() == one.tobytes(), (team, i)
                        loop = np.zeros(g.output_dim)
                        for n in lists[i]:
                            loop += mlp_forward(g, n - selves[i])
                        assert out[i].tobytes() == loop.astype(F32).tobytes(), (team, i)

    def test_identical_neighbors_with_zero_bias_give_positive_zero_rows(self):
        g = random_mlp([3, 8, 3], seed=2)
        for b in g.biases:
            b[:] = 0.0
        selves = np.stack([vec(1.0, -2.0, 0.5), vec(-3.0, 0.25, 4.0)])
        out = diff_sum_aggregate(g, selves, [[selves[0]] * 3, [selves[1]]])
        assert out.tobytes() == np.zeros((2, 3), dtype=F32).tobytes()

    def test_agents_without_neighbors_get_zero_rows(self):
        g = random_mlp([3, 8, 5], seed=4)
        out = diff_sum_aggregate(g, np.ones((3, 3), dtype=F32), [[], [vec(1, 0, 0)], []])
        assert np.array_equal(out[[0, 2]], np.zeros((2, 5), dtype=F32))
        assert np.array_equal(diff_sum_aggregate(g, np.ones((2, 3), dtype=F32), [[], []]),
                              np.zeros((2, 5), dtype=F32))

    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.lists(st.lists(st.one_of(SUM_EDGES, st.floats(width=32, allow_nan=False)),
                          min_size=dim, max_size=dim), max_size=6),
        min_size=1, max_size=5)))
    @example([[[2.0**100], [-(2.0**100)], [1.0]]])  # 1.0 in order, 0.0 if 1.0 meets -2**100 first
    @settings(max_examples=300, deadline=None)
    def test_each_agent_sums_its_rows_in_order_from_positive_zero(self, per_agent):
        """Ragged and empty lists, signed zeros, infinities and values that
        absorb or cancel each other: the bits of a per-agent sequential float64
        loop that starts at +0.0."""
        dim = len(next((rows[0] for rows in per_agent if rows), [0.0]))
        g = identity_mlp(dim)
        selves = np.zeros((len(per_agent), dim), dtype=F32)
        lists = [[np.zeros(dim, dtype=F32)] * len(rows) for rows in per_agent]

        def summed(self_feature, neighbors, rows):
            out = np.array(rows, dtype=F32).reshape(-1, dim)
            with mock.patch.object(aggregation_mod, "mlp_forward", lambda g, x: out):
                return diff_sum_aggregate(g, self_feature, neighbors)

        stacked = summed(selves, lists, [r for rows in per_agent for r in rows])
        for i, rows in enumerate(per_agent):
            acc = [0.0] * dim
            for row in rows:
                acc = [a + float(F32(v)) for a, v in zip(acc, row)]
            want = np.array(acc).astype(F32).tobytes()
            assert stacked[i].tobytes() == want, i
            assert summed(selves[i], lists[i], rows).tobytes() == want, i

    def test_self_rank_must_be_one_or_two(self):
        g = identity_mlp(2)
        with pytest.raises(ShapeError, match="1-D or 2-D"):
            diff_sum_aggregate(g, np.zeros((1, 2, 2), dtype=F32), [[]])
        with pytest.raises(ShapeError, match="1-D or 2-D"):
            diff_sum_aggregate(g, np.zeros((1, 1, 1, 2), dtype=F32), [[]])

    def test_one_neighbor_list_per_agent(self):
        g = identity_mlp(2)
        with pytest.raises(ShapeError, match="3 self features but 2 neighbor lists"):
            diff_sum_aggregate(g, np.zeros((3, 2), dtype=F32), [[vec(1, 2)], []])

    def test_neighbors_of_mixed_lengths_across_agents_rejected(self):
        g = identity_mlp(2)
        selves = np.zeros((2, 2), dtype=F32)
        with pytest.raises(ShapeError, match="shape"):
            diff_sum_aggregate(g, selves, [[vec(1, 2)], [vec(1, 2, 3)]])
        with pytest.raises(ShapeError, match="shape"):
            diff_sum_aggregate(g, selves, [[vec(1, 2, 3)], [vec(1, 2, 3)]])


def fill_buffer(buf, live_ids, round_=0):
    for nid in live_ids:
        buf.insert(MessageEnvelope(nid, 1, 0, round_, np.full(2, nid, dtype=F32)))


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

    def test_blocking_await_with_nothing_to_advance_times_out_at_once(self):
        # advance=None: nothing more can arrive, so the wait ends on its first poll
        buf = NeighborBuffer([1, 2, 3])
        fill_buffer(buf, [1, 3])
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
        with pytest.raises(NeighborhoodTimeoutError, match=r"neighbors \[2\]") as err:
            await_neighborhood(cfg, buf, lambda: 5)
        assert err.value.missing == [2] and err.value.waited_ns == 0

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
        with pytest.raises(ShapeError, match="at least one round"):
            run_rounds({}, {}, AggregationConfig(), sum_fn, lambda: 0, rounds=0)


def mean_fn(h, feats):
    return reduce_aggregate("mean", h, feats)


def sum_fn(h, feats):
    return reduce_aggregate("sum", h, feats)


class TestRunRounds:
    def test_single_round_mean_over_star(self):
        buf = NeighborBuffer([1, 2])
        fill_buffer(buf, [1, 2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
        h = run_rounds({0: (lambda data: None, buf)}, {0: vec(3, 3)}, cfg, mean_fn,
                       lambda: 0)[0]
        assert np.array_equal(h, vec(2, 2))  # mean of (3,3), (1,1), (2,2)

    def test_no_neighbors_single_robot_identity(self):
        buf = NeighborBuffer([1, 2])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0)
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
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
        sim, team = build_sim_team(topo)
        got = run_rounds(team, features, cfg, sum_fn, lambda: sim.now_ns,
                         lambda: sim.run_for(SIM_POLL_NS), rounds=2)
        want = centralized_rounds(adjacency, features, "sum", 2)
        assert float(got[0][0]) == 2.0
        for a in adjacency:
            assert got[a].tobytes() == want[a].tobytes()

    def test_round_tagging_keeps_rounds_separate(self):
        # a round-1 round runner must ignore round-0 envelopes
        buf = NeighborBuffer([1])
        buf.insert(MessageEnvelope(1, 1, 0, 0, vec(9, 9)))
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0)
        res = resolve_neighborhood(cfg, buf, now_ns=0, round_index=1)
        assert res.status is ResolutionStatus.SINGLE_ROBOT

    def test_publish_and_advance_hooks(self):
        published = []
        buf = NeighborBuffer([1])
        cfg = AggregationConfig(mode="best_effort", min_neighbors=0)
        run_rounds({0: (published.append, buf)}, {0: vec(1, 1)}, cfg, sum_fn, lambda: 0,
                   rounds=2)
        assert [decode_envelope(data).round for data in published] == [0, 1]

    def test_blocking_run_rounds_times_out_on_wall_clock_by_default(self):
        buf = NeighborBuffer([1, 2])
        cfg = AggregationConfig(mode="blocking", timeout_ns=20_000_000)
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
        cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
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
            cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
            sim, team = build_sim_team(topo)
            got = run_rounds(team, features, cfg, sum_fn, lambda: sim.now_ns,
                             lambda: sim.run_for(SIM_POLL_NS), rounds=3)
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
                    cfg = AggregationConfig(mode="blocking", timeout_ns=10**9)
                    sim, team = build_sim_team(topo)
                    got = run_rounds(team, features, cfg, fn, lambda: sim.now_ns,
                                     lambda: sim.run_for(SIM_POLL_NS), rounds=rounds)
                    want = centralized_rounds(adjacency, features, kind, rounds)
                    for a in adjacency:
                        assert got[a].tobytes() == want[a].tobytes()


class DecodeLog:
    """Wraps the module attribute ``decode_envelope`` as the benchmark tracer
    does, logging each call's bytes and envelope, and counts inserts,
    broadcasts and the simulators built. With ``drop_memo`` the wrapper
    decodes every call fresh.
    """

    def __init__(self, monkeypatch, drop_memo=False):
        self.calls = []  # (wire bytes, envelope) per decode call
        self.memos = {}  # id -> each memo passed to a decode call
        self.inserts = 0
        self.broadcasts = 0
        self.sims = []
        decode = wire_mod.decode_envelope
        insert = NeighborBuffer.insert
        broadcast = SimTransport.broadcast
        init = MeshSimulator.__init__

        def wrapped(data, **kwargs):
            if drop_memo:
                kwargs.pop("memo", None)
            elif kwargs.get("memo") is not None:
                self.memos[id(kwargs["memo"])] = kwargs["memo"]
            env = decode(data, **kwargs)
            self.calls.append((data, env))
            return env

        def counted_insert(buf, env):
            self.inserts += 1
            return insert(buf, env)

        def counted_broadcast(transport, data):
            self.broadcasts += 1
            return broadcast(transport, data)

        def recorded_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            self.sims.append(sim)

        monkeypatch.setattr(wire_mod, "decode_envelope", wrapped)
        monkeypatch.setattr(NeighborBuffer, "insert", counted_insert)
        monkeypatch.setattr(SimTransport, "broadcast", counted_broadcast)
        monkeypatch.setattr(MeshSimulator, "__init__", recorded_init)

    @property
    def full_decodes(self) -> int:
        """Decode calls that parsed their bytes: each one built a new envelope."""
        return len({id(env) for _, env in self.calls})


def circle_navigation(link=None, mesh_seed=0, **params):
    """Learned navigation of 10 robots on a 5 m circle, each heading for the opposite
    point; ``params`` override NavigationParams(max_steps=20, seed=23)."""
    states, goals = {}, {}
    for a in range(10):
        angle = 2.0 * math.pi * a / 10
        start = np.array([5.0 * math.cos(angle), 5.0 * math.sin(angle)])
        states[a] = UnicycleState(start, angle + 0.5)
        goals[a] = -start
    return run_navigation_scenario(
        states, goals, policy=ControlPolicy.random(seed=11),
        params=NavigationParams(**{"max_steps": 20, "seed": 23, **params}),
        topology=Topology.full_mesh(states, link), record_trajectory=True, seed=mesh_seed)


def expert_assignment(link=None, n=8, mesh_seed=0):
    costs = np.random.default_rng(73).uniform(1, 10, size=(n, n)).astype(F32)
    agg = AggregationConfig(mode="blocking" if link is None else "best_effort",
                            timeout_ns=200_000_000)
    return run_assignment_scenario(costs, agg_config=agg,
                                   topology=Topology.full_mesh(range(n), link), seed=mesh_seed)


LOSSY_JITTER = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0,
                         loss_prob=0.3)
RUNS = {"navigation": circle_navigation, "assignment": expert_assignment}


class TestOneDecodePerBroadcast:
    @pytest.mark.parametrize("task", list(RUNS))
    def test_every_receiver_decodes_and_each_broadcast_is_parsed_once(self, monkeypatch, task):
        log = DecodeLog(monkeypatch)
        RUNS[task]()
        [sim] = log.sims
        sim.drain()
        assert len(log.calls) == log.inserts == sim.delivered == sim.sent > 0
        assert log.full_decodes == log.broadcasts > 0
        assert len(log.memos) == 1

    @pytest.mark.parametrize("task", list(RUNS))
    @pytest.mark.parametrize("link, mesh_seed", [(None, 0), (LOSSY_JITTER, 7)],
                             ids=["lossless", "lossy-jitter"])
    def test_outcome_equals_a_run_without_the_memo(self, monkeypatch, task, link, mesh_seed):
        with monkeypatch.context() as patch:
            fresh = DecodeLog(patch, drop_memo=True)
            want = RUNS[task](link=link, mesh_seed=mesh_seed)
        with monkeypatch.context() as patch:
            log = DecodeLog(patch)
            got = RUNS[task](link=link, mesh_seed=mesh_seed)
        assert got == want
        assert [data for data, _ in log.calls] == [data for data, _ in fresh.calls]
        assert [env for _, env in log.calls] == [env for _, env in fresh.calls]
        assert fresh.full_decodes == len(fresh.calls) and not fresh.memos

    def test_all_receivers_of_a_broadcast_hold_one_read_only_envelope(self):
        sim, team = build_sim_team(Topology.full_mesh(range(4)))
        publish_features(team, {0: vec(1, 2, 3)}, 1, 0, 0)
        sim.drain()
        [held] = {id(buf._slots[0][0]): buf._slots[0][0]
                  for aid, (_, buf) in team.items() if aid != 0}.values()
        assert held.payload.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            held.payload[0] = 0.0

    def test_memo_holds_at_most_one_entry_per_sender_after_a_long_run(self, monkeypatch):
        log = DecodeLog(monkeypatch)
        out = circle_navigation(max_steps=400, collision_radius_m=1e-9)
        assert out.steps == 400 and not out.failed
        [memo] = log.memos.values()
        stored = {key: env for key, env in memo.items() if isinstance(key, bytes)}
        senders = sorted(env.sender_id for env in stored.values())
        assert senders == sorted(set(senders)) and len(senders) <= 10
        assert {memo[s] for s in senders} == set(stored) and len(memo) == 2 * len(stored)
