"""Cross-module wiring: task stages inside the threaded pipeline, and the
full exchange loop over the UDP loopback transport."""

import contextlib
import threading
import time

import numpy as np

from neuromesh.aggregation import (
    AggregationConfig,
    build_team,
    centralized_rounds,
    diff_sum_aggregate,
    reduce_aggregate,
    run_rounds,
)
from neuromesh.control import ControlPolicy, UnicycleState, build_observation
from neuromesh.netsim import LoopbackTransport
from neuromesh.pipeline import run_pipeline, run_sequential
from neuromesh.tensors import mlp_forward, softplus_shift
import neuromesh.wire as wire_mod
from neuromesh.wire import MessageEnvelope, NeighborBuffer

F32 = np.float32


class TestPolicyStagesInsidePipeline:
    def test_encode_aggregate_decode_chain_runs_threaded(self):
        # one agent's three stages on the concurrent pipeline, aggregating
        # against a live neighbor buffer; results must equal the sequential
        # single-threaded run bit for bit
        policy = ControlPolicy.random(feature_dim=8, hidden=16, seed=23)
        buf = NeighborBuffer([1, 2], staleness_ns=10**15)
        rng = np.random.default_rng(5)
        for nid in (1, 2):
            buf.insert(MessageEnvelope(nid, 1, timestamp_ns=0, round=0,
                                       payload=rng.normal(size=8).astype(F32)))

        def encoder(obs):
            return mlp_forward(policy.encoder, obs)

        def aggregator(feature):
            neighbors = [vec for _, vec, _ in buf.snapshot(now_ns=0)]
            return diff_sum_aggregate(policy.pairwise, feature, neighbors)

        def decoder(h):
            return softplus_shift(mlp_forward(policy.decoder, h))

        goals = rng.uniform(-2, 2, size=(6, 2))
        observations = [
            build_observation(UnicycleState(rng.uniform(-2, 2, size=2), rng.uniform(-3, 3)), g)
            for g in goals
        ]
        par_out, par_stats = run_pipeline(encoder, aggregator, decoder, observations)
        seq_out, _ = run_sequential(encoder, aggregator, decoder, observations)
        assert par_stats.items_processed == 6
        for a, b in zip(par_out, seq_out):
            assert a.tobytes() == b.tobytes()
            assert (a > 1.0).all()


def run_threaded(team, features, cfg, aggregate_fn, rounds=1):
    """One thread per agent, each driving its own rounds over the shared team."""
    results = {}
    errors = []

    def agent(aid):
        try:
            results.update(run_rounds(team, {aid: features[aid]}, cfg, aggregate_fn,
                                      time.monotonic_ns, lambda: time.sleep(0.001), rounds))
        except Exception as exc:  # surfaced to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=agent, args=(aid,)) for aid in sorted(team)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    return results


class TestLoopbackExchange:
    def test_two_agents_block_until_each_other_over_udp(self):
        # transport receive threads insert into the buffers while each
        # agent's aggregation blocks; both must converge on the same mean
        base_port = 47450
        features = {0: np.array([2.0, 0.0], dtype=F32), 1: np.array([0.0, 4.0], dtype=F32)}
        cfg = AggregationConfig(mode="blocking", timeout_ns=5 * 10**9)
        with LoopbackTransport(0, [1], base_port=base_port) as t0, \
             LoopbackTransport(1, [0], base_port=base_port) as t1:
            team = build_team([t0, t1], staleness_ns=10**15)
            results = run_threaded(team, features, cfg,
                                   lambda h, feats: reduce_aggregate("mean", h, feats))
        expected = np.array([1.0, 2.0], dtype=F32)  # mean of (2,0) and (0,4)
        assert np.array_equal(results[0], expected)
        assert np.array_equal(results[1], expected)

    def test_multi_round_blocking_over_udp_equals_centralized(self):
        # a neighbor one round ahead must not hide the round a slower agent
        # still awaits; triangle 0-1-2 plus agent 3 hanging off 2
        base_port = 47520
        adjacency = {0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [2]}
        rng = np.random.default_rng(11)
        features = {a: rng.uniform(-1, 1, size=8).astype(F32) for a in adjacency}
        with contextlib.ExitStack() as stack:
            transports = [
                stack.enter_context(LoopbackTransport(a, adjacency[a], base_port=base_port))
                for a in adjacency
            ]
            for kind in ("mean", "sum", "max"):
                for rounds in (1, 2, 3):
                    cfg = AggregationConfig(mode="blocking", timeout_ns=5 * 10**9)
                    team = build_team(transports, staleness_ns=10**15)
                    got = run_threaded(team, features, cfg,
                                       lambda h, feats, k=kind: reduce_aggregate(k, h, feats),
                                       rounds)
                    want = centralized_rounds(adjacency, features, kind, rounds)
                    for a in adjacency:
                        assert got[a].tobytes() == want[a].tobytes(), (kind, rounds, a)

    def test_shared_decode_memo_hands_out_only_envelopes_of_their_own_bytes(self, monkeypatch):
        # the receive threads share their team's memo: a race may cost a
        # repeat decode, never an envelope decoded from other bytes
        base_port = 47590
        adjacency = {0: [1, 2, 3], 1: [0, 2], 2: [0, 1, 3], 3: [0, 2]}
        rng = np.random.default_rng(13)
        features = {a: rng.uniform(-1, 1, size=8).astype(F32) for a in adjacency}
        decode = wire_mod.decode_envelope
        decoded = []

        def logged(data, **kwargs):
            env = decode(data, **kwargs)
            decoded.append((data, env, kwargs.get("memo")))
            return env

        monkeypatch.setattr(wire_mod, "decode_envelope", logged)
        with contextlib.ExitStack() as stack:
            transports = [
                stack.enter_context(LoopbackTransport(a, adjacency[a], base_port=base_port))
                for a in adjacency
            ]
            for kind in ("mean", "max"):
                cfg = AggregationConfig(mode="blocking", timeout_ns=5 * 10**9)
                team = build_team(transports, staleness_ns=10**15)
                got = run_threaded(team, features, cfg,
                                   lambda h, feats, k=kind: reduce_aggregate(k, h, feats), 3)
                want = centralized_rounds(adjacency, features, kind, 3)
                for a in adjacency:
                    assert got[a].tobytes() == want[a].tobytes(), (kind, a)
        assert len(decoded) >= 2 * 3 * sum(map(len, adjacency.values()))
        assert all(memo is not None for _, _, memo in decoded)
        for data, env, _ in decoded:
            assert env == decode(data)

    def test_concurrent_inserts_never_corrupt_snapshots(self):
        # hammer one buffer from two writer threads while a reader snapshots;
        # every snapshot must be internally consistent (sorted, known ids,
        # payload matching the sender id)
        buf = NeighborBuffer([1, 2], staleness_ns=10**15)
        stop = threading.Event()

        def writer(nid):
            seq = 0
            while not stop.is_set():
                seq += 1
                buf.insert(MessageEnvelope(nid, seq, timestamp_ns=0, round=0,
                                           payload=np.full(4, nid, dtype=F32)))

        writers = [threading.Thread(target=writer, args=(nid,)) for nid in (1, 2)]
        for w in writers:
            w.start()
        try:
            for _ in range(2000):
                snap = buf.snapshot(now_ns=0)
                ids = [nid for nid, _, _ in snap]
                assert ids == sorted(ids)
                for nid, payload, _ in snap:
                    assert nid in (1, 2)
                    assert (payload == nid).all()
        finally:
            stop.set()
            for w in writers:
                w.join(timeout=5)
