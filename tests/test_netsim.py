import hashlib
import heapq
import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromesh.errors import ConfigError, MeasurementError, TopologyError
from neuromesh.netsim import (
    LinkModel,
    LoopbackTransport,
    MediumModel,
    MeshSimulator,
    SimTransport,
    Topology,
    closed_form_link_throughput,
    derive_seed,
    measure_link_quality,
    scalability_sweep,
)
from neuromesh.wire import MessageEnvelope, NeighborBuffer, encode_envelope

from oracles import binomial_central_interval, binomial_three_sigma_pct

MS = 1_000_000


def two_node_sim(link=None, medium=None, seed=0):
    topo = Topology.full_mesh([0, 1], link or LinkModel())
    return MeshSimulator(topo, medium, seed=seed)


class TestTopology:
    def test_full_mesh_neighbors(self):
        topo = Topology.full_mesh([3, 1, 2])
        assert topo.agents == [1, 2, 3]
        assert topo.neighbors(2) == [1, 3]
        assert (1, 3) in topo.links

    def test_sparse_neighbors_sorted_and_isolated_agent_empty(self):
        # line 0-1-2-3 plus agent 4 with no edges
        topo = Topology(agents=[4, 3, 2, 1, 0],
                        links={(2, 3): LinkModel(), (1, 0): LinkModel(), (2, 1): LinkModel()})
        assert [topo.neighbors(a) for a in topo.agents] == [[1], [0, 2], [1, 3], [2], []]
        peers = topo.neighbors(1)
        peers.append(4)
        peers.sort(reverse=True)
        assert topo.neighbors(1) == [0, 2]
        topo.neighbors(4).append(0)
        assert topo.neighbors(4) == []

    def test_self_edge_rejected(self):
        with pytest.raises(TopologyError, match="self-edge"):
            Topology(agents=[0, 1], links={(0, 0): LinkModel()})

    def test_unknown_agent_edge_rejected(self):
        with pytest.raises(TopologyError, match="unknown"):
            Topology(agents=[0, 1], links={(0, 5): LinkModel()})

    def test_reversed_edge_keys_are_normalized(self):
        topo = Topology(agents=[0, 1], links={(1, 0): LinkModel(base_latency_ns=MS)})
        assert topo.links[(0, 1)].base_latency_ns == MS

    def test_duplicate_edge_listed_both_ways_rejected(self):
        with pytest.raises(TopologyError, match="twice"):
            Topology(agents=[0, 1], links={(0, 1): LinkModel(), (1, 0): LinkModel()})

    def test_non_edge_send_rejected(self):
        topo = Topology(agents=[0, 1, 2], links={(0, 1): LinkModel()})
        sim = MeshSimulator(topo)
        with pytest.raises(TopologyError, match="no link"):
            sim.send(0, 2, b"x")


class TestFullMesh:
    """``full_mesh`` stores its links unchecked; it must equal the checked construction."""

    @pytest.mark.parametrize("agents", [[0], [4, 0, 2], range(7), [9, -3, 12, 5, 0]])
    def test_equals_the_checked_construction(self, agents):
        link = LinkModel(base_latency_ns=MS, jitter_stddev_ns=0.5 * MS)
        mesh = Topology.full_mesh(agents, link)
        ordered = sorted(agents)
        checked = Topology(list(agents), {(a, b): link for i, a in enumerate(ordered)
                                          for b in ordered[i + 1:]})
        assert mesh == checked
        assert list(mesh.links) == list(checked.links)
        assert [mesh.neighbors(a) for a in ordered] == [checked.neighbors(a) for a in ordered]
        assert mesh.link_plan() == checked.link_plan()
        assert list(mesh.link_plan().links.items()) == list(checked.link_plan().links.items())

    def test_a_repeated_agent_is_a_self_edge(self):
        with pytest.raises(TopologyError, match="self-edge on agent 1"):
            Topology.full_mesh([1, 1, 2])

    def test_assigning_links_on_a_full_mesh_is_checked(self):
        mesh = Topology.full_mesh(range(3))
        with pytest.raises(TopologyError, match="self-edge"):
            mesh.links = {(1, 1): LinkModel()}
        with pytest.raises(TopologyError, match="twice"):
            mesh.links = {(0, 1): LinkModel(), (1, 0): LinkModel()}
        mesh.links = {(2, 0): LinkModel(base_latency_ns=MS)}
        assert mesh.links == {(0, 2): LinkModel(base_latency_ns=MS)}
        assert [mesh.neighbors(a) for a in range(3)] == [[2], [], [0]]


class TestSendModel:
    def test_total_loss_always_drops(self):
        sim = two_node_sim(LinkModel(loss_prob=1.0))
        for _ in range(50):
            assert sim.send(0, 1, b"payload") is None
        assert sim.dropped == 50

    def test_delivery_time_formula(self):
        bandwidth = 1_000_000.0
        sim = two_node_sim(
            LinkModel(base_latency_ns=5 * MS),
            MediumModel(per_node_bandwidth_bps=bandwidth),
        )
        at = sim.send(0, 1, bytes(100))
        serialization_ns = 100 / bandwidth * 1e9
        assert at == int(5 * MS + serialization_ns)

    def test_shared_medium_divides_by_agents_with_a_link(self):
        # agent 2 has no link and can never transmit: 0 and 1 split 1000 B/s
        topo = Topology(agents=[0, 1, 2], links={(0, 1): LinkModel()})
        sim = MeshSimulator(topo, MediumModel(per_node_bandwidth_bps=1000.0,
                                              contention="shared_medium"))
        assert sim.send(0, 1, bytes(100)) == 200 * MS

    def test_seeded_run_replays_identical_trace(self):
        def trace():
            sim = two_node_sim(LinkModel(base_latency_ns=MS, jitter_stddev_ns=0.5 * MS,
                                         loss_prob=0.3), seed=77)
            return [sim.send(0, 1, bytes(64)) for _ in range(200)]

        assert trace() == trace()

    def test_per_link_fifo_no_reordering(self):
        sim = two_node_sim(LinkModel(base_latency_ns=5 * MS, jitter_stddev_ns=4 * MS), seed=3)
        deliveries = []
        sim.register(1, lambda data, now: deliveries.append(now))
        for k in range(300):
            sim.run_until(k * MS // 10)  # send every 0.1 ms; jitter would reorder
            sim.send(0, 1, bytes(16))
        sim.drain()
        assert deliveries == sorted(deliveries)

    def test_bandwidth_cap_in_sliding_windows(self):
        bandwidth = 2_000_000.0
        topo = Topology.full_mesh([0, 1])
        sim = MeshSimulator(topo, MediumModel(per_node_bandwidth_bps=bandwidth),
                            record_tx=True)
        for k in range(500):
            sim.run_until(k * MS // 5)
            sim.send(0, 1, bytes(1000))
        sim.drain()
        window = 100 * MS
        events = sim.tx_log
        for start_idx in range(0, len(events), 25):
            w0 = events[start_idx][1]
            in_window = [
                min(end, w0 + window) - max(start, w0)
                for _, start, end, _ in events
                if end > w0 and start < w0 + window
            ]
            # bytes transmitted inside the window, via busy time x rate
            busy_ns = sum(in_window)
            assert busy_ns * bandwidth / 1e9 <= bandwidth * (window / 1e9) * 1.001

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    @pytest.mark.parametrize("args, seed", [
        ((0,), 1786884285633530058),
        ((1, 2, 3), 13041116711478803063),
        ((7, 0, 1), 13172581561268758288),
        ((2**64 - 1, -1, 5), 4108309588686461564),
        ((123456789, 20, 19), 6652634222012181401),
    ])
    def test_derive_seed_values_are_pinned(self, args, seed):
        assert derive_seed(*args) == seed


LOSSY_JITTER = LinkModel(base_latency_ns=MS, jitter_stddev_ns=0.5 * MS, loss_prob=0.5)


def send_pattern(sim, sends):
    """``send`` return values for ``sends`` messages on each directed link of a 3-mesh."""
    out = []
    for _ in range(sends):
        for frm, to in itertools.permutations(range(3), 2):
            out.append(sim.send(frm, to, bytes(16)))
    return out


class TestSenderStreams:
    def test_each_sender_draws_from_its_derived_stream(self):
        # Empty payloads take no airtime and the clock stays at 0, so a send
        # returns the link delay, held back only by the link's FIFO clamp.
        seed, link = 9, LOSSY_JITTER
        sim = MeshSimulator(Topology.full_mesh(range(3), link), seed=seed)
        streams = {a: random.Random(derive_seed(seed, a)) for a in range(3)}
        last = {}
        for _ in range(50):
            for frm, to in itertools.permutations(range(3), 2):
                rng, want = streams[frm], None
                if rng.random() >= link.loss_prob:
                    delay = link.base_latency_ns + rng.gauss(0.0, link.jitter_stddev_ns)
                    want = last[frm, to] = max(round(delay) if delay > 0 else 0,
                                               last.get((frm, to), 0))
                assert sim.send(frm, to, b"") == want

    def test_a_links_draws_depend_only_on_its_senders_sends(self):
        topo = Topology.full_mesh(range(3), LOSSY_JITTER)
        alone, crowded = MeshSimulator(topo, seed=4), MeshSimulator(topo, seed=4)
        for k in range(100):
            for frm, to in ((1, 0), (2, 0), (1, 2), (2, 1)):
                crowded.send(frm, to, b"")
            to = 1 + k % 2
            assert crowded.send(0, to, b"") == alone.send(0, to, b"")

    def test_the_seed_picks_the_draws(self):
        topo = Topology.full_mesh(range(3), LOSSY_JITTER)
        seeded = send_pattern(MeshSimulator(topo, seed=4), 50)
        assert send_pattern(MeshSimulator(topo, seed=4), 50) == seeded
        assert send_pattern(MeshSimulator(topo, seed=5), 50) != seeded
        default = send_pattern(MeshSimulator(topo), 50)
        assert default == send_pattern(MeshSimulator(topo, seed=0), 50)

    def test_radio_state_and_fifo_clamp_stay_per_simulator(self):
        # Back-to-back sends queue on the radio, and 2 ms of jitter on a 1 ms
        # link makes the clamp hold deliveries back; a second simulator with
        # the same seed starts from an idle radio and empty links.
        topo = Topology.full_mesh(range(2), LinkModel(base_latency_ns=MS, jitter_stddev_ns=2 * MS))
        first = MeshSimulator(topo, seed=9)
        times = [first.send(0, 1, bytes(100)) for _ in range(20)]
        second = MeshSimulator(topo, seed=9)
        assert [second.send(0, 1, bytes(100)) for _ in range(20)] == times
        assert times == sorted(times) and times[0] < times[-1]


class TestLinkPlan:
    def test_the_plan_holds_each_directed_links_constants_and_indices(self):
        slow = LinkModel(base_latency_ns=3 * MS, jitter_stddev_ns=0.25 * MS, loss_prob=0.1)
        plan = Topology([5, 2, 9], {(9, 2): slow, (2, 5): LinkModel()}).link_plan()
        assert plan.senders == [2, 5, 9]
        constants = {key: (rec[:3], plan.senders[rec[4]]) for key, rec in plan.links.items()}
        assert constants == {(2, 5): ((0.0, 0.0, 0.0), 2), (5, 2): ((0.0, 0.0, 0.0), 5),
                             (2, 9): ((3e6, 0.25e6, 0.1), 2), (9, 2): ((3e6, 0.25e6, 0.1), 9)}
        assert sorted(rec[3] for rec in plan.links.values()) == [0, 1, 2, 3]
        assert all(type(latency) is float for latency, *_ in plan.links.values())

    def test_one_plan_per_topology_is_shared_by_its_simulators(self):
        topo = Topology.full_mesh(range(4), LOSSY_JITTER)
        first = MeshSimulator(topo, seed=2)
        plan = topo.link_plan()
        second = MeshSimulator(topo, seed=2)
        assert topo.link_plan() is plan
        assert send_pattern(first, 30) == send_pattern(second, 30)

    def test_simulators_over_one_plan_keep_their_own_streams_clamps_and_radios(self):
        # Interleaved sends over a shared plan give each simulator what it
        # gives alone: nothing a send changes lives in the plan.
        topo = Topology.full_mesh(range(3), LinkModel(base_latency_ns=MS, jitter_stddev_ns=2 * MS,
                                                      loss_prob=0.2))
        alone = [MeshSimulator(topo, seed=s) for s in (3, 4)]
        shared = [MeshSimulator(topo, seed=s) for s in (3, 4)]
        want = [[sim.send(0, 1 + k % 2, bytes(50)) for k in range(40)] for sim in alone]
        got = [[], []]
        for k in range(40):
            for out, sim in zip(got, shared):
                out.append(sim.send(0, 1 + k % 2, bytes(50)))
        assert got == want and want[0] != want[1]

    def test_assigning_new_links_gives_the_next_simulator_a_new_plan(self):
        topo = Topology.full_mesh(range(2), LinkModel(base_latency_ns=MS))
        plan = topo.link_plan()
        assert MeshSimulator(topo).send(0, 1, b"") == MS
        topo.links = {(0, 1): LinkModel(base_latency_ns=5 * MS)}
        assert topo.link_plan() is not plan
        assert MeshSimulator(topo).send(0, 1, b"") == 5 * MS

    def test_reassigned_links_are_checked_and_indexed_as_at_construction(self):
        topo = Topology([0, 1, 2], {(0, 1): LinkModel()})
        topo.links = {(2, 1): LinkModel(base_latency_ns=MS)}
        assert topo.links == {(1, 2): LinkModel(base_latency_ns=MS)}
        assert topo.neighbors(0) == [] and topo.neighbors(1) == [2]
        sim = MeshSimulator(topo)
        assert SimTransport(sim, 1).peers == [2]
        SimTransport(sim, 1).broadcast(b"")
        assert sim.sent == 1
        for bad, match in [({(1, 2): LinkModel(), (2, 1): LinkModel()}, "twice"),
                           ({(1, 1): LinkModel()}, "self-edge"),
                           ({(0, 7): LinkModel()}, "unknown")]:
            with pytest.raises(TopologyError, match=match):
                topo.links = bad
        assert topo.links == {(1, 2): LinkModel(base_latency_ns=MS)}

    def test_sparse_mesh_with_an_isolated_agent(self):
        topo = Topology(agents=[0, 1, 2, 3], links={(0, 1): LinkModel(), (1, 2): LinkModel()})
        assert topo.link_plan().senders == [0, 1, 2]
        sim = MeshSimulator(topo, MediumModel(per_node_bandwidth_bps=1000.0,
                                              contention="shared_medium"))
        got = []
        for a in topo.agents:
            sim.register(a, lambda data, now, _a=a: got.append((_a, now)))
        for t in [SimTransport(sim, a) for a in topo.agents]:
            t.broadcast(bytes(10))
        sim.drain()
        # 1000 B/s shared by 3 transmitters: 30 ms per 10-byte message, queued per radio
        assert sorted(got) == [(0, 30 * MS), (1, 30 * MS), (1, 30 * MS), (2, 60 * MS)]
        assert SimTransport(sim, 3).peers == []

    @pytest.mark.parametrize("frm, to", [(0, 2), (2, 0), (3, 0), (0, 3), (9, 0), (1, 1)])
    def test_send_over_a_non_link_raises_for_every_simulator(self, frm, to):
        topo = Topology(agents=[0, 1, 2, 3], links={(0, 1): LinkModel(), (1, 2): LinkModel()})
        for sim in (MeshSimulator(topo), MeshSimulator(topo, seed=1)):
            with pytest.raises(TopologyError, match="no link"):
                sim.send(frm, to, b"x")
            assert sim.sent == 0


class TestRaisingReceiver:
    def test_a_raising_callback_leaves_the_counters_whole_and_the_queue_in_order(self):
        # Lossy jittered links give drops and cross-link reordering; the
        # receive callback records each delivery, then raises on the ninth.
        sim = MeshSimulator(Topology.full_mesh(range(3), LOSSY_JITTER), seed=5)
        deliveries = []

        class Boom(Exception):
            pass

        def receiver(agent):
            def cb(data, now):
                deliveries.append((now, agent, data))
                if len(deliveries) == 9:
                    raise Boom
            return cb

        for a in range(3):
            sim.register(a, receiver(a))
        sends = []  # (delivery time, send index, receiver, data) of each scheduled send
        for rnd in range(8):
            for frm, to in itertools.permutations(range(3), 2):
                data = bytes([frm, to, rnd])
                t = sim.send(frm, to, data)
                if t is not None:
                    sends.append((t, len(sends), to, data))
        assert sim.dropped > 0 and len(sends) > 9
        with pytest.raises(Boom):
            sim.run_until(max(sends)[0])
        # The delivery that raised counts as delivered, and the clock stops at it.
        assert sim.delivered == len(deliveries) == 9
        assert sim.now_ns == deliveries[-1][0]
        in_flight = len(sends) - 9
        assert sim.sent == sim.delivered + sim.dropped + in_flight == 8 * 6
        sim.run_until(sim.now_ns + 100 * MS)
        assert sim.delivered == len(sends) and sim.sent == sim.delivered + sim.dropped
        assert deliveries == [(t, to, data) for t, _, to, data in sorted(sends)]


class HeapModel:
    """Reference for the simulator's event queue: its link arithmetic over one ``heapq``.

    Each scheduled delivery is pushed as (time, send index, receiver, bytes)
    and popped in that order. ``run_until`` and ``drain`` keep the
    simulator's contract: a delivery whose callback raises still counts,
    the clock stops at it, and ``drain`` runs until the queue is empty.
    """

    def __init__(self, topology, medium, seed):
        transmitters = {a for edge in topology.links for a in edge}
        self.bandwidth = medium.effective_bandwidth(len(transmitters))
        self.streams = {a: random.Random(derive_seed(seed, a)) for a in transmitters}
        self.links = {}
        for (a, b), link in topology.links.items():
            self.links[a, b] = self.links[b, a] = link
        self.last = {}  # directed link -> its latest delivery time
        self.tx_free = dict.fromkeys(topology.agents, 0)
        self.events = []
        self.receivers = {}
        self.now_ns = self.scheduled = self.dropped = self.delivered = 0

    @property
    def sent(self):
        return self.scheduled + self.dropped

    def register(self, agent, callback):
        self.receivers[agent] = callback

    def send(self, frm, to, data):
        link, rng = self.links[frm, to], self.streams[frm]
        tx_end = max(self.tx_free[frm], self.now_ns) + round(len(data) * 1e9 / self.bandwidth)
        self.tx_free[frm] = tx_end
        if link.loss_prob > 0 and rng.random() < link.loss_prob:
            self.dropped += 1
            return None
        delay = link.base_latency_ns
        if link.jitter_stddev_ns > 0:
            delay += rng.gauss(0.0, link.jitter_stddev_ns)
        t = max(tx_end + (round(delay) if delay > 0 else 0), self.last.get((frm, to), 0))
        self.last[frm, to] = t
        self.scheduled += 1
        heapq.heappush(self.events, (t, self.scheduled, to, data))
        return t

    def run_until(self, t_ns):
        while self.events and self.events[0][0] <= t_ns:
            when, _, to, data = heapq.heappop(self.events)
            self.now_ns = when
            self.delivered += 1
            callback = self.receivers.get(to)
            if callback is not None:
                callback(data, when)
        self.now_ns = max(self.now_ns, t_ns)

    def drain(self):
        while self.events:
            self.run_until(max(self.events)[0])


class Boom(Exception):
    pass


QUIET, RELAY, RAISE, NESTED = range(4)  # what a receiver does with a message
RELAY_HOPS = 2


def play(system, topo, schedule):
    """Run ``schedule`` on a simulator or a ``HeapModel``; returns everything it observed.

    A message's first byte names its receiver's action: relay it to every
    peer (up to ``RELAY_HOPS`` hops), raise, or run the clock on by the
    message's third byte times 0.1 ms from inside the callback.
    """
    log = []

    def receiver(agent):
        peers = topo.neighbors(agent)

        def cb(data, now):
            log.append((agent, now, data))
            action, hops, param = data[:3]
            if action == RELAY and hops < RELAY_HOPS:
                for b in peers:
                    relayed = bytes([action, hops + 1, param]) + data[3:]
                    log.append(("relay", agent, b, system.send(agent, b, relayed)))
            elif action == RAISE:
                raise Boom
            elif action == NESTED:
                system.run_until(now + param * MS // 10)

        return cb

    for a in topo.agents:
        system.register(a, receiver(a))
    edges = sorted(topo.links)
    for step in schedule + [("drain",)]:
        try:
            if step[0] == "send":
                _, edge, flip, action, param, size = step
                frm, to = edges[edge % len(edges)][::-1 if flip else 1]
                data = bytes([action, 0, param]) + bytes(size)
                log.append(("send", frm, to, system.send(frm, to, data)))
            elif step[0] == "run_until":
                system.run_until(system.now_ns + step[1])
            else:
                system.drain()
        except Boom:
            log.append("boom")
        log.append((system.now_ns, system.sent, system.delivered, system.dropped))
    while True:  # each raise delivers one message, so this ends
        try:
            system.drain()
            break
        except Boom:
            log.append("boom")
    log.append((system.now_ns, system.sent, system.delivered, system.dropped))
    return log


@st.composite
def queue_scenarios(draw):
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    link = st.builds(LinkModel, base_latency_ns=st.sampled_from([0, MS // 2, 2 * MS, 5 * MS]),
                     jitter_stddev_ns=st.sampled_from([0.0, 0.3 * MS, 2.0 * MS]),
                     loss_prob=st.sampled_from([0.0, 0.3]))
    topo = Topology(list(range(n)), {edge: draw(link) for edge in edges})
    medium = MediumModel(per_node_bandwidth_bps=draw(st.sampled_from([200_000.0, 6e6])),
                         contention=draw(st.sampled_from(["none", "shared_medium"])))
    step = st.one_of(
        st.tuples(st.just("send"), st.integers(0, 9), st.booleans(),
                  st.sampled_from([QUIET, QUIET, RELAY, RAISE, NESTED]), st.integers(0, 40),
                  st.integers(0, 64)),
        st.tuples(st.just("run_until"), st.integers(-MS, 8 * MS)),
        st.tuples(st.just("drain")),
    )
    schedule = draw(st.lists(step, max_size=40))
    return topo, medium, draw(st.integers(0, 2**16)), schedule


class TestEventQueue:
    @given(queue_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_simulator_matches_a_heap_model(self, scenario):
        topo, medium, seed, schedule = scenario
        want = play(HeapModel(topo, medium, seed), topo, schedule)
        assert play(MeshSimulator(topo, medium, seed=seed), topo, schedule) == want


class TestTiedDeliveries:
    def test_equal_times_deliver_in_send_order_across_sorts_and_callbacks(self):
        # Zero jitter and zero airtime: each delivery lands at its send time
        # plus its link's latency, so sends over links of different latency tie.
        links = {(0, 1): 2 * MS, (2, 1): MS, (3, 1): MS, (4, 5): MS // 2, (5, 1): MS // 2}
        topo = Topology(list(range(6)), {edge: LinkModel(base_latency_ns=latency)
                                         for edge, latency in links.items()})
        sim = MeshSimulator(topo, MediumModel(per_node_bandwidth_bps=1e15))
        got = []
        sim.register(1, lambda data, now: got.append((data, now)))
        sim.register(5, lambda data, now: sim.send(5, 1, b"from a callback"))
        assert sim.send(0, 1, b"left pending") == 2 * MS
        sim.run_until(MS)
        assert got == [] and sim.now_ns == MS
        assert sim.send(2, 1, b"sent after a horizon") == 2 * MS
        assert sim.send(3, 1, b"sent next") == 2 * MS
        sim.send(4, 5, b"")  # delivered at 1.5 ms; its receiver sends on to agent 1
        sim.drain()
        assert got == [(b"left pending", 2 * MS), (b"sent after a horizon", 2 * MS),
                       (b"sent next", 2 * MS), (b"from a callback", 2 * MS)]


# edge -> (loss_prob, jitter stddev in ns) over 10 ms links: every directed
# link has its own model, and the two links out of each agent differ.
STAT_LINKS = {(0, 1): (0.05, 0.5 * MS), (0, 2): (0.2, 1.5 * MS), (1, 2): (0.5, 1.0 * MS)}
STAT_ROUNDS = 1000


def link_samples():
    """Per directed link of ``STAT_LINKS``: (losses, delays in ns) over ``STAT_ROUNDS`` rounds.

    Each round every agent sends one empty message to each peer; rounds are
    50 ms apart, far beyond any delay, so the FIFO clamp never holds one back.
    """
    topo = Topology([0, 1, 2], {edge: LinkModel(base_latency_ns=10 * MS, jitter_stddev_ns=sd,
                                                loss_prob=p)
                                for edge, (p, sd) in STAT_LINKS.items()})
    sim = MeshSimulator(topo)
    samples = {(a, b): [0, []] for a in topo.agents for b in topo.neighbors(a)}
    for k in range(STAT_ROUNDS):
        sim.run_until(k * 50 * MS)
        for (a, b), sample in samples.items():
            t = sim.send(a, b, b"")
            if t is None:
                sample[0] += 1
            else:
                sample[1].append(t - sim.now_ns)
    return samples


class TestLinkStatistics:
    """Every directed link draws from its sender's stream, and still follows its own model."""

    def test_each_links_loss_share_lies_in_its_exact_binomial_interval(self):
        for (a, b), (losses, _) in link_samples().items():
            p, _ = STAT_LINKS[min(a, b), max(a, b)]
            lo, hi = binomial_central_interval(STAT_ROUNDS, p, 0.99)
            assert lo <= losses <= hi, f"{a}->{b}: {losses} lost, expected {lo}..{hi}"

    def test_each_links_jitter_mean_and_spread_match_its_model(self):
        z = statistics.NormalDist().inv_cdf(0.995)  # two-sided 99 %
        for (a, b), (_, delays) in link_samples().items():
            _, sd = STAT_LINKS[min(a, b), max(a, b)]
            n = len(delays)
            mean = statistics.fmean(delays)
            # The sample mean is N(latency, sd^2 / n); the sample variance over
            # sd^2 is chi-square(n - 1) / (n - 1), about N(1, 2 / (n - 1)).
            assert abs(mean - 10 * MS) <= z * sd / math.sqrt(n), f"{a}->{b}: mean {mean}"
            ratio = statistics.variance(delays) / sd**2
            assert abs(ratio - 1.0) <= z * math.sqrt(2 / (n - 1)), f"{a}->{b}: variance {ratio}"


DELIVERY_TRACE_SHA256 = "2bb47ee2047597a1bf360a780168277a910858b6c27fc37a014b791c709f85f4"


def delivery_trace_digest():
    """SHA-256 over every observable of a fixed send/run/drain schedule.

    Covers a 6-agent full mesh and a sparse 6-agent line, lossless links and
    lossy links with jitter, and both contention models. Each case records
    the ``send`` return values, the in-order (agent, time, bytes) deliveries,
    ``tx_log``, the sent/dropped/delivered counters and the final clock.
    """
    agents = list(range(6))
    lossless = LinkModel(base_latency_ns=MS)
    lossy = LinkModel(base_latency_ns=4 * MS, jitter_stddev_ns=0.6 * MS, loss_prob=0.3)
    digest = hashlib.sha256()
    for shape, (link, seed), contention in itertools.product(
        ("full_mesh", "line"), ((lossless, 0), (lossy, 7)), ("none", "shared_medium")
    ):
        if shape == "full_mesh":
            topo = Topology.full_mesh(agents, link)
        else:
            topo = Topology(agents, {(a, a + 1): link for a in agents[:-1]})
        sim = MeshSimulator(topo, MediumModel(per_node_bandwidth_bps=200_000.0,
                                              contention=contention), record_tx=True, seed=seed)
        deliveries = []
        for a in agents:
            sim.register(a, lambda data, now, _a=a: deliveries.append((_a, now, data)))
        returns = []
        for rnd in range(4):
            for a in agents:
                for b in topo.neighbors(a):
                    returns.append(sim.send(a, b, bytes([a, b, rnd]) * (8 + 5 * a + rnd)))
            if rnd % 2:
                sim.drain()
            else:
                sim.run_until(sim.now_ns + 2 * MS)
        sim.drain()
        digest.update(repr((shape, contention, returns, deliveries, sim.tx_log,
                            sim.sent, sim.dropped, sim.delivered, sim.now_ns)).encode())
    return digest.hexdigest()


HETEROGENEOUS_TRACE_SHA256 = "265f6ed710b271ce44ad75ce3004124856f5eeb2194a0b1b18f448223c62065a"


def heterogeneous_trace_digest():
    """SHA-256 over every observable of a 5-agent mesh whose edges differ.

    Ground robots 0-2 share lossless 2 ms links; aerial robots 3 and 4 reach
    ground robots over 9 ms links with 1.5 ms jitter and loss 0.2, so a
    simulator that attached one edge's model to another would change the
    trace. Every agent broadcasts 30 times under each contention model.
    """
    ground = {(0, 1): 2 * MS, (1, 2): 2 * MS}
    air = [(3, 0), (3, 2), (4, 1), (4, 2)]
    links = {edge: LinkModel(base_latency_ns=latency) for edge, latency in ground.items()}
    for edge in air:
        links[edge] = LinkModel(base_latency_ns=9 * MS, jitter_stddev_ns=1.5 * MS, loss_prob=0.2)
    digest = hashlib.sha256()
    for contention in ("none", "shared_medium"):
        topo = Topology(list(range(5)), dict(links))
        sim = MeshSimulator(topo, MediumModel(per_node_bandwidth_bps=500_000.0,
                                              contention=contention), record_tx=True)
        deliveries = []
        transports = [SimTransport(sim, a) for a in topo.agents]
        for t in transports:
            t.on_receive(lambda data, now, _a=t.agent_id: deliveries.append((_a, now, data)))
        for rnd in range(30):
            for t in transports:
                t.broadcast(bytes([t.agent_id, rnd]) * (6 + 3 * t.agent_id))
            sim.run_until(sim.now_ns + 3 * MS)
        sim.drain()
        digest.update(repr((contention, deliveries, sim.tx_log, sim.sent, sim.dropped,
                            sim.delivered, sim.now_ns)).encode())
    return digest.hexdigest()


class TestDeliveryTrace:
    def test_delivery_trace_is_pinned(self):
        assert delivery_trace_digest() == DELIVERY_TRACE_SHA256

    def test_heterogeneous_link_trace_is_pinned(self):
        assert heterogeneous_trace_digest() == HETEROGENEOUS_TRACE_SHA256

    def test_heterogeneous_pin_fails_when_every_edge_gets_the_first_edges_model(self, monkeypatch):
        init = MeshSimulator.__init__

        def first_model_everywhere(sim, topology, *args, **kwargs):
            first = next(iter(topology.links.values()))
            topology.links = dict.fromkeys(topology.links, first)
            init(sim, topology, *args, **kwargs)

        monkeypatch.setattr(MeshSimulator, "__init__", first_model_everywhere)
        assert heterogeneous_trace_digest() != HETEROGENEOUS_TRACE_SHA256


class TestLinkQuality:
    def test_configured_values_are_recovered(self):
        # simulator self-consistency: latency/jitter/loss configured from a
        # mesh-radio measurement row come back within 10%
        link = LinkModel(base_latency_ns=int(4.8 * MS), jitter_stddev_ns=0.6 * MS,
                         loss_prob=0.003)
        sim = two_node_sim(link, seed=5)
        q = measure_link_quality(sim, 0, 1, payload_bytes=128, rate_hz=200, duration_s=25)
        assert abs(q.latency_mean_ns - 4.8 * MS) / (4.8 * MS) < 0.10
        assert abs(q.jitter_ns - 0.6 * MS) / (0.6 * MS) < 0.10
        assert abs(q.loss_pct - 0.3) <= binomial_three_sigma_pct(0.003, 5000)

    def test_lossless_link_throughput_matches_offered_rate(self):
        sim = two_node_sim(LinkModel())
        q = measure_link_quality(sim, 0, 1, payload_bytes=64, rate_hz=200, duration_s=1)
        assert abs(q.throughput_msgs_per_s - 200.0) <= 1.0
        assert q.loss_pct == 0.0

    def test_heavy_loss_converges_to_configured_probability(self):
        sim = two_node_sim(LinkModel(loss_prob=0.5), seed=9)
        q = measure_link_quality(sim, 0, 1, payload_bytes=64, rate_hz=500, duration_s=20)
        assert abs(q.loss_pct - 50.0) <= binomial_three_sigma_pct(0.5, 10_000)

    def test_too_few_probes_rejected(self):
        sim = two_node_sim()
        with pytest.raises(MeasurementError, match="100"):
            measure_link_quality(sim, 0, 1, payload_bytes=64, rate_hz=10, duration_s=1)

    def test_zero_deliveries_is_a_measurement_error(self):
        sim = two_node_sim(LinkModel(loss_prob=1.0))
        with pytest.raises(MeasurementError, match="no probes"):
            measure_link_quality(sim, 0, 1, payload_bytes=64, rate_hz=200, duration_s=1)


class TestScalabilitySweep:
    def test_uncontended_small_teams_sustain_offered_rate(self):
        rows = scalability_sweep([3, 5], duration_s=0.3)
        for row in rows:
            assert abs(row.delivered_mean - 200.0) <= 2.0
            assert row.oracle_value == 200.0

    def test_shared_medium_matches_closed_form_oracle(self):
        medium = MediumModel(contention="shared_medium")
        rows = scalability_sweep([4, 12], medium=medium, duration_s=0.4)
        for row in rows:
            assert row.delivered_mean == pytest.approx(row.oracle_value, rel=0.02)

    def test_shared_medium_throughput_monotone_non_increasing(self):
        medium = MediumModel(contention="shared_medium")
        rows = scalability_sweep([4, 8, 16], medium=medium, duration_s=0.3)
        rates = [r.delivered_mean for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_lossy_sweep_matches_the_loss_scaled_oracle(self):
        [row] = scalability_sweep([4], duration_s=2.0, link=LinkModel(loss_prob=0.5), seed=3)
        assert row.oracle_value == 100.0
        assert row.delivered_mean == pytest.approx(row.oracle_value, rel=0.10)

    def test_link_latency_shifts_the_window_instead_of_hiding_traffic(self):
        def delivered_mean(latency_ns):
            [row] = scalability_sweep([4], duration_s=0.2,
                                      link=LinkModel(base_latency_ns=latency_ns))
            return row.delivered_mean

        assert delivered_mean(200 * MS) == delivered_mean(0) > 0

    def test_closed_form_oracle_shape(self):
        medium = MediumModel(contention="shared_medium")
        wire = 128 + medium.envelope_overhead_bytes
        value = closed_form_link_throughput(30, 128, 200.0, medium)
        assert value == pytest.approx(medium.per_node_bandwidth_bps / 30 / (29 * wire))


class TestMediumModel:
    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match="per_node_bandwidth"):
            MediumModel(per_node_bandwidth_bps=0)

    def test_tiny_bandwidth_rejected_before_any_send(self):
        # At 1e-300 B/s the airtime round() in send would overflow to infinity.
        with pytest.raises(ConfigError, match="65536 B datagram's airtime") as err:
            MediumModel(per_node_bandwidth_bps=1e-300)
        assert err.value.path == "network.per_node_bandwidth"
        slowest = MediumModel(per_node_bandwidth_bps=65_536 * 1e9 / 2**63 * (1 + 1e-9))
        sim = MeshSimulator(Topology.full_mesh([0, 1]), slowest)
        got = []
        sim.register(1, lambda data, now: got.append(now))
        assert sim.send(0, 1, b"x" * 65_536) < 2**63
        sim.drain()
        assert len(got) == 1

    def test_loss_prob_range_checked(self):
        with pytest.raises(ConfigError, match="loss_prob"):
            LinkModel(loss_prob=1.5)

    @pytest.mark.parametrize("kwargs,field", [
        ({"base_latency_ns": -1}, "network.base_latency_ms"),
        ({"base_latency_ns": math.inf}, "network.base_latency_ms"),
        ({"jitter_stddev_ns": -1}, "network.jitter_ms"),
        ({"jitter_stddev_ns": math.inf}, "network.jitter_ms"),
        ({"jitter_stddev_ns": math.nan}, "network.jitter_ms"),
    ])
    def test_bad_delay_names_its_own_field(self, kwargs, field):
        with pytest.raises(ConfigError) as info:
            LinkModel(**kwargs)
        assert info.value.path == field


class TestSimTransport:
    def test_broadcast_surface_shared_with_loopback(self):
        # both transports expose agent_id, peers, broadcast(data) and on_receive(cb)
        sim = two_node_sim(LinkModel(base_latency_ns=MS))
        t0, t1 = SimTransport(sim, 0), SimTransport(sim, 1)
        buf = NeighborBuffer([0], staleness_ns=10**12)
        t1.on_receive(lambda data, now: buf.insert_bytes(data, now))
        env = MessageEnvelope(0, 1, timestamp_ns=0, round=0,
                              payload=np.array([7.0], dtype=np.float32))
        t0.broadcast(encode_envelope(env))
        sim.drain()
        [(nid, payload, _)] = buf.snapshot(sim.now_ns)
        assert (nid, payload[0]) == (0, 7.0)

    def test_broadcast_reaches_all_neighbors(self):
        topo = Topology.full_mesh([0, 1, 2])
        sim = MeshSimulator(topo)
        hits = []
        sim.register(1, lambda data, now: hits.append(1))
        sim.register(2, lambda data, now: hits.append(2))
        SimTransport(sim, 0).broadcast(b"hello")
        sim.drain()
        assert sorted(hits) == [1, 2]


class TestLoopbackTransport:
    def test_datagram_round_trip_into_buffer(self):
        received = []
        base_port = 47310
        buf = NeighborBuffer([0], staleness_ns=10**12)
        with LoopbackTransport(0, [1], base_port=base_port) as t0, \
             LoopbackTransport(1, [0], base_port=base_port) as t1:
            t1.on_receive(lambda data, now: received.append(buf.insert_bytes(data, now)))
            env = MessageEnvelope(0, 1, timestamp_ns=time.monotonic_ns(), round=0,
                                  payload=np.array([1.5, 2.5], dtype=np.float32))
            t0.broadcast(encode_envelope(env))
            deadline = time.monotonic() + 5.0
            while not received and time.monotonic() < deadline:
                time.sleep(0.01)
        assert received == [True]
        [(nid, payload, _)] = buf.snapshot(time.monotonic_ns())
        assert nid == 0
        assert np.array_equal(payload, np.array([1.5, 2.5], dtype=np.float32))

    def test_malformed_datagram_is_counted_and_receiving_goes_on(self):
        base_port = 47380
        buf = NeighborBuffer([0], staleness_ns=10**12)
        with LoopbackTransport(0, [1], base_port=base_port) as t0, \
             LoopbackTransport(1, [0], base_port=base_port) as t1:
            t1.on_receive(buf.insert_bytes)
            t0.broadcast(b"junk")
            env = MessageEnvelope(0, 1, timestamp_ns=time.monotonic_ns(), round=0,
                                  payload=np.array([3.5], dtype=np.float32))
            t0.broadcast(encode_envelope(env))
            deadline = time.monotonic() + 5.0
            while not buf.snapshot(time.monotonic_ns()) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert t1._thread.is_alive()
            [(nid, payload, _)] = buf.snapshot(time.monotonic_ns())
            assert t1.rejected == 1
        assert nid == 0
        assert np.array_equal(payload, np.array([3.5], dtype=np.float32))
