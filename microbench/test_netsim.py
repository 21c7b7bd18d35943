"""Microbenchmark of the mesh simulator: one broadcast round, one exchange step
through a team's buffers, a drained burst, relays sent from receive
callbacks, and building a simulator.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_netsim.py -q --benchmark-columns=median,iqr,rounds

One round is what a navigation step does on the wire: every robot sends
one 16-float envelope to each of its 9 peers (90 ``send`` calls over
jittered links), then ``run_until`` delivers them all into no-op
receivers. The sized rounds send payloads from 128 B to 64 KB, the range
of the paper's perception features, and drain the simulator after each
round, since a 64 KB round takes longer than one control tick of airtime.

One exchange step is the whole message path of a navigation step: a
ten-robot team from ``build_sim_team`` publishes its features, one 50 ms
tick delivers them (decode and insert into the real buffers), and every
robot awaits its neighborhood (snapshot and resolve), in best-effort and in
blocking mode.

A burst is what an assignment test puts on the wire: every robot of a full
mesh sends one envelope to each peer, and ``drain`` then delivers all 380
(n = 20) or 9,900 (n = 100) of them. The relay case adds receive callbacks
that send: 40 robots put 1,560 deliveries in flight, and each delivery's
receiver forwards it to the next robot until 20,000 relays have gone out,
so a queue that re-sorted its pending deliveries per callback send would
show here.

Building a simulator over a full mesh with jitter, at 20, 100 and 300
robots, is what every assignment test and control run pays: one seeded RNG
stream per robot, a FIFO-clamp slot per directed link and a radio per robot.
Building the full-mesh topology itself, at the same sizes, is what each
``neuromesh run`` of the assignment and control tasks pays once.
The first simulator over a topology also builds its link plan, one record
per directed link; its case builds a new topology, untimed, before each
round, so that every timed build makes a new plan. Compare two
checkouts on one host in alternating runs: on a shared 2-core host,
medians of the same code drifted by up to 25 % between runs.
"""

import itertools

import numpy as np
import pytest

from neuromesh.aggregation import (
    SIM_POLL_NS,
    AggregationConfig,
    await_neighborhood,
    build_sim_team,
    publish_features,
)
from neuromesh.netsim import LinkModel, MeshSimulator, Topology
from neuromesh.wire import header_size

ROBOTS = 10
TICK_NS = 50_000_000
BLOB = bytes(header_size(1) + 4 * 16)
LINK = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0)
SEED = 11
PAYLOAD_BYTES = [128, 1024, 8192, 65536]


def ten_robot_mesh():
    sim = MeshSimulator(Topology.full_mesh(range(ROBOTS), LINK), seed=SEED)
    for a in range(ROBOTS):
        sim.register(a, lambda data, now_ns: None)
    peers = {a: [b for b in range(ROBOTS) if b != a] for a in range(ROBOTS)}
    return sim, peers


def test_ten_robot_broadcast_round(benchmark):
    sim, peers = ten_robot_mesh()

    def one_round():
        for a in range(ROBOTS):
            for b in peers[a]:
                sim.send(a, b, BLOB)
        sim.run_until(sim.now_ns + TICK_NS)

    benchmark(one_round)
    assert sim.delivered == sim.sent and sim.sent % 90 == 0


@pytest.mark.parametrize("payload_bytes", PAYLOAD_BYTES)
def test_ten_robot_broadcast_round_payload_size(benchmark, payload_bytes):
    sim, peers = ten_robot_mesh()
    blob = bytes(header_size(1) + payload_bytes)

    def one_round():
        for a in range(ROBOTS):
            for b in peers[a]:
                sim.send(a, b, blob)
        sim.drain()

    benchmark(one_round)
    assert sim.delivered == sim.sent and sim.sent % 90 == 0


@pytest.mark.parametrize("mode", ["best_effort", "blocking"])
def test_ten_robot_exchange_step(benchmark, mode):
    sim, team = build_sim_team(Topology.full_mesh(range(ROBOTS), LINK), seed=SEED)
    config = AggregationConfig(mode=mode)
    features = {a: np.full(16, a, dtype=np.float32) for a in range(ROBOTS)}
    seqs = itertools.count(1)

    def advance():
        sim.run_for(SIM_POLL_NS)

    def one_step():
        seq = next(seqs)
        publish_features(team, features, seq, sim.now_ns, seq % 256)
        sim.run_for(TICK_NS)
        return [await_neighborhood(config, team[a][1], lambda: sim.now_ns, advance,
                                   round_index=seq % 256) for a in range(ROBOTS)]

    views = benchmark(one_step)
    assert [len(view) for view in views] == [ROBOTS - 1] * ROBOTS
    assert sim.delivered == sim.sent and sim.sent % 90 == 0


@pytest.mark.parametrize("robots", [20, 100])
def test_full_mesh_burst_drained(benchmark, robots):
    sim = MeshSimulator(Topology.full_mesh(range(robots), LINK), seed=SEED)
    for a in range(robots):
        sim.register(a, lambda data, now_ns: None)

    def one_burst():
        for a in range(robots):
            for b in range(robots):
                if a != b:
                    sim.send(a, b, BLOB)
        sim.drain()

    benchmark(one_burst)
    assert sim.delivered == sim.sent and sim.sent % (robots * (robots - 1)) == 0


RELAY_ROBOTS = 40
RELAYS = 20_000


def test_relays_from_receive_callbacks(benchmark):
    sim = MeshSimulator(Topology.full_mesh(range(RELAY_ROBOTS), LINK), seed=SEED)
    budget = [0]

    def forward_to_next(a):
        nxt = (a + 1) % RELAY_ROBOTS

        def cb(data, now_ns):
            if budget[0]:
                budget[0] -= 1
                sim.send(a, nxt, data)

        return cb

    for a in range(RELAY_ROBOTS):
        sim.register(a, forward_to_next(a))

    def one_burst():
        budget[0] = RELAYS
        for a in range(RELAY_ROBOTS):
            for b in range(RELAY_ROBOTS):
                if a != b:
                    sim.send(a, b, BLOB)
        sim.drain()

    benchmark(one_burst)
    per_burst = RELAY_ROBOTS * (RELAY_ROBOTS - 1) + RELAYS
    assert sim.delivered == sim.sent and sim.sent % per_burst == 0


@pytest.mark.parametrize("robots", [20, 100, 300])
def test_build_full_mesh_topology(benchmark, robots):
    topo = benchmark(Topology.full_mesh, range(robots), LINK)
    assert len(topo.links) == robots * (robots - 1) // 2
    assert topo.neighbors(robots - 1) == list(range(robots - 1))


@pytest.mark.parametrize("robots", [20, 100, 300])
def test_build_full_mesh_simulator(benchmark, robots):
    topo = Topology.full_mesh(range(robots), LINK)
    MeshSimulator(topo, seed=SEED)  # the first simulator builds the topology's link plan
    sim = benchmark(MeshSimulator, topo, seed=SEED)
    assert_full_mesh(sim, topo, robots)


@pytest.mark.parametrize("robots", [20, 100, 300])
def test_build_first_simulator_of_a_topology(benchmark, robots):
    def new_topology():
        return (Topology.full_mesh(range(robots), LINK),), {"seed": SEED}

    sim = benchmark.pedantic(MeshSimulator, setup=new_topology, rounds=10)
    assert_full_mesh(sim, sim.topology, robots)


def assert_full_mesh(sim, topo, robots):
    assert len(topo.link_plan().links) == robots * (robots - 1)
    assert sim.send(robots - 1, 0, BLOB) is not None and sim.sent == 1
