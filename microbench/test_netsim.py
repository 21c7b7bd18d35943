"""Microbenchmark of the mesh simulator: one broadcast round, and building one.

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

Building a simulator over a full mesh with jitter, at 20, 100 and 300
robots, is what every assignment test and control run pays: one link
record per directed link and one seeded RNG stream per robot. Compare two
checkouts on one host in alternating runs: on a shared 2-core host,
medians of the same code drifted by up to 25 % between runs.
"""

import pytest

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


@pytest.mark.parametrize("robots", [20, 100, 300])
def test_build_full_mesh_simulator(benchmark, robots):
    topo = Topology.full_mesh(range(robots), LINK)
    sim = benchmark(MeshSimulator, topo, seed=SEED)
    assert len(sim._links) == robots * (robots - 1)
