"""Microbenchmark of the mesh simulator: one broadcast round, and building one.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_netsim.py -q --benchmark-columns=median,iqr,rounds

One round is what a navigation step does on the wire: every robot sends
one 16-float envelope to each of its 9 peers (90 ``send`` calls over
jittered links), then ``run_until`` delivers them all into no-op
receivers.

Building a simulator over a full mesh with jitter, at 20 and 100 robots,
is measured twice: seeding fresh link streams, as a lone simulator does,
and over streams passed in, as every test of a CLI run after the first
does. Compare two checkouts on one host in alternating runs: on a shared
2-core host, medians of the same code drifted by up to 25 % between runs.
"""

import pytest

from neuromesh.netsim import LinkModel, MeshSimulator, Topology, link_streams
from neuromesh.wire import header_size

ROBOTS = 10
TICK_NS = 50_000_000
BLOB = bytes(header_size(1) + 4 * 16)
LINK = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0, seed=11)


def test_ten_robot_broadcast_round(benchmark):
    sim = MeshSimulator(Topology.full_mesh(range(ROBOTS), LINK))
    for a in range(ROBOTS):
        sim.register(a, lambda data, now_ns: None)
    peers = {a: [b for b in range(ROBOTS) if b != a] for a in range(ROBOTS)}

    def one_round():
        for a in range(ROBOTS):
            for b in peers[a]:
                sim.send(a, b, BLOB)
        sim.run_until(sim.now_ns + TICK_NS)

    benchmark(one_round)
    assert sim.delivered == sim.sent and sim.sent % 90 == 0


@pytest.mark.parametrize("streams", ["fresh", "passed"])
@pytest.mark.parametrize("robots", [20, 100])
def test_build_full_mesh_simulator(benchmark, robots, streams):
    topo = Topology.full_mesh(range(robots), LINK)
    shared = link_streams(topo) if streams == "passed" else None
    sim = benchmark(MeshSimulator, topo, streams=shared)
    assert len(sim._links) == robots * (robots - 1)
