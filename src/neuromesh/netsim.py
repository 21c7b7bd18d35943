"""Deterministic mesh-network simulation plus a loopback datagram transport.

The simulator is a single-threaded discrete-event loop over a virtual
clock. Every random draw (loss, jitter) comes from the sender's stream:
``MeshSimulator(..., seed=s)`` seeds agent a's ``random.Random`` from
``derive_seed(s, a)``, and every directed link (a, b) draws from it. A
link's draws therefore depend only on its sender's own sends, and
identical topologies, schedules and seeds replay identical delivery traces
bit for bit. A run seeds one simulator per unit (an assignment test or a
control run) from ``derive_seed(network seed, unit)``, so its units draw
independent losses and each one replays alone.

Link model per message:

    delivery = tx_start + bytes / effective_bandwidth + max(0, latency + jitter)

where tx_start serializes messages through the sender's outbound radio
(at most one in flight per node, rate capped at the node bandwidth) and
jitter is a zero-mean Gaussian sample; the total link delay is floored at
zero. Deliveries on one directed link never reorder (FIFO clamp); across
links they may. Under ``shared_medium`` contention every node's effective
bandwidth is the per-node limit divided by the number of agents that have
at least one link (an agent with no link can never transmit).

Both transports expose ``agent_id``, ``peers`` (ascending), ``broadcast``
(one message per peer, in ascending id) and ``on_receive(cb)``. The loopback
transport sends UDP datagrams on 127.0.0.1 (port = base_port + agent_id) and
runs on wall-clock time, so it is excluded from exact-value assertions. It
imports ``socket`` when one is constructed, so a simulated run never loads
the socket stack.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import operator
import random
import struct
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ConfigError, MeasurementError, NeuromeshError, TopologyError
from .wire import header_size

_heappush = heapq.heappush
_when = operator.itemgetter(0)  # a queued delivery's time
_TWO_PI, _sqrt, _log, _cos, _sin = 2.0 * math.pi, math.sqrt, math.log, math.cos, math.sin

DEFAULT_BANDWIDTH_BPS = 6_000_000
DEFAULT_BASE_PORT = 47000
MAX_DATAGRAM_BYTES = 65_536  # the largest datagram LoopbackTransport receives
ENVELOPE_OVERHEAD_BYTES = header_size(1)  # the wire header of a 1-D payload


def derive_seed(base: int, *parts: int) -> int:
    """Stable 64-bit seed derivation (platform- and run-independent)."""
    buf = struct.pack("<Q" + "q" * len(parts), base & (2**64 - 1), *parts)
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class LinkModel:
    base_latency_ns: int = 0
    jitter_stddev_ns: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError("network.loss_prob", f"{self.loss_prob} outside [0, 1]")
        if not 0 <= self.base_latency_ns < math.inf:
            raise ConfigError("network.base_latency_ms", "latency must be finite and >= 0")
        if not 0 <= self.jitter_stddev_ns < math.inf:
            raise ConfigError("network.jitter_ms", "jitter must be finite and >= 0")


@dataclass
class MediumModel:
    """A node's radio: ``per_node_bandwidth_bps`` of airtime, split evenly
    among the transmitters under ``shared_medium`` contention. The simulator
    charges each datagram its full length; the closed-form throughput and
    the scalability sweep add ``ENVELOPE_OVERHEAD_BYTES`` to a raw payload."""

    per_node_bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    contention: str = "none"  # none | shared_medium

    def __post_init__(self):
        if self.per_node_bandwidth_bps <= 0:
            raise ConfigError("network.per_node_bandwidth", "must be positive")
        if MAX_DATAGRAM_BYTES * 1e9 / self.per_node_bandwidth_bps >= 2**63:
            raise ConfigError("network.per_node_bandwidth", f"a {MAX_DATAGRAM_BYTES} B datagram's "
                              f"airtime must be below 2**63 ns, got {self.per_node_bandwidth_bps} B/s")
        if self.contention not in ("none", "shared_medium"):
            raise ConfigError("network.contention", f"unknown contention {self.contention!r}")

    def effective_bandwidth(self, transmitters: int) -> float:
        if self.contention == "shared_medium" and transmitters > 1:
            return self.per_node_bandwidth_bps / transmitters
        return self.per_node_bandwidth_bps


def _distinct(agents) -> list[int]:
    """``agents`` as ascending ints; a repeated agent raises TopologyError."""
    agents = sorted(int(a) for a in agents)
    for a, b in zip(agents, agents[1:]):
        if a == b:
            raise TopologyError(f"agent {a} is listed twice")
    return agents


@dataclass(frozen=True)
class Topology:
    """Undirected adjacency with a link model per edge, fixed once built.

    ``agents`` is an ascending tuple. ``links`` is a read-only view of the
    edges, each keyed (lo, hi) once. ``directed``, also read-only, holds both
    directions of every edge: (frm, to) maps to (latency ns as a float, as
    the delay sums it, jitter sd ns, loss probability, link index, sender
    index). ``senders`` is the ascending tuple of agents with at least one
    link: sender index k is ``senders[k]``. Every simulator over a topology
    reads these, and keeps its own FIFO-clamp slot per link index and radio
    and RNG stream per sender index. Assigning any attribute raises
    ``dataclasses.FrozenInstanceError``; a copy or an unpickled topology is
    built again through the checked constructor.
    """

    agents: tuple[int, ...]
    links: Mapping = field(default_factory=dict)  # (lo, hi) -> LinkModel
    directed: Mapping = field(init=False, repr=False, compare=False)
    senders: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _adjacency: dict = field(init=False, repr=False, compare=False)

    @staticmethod
    def full_mesh(agents, link: LinkModel | None = None) -> "Topology":
        """Every pair of ``agents`` linked by ``link``, built without the edge checks.

        Its edges are already normal (ascending keys, each edge once), so only
        a repeated agent is checked.
        """
        agents = _distinct(agents)
        topo = Topology.__new__(Topology)
        topo._build(agents, dict.fromkeys(itertools.combinations(agents, 2), link or LinkModel()),
                    {a: agents[:i] + agents[i + 1 :] for i, a in enumerate(agents)})
        return topo

    def __post_init__(self):
        agents = _distinct(self.agents)
        known = set(agents)
        links = {}
        for (a, b), link in self.links.items():
            if a == b:
                raise TopologyError(f"self-edge on agent {a}")
            if a not in known or b not in known:
                raise TopologyError(f"edge ({a}, {b}) references unknown agents")
            key = (min(a, b), max(a, b))
            if key in links:
                raise TopologyError(f"edge {key} listed twice")
            links[key] = link
        adjacency = {a: [] for a in agents}
        for a, b in links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._build(agents, links, {a: sorted(peers) for a, peers in adjacency.items()})

    def _build(self, agents: list[int], links: dict, adjacency: dict) -> None:
        """Store normalized ``links``, their ascending adjacency and their directed links."""
        senders = tuple(sorted(set().union(*links)))
        sender_index = {a: k for k, a in enumerate(senders)}
        directed = {}
        for k, ((a, b), link) in enumerate(links.items()):
            constants = float(link.base_latency_ns), link.jitter_stddev_ns, link.loss_prob
            directed[a, b] = (*constants, 2 * k, sender_index[a])
            directed[b, a] = (*constants, 2 * k + 1, sender_index[b])
        for name, value in (("agents", tuple(agents)), ("links", MappingProxyType(links)),
                            ("directed", MappingProxyType(directed)), ("senders", senders),
                            ("_adjacency", adjacency)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return Topology, (self.agents, dict(self.links))

    def neighbors(self, a: int) -> list[int]:
        """Peers of ``a`` in ascending id, as a fresh list the caller may mutate."""
        return list(self._adjacency.get(a, ()))


class MeshSimulator:
    """Event-driven mesh with bandwidth, latency, jitter, and loss.

    Receive callbacks are ``cb(data: bytes, now_ns: int)``; they run on the
    simulator loop when the virtual clock reaches the delivery time.
    Sender a draws loss and jitter from ``random.Random(derive_seed(seed, a))``
    on every link it sends over; the streams, the FIFO clamp and the radios'
    busy times all belong to this simulator, while the link constants come
    from the topology's ``directed`` table, shared by every simulator over it.
    The jitter is ``random.gauss``'s Box-Muller step, done in place.

    Deliveries run in (time, send order). A send made outside ``run_until``
    appends to a list in send order. The next ``run_until`` puts those sends,
    reversed, ahead of the pending deliveries left over, which are already
    latest first, and sorts the list once by time alone: the sort is stable,
    so equal times stay latest sent first. It then pops from the end. A send
    made from a receive callback, while the loop runs, is pushed onto a
    min-heap instead, and the loop takes whichever of the list's tail and the
    heap's head is first.
    """

    def __init__(self, topology: Topology, medium: MediumModel | None = None,
                 record_tx: bool = False, seed: int = 0):
        self.topology = topology
        self.medium = medium or MediumModel()
        self._links = topology.directed
        self._bandwidth = self.medium.effective_bandwidth(len(topology.senders))
        self._now = 0
        self._pending: list = []  # (time, send index, to, data), latest first
        self._sends: list = []  # sends made outside the loop since the last sort, in send order
        self._heap: list = []  # sends made while the loop runs
        self._running = 0  # run_until calls in progress, nested ones included
        self._counter = 0
        self._streams = [random.Random(derive_seed(seed, a)) for a in topology.senders]
        self._tx_free = [0] * len(topology.senders)  # per sender index
        self._clamp = [0] * len(topology.directed)  # last delivery time per link index
        self._airtime: dict[int, int] = {}  # payload bytes -> serialization ns
        self._receivers: dict = {}
        self.dropped = 0
        self.delivered = 0
        self.tx_log = [] if record_tx else None

    @property
    def now_ns(self) -> int:
        return self._now

    @property
    def sent(self) -> int:
        """Messages sent so far: every scheduled delivery plus every drop."""
        return self._counter + self.dropped

    def register(self, agent_id: int, callback) -> None:
        if agent_id not in self.topology._adjacency:
            raise TopologyError(f"agent {agent_id} not in topology")
        self._receivers[agent_id] = callback

    def send(self, frm: int, to: int, data: bytes):
        """Schedule a delivery; returns the delivery time or None if lost.

        Transmission always consumes the sender's airtime; the Bernoulli
        loss draw then decides whether the receiver ever sees the message.
        """
        link = self._links.get((frm, to))
        if link is None:
            raise TopologyError(f"no link between {frm} and {to}")
        latency, jitter_sd, loss_prob, index, sender = link
        tx_free = self._tx_free
        tx_start = tx_free[sender]
        if tx_start < self._now:
            tx_start = self._now
        size = len(data)
        tx_ns = self._airtime.get(size)
        if tx_ns is None:  # the bandwidth is fixed, so airtime depends on the size alone
            tx_ns = self._airtime[size] = round(size * 1e9 / self._bandwidth)
        tx_end = tx_start + tx_ns
        tx_free[sender] = tx_end
        if self.tx_log is not None:
            self.tx_log.append((frm, tx_start, tx_end, size))
        if loss_prob > 0 and self._streams[sender].random() < loss_prob:
            self.dropped += 1
            return None
        delay = latency
        if jitter_sd > 0:  # rng.gauss(0.0, jitter_sd): same draws, same spare
            rng = self._streams[sender]
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng.random() * _TWO_PI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            delay = latency + z * jitter_sd
        t = tx_end + (round(delay) if delay > 0.0 else 0)
        clamp = self._clamp
        if t < clamp[index]:  # FIFO per directed link
            t = clamp[index]
        clamp[index] = t
        count = self._counter + 1
        self._counter = count
        if self._running:
            _heappush(self._heap, (t, count, to, data))
        else:
            self._sends.append((t, count, to, data))
        return t

    def run_until(self, t_ns: int) -> None:
        pending, heap, receivers, pop = self._pending, self._heap, self._receivers, heapq.heappop
        sends = self._sends
        if sends:
            sends.reverse()
            pending[:0] = sends
            sends.clear()
            pending.sort(key=_when, reverse=True)
        self._running += 1
        delivered = 0
        try:
            while True:
                if heap and not (pending and pending[-1] < heap[0]):
                    when, _, to, payload = heap[0]
                    if when > t_ns:
                        break
                    pop(heap)
                elif pending:
                    when, _, to, payload = pending[-1]
                    if when > t_ns:
                        break
                    pending.pop()
                else:
                    break
                self._now = when
                delivered += 1  # a delivery whose callback raises still counts
                cb = receivers.get(to)
                if cb is not None:
                    cb(payload, when)
        finally:
            self._running -= 1
            self.delivered += delivered
        if self._now < t_ns:
            self._now = int(t_ns)

    def run_for(self, dt_ns: int) -> None:
        self.run_until(self._now + int(dt_ns))

    def drain(self) -> None:
        """Deliver everything still in flight: one ``run_until`` per batch of pending events."""
        queues = self._pending, self._sends, self._heap
        while any(queues):
            self.run_until(max(max(q, key=_when)[0] for q in queues if q))


@dataclass
class LinkQuality:
    latency_mean_ns: float
    jitter_ns: float
    loss_pct: float
    throughput_msgs_per_s: float


def measure_link_quality(sim: MeshSimulator, frm: int, to: int, payload_bytes: int,
                         rate_hz: float, duration_s: float) -> LinkQuality:
    """Probe one directed link and report delay, jitter, loss, throughput.

    Sends index-stamped probes at the offered rate for the given duration
    of virtual time; needs at least 100 probes for stable statistics. The
    probe receiver takes over ``to``'s registration on ``sim``.
    """
    n_probes = int(rate_hz * duration_s)
    if n_probes < 100:
        raise MeasurementError(
            f"{n_probes} probes from {rate_hz} Hz x {duration_s} s; need >= 100"
        )
    if payload_bytes < 8:
        raise MeasurementError("probe payload must fit an 8-byte index stamp")
    send_ns: dict[int, int] = {}
    delays: list[int] = []

    def on_receive(data: bytes, now_ns: int) -> None:
        (index,) = struct.unpack_from("<Q", data)
        delays.append(now_ns - send_ns[index])

    sim.register(to, on_receive)
    interval_ns = int(1e9 / rate_hz)
    start = sim.now_ns
    for i in range(n_probes):
        sim.run_until(start + i * interval_ns)
        send_ns[i] = sim.now_ns
        sim.send(frm, to, struct.pack("<Q", i).ljust(payload_bytes, b"\0"))
    sim.drain()
    if not delays:
        raise MeasurementError(
            f"no probes delivered over {frm}->{to}; check loss and connectivity"
        )
    mean = sum(delays) / len(delays)
    var = sum((d - mean) ** 2 for d in delays) / len(delays)
    return LinkQuality(
        latency_mean_ns=mean,
        jitter_ns=math.sqrt(var),
        loss_pct=100.0 * (n_probes - len(delays)) / n_probes,
        throughput_msgs_per_s=len(delays) / duration_s,
    )


def closed_form_link_throughput(team_size: int, payload_bytes: int, offered_hz: float,
                                medium: MediumModel) -> float:
    """Analytic per-link delivery rate for the all-to-all publish pattern.

    Each node offers ``offered_hz`` messages to each of its N-1 peers; its
    radio serializes at the effective bandwidth, so the per-link rate is
    min(offered, bandwidth / ((N-1) * wire_bytes)). A team below 2 has no link.
    """
    if team_size < 2:
        raise MeasurementError(f"team size {team_size} has no link; need >= 2 agents")
    wire = payload_bytes + ENVELOPE_OVERHEAD_BYTES
    bandwidth = medium.effective_bandwidth(team_size)
    return min(offered_hz, bandwidth / ((team_size - 1) * wire))


@dataclass
class SweepRow:
    team_size: int
    offered_hz: float
    delivered_mean: float
    delivered_std: float
    oracle_value: float


def scalability_sweep(team_sizes, payload_bytes: int = 128, offered_hz: float = 200.0,
                      medium: MediumModel | None = None, duration_s: float = 0.6,
                      link: LinkModel | None = None, seed: int = 0) -> list[SweepRow]:
    """Measure per-link throughput for full-mesh all-to-all publishing.

    Every agent publishes a payload to all peers at the offered rate; the
    measurement window covers the second half of the run (steady state),
    shifted by the link's base latency. Every mesh link uses ``link``, and
    each team size's simulator is seeded with ``seed``. Each row carries
    the closed-form oracle value times ``1 - loss_prob``; a team size below
    2 raises ``MeasurementError`` before that size runs.
    """
    medium = medium or MediumModel()
    link = link or LinkModel()
    window_s = duration_s / 2
    rows = []
    wire_bytes = payload_bytes + ENVELOPE_OVERHEAD_BYTES
    blob = bytes(wire_bytes)
    for n in team_sizes:
        oracle = closed_form_link_throughput(n, payload_bytes, offered_hz, medium)
        agents = list(range(n))
        topo = Topology.full_mesh(agents, link)
        sim = MeshSimulator(topo, medium, seed=seed)
        counts = {a: 0 for a in agents}
        window_start_ns = int(window_s * 1e9) + link.base_latency_ns

        transports = [SimTransport(sim, a) for a in agents]
        for t in transports:
            def cb(data, now_ns, aid=t.agent_id):
                if now_ns >= window_start_ns:
                    counts[aid] += 1

            t.on_receive(cb)
        interval_ns = int(1e9 / offered_hz)
        ticks = int(duration_s * 1e9 / interval_ns)
        for k in range(ticks):
            sim.run_until(k * interval_ns)
            for t in transports:
                t.broadcast(blob)
        sim.run_until(int(duration_s * 1e9) + link.base_latency_ns)
        links_per_agent = n - 1
        per_agent_rates = [counts[a] / (links_per_agent * window_s) for a in agents]
        mean = sum(per_agent_rates) / n
        var = sum((r - mean) ** 2 for r in per_agent_rates) / n
        rows.append(
            SweepRow(
                team_size=n,
                offered_hz=offered_hz,
                delivered_mean=mean,
                delivered_std=math.sqrt(var),
                oracle_value=oracle * (1.0 - link.loss_prob),
            )
        )
    return rows


class SimTransport:
    """Per-agent view of a MeshSimulator with the common transport surface.

    ``broadcast`` sends one message per neighbor, in ascending neighbor id.
    """

    def __init__(self, sim: MeshSimulator, agent_id: int):
        self.sim = sim
        self.agent_id = agent_id
        self.peers = sim.topology.neighbors(agent_id)

    def broadcast(self, data: bytes) -> None:
        for nb in self.peers:
            self.sim.send(self.agent_id, nb, data)

    def on_receive(self, callback) -> None:
        self.sim.register(self.agent_id, callback)


class LoopbackTransport:
    """UDP datagram transport on 127.0.0.1, one port per agent.

    Wall-clock timestamps; a daemon thread funnels received datagrams into
    the registered callback. A datagram that the callback rejects with a
    ``NeuromeshError`` (malformed, unknown sender) only counts in ``rejected``.
    """

    def __init__(self, agent_id: int, peers, base_port: int = DEFAULT_BASE_PORT,
                 host: str = "127.0.0.1"):
        self.agent_id = agent_id
        self.peers = sorted(int(p) for p in peers)
        self.base_port = base_port
        self.host = host
        import socket  # only this transport needs the socket stack

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, base_port + agent_id))
        self._sock.settimeout(0.1)
        self._callback = None
        self.rejected = 0
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._recv_loop, name=f"loopback-{agent_id}", daemon=True
        )
        self._thread.start()

    def broadcast(self, data: bytes) -> None:
        for nb in self.peers:
            self._sock.sendto(data, (self.host, self.base_port + nb))

    def on_receive(self, callback) -> None:
        self._callback = callback

    def _recv_loop(self) -> None:
        while not self._closing.is_set():
            try:
                data, _ = self._sock.recvfrom(MAX_DATAGRAM_BYTES)
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                if self._callback is not None:
                    self._callback(data, time.monotonic_ns())
            except NeuromeshError:
                self.rejected += 1

    def close(self) -> None:
        self._closing.set()
        self._thread.join(timeout=2.0)
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
