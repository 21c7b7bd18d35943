"""Feature aggregation: the reduction aggregate functions plus the
neighborhood-resolution policy (blocking / best-effort / single-robot).

Arithmetic convention: float32 features are accumulated in float64, rows in
a fixed order (self first, then neighbors ascending by id), and the result
is rounded back to float32. Both the distributed runtime and the
centralized reference in :func:`centralized_rounds` follow this convention,
which is what makes decentralized and centralized outputs bit-identical.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import wire
from .errors import (
    ConfigError,
    InsufficientNeighborsError,
    NeighborhoodTimeoutError,
    ShapeError,
)
from .netsim import MeshSimulator, SimTransport
from .tensors import DTYPE, MlpSpec, mlp_forward
from .wire import MessageEnvelope, NeighborBuffer, encode_envelope


@dataclass
class AggregationConfig:
    mode: str = "best_effort"  # blocking | best_effort
    timeout_ns: int = 500_000_000
    min_neighbors: int = 0

    def __post_init__(self):
        if self.mode not in ("blocking", "best_effort"):
            raise ConfigError("aggregation.mode", f"unknown mode {self.mode!r}")
        # the deadline in both modes, and the buffers' staleness: a positive whole ns count
        if not isinstance(self.timeout_ns, numbers.Integral) or self.timeout_ns <= 0:
            raise ConfigError("aggregation.timeout_ms", "needs a positive whole number of ns")
        if self.min_neighbors < 0:
            raise ConfigError("aggregation.min_neighbors", "must be >= 0")


def reduce_aggregate(kind: str, self_feature, neighbors) -> np.ndarray:
    """Elementwise sum/mean/max over the self feature and its neighbors.

    With no neighbors the reduction covers {self} alone, so the self
    feature passes through unchanged: the single-robot fallback.
    """
    if kind == "diff_sum":
        raise ShapeError("diff_sum needs a pairwise network; use diff_sum_aggregate")
    if kind not in ("sum", "mean", "max"):
        raise ShapeError(f"unknown reduction kind {kind!r}")
    f = np.ascontiguousarray(self_feature, dtype=DTYPE)
    if f.ndim != 1:
        raise ShapeError(f"self feature must be 1-D, got shape {f.shape}")
    nbrs = []
    for i, n in enumerate(neighbors):
        n = np.ascontiguousarray(n, dtype=DTYPE)
        if n.shape != f.shape:
            raise ShapeError(
                f"neighbor[{i}] has shape {n.shape}, self feature has {f.shape}"
            )
        nbrs.append(n)
    acc = f.astype(np.float64)
    if kind == "max":
        for n in nbrs:
            acc = np.maximum(acc, n.astype(np.float64))
    else:
        acc = acc.copy()
        for n in nbrs:
            acc += n.astype(np.float64)
        if kind == "mean":
            acc /= 1 + len(nbrs)
    return acc.astype(DTYPE)


def diff_sum_aggregate(g: MlpSpec, self_feature, neighbors) -> np.ndarray:
    """Sum of g(f_j - f_i) over neighbors j; zero vector when there are none.

    Takes one agent (a self vector and its neighbor list) or a stack of A
    agents (an (A, D) self array and A neighbor lists) and returns float32
    of the self feature's rank. One stacked ``g`` call covers every
    difference row of every agent; each agent's float32 rows are then
    added into its own +0.0 float64 accumulator in neighbor order.
    """
    f = np.ascontiguousarray(self_feature, dtype=DTYPE)
    if f.ndim == 1:
        selves, lists = f[None], [neighbors]
    elif f.ndim == 2:
        selves, lists = f, neighbors
        if len(lists) != len(selves):
            raise ShapeError(f"{len(selves)} self features but {len(lists)} neighbor lists")
    else:
        raise ShapeError(f"self feature must be 1-D or 2-D, got shape {f.shape}")
    if g.input_dim != selves.shape[1]:
        raise ShapeError(
            f"pairwise network expects {g.input_dim} inputs, features have {selves.shape[1]}"
        )
    counts = np.array([len(n) for n in lists], dtype=np.intp)
    width = counts.max(initial=0)
    acc = np.zeros((len(selves), g.output_dim), dtype=np.float64)
    if width:
        try:
            rows = np.array([n for agent in lists for n in agent], dtype=DTYPE)
        except ValueError as exc:
            raise ShapeError(f"neighbor features differ in shape: {exc}") from None
        if rows.shape[1:] != selves.shape[1:]:
            raise ShapeError(
                f"neighbors have shape {rows.shape[1:]}, self feature has {selves.shape[1:]}"
            )
        out = mlp_forward(g, rows - np.repeat(selves, counts, axis=0))
        # Agent i's rows fill its first counts[i] slots; the other slots keep
        # +0.0, and adding +0.0 to an accumulator that starts at +0.0 never
        # changes its bits.
        slots = np.zeros((len(selves), width, g.output_dim), dtype=np.float64)
        slots[np.arange(width) < counts[:, None]] = out
        for k in range(width):
            acc += slots[:, k]
    return acc[0].astype(DTYPE) if f.ndim == 1 else acc.astype(DTYPE)


class ResolutionStatus(enum.Enum):
    READY = "ready"
    PENDING = "pending"
    SINGLE_ROBOT = "single_robot"


@dataclass
class Resolution:
    status: ResolutionStatus
    features: list  # (neighbor_id, vector) pairs, ascending by id
    missing: list = field(default_factory=list)  # silent neighbors while PENDING


def resolve_neighborhood(
    config: AggregationConfig,
    buf: NeighborBuffer,
    now_ns: int,
    waiting_since_ns: int | None = None,
    round_index: int | None = None,
) -> Resolution:
    """Decide what neighbor set an aggregation step may proceed with.

    Blocking mode returns READY only once every registered neighbor has a
    live envelope; before the timeout it reports PENDING, after it raises
    NeighborhoodTimeoutError listing the silent neighbors. Best-effort
    mode decides immediately: the live subset if it meets min_neighbors,
    SINGLE_ROBOT when empty and min_neighbors is 0, otherwise
    InsufficientNeighborsError.
    """
    live = buf.snapshot(now_ns, round_index)
    features = [(nid, vec) for nid, vec, _ in live]
    if config.mode == "blocking":
        # A buffer holds slots for registered neighbors only, so a full count is a full set.
        if len(features) == len(buf.neighbor_ids):
            return Resolution(ResolutionStatus.READY, features)
        missing = sorted(buf.neighbor_ids - {nid for nid, _ in features})
        waited = 0 if waiting_since_ns is None else now_ns - waiting_since_ns
        if waited >= config.timeout_ns:
            raise NeighborhoodTimeoutError(missing, waited)
        return Resolution(ResolutionStatus.PENDING, [], missing)
    if not features:
        if config.min_neighbors == 0:
            return Resolution(ResolutionStatus.SINGLE_ROBOT, [])
        raise InsufficientNeighborsError(0, config.min_neighbors)
    if len(features) < config.min_neighbors:
        raise InsufficientNeighborsError(len(features), config.min_neighbors)
    return Resolution(ResolutionStatus.READY, features)


SIM_POLL_NS = 1_000_000  # virtual time a blocking wait advances a simulator per poll


def build_team(transports, staleness_ns: int) -> dict:
    """Give each transport a keep-latest buffer that its ``on_receive`` feeds.

    This is the one place a buffer meets a transport. The team shares one
    decode memo, so a broadcast's bytes are parsed once and all its
    receivers insert the same envelope. Returns agent_id -> (broadcast,
    buffer), the ``team`` that :func:`run_rounds` takes.
    """
    team = {}
    memo: dict = {}
    for transport in transports:
        buf = NeighborBuffer(transport.peers, staleness_ns=staleness_ns)

        def receive(data: bytes, now_ns: int, buf=buf) -> bool:
            # Both calls are looked up per message, so wrappers on
            # wire.decode_envelope and NeighborBuffer.insert see each one.
            return buf.insert(wire.decode_envelope(data, memo=memo))

        transport.on_receive(receive)
        team[transport.agent_id] = (transport.broadcast, buf)
    return team


def build_sim_team(topology, medium=None, staleness_ns: int = 10**12, seed: int = 0):
    """A fresh MeshSimulator over ``topology``, seeded with ``seed``, one SimTransport per agent.

    Returns (sim, team) with ``team`` as :func:`build_team` returns it.
    """
    sim = MeshSimulator(topology, medium, seed=seed)
    return sim, build_team([SimTransport(sim, aid) for aid in topology.agents], staleness_ns)


def publish_features(team, features: dict, seq: int, stamp_ns: int, round_index: int) -> None:
    """Send each agent in ``features`` its feature to its neighbors, in ascending id.

    ``team`` is as :func:`build_team` returns it. ``seq`` must grow with
    every call, so that keep-latest buffers accept each new feature.
    """
    for aid in sorted(features):
        env = MessageEnvelope(sender_id=aid, seq=seq, timestamp_ns=stamp_ns,
                              round=round_index, payload=features[aid])
        team[aid][0](encode_envelope(env))


def await_neighborhood(config: AggregationConfig, buf: NeighborBuffer, now_fn,
                       advance=None, round_index: int | None = None) -> list:
    """The (neighbor_id, vector) pairs one aggregation step uses, ascending by id.

    Blocking mode calls ``advance()`` while a neighbor is missing, until the
    timeout; ``advance=None`` means nothing more can arrive, so a missing
    neighbor times out at once. Raises NeighborhoodTimeoutError or
    InsufficientNeighborsError; the task drivers record both as failures.
    """
    started = now_fn()
    while True:
        res = resolve_neighborhood(config, buf, now_fn(), waiting_since_ns=started,
                                   round_index=round_index)
        if res.status is not ResolutionStatus.PENDING:
            return res.features
        if advance is None:
            raise NeighborhoodTimeoutError(res.missing, now_fn() - started)
        advance()


def run_rounds(team, features: dict, config: AggregationConfig, aggregate_fn, now_fn,
               advance=None, rounds: int = 1) -> dict:
    """Drive the agents in ``features`` through ``rounds`` exchange-and-aggregate rounds.

    Each round publishes every driven agent's feature tagged with the round
    index, then awaits each one's neighborhood for that round and folds it
    in with ``aggregate_fn(h, vectors)``. ``advance`` is as in
    :func:`await_neighborhood`: ``lambda: sim.run_for(SIM_POLL_NS)`` drives
    a whole team in lockstep over the simulator, and one agent per thread
    over a real transport passes one that sleeps. Returns agent_id -> feature.
    """
    if rounds < 1:
        raise ShapeError(f"run_rounds needs at least one round, got {rounds}")
    h = {aid: np.ascontiguousarray(f, dtype=DTYPE) for aid, f in features.items()}
    for l in range(rounds):
        publish_features(team, h, l + 1, now_fn(), l)
        h = {
            aid: aggregate_fn(h[aid], [vec for _, vec in await_neighborhood(
                config, team[aid][1], now_fn, advance, round_index=l)])
            for aid in sorted(h)
        }
    return h


def centralized_rounds(adjacency: dict, features: dict, kind: str, rounds: int) -> dict:
    """Reference L-round propagation computed with full global knowledge.

    Implements the synchronous update h_i <- reduce({h_i} u {h_j : j adjacent})
    directly on the whole graph, with no buffers, envelopes, or transport.
    Serves as the centralized counterpart that decentralized execution must
    reproduce bit-for-bit on lossless links.
    """
    h = {i: np.ascontiguousarray(features[i], dtype=DTYPE) for i in features}
    for _ in range(rounds):
        nxt = {}
        for i in sorted(h):
            acc = h[i].astype(np.float64)
            peers = sorted(adjacency.get(i, ()))
            if kind == "max":
                for j in peers:
                    acc = np.maximum(acc, h[j].astype(np.float64))
            elif kind in ("sum", "mean"):
                acc = acc.copy()
                for j in peers:
                    acc += h[j].astype(np.float64)
                if kind == "mean":
                    acc /= 1 + len(peers)
            else:
                raise ShapeError(f"unsupported kind {kind!r} for centralized reference")
            nxt[i] = acc.astype(DTYPE)
        h = nxt
    return h
