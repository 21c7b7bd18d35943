"""Goal assignment task: solvers, metrics, message-size ablation, and the
decentralized scenario wiring.

The expert solver is an O(n^3) shortest-augmenting-path method with dual
potentials. Ties break to the lexicographically smallest goal vector: every
optimal assignment lives on the tight (zero-reduced-cost) arcs of the
optimal duals, so the solver's own matching there is repaired row by row,
each row taking the smallest column an alternating path over later rows frees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .aggregation import (
    SIM_POLL_NS,
    AggregationConfig,
    await_neighborhood,
    build_sim_team,
    publish_features,
)
from .errors import InsufficientNeighborsError, NeighborhoodTimeoutError, ShapeError
from .netsim import MediumModel, Topology
from .tensors import (
    DTYPE,
    AttentionSpec,
    MlpSpec,
    attention_forward,
    load_attention,
    load_mlp,
    mlp_forward,
    random_attention,
    random_mlp,
)

BRUTE_FORCE_LIMIT = 9

_PERM_CACHE: dict[int, np.ndarray] = {}


@dataclass
class Assignment:
    goals: list[int]
    total_cost: float


def _as_cost_matrix(costs) -> np.ndarray:
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"cost matrix must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ShapeError("cost matrix contains non-finite entries")
    return c


def _total(cost: np.ndarray, goals) -> float:
    return float(cost[np.arange(cost.shape[0]), list(goals)].sum())


def _augmenting_path_duals(cost: np.ndarray):
    """Solve min-cost assignment; returns (column_match, u, v) potentials.

    Classic shortest-augmenting-path formulation: p[j] is the row matched
    to column j (1-indexed, 0 = unmatched), and the potentials satisfy
    cost[i][j] - u[i] - v[j] >= 0 with equality on matched pairs.
    """
    n = cost.shape[0]
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    rows = cost.tolist()
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while p[j0]:  # until the path reaches a free column
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = rows[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # shift the matching back along the path
            p[j0], j0 = p[way[j0]], way[j0]
    return p, np.array(u), np.array(v)


def _reroute(tight, goal: list[int], owner: list[int], i: int, start: int, via: dict) -> bool:
    """Move row ``i`` onto ``start``'s column: flip an alternating path of tight
    arcs from ``start`` over rows above ``i`` to row i's goal. ``via`` maps each
    row reached to its predecessor, row ``i`` to -1; every try for one ``i``
    shares it, since a row that a failed try reached stays a dead end.
    """
    via[start] = i
    stack = [start]
    while stack:
        row = stack.pop()
        for col in tight[row]:
            nxt = owner[col]
            if nxt == i:  # col is row i's goal: shift each row on the path
                while row != -1:
                    goal[row], col = col, goal[row]
                    owner[goal[row]] = row
                    row = via[row]
                return True
            if nxt > i and nxt not in via:
                via[nxt] = row
                stack.append(nxt)
    return False


def hungarian_solve(costs) -> Assignment:
    """Minimum-cost one-to-one assignment with a deterministic tie-break.

    Among all optimal assignments, returns the lexicographically smallest
    goal vector.
    """
    cost = _as_cost_matrix(costs)
    p, u, v = _augmenting_path_duals(cost)
    tol = 1e-9 * (1.0 + float(np.abs(cost).max()))
    tight = [np.flatnonzero(row).tolist()
             for row in cost - u[1:, None] - v[None, 1:] <= tol]
    owner = [r - 1 for r in p[1:]]  # start from the solver's own tight matching
    goal = np.argsort(owner).tolist()
    for i, cols in enumerate(tight):
        via = {i: -1}
        for j in cols:
            if j >= goal[i]:
                break
            r = owner[j]
            if r > i and r not in via and _reroute(tight, goal, owner, i, r, via):
                break
    return Assignment(goal, _total(cost, goal))


def brute_force_solve(costs) -> Assignment:
    """Exhaustive minimum over all permutations; oracle for hungarian_solve.

    Permutations are enumerated in lexicographic order and ties keep the
    first (smallest) vector, matching hungarian_solve's tie-break.
    """
    cost = _as_cost_matrix(costs)
    n = cost.shape[0]
    if n > BRUTE_FORCE_LIMIT:
        raise ShapeError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got {n}")
    perms = _PERM_CACHE.get(n)
    if perms is None:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        _PERM_CACHE[n] = perms
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    goals = [int(g) for g in perms[best]]
    return Assignment(goals, _total(cost, goals))


def sr_metric(n_goals_reached: int, n_robots: int, n_tests: int) -> float:
    """Percentage of goals covered across all test runs."""
    if n_goals_reached > n_robots * n_tests:
        raise ShapeError(
            f"{n_goals_reached} goals reached exceeds {n_robots} robots x {n_tests} tests"
        )
    return 100.0 * n_goals_reached / (n_robots * n_tests)


def tcp_metric(pairs) -> float:
    """Mean percentage cost excess over the optimum, across covered tests.

    ``pairs`` holds (achieved_cost, optimal_cost) per fully covered test.
    """
    pairs = list(pairs)
    if not pairs:
        return 0.0
    for achieved, optimal in pairs:
        if optimal <= 0:
            raise ShapeError(f"optimal cost must be positive, got {optimal}")
    return sum(100.0 * (a - o) / o for a, o in pairs) / len(pairs)


def quantize_message(feature, budget_bytes: int) -> tuple[bytes, np.ndarray]:
    """Truncate a float32 feature to a byte budget; decode pads with zeros.

    Keeps the first floor(budget / 4) components, so any budget of at
    least 4x the dimension round-trips losslessly.
    """
    if budget_bytes < 4:
        raise ShapeError(f"budget {budget_bytes} B cannot carry a single float32")
    vec = np.ascontiguousarray(feature, dtype=DTYPE)
    if vec.ndim != 1:
        raise ShapeError(f"feature must be 1-D, got shape {vec.shape}")
    keep = min(vec.shape[0], budget_bytes // 4)
    payload = vec[:keep].astype("<f4").tobytes()
    return payload, dequantize_message(payload, vec.shape[0])


def dequantize_message(payload: bytes, dim: int) -> np.ndarray:
    """Inverse of quantize_message given the original dimension."""
    kept = np.frombuffer(payload, dtype="<f4")
    if kept.shape[0] > dim:
        raise ShapeError(f"payload holds {kept.shape[0]} floats, feature dim is {dim}")
    out = np.zeros(dim, dtype=DTYPE)
    out[: kept.shape[0]] = kept
    return out


@dataclass
class AssignmentModel:
    """Learned stack: cost-vector encoder, attention aggregator, goal decoder."""

    encoder: MlpSpec
    attention: AttentionSpec
    decoder: MlpSpec

    @property
    def feature_dim(self) -> int:
        return self.encoder.output_dim

    @staticmethod
    def random(n_goals: int, feature_dim: int = 24, heads: int = 3, layers: int = 2,
               hidden: int = 64, seed: int = 0) -> "AssignmentModel":
        return AssignmentModel(
            encoder=random_mlp([n_goals, hidden, feature_dim], seed),
            attention=random_attention(feature_dim, heads, layers, seed + 1),
            decoder=random_mlp([feature_dim, hidden, n_goals], seed + 2),
        )

    @staticmethod
    def load(encoder_path, attention_path, decoder_path, heads: int = 3,
             layers: int = 2) -> "AssignmentModel":
        return AssignmentModel(
            encoder=load_mlp(encoder_path),
            attention=load_attention(attention_path, heads, layers),
            decoder=load_mlp(decoder_path),
        )


@dataclass
class AssignmentOutcome:
    choices: list[int]
    covered_goals: int
    cost_out: float | None
    cost_opt: float
    failed: bool = False
    failure: str = ""


def run_assignment_scenario(
    costs,
    mode: str = "expert",
    message_budget_bytes: int | None = None,
    agg_config: AggregationConfig | None = None,
    topology: Topology | None = None,
    medium: MediumModel | None = None,
    model: AssignmentModel | None = None,
    silenced=(),
) -> AssignmentOutcome:
    """Run one decentralized assignment instance over the simulated mesh.

    Each robot encodes its own cost row, publishes it (optionally truncated
    to the message budget), aggregates what arrived, and picks a goal. In
    expert mode the "aggregation" is assembling the full cost matrix and
    solving it; in learned mode the attention aggregator fuses neighbor
    embeddings and the decoder's argmax picks the goal. Conflicting picks
    count as uncovered goals, never as errors; a blocking-mode timeout or
    too few live neighbors marks the whole run failed.
    """
    cost = _as_cost_matrix(costs)
    n = cost.shape[0]
    agg_config = agg_config or AggregationConfig(mode="blocking", timeout_ns=200_000_000)
    topology = topology or Topology.full_mesh(range(n))
    if len(topology.agents) != n:
        raise ShapeError(f"{len(topology.agents)} agents but cost matrix has {n} rows")
    if mode not in ("expert", "learned"):
        raise ShapeError(f"unknown mode {mode!r}")
    if mode == "learned" and model is None:
        raise ShapeError("learned mode needs an AssignmentModel")
    silenced = set(silenced)

    sim, team = build_sim_team(topology, medium, staleness_ns=10**12)

    if mode == "expert":
        features = {a: cost[i].astype(DTYPE) for i, a in enumerate(topology.agents)}
    else:
        features = dict(zip(topology.agents, mlp_forward(model.encoder, cost.astype(DTYPE))))
    dim = next(iter(features.values())).shape[0]

    sent = {a: features[a] for a in topology.agents if a not in silenced}
    if message_budget_bytes is not None:
        for a, vec in sent.items():
            payload, _ = quantize_message(vec, message_budget_bytes)
            sent[a] = np.frombuffer(payload, dtype="<f4")
    publish_features(team, sent, 1, sim.now_ns, 0)
    sim.drain()  # one control tick: let the exchange land before aggregating

    cost_opt = hungarian_solve(cost).total_cost
    choices: list[int] = []
    try:
        gathered = {
            a: await_neighborhood(agg_config, team[a][1], lambda: sim.now_ns,
                                  lambda: sim.run_for(SIM_POLL_NS))
            for a in topology.agents
        }
    except (NeighborhoodTimeoutError, InsufficientNeighborsError) as exc:
        return AssignmentOutcome(
            choices=[], covered_goals=0, cost_out=None, cost_opt=cost_opt,
            failed=True, failure=str(exc),
        )

    index_of = {a: i for i, a in enumerate(topology.agents)}
    for a in topology.agents:
        neighbor_feats = [
            (nid, dequantize_message(vec.astype("<f4").tobytes(), dim))
            for nid, vec in gathered[a]
        ]
        if mode == "expert":
            local = np.zeros_like(cost)
            local[index_of[a]] = features[a].astype(np.float64)
            for nid, row in neighbor_feats:
                local[index_of[nid]] = row.astype(np.float64)
            choices.append(hungarian_solve(local).goals[index_of[a]])
        else:
            context = [vec for _, vec in neighbor_feats]
            if context:
                h = attention_forward(model.attention, features[a], context)
            else:
                h = features[a]
            logits = mlp_forward(model.decoder, h)
            choices.append(int(np.argmax(logits)))

    covered = len(set(choices))
    cost_out = _total(cost, choices)
    return AssignmentOutcome(
        choices=choices, covered_goals=covered, cost_out=cost_out, cost_opt=cost_opt
    )
