"""Goal assignment task: solvers, metrics, message-size ablation, and the
decentralized scenario wiring.

The expert solver is the O(n^3) shortest-augmenting-path method with dual
potentials: a column-reduction start as in LAPJV (Jonker & Volgenant,
Computing 38, 1987), then one Dijkstra per row the reduction left free,
with the potentials updated once per augmentation as in Crouse (IEEE TAES
52(4), 2016). Ties break to the lexicographically smallest goal vector:
every optimal assignment lives on the tight (zero-reduced-cost) arcs of the
optimal duals, so the solver's own matching there is repaired row by row,
each row taking the smallest column an alternating path over later rows frees.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .aggregation import AggregationConfig, build_sim_team, publish_features, resolve_neighborhood
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
_GATHER_FLOATS = 1 << 21  # float64 entries per gathered block of robot matrices: 16 MiB

_PERM_CACHE: dict[int, np.ndarray] = {}


@dataclass
class Assignment:
    goals: list[int]
    total_cost: float


def _square(costs) -> np.ndarray:
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"cost matrix must be square, got shape {c.shape}")
    return c


def _finite(c: np.ndarray) -> np.ndarray:
    if not np.isfinite(c).all():
        raise ShapeError("cost matrix contains non-finite entries")
    return c


def _as_cost_matrix(costs) -> np.ndarray:
    return _finite(_square(costs))


def _total(cost: np.ndarray, goals) -> float:
    return float(cost[np.arange(cost.shape[0]), list(goals)].sum())


def _augmenting_path_duals(cost: np.ndarray):
    """Solve min-cost assignment; returns (row4col, col4row, u, v).

    row4col[j] is the row matched to column j and col4row[i] the column
    matched to row i, all 0-indexed; the potentials satisfy
    cost[i][j] - u[i] - v[j] >= 0 with equality on matched pairs.

    Three steps. Column reduction, as in LAPJV (Jonker & Volgenant, Computing
    38, 1987), sets v[j] to the minimum of column j with u = 0 and, scanning
    the columns in reverse, matches each to its argmin row while that row is
    free. Each row still free then runs one Dijkstra over the reduced costs,
    taking a free column on a tie, and augments along the shortest path. The
    potentials stay fixed during that search: once it ends, only the rows
    and columns it settled move, by their distance short of the path's
    length, as in Crouse's formulation (IEEE TAES 52(4), 2016). Pure Python
    over lists: at the sizes the tasks solve, numpy per scan is slower.
    """
    n = cost.shape[0]
    rows = cost.tolist()
    v = cost.min(axis=0).tolist()
    u = [0.0] * n
    row4col = [-1] * n
    col4row = [-1] * n
    best = cost.argmin(axis=0).tolist()
    for j in range(n - 1, -1, -1):
        i = best[j]
        if col4row[i] < 0:
            col4row[i] = j
            row4col[j] = i
    path = [0] * n
    inf = float("inf")
    for start in [i for i in range(n) if col4row[i] < 0]:
        dist = [inf] * n
        remaining = list(range(n))
        settled = []  # columns, in the order the search settled them
        i = start
        lowest = 0.0
        while i >= 0:  # until the search settles a free column
            row = rows[i]
            base = lowest - u[i]
            lowest = inf
            for j in remaining:
                d = base + row[j] - v[j]
                dj = dist[j]
                if d < dj:
                    dist[j] = dj = d
                    path[j] = i
                if dj <= lowest and (dj < lowest or row4col[j] < 0):
                    lowest = dj
                    sink = j
            k = remaining.index(sink)
            remaining[k] = remaining[-1]
            remaining.pop()
            settled.append(sink)
            i = row4col[sink]
        u[start] += lowest
        for j in settled[:-1]:  # the sink is free, and its shift is zero
            shift = lowest - dist[j]
            u[row4col[j]] += shift
            v[j] -= shift
        j = sink
        while True:  # shift the matching back along the path
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return row4col, col4row, np.array(u), np.array(v)


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


def hungarian_solve(costs, *, memo: dict | None = None) -> Assignment:
    """Minimum-cost one-to-one assignment with a deterministic tie-break.

    Among all optimal assignments, returns the lexicographically smallest
    goal vector. ``memo`` maps the float64 bytes of each matrix solved
    through it to its answer, so a repeated matrix is not solved again.
    """
    cost = _square(costs)
    if not cost.size:
        return Assignment([], 0.0)
    if memo is None:
        return _solve(_finite(cost))
    key = cost.tobytes()  # a square matrix's byte count fixes its shape
    hit = memo.get(key)
    if hit is None:
        out = _solve(_finite(cost))
        memo[key] = (tuple(out.goals), out.total_cost)
        return out
    return Assignment(list(hit[0]), hit[1])  # its bytes passed the finiteness scan


def _solve(cost: np.ndarray) -> Assignment:
    """``hungarian_solve`` on a validated, non-empty matrix."""
    owner, goal, u, v = _augmenting_path_duals(cost)  # the solver's own tight matching
    tol = 1e-9 * (1.0 + float(np.abs(cost).max()))
    mask = cost - u[:, None] - v <= tol
    # row-major: the rows ascend, and so do the columns within each row
    arc_rows, arc_cols = (a.tolist() for a in np.nonzero(mask))
    ends = [bisect_right(arc_rows, i) for i in range(cost.shape[0])]
    tight = [arc_cols[a:b] for a, b in zip([0] + ends, ends)]
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
    kept = _budget_floats(budget_bytes)
    vec = np.ascontiguousarray(feature, dtype=DTYPE)
    if vec.ndim != 1:
        raise ShapeError(f"feature must be 1-D, got shape {vec.shape}")
    payload = vec[:kept].astype("<f4").tobytes()
    return payload, dequantize_message(payload, vec.shape[0])


def _budget_floats(budget_bytes: int) -> int:
    """How many float32 components a message of ``budget_bytes`` carries."""
    if budget_bytes < 4:
        raise ShapeError(f"budget {budget_bytes} B cannot carry a single float32")
    return budget_bytes // 4


def dequantize_message(payload: bytes, dim: int) -> np.ndarray:
    """Inverse of quantize_message given the original dimension."""
    return _dequantize_rows([np.frombuffer(payload, dtype="<f4")], dim)[0]


def _dequantize_rows(rows: list, dim: int) -> np.ndarray:
    """Received float32 rows as one (k, dim) block; a truncated row keeps a zero tail."""
    block = np.zeros((len(rows), dim), dtype=DTYPE)
    for k, row in enumerate(rows):
        if row.shape[0] > dim:
            raise ShapeError(f"payload holds {row.shape[0]} floats, feature dim is {dim}")
        block[k, : row.shape[0]] = row
    return block


@dataclass
class AssignmentModel:
    """Learned stack: cost-vector encoder, attention aggregator, goal decoder."""

    encoder: MlpSpec
    attention: AttentionSpec
    decoder: MlpSpec

    @staticmethod
    def random(n_goals: int, feature_dim: int = 24, heads: int = 3, layers: int = 2,
               hidden: int = 64, seed: int = 0) -> "AssignmentModel":
        return AssignmentModel(
            encoder=random_mlp([n_goals, hidden, feature_dim], seed),
            attention=random_attention(feature_dim, heads, layers, seed + 1),
            decoder=random_mlp([feature_dim, hidden, n_goals], seed + 2),
        )

    @staticmethod
    def load(encoder_path, attention_path, decoder_path, heads: int = 3) -> "AssignmentModel":
        return AssignmentModel(
            encoder=load_mlp(encoder_path),
            attention=load_attention(attention_path, heads),
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
    message_budget_bytes: int | None = None,
    agg_config: AggregationConfig | None = None,
    topology: Topology | None = None,
    medium: MediumModel | None = None,
    model: AssignmentModel | None = None,
    silenced=(),
    seed: int = 0,
) -> AssignmentOutcome:
    """Run one decentralized assignment instance over the simulated mesh.

    Each robot encodes its own cost row, publishes it (optionally sliced
    to the message budget), aggregates what arrived, and picks a goal. The
    run is learned if and only if ``model`` is given: the attention
    aggregator fuses neighbor embeddings and the decoder's argmax picks the
    goal. With no model the run is expert, and the "aggregation" is
    assembling the full cost matrix and solving it. ``agg_config.timeout_ns``
    is the decision deadline in both modes, counted from the publish: there
    a blocking robot that lacks a neighbor's envelope times out, and a
    best-effort robot reads what has landed. Conflicting picks
    count as uncovered goals, never as errors; a blocking-mode timeout or
    too few live neighbors marks the whole run failed. ``seed`` seeds the
    mesh's loss and jitter streams, one per sending robot (see
    ``MeshSimulator``), so an instance replays alone from its seed.

    Within one call, robots that hold the same matrix share one solve: every
    robot still calls ``hungarian_solve``, and all calls share one memo that
    lives only as long as this call. Each sender's payload is
    dequantized once, into one table that serves both modes: an expert run
    gathers every robot's matrix out of it in one copy, and a learned run
    attends over the rows each robot heard.
    """
    cost = _as_cost_matrix(costs)
    n = cost.shape[0]
    agg_config = agg_config or AggregationConfig(mode="blocking", timeout_ns=200_000_000)
    topology = topology or Topology.full_mesh(range(n))
    if len(topology.agents) != n:
        raise ShapeError(f"{len(topology.agents)} agents but cost matrix has {n} rows")
    silenced = set(silenced)

    deadline = int(agg_config.timeout_ns)  # also the staleness: every envelope is live there
    sim, team = build_sim_team(topology, medium, staleness_ns=deadline, seed=seed)

    own = cost.astype(DTYPE)  # row i: robot i's own cost row, in float32
    features = own if model is None else mlp_forward(model.encoder, own)
    dim = features.shape[1]
    kept = dim if message_budget_bytes is None else _budget_floats(message_budget_bytes)
    sent = {a: features[i, :kept] for i, a in enumerate(topology.agents) if a not in silenced}
    publish_features(team, sent, 1, 0, 0)  # a fresh mesh publishes at time 0
    sim.run_until(deadline)

    memo: dict = {}
    cost_opt = hungarian_solve(cost, memo=memo).total_cost
    choices: list[int] = []
    try:
        gathered = {a: resolve_neighborhood(agg_config, team[a][1], deadline, waiting_since_ns=0)
                    for a in topology.agents}
    except (NeighborhoodTimeoutError, InsufficientNeighborsError) as exc:
        return AssignmentOutcome(
            choices=[], covered_goals=0, cost_out=None, cost_opt=cost_opt,
            failed=True, failure=str(exc),
        )

    # One table row per sender heard, after a zero row for the rows a robot
    # never heard: each sender publishes once per test, so its payload is
    # dequantized once. picks[i][j] is the row robot i heard from robot j, 0
    # if none.
    index_of = {a: i for i, a in enumerate(topology.agents)}
    rows, row_of, picks = [np.zeros(0, dtype=DTYPE)], {}, []
    for a in topology.agents:
        pick = [0] * n
        for nid, vec in gathered[a].features:
            k = row_of.get(nid)
            if k is None:
                k = row_of[nid] = len(rows)
                rows.append(vec)
            pick[index_of[nid]] = k
        picks.append(pick)
    table = _dequantize_rows(rows, dim)

    if model is None:
        table = table.astype(cost.dtype)
        # Robot i's matrix is slice i of one gathered (robots, n, n) block, with
        # its own row set in place; a large team gathers in bounded chunks.
        step = max(1, _GATHER_FLOATS // (n * dim))
        for lo in range(0, n, step):
            block = table[picks[lo : lo + step]]
            mine = np.arange(len(block))
            block[mine, lo + mine] = own[lo : lo + step]
            for k, local in enumerate(block):
                choices.append(hungarian_solve(local, memo=memo).goals[lo + k])
    else:
        # Each robot attends over the rows it heard, in ascending neighbor id.
        for i, pick in enumerate(picks):
            heard = [k for k in pick if k]
            h = features[i]
            if heard:
                h = attention_forward(model.attention, h, table[heard])
            choices.append(int(np.argmax(mlp_forward(model.decoder, h))))

    covered = len(set(choices))
    cost_out = _total(cost, choices)
    return AssignmentOutcome(
        choices=choices, covered_goals=covered, cost_out=cost_out, cost_opt=cost_opt
    )
