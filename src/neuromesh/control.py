"""Decentralized point-to-point navigation task on unicycle kinematics.

The policy chain: an 8-component observation runs through a four-layer
encoder, neighbor feature differences run through a pairwise network and
sum up, a four-layer decoder emits four raw values, and the shifted
softplus maps them into Beta-distribution parameters for the forward and
angular velocity channels.

A control step runs that chain once for the whole team, stacked: one
encoder call over every robot's observation, then, once each active robot
has its neighborhood, one pairwise call over every feature difference, one
decoder call and one softplus over the active robots. Each robot then
draws its action from its own generator in ascending id, so the stacked
step replays bit for bit what per-robot chains compute.

The loop keeps the team's state stacked too, one row per robot in
ascending id: (A, 2) float64 positions and goals, a forward-speed vector,
headings as Python floats and a reached mask. A step takes each heading's
unit vector from libm, builds one (A, 8) observation block, moves the
active rows in one numpy expression, wraps each new heading once, and
checks collisions (over index pairs computed once per run) and goals with
one ``np.hypot`` each. ``wrap_angle`` is idempotent, so the single wrap
gives the bits of the per-robot path, which wrapped in ``unicycle_step``
and again in ``UnicycleState``. ``build_observation``, ``unicycle_step``
and ``_min_pairwise`` are the one-robot (or dict) cases of the stacked
helpers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import (
    SIM_POLL_NS,
    AggregationConfig,
    await_neighborhood,
    build_sim_team,
    diff_sum_aggregate,
    publish_features,
)
from .errors import InsufficientNeighborsError, NeighborhoodTimeoutError, ShapeError
from .netsim import MediumModel, Topology, derive_seed
from .tensors import DTYPE, MlpSpec, load_mlp, mlp_forward, random_mlp, softplus_shift

DEFAULT_V_BOUNDS = (0.0, 0.5)  # m/s
DEFAULT_OMEGA_BOUNDS = (-1.0, 1.0)  # rad/s
DEFAULT_SUCCESS_RADIUS_M = 0.15
DEFAULT_COLLISION_RADIUS_M = 0.30
DEFAULT_CONTROL_RATE_HZ = 20.0
OBSERVATION_DIM = 8


def wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass
class UnicycleState:
    position: np.ndarray  # (x, y) meters
    heading: float  # radians, (-pi, pi]
    forward_speed: float = 0.0
    angular_speed: float = 0.0

    def __post_init__(self):
        self.position = np.ascontiguousarray(self.position, dtype=np.float64)
        if self.position.shape != (2,):
            raise ShapeError(f"position must be 2-D, got shape {self.position.shape}")
        self.heading = wrap_angle(float(self.heading))


def _goal_vector(goal, robot=None) -> np.ndarray:
    goal = np.ascontiguousarray(goal, dtype=np.float64)
    if goal.shape != (2,):
        owner = "goal" if robot is None else f"goal of robot {robot}"
        raise ShapeError(f"{owner} must be 2-D, got shape {goal.shape}")
    return goal


def heading_vectors(headings) -> np.ndarray:
    """(A, 2) unit vectors, from one libm cos and sin per heading."""
    return np.array([(math.cos(h), math.sin(h)) for h in headings])


def stacked_observations(positions, goals, forward_speeds, units) -> np.ndarray:
    """(A, 8) float32 rows: goal delta, position, heading unit vector, lookahead point.

    ``positions`` and ``goals`` are (A, 2), ``forward_speeds`` is (A,) and
    ``units`` is :func:`heading_vectors` of the robots' headings.
    """
    lookahead = positions + forward_speeds[:, None] * units
    return np.concatenate([goals - positions, positions, units, lookahead], axis=1).astype(DTYPE)


def build_observation(state: UnicycleState, goal) -> np.ndarray:
    """8-vector for one robot: the one-row case of :func:`stacked_observations`."""
    return stacked_observations(state.position[None], _goal_vector(goal)[None],
                                np.array([state.forward_speed], dtype=np.float64),
                                heading_vectors([state.heading]))[0]


@dataclass
class BetaParams:
    """Shape parameters for the forward and angular velocity distributions."""

    alpha_v: float
    beta_v: float
    alpha_omega: float
    beta_omega: float

    def __post_init__(self):
        for name in ("alpha_v", "beta_v", "alpha_omega", "beta_omega"):
            if getattr(self, name) < 1.0:
                raise ShapeError(f"{name} must be >= 1 (shifted softplus output)")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha_v, self.beta_v, self.alpha_omega, self.beta_omega])


@dataclass
class ControlPolicy:
    """Weights for the encode / pairwise / decode chain."""

    encoder: MlpSpec  # 4 layers, observation -> feature
    pairwise: MlpSpec  # 3 layers, feature difference -> feature
    decoder: MlpSpec  # 4 layers, feature -> 4 raw outputs

    def __post_init__(self):
        if self.encoder.input_dim != OBSERVATION_DIM:
            raise ShapeError(
                f"encoder expects {self.encoder.input_dim} inputs, observations have {OBSERVATION_DIM}"
            )
        if self.decoder.output_dim != 4:
            raise ShapeError(f"decoder must emit 4 values, emits {self.decoder.output_dim}")

    @property
    def feature_dim(self) -> int:
        return self.encoder.output_dim

    @staticmethod
    def random(feature_dim: int = 16, hidden: int = 64, seed: int = 0) -> "ControlPolicy":
        return ControlPolicy(
            encoder=random_mlp([OBSERVATION_DIM, hidden, hidden, hidden, feature_dim], seed),
            pairwise=random_mlp([feature_dim, hidden, hidden, feature_dim], seed + 1),
            decoder=random_mlp([feature_dim, hidden, hidden, hidden, 4], seed + 2),
        )

    @staticmethod
    def load(encoder_path, pairwise_path, decoder_path) -> "ControlPolicy":
        return ControlPolicy(
            encoder=load_mlp(encoder_path),
            pairwise=load_mlp(pairwise_path),
            decoder=load_mlp(decoder_path),
        )


def policy_forward(policy: ControlPolicy, observation, neighbor_features) -> BetaParams:
    """Full chain for one agent: encode, then :func:`decode_team` with a team of one."""
    feature = mlp_forward(policy.encoder, observation)
    return decode_team(policy, [feature], [list(neighbor_features)])[0]


def decode_team(policy: ControlPolicy, self_features, neighbor_lists) -> list[BetaParams]:
    """The chain after encoding, for a stack of agents: difference-sum
    aggregate, decode and shifted softplus, one call each.

    ``self_features`` is (A, D); ``neighbor_lists`` holds A lists of
    neighbor features. Returns one BetaParams per agent, in stack order.
    """
    h = diff_sum_aggregate(policy.pairwise, self_features, neighbor_lists)
    raw = mlp_forward(policy.decoder, h)
    return [BetaParams(*row) for row in softplus_shift(raw).tolist()]


def _map_unit(b: float, bounds) -> float:
    lo, hi = bounds
    return lo + b * (hi - lo)


def beta_sample(params: BetaParams, rng: random.Random,
                v_bounds=DEFAULT_V_BOUNDS, omega_bounds=DEFAULT_OMEGA_BOUNDS):
    """Draw (forward_speed, angular_speed): Beta samples mapped onto bounds."""
    bv = rng.betavariate(params.alpha_v, params.beta_v)
    bw = rng.betavariate(params.alpha_omega, params.beta_omega)
    return _map_unit(bv, v_bounds), _map_unit(bw, omega_bounds)


def beta_mean_action(params: BetaParams,
                     v_bounds=DEFAULT_V_BOUNDS, omega_bounds=DEFAULT_OMEGA_BOUNDS):
    """Deterministic action: the Beta mean alpha/(alpha+beta) mapped onto bounds."""
    mv = params.alpha_v / (params.alpha_v + params.beta_v)
    mw = params.alpha_omega / (params.alpha_omega + params.beta_omega)
    return _map_unit(mv, v_bounds), _map_unit(mw, omega_bounds)


def stacked_unicycle_step(positions, headings, units, forward_speeds, angular_speeds,
                          dt: float):
    """Standard kinematics for a stack of robots: each advances along its
    current heading, then turns.

    ``positions`` is (A, 2), ``units`` is :func:`heading_vectors` of the
    ``headings`` and ``forward_speeds`` is (A,). Returns the new (A, 2)
    positions and the list of new headings, each wrapped once.
    """
    if dt <= 0:
        raise ShapeError(f"dt must be positive, got {dt}")
    new_positions = positions + (forward_speeds[:, None] * units) * dt
    return new_positions, [wrap_angle(h + w * dt) for h, w in zip(headings, angular_speeds)]


def unicycle_step(state: UnicycleState, forward_speed: float, angular_speed: float,
                  dt: float) -> UnicycleState:
    """One robot's step: the one-row case of :func:`stacked_unicycle_step`."""
    positions, headings = stacked_unicycle_step(
        state.position[None], [state.heading], heading_vectors([state.heading]),
        np.array([forward_speed], dtype=np.float64), [angular_speed], dt)
    return UnicycleState(positions[0], headings[0], forward_speed, angular_speed)


def scripted_expert_action(state: UnicycleState, goal,
                           v_bounds=DEFAULT_V_BOUNDS, omega_bounds=DEFAULT_OMEGA_BOUNDS):
    """Straight-line go-to-goal stub: turn toward the goal, drive when aligned.

    Turn rate 2 x heading error, speed distance x cos(heading error).
    Deliberately ignores other robots; used as a sanity baseline and to
    force collisions in geometry fixtures.
    """
    delta = np.asarray(goal, dtype=np.float64) - state.position
    distance = float(np.hypot(delta[0], delta[1]))
    bearing = math.atan2(delta[1], delta[0])
    heading_error = wrap_angle(bearing - state.heading)
    omega = min(max(2.0 * heading_error, omega_bounds[0]), omega_bounds[1])
    aligned = max(0.0, math.cos(heading_error))
    v = min(max(distance * aligned, v_bounds[0]), v_bounds[1])
    return v, omega


@dataclass
class NavigationParams:
    success_radius_m: float = DEFAULT_SUCCESS_RADIUS_M
    collision_radius_m: float = DEFAULT_COLLISION_RADIUS_M
    control_rate_hz: float = DEFAULT_CONTROL_RATE_HZ
    max_steps: int = 400
    v_bounds: tuple = DEFAULT_V_BOUNDS
    omega_bounds: tuple = DEFAULT_OMEGA_BOUNDS
    deterministic_actions: bool = False
    seed: int = 0


@dataclass
class NavigationOutcome:
    success: bool
    steps: int
    min_pairwise_distance_m: float
    collided: bool
    reached: list[bool]
    trajectory: list = field(default_factory=list)  # (step, agent, x, y, heading)
    failed: bool = False
    failure: str = ""


def min_pairwise_distance(points, pairs) -> float:
    """Smallest distance between the rows (i, j) of an (A, 2) stack, over the
    index arrays ``pairs`` (as ``np.triu_indices`` gives them); inf if none."""
    i, j = pairs
    delta = points[i] - points[j]
    return float(np.hypot(delta[:, 0], delta[:, 1]).min(initial=math.inf))


def _min_pairwise(positions) -> float:
    points = np.array([positions[a] for a in sorted(positions)]).reshape(-1, 2)
    return min_pairwise_distance(points, np.triu_indices(len(points), k=1))


def run_navigation_scenario(
    initial_states: dict,
    goals: dict,
    policy: ControlPolicy | None = None,
    params: NavigationParams | None = None,
    topology: Topology | None = None,
    medium: MediumModel | None = None,
    agg_config: AggregationConfig | None = None,
    scripted: bool = False,
    record_trajectory: bool = False,
    seed: int = 0,
) -> NavigationOutcome:
    """Closed-loop run over the simulated mesh at a fixed control rate.

    Success requires every robot to enter its goal radius within the step
    budget with no pairwise distance ever below the collision radius.
    Failures are outcomes, not errors: a blocking timeout or too few live
    neighbors ends the run with ``failed`` set. Blocking waits for the
    current step's envelopes (round = step mod 256, as the wire round is a
    u8); best-effort takes the latest live ones. Each agent samples actions
    from its own generator seeded with ``params.seed`` XOR agent_id, and
    ``seed`` seeds the mesh's loss and jitter streams, one per sending robot
    (see ``MeshSimulator``), so runs replay bit-for-bit. Every goal must be
    a 2-vector, for either policy; ShapeError names the first robot whose
    goal is not.
    """
    if len(initial_states) < 2:
        raise ShapeError("navigation needs a team of at least 2 robots")
    if set(initial_states) != set(goals):
        raise ShapeError("states and goals must cover the same agents")
    if not scripted and policy is None:
        raise ShapeError("learned navigation needs a ControlPolicy")
    params = params or NavigationParams()
    agents = sorted(initial_states)
    goal_rows = np.array([_goal_vector(goals[a], a) for a in agents])
    topology = topology or Topology.full_mesh(agents)
    agg_config = agg_config or AggregationConfig(mode="best_effort", min_neighbors=0)
    blocking = agg_config.mode == "blocking"

    sim, team = build_sim_team(topology, medium, staleness_ns=500_000_000, seed=seed)
    buffers = [team[a][1] for a in agents]

    # The team's state, one row per robot in ascending id.
    starts = [replace(initial_states[a]) for a in agents]
    positions = np.array([s.position for s in starts])
    headings = [s.heading for s in starts]
    speeds = np.array([s.forward_speed for s in starts], dtype=np.float64)
    reached = np.zeros(len(agents), dtype=bool)
    rngs = [random.Random(derive_seed(params.seed ^ a)) for a in agents]
    dt = 1.0 / params.control_rate_hz
    tick_ns = int(1e9 / params.control_rate_hz)

    trajectory: list = []
    pairs = np.triu_indices(len(agents), k=1)
    min_distance = min_pairwise_distance(positions, pairs)
    collided = min_distance < params.collision_radius_m
    steps_taken = 0

    failure = ""
    try:
        for step in range(params.max_steps):
            if collided or reached.all():
                break
            steps_taken = step + 1
            round_tag = step % 256
            units = heading_vectors(headings)
            if not scripted:
                features = mlp_forward(policy.encoder,
                                       stacked_observations(positions, goal_rows, speeds, units))
                publish_features(team, dict(zip(agents, features)), step + 1, sim.now_ns,
                                 round_tag)
            sim.run_for(tick_ns)

            active = np.flatnonzero(~reached)
            if scripted:
                actions = [scripted_expert_action(UnicycleState(positions[i], headings[i]),
                                                  goal_rows[i], params.v_bounds,
                                                  params.omega_bounds) for i in active]
            else:
                neighborhoods = [
                    [vec for _, vec in await_neighborhood(
                        agg_config, buffers[i], lambda: sim.now_ns,
                        lambda: sim.run_for(SIM_POLL_NS), round_tag if blocking else None)]
                    for i in active
                ]
                betas = decode_team(policy, features[active], neighborhoods)
                if params.deterministic_actions:
                    actions = [beta_mean_action(beta, params.v_bounds, params.omega_bounds)
                               for beta in betas]
                else:
                    actions = [beta_sample(beta, rngs[i], params.v_bounds, params.omega_bounds)
                               for i, beta in zip(active, betas)]
            forward, angular = zip(*actions)
            speeds[active] = forward
            positions[active], turned = stacked_unicycle_step(
                positions[active], [headings[i] for i in active], units[active],
                speeds[active], angular, dt)
            for i, heading in zip(active, turned):
                headings[i] = heading

            d = min_pairwise_distance(positions, pairs)
            min_distance = min(min_distance, d)
            if d < params.collision_radius_m:
                collided = True
            to_goal = positions - goal_rows
            reached |= np.hypot(to_goal[:, 0], to_goal[:, 1]) <= params.success_radius_m
            if record_trajectory:
                trajectory.extend((step, a, x, y, h) for a, (x, y), h
                                  in zip(agents, positions.tolist(), headings))
    except (NeighborhoodTimeoutError, InsufficientNeighborsError) as exc:
        failure = str(exc)

    success = bool(reached.all()) and not collided and not failure
    return NavigationOutcome(
        success=success,
        steps=steps_taken,
        min_pairwise_distance_m=min_distance,
        collided=collided,
        reached=reached.tolist(),
        trajectory=trajectory,
        failed=bool(failure),
        failure=failure,
    )
