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

    def heading_vector(self) -> np.ndarray:
        return np.array([math.cos(self.heading), math.sin(self.heading)])


def build_observation(state: UnicycleState, goal) -> np.ndarray:
    """8-vector: goal delta, position, heading unit vector, lookahead point."""
    goal = np.ascontiguousarray(goal, dtype=np.float64)
    if goal.shape != (2,):
        raise ShapeError(f"goal must be 2-D, got shape {goal.shape}")
    u = state.heading_vector()
    obs = np.concatenate(
        [
            goal - state.position,
            state.position,
            u,
            state.position + state.forward_speed * u,
        ]
    )
    return obs.astype(DTYPE)


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


def unicycle_step(state: UnicycleState, forward_speed: float, angular_speed: float,
                  dt: float) -> UnicycleState:
    """Standard kinematics: advance along the current heading, then turn."""
    if dt <= 0:
        raise ShapeError(f"dt must be positive, got {dt}")
    new_position = state.position + forward_speed * state.heading_vector() * dt
    new_heading = wrap_angle(state.heading + angular_speed * dt)
    return UnicycleState(new_position, new_heading, forward_speed, angular_speed)


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


def _min_pairwise(positions) -> float:
    points = np.array([positions[a] for a in sorted(positions)]).reshape(-1, 2)
    i, j = np.triu_indices(len(points), k=1)
    delta = points[i] - points[j]
    return float(np.hypot(delta[:, 0], delta[:, 1]).min(initial=math.inf))


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
    (see ``MeshSimulator``), so runs replay bit-for-bit.
    """
    if len(initial_states) < 2:
        raise ShapeError("navigation needs a team of at least 2 robots")
    if set(initial_states) != set(goals):
        raise ShapeError("states and goals must cover the same agents")
    if not scripted and policy is None:
        raise ShapeError("learned navigation needs a ControlPolicy")
    params = params or NavigationParams()
    agents = sorted(initial_states)
    topology = topology or Topology.full_mesh(agents)
    agg_config = agg_config or AggregationConfig(mode="best_effort", min_neighbors=0)
    blocking = agg_config.mode == "blocking"

    sim, team = build_sim_team(topology, medium, staleness_ns=500_000_000, seed=seed)

    states = {a: replace(initial_states[a]) for a in agents}
    goal_vecs = {a: np.ascontiguousarray(goals[a], dtype=np.float64) for a in agents}
    rngs = {a: random.Random(derive_seed(params.seed ^ a)) for a in agents}
    reached = {a: False for a in agents}
    dt = 1.0 / params.control_rate_hz
    tick_ns = int(1e9 / params.control_rate_hz)

    trajectory: list = []
    min_distance = _min_pairwise({a: states[a].position for a in agents})
    collided = min_distance < params.collision_radius_m
    steps_taken = 0

    failure = ""
    try:
        for step in range(params.max_steps):
            if collided or all(reached.values()):
                break
            steps_taken = step + 1
            round_tag = step % 256
            features = {}
            if not scripted:
                obs = np.stack([build_observation(states[a], goal_vecs[a]) for a in agents])
                features = dict(zip(agents, mlp_forward(policy.encoder, obs)))
                publish_features(team, features, step + 1, sim.now_ns, round_tag)
            sim.run_for(tick_ns)

            active = [a for a in agents if not reached[a]]
            if scripted:
                actions = [scripted_expert_action(states[a], goal_vecs[a], params.v_bounds,
                                                  params.omega_bounds) for a in active]
            else:
                neighborhoods = [
                    [vec for _, vec in await_neighborhood(
                        agg_config, team[a][1], lambda: sim.now_ns,
                        lambda: sim.run_for(SIM_POLL_NS), round_tag if blocking else None)]
                    for a in active
                ]
                betas = decode_team(policy, np.stack([features[a] for a in active]),
                                    neighborhoods)
                if params.deterministic_actions:
                    actions = [beta_mean_action(beta, params.v_bounds, params.omega_bounds)
                               for beta in betas]
                else:
                    actions = [beta_sample(beta, rngs[a], params.v_bounds, params.omega_bounds)
                               for a, beta in zip(active, betas)]
            for a, (v, omega) in zip(active, actions):
                states[a] = unicycle_step(states[a], v, omega, dt)

            positions = {a: states[a].position for a in agents}
            d = _min_pairwise(positions)
            min_distance = min(min_distance, d)
            if d < params.collision_radius_m:
                collided = True
            for a in agents:
                if np.hypot(*(positions[a] - goal_vecs[a])) <= params.success_radius_m:
                    reached[a] = True
            if record_trajectory:
                for a in agents:
                    trajectory.append(
                        (step, a, float(states[a].position[0]), float(states[a].position[1]),
                         states[a].heading)
                    )
    except (NeighborhoodTimeoutError, InsufficientNeighborsError) as exc:
        failure = str(exc)

    success = all(reached.values()) and not collided and not failure
    return NavigationOutcome(
        success=success,
        steps=steps_taken,
        min_pairwise_distance_m=min_distance,
        collided=collided,
        reached=[reached[a] for a in agents],
        trajectory=trajectory,
        failed=bool(failure),
        failure=failure,
    )
