import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromesh.control import (
    BetaParams,
    ControlPolicy,
    NavigationParams,
    UnicycleState,
    _min_pairwise,
    beta_mean_action,
    beta_sample,
    build_observation,
    policy_forward,
    run_navigation_scenario,
    scripted_expert_action,
    unicycle_step,
    wrap_angle,
)
from neuromesh.aggregation import AggregationConfig
from neuromesh.errors import ShapeError
from neuromesh.netsim import LinkModel, Topology
from neuromesh.tensors import MlpSpec, random_mlp

from oracles import naive_diff_sum, naive_mlp_forward

F32 = np.float32


def state(x, y, heading=0.0, v=0.0):
    return UnicycleState(np.array([x, y]), heading, forward_speed=v)


class TestBuildObservation:
    def test_layout_fixture(self):
        obs = build_observation(state(0, 0, heading=0.0, v=0.5), np.array([1.0, 0.0]))
        assert np.array_equal(obs, np.array([1, 0, 0, 0, 1, 0, 0.5, 0], dtype=F32))

    def test_at_goal_zeroes_the_delta_block(self):
        obs = build_observation(state(2, 3), np.array([2.0, 3.0]))
        assert np.array_equal(obs[:2], np.zeros(2, dtype=F32))

    def test_quarter_turn_heading_and_lookahead(self):
        obs = build_observation(state(2, 3, heading=math.pi / 2, v=1.0), np.array([0.0, 0.0]))
        assert np.allclose(obs[4:6], [0.0, 1.0], atol=1e-7)
        assert np.allclose(obs[6:8], [2.0, 4.0], atol=1e-6)

    def test_heading_block_has_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = state(*rng.uniform(-5, 5, size=2), heading=rng.uniform(-np.pi, np.pi))
            obs = build_observation(s, rng.uniform(-5, 5, size=2))
            assert abs(float(np.hypot(obs[4], obs[5])) - 1.0) < 1e-6

    def test_translation_covariance(self):
        rng = np.random.default_rng(11)
        s = state(1.0, -2.0, heading=0.7, v=0.3)
        goal = np.array([4.0, 1.0])
        shift = np.array([10.0, -20.0])
        shifted = UnicycleState(s.position + shift, s.heading, s.forward_speed)
        a = build_observation(s, goal).astype(np.float64)
        b = build_observation(shifted, goal + shift).astype(np.float64)
        assert np.allclose(b[:2], a[:2], atol=1e-5)  # goal delta invariant
        assert np.allclose(b[2:4], a[2:4] + shift, atol=1e-4)
        assert np.allclose(b[4:6], a[4:6], atol=1e-7)  # heading invariant
        assert np.allclose(b[6:8], a[6:8] + shift, atol=1e-4)


class TestPolicyForward:
    def test_zero_decoder_gives_shifted_softplus_of_zero(self):
        policy = ControlPolicy.random(seed=1)
        zero_decoder = MlpSpec(
            [np.zeros_like(w) for w in policy.decoder.weights],
            [np.zeros_like(b) for b in policy.decoder.biases],
        )
        policy = ControlPolicy(policy.encoder, policy.pairwise, zero_decoder)
        obs = np.ones(8, dtype=F32)
        params = policy_forward(policy, obs, [])
        expected = 1.0 + math.log(2.0)
        assert np.allclose(params.as_array(), expected, atol=1e-9)

    def test_no_neighbors_uses_zero_aggregate(self):
        policy = ControlPolicy.random(seed=2)
        obs = np.ones(8, dtype=F32)
        params = policy_forward(policy, obs, [])
        from neuromesh.tensors import mlp_forward, softplus_shift

        raw = mlp_forward(policy.decoder, np.zeros(policy.feature_dim, dtype=F32))
        want = softplus_shift(raw)
        assert np.allclose(params.as_array(), want, atol=1e-12)

    def test_seeded_chain_matches_unfused_oracle(self):
        policy = ControlPolicy.random(feature_dim=8, hidden=16, seed=5)
        rng = np.random.default_rng(6)
        obs = rng.normal(size=8).astype(F32)
        f = np.array(naive_mlp_forward(policy.encoder, obs), dtype=F32)
        neighbors = [rng.normal(size=8).astype(F32) for _ in range(2)]
        h = np.array(naive_diff_sum(policy.pairwise, f, neighbors), dtype=F32)
        raw = naive_mlp_forward(policy.decoder, h)
        want = [math.log1p(math.exp(v)) + 1.0 if v < 30 else v + 1.0 for v in raw]
        got = policy_forward(policy, obs, neighbors)
        assert np.allclose(got.as_array(), want, atol=1e-5)

    def test_outputs_always_exceed_one(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            policy = ControlPolicy.random(seed=trial)
            obs = rng.uniform(-3, 3, size=8).astype(F32)
            nbrs = [rng.uniform(-1, 1, size=policy.feature_dim).astype(F32)]
            params = policy_forward(policy, obs, nbrs)
            assert (params.as_array() > 1.0).all()

    def test_beta_params_validation(self):
        with pytest.raises(ShapeError, match="alpha_v"):
            BetaParams(0.5, 2.0, 2.0, 2.0)

    def test_decoder_width_must_be_four(self):
        enc = random_mlp([8, 16, 4], seed=0)
        pair = random_mlp([4, 8, 4], seed=1)
        bad_dec = random_mlp([4, 8, 3], seed=2)
        with pytest.raises(ShapeError, match="4"):
            ControlPolicy(enc, pair, bad_dec)


class TestBetaSampling:
    def test_symmetric_params_center_on_midpoint(self):
        params = BetaParams(3.0, 3.0, 3.0, 3.0)
        rng = random.Random(42)
        n = 100_000
        vs = [beta_sample(params, rng, (0.0, 1.0), (-1.0, 1.0))[0] for _ in range(n)]
        mean = sum(vs) / n
        # Beta(3,3) has stddev sqrt(1/28) ~ 0.189; 3 sigma of the mean
        assert abs(mean - 0.5) < 3 * 0.189 / math.sqrt(n)

    def test_lopsided_params_concentrate_near_upper_bound(self):
        params = BetaParams(1000.0, 1.01, 1000.0, 1.01)
        rng = random.Random(1)
        samples = [beta_sample(params, rng, (0.0, 0.5), (-1.0, 1.0)) for _ in range(500)]
        assert all(v > 0.45 for v, _ in samples)
        assert all(w > 0.9 for _, w in samples)

    def test_seed_replay_is_identical(self):
        params = BetaParams(2.0, 5.0, 4.0, 3.0)
        a = [beta_sample(params, random.Random(9)) for _ in range(1)]
        b = [beta_sample(params, random.Random(9)) for _ in range(1)]
        seq_a = [beta_sample(params, rng) for rng in [random.Random(9)] for _ in range(5)]
        rng2 = random.Random(9)
        seq_b = [beta_sample(params, rng2) for _ in range(5)]
        assert a == b
        rng1 = random.Random(9)
        assert [beta_sample(params, rng1) for _ in range(5)] == seq_b

    def test_mean_action_maps_beta_mean_onto_bounds(self):
        v, w = beta_mean_action(BetaParams(2.0, 2.0, 3.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
        assert v == pytest.approx(0.5)
        assert w == pytest.approx(0.5)  # mean 3/4 mapped onto [-1, 1]


class TestUnicycleStep:
    def test_straight_line_advance(self):
        s = unicycle_step(state(0, 0, heading=0.0), 1.0, 0.0, dt=1.0)
        assert np.allclose(s.position, [1.0, 0.0], atol=1e-12)

    def test_pure_rotation_keeps_position(self):
        s = unicycle_step(state(2, 2, heading=0.0), 0.0, math.pi, dt=1.0)
        assert np.allclose(s.position, [2.0, 2.0])
        assert s.heading == pytest.approx(math.pi)

    def test_full_turn_wraps_back(self):
        s = unicycle_step(state(0, 0, heading=0.3), 0.0, 2 * math.pi, dt=1.0)
        assert s.heading == pytest.approx(0.3, abs=1e-9)

    def test_position_updates_with_pre_turn_heading(self):
        s = unicycle_step(state(0, 0, heading=0.0), 1.0, math.pi / 2, dt=1.0)
        assert np.allclose(s.position, [1.0, 0.0], atol=1e-12)

    def test_dt_must_be_positive(self):
        with pytest.raises(ShapeError):
            unicycle_step(state(0, 0), 1.0, 0.0, dt=0.0)

    @given(st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_wrap_angle_lands_in_half_open_interval(self, theta):
        wrapped = wrap_angle(theta)
        assert -math.pi < wrapped <= math.pi
        assert abs(math.sin(wrapped) - math.sin(theta)) < 1e-9
        assert abs(math.cos(wrapped) - math.cos(theta)) < 1e-9


class TestMinPairwise:
    def test_matches_double_loop_over_seeded_layouts(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            positions = {a: rng.uniform(-50.0, 50.0, size=2) for a in range(10)}
            want = math.inf
            for a in range(10):
                for b in range(a + 1, 10):
                    want = min(want, float(np.hypot(*(positions[a] - positions[b]))))
            assert _min_pairwise(positions) == want

    def test_single_robot_has_no_pair(self):
        assert _min_pairwise({0: np.zeros(2)}) == math.inf


class TestNavigationScenario:
    def test_scripted_expert_reaches_distinct_goals(self):
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0, heading=math.pi)}
        goals = {0: np.array([-1.0, 2.0]), 1: np.array([1.0, 2.0])}
        out = run_navigation_scenario(states, goals, scripted=True,
                                      params=NavigationParams(max_steps=300))
        assert out.success
        assert not out.collided
        assert out.min_pairwise_distance_m >= 0.30

    def test_head_on_swapped_goals_collide(self):
        states = {0: state(-1.0, 0.0, heading=0.0), 1: state(1.0, 0.0, heading=math.pi)}
        goals = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])}
        out = run_navigation_scenario(states, goals, scripted=True,
                                      params=NavigationParams(max_steps=300))
        assert out.collided
        assert not out.success
        assert out.min_pairwise_distance_m < 0.30

    def test_learned_policy_replays_bit_identically(self):
        policy = ControlPolicy.random(seed=3)
        def make_team():
            return (
                {0: state(-1, 0), 1: state(1, 0, heading=math.pi), 2: state(0, 1)},
                {0: np.array([1.0, 1.0]), 1: np.array([-1.0, 1.0]), 2: np.array([0.0, -1.0])},
            )

        runs = []
        for _ in range(2):
            states, goals = make_team()
            out = run_navigation_scenario(
                states, goals, policy=policy,
                params=NavigationParams(max_steps=40, seed=17),
                record_trajectory=True,
            )
            runs.append(out)
        assert runs[0].trajectory == runs[1].trajectory
        assert runs[0].steps == runs[1].steps
        assert runs[0].min_pairwise_distance_m == runs[1].min_pairwise_distance_m

    def test_collision_free_flag_verified_by_trajectory_replay(self):
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0, heading=math.pi)}
        goals = {0: np.array([-1.0, 2.0]), 1: np.array([1.0, 2.0])}
        params = NavigationParams(max_steps=300)
        out = run_navigation_scenario(states, goals, scripted=True, params=params,
                                      record_trajectory=True)
        assert out.success
        by_step = {}
        for step, agent, x, y, _ in out.trajectory:
            by_step.setdefault(step, {})[agent] = np.array([x, y])
        for positions in by_step.values():
            if len(positions) == 2:
                d = float(np.hypot(*(positions[0] - positions[1])))
                assert d >= params.collision_radius_m

    def learned_run(self, link, agg_config, max_steps=10):
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0, heading=math.pi), 2: state(0.0, 1.5)}
        goals = {0: np.array([-1.0, 2.0]), 1: np.array([1.0, 2.0]), 2: np.array([0.0, -1.5])}
        return run_navigation_scenario(
            states, goals, policy=ControlPolicy.random(feature_dim=8, hidden=16, seed=5),
            params=NavigationParams(max_steps=max_steps, deterministic_actions=True),
            topology=Topology.full_mesh(states, link), agg_config=agg_config,
            record_trajectory=True,
        )

    def test_blocking_waits_for_neighbors_slower_than_a_tick(self):
        # 80 ms links against a 50 ms tick: best-effort starts alone, blocking waits
        slow = LinkModel(base_latency_ns=80_000_000)
        blocking = self.learned_run(slow, AggregationConfig(mode="blocking"))
        best_effort = self.learned_run(slow, AggregationConfig(mode="best_effort"))
        assert not blocking.failed and not best_effort.failed
        assert blocking.trajectory != best_effort.trajectory

    def test_blocking_waits_for_each_steps_features(self):
        # every step waits for that step's features, so link latency cannot
        # change what a blocking team computes
        def blocking_run(latency_ns):
            return self.learned_run(LinkModel(base_latency_ns=latency_ns),
                                    AggregationConfig(mode="blocking"), max_steps=20)

        slow, instant = blocking_run(80_000_000), blocking_run(0)
        assert not slow.failed and slow.steps == 20
        assert slow.trajectory == instant.trajectory

    @pytest.mark.parametrize("agg_config", [
        AggregationConfig(mode="blocking", timeout_ns=50_000_000),
        AggregationConfig(mode="best_effort", min_neighbors=1),
    ])
    def test_total_loss_is_a_failed_outcome(self, agg_config):
        out = self.learned_run(LinkModel(loss_prob=1.0), agg_config)
        assert out.failed
        assert not out.success
        assert out.steps == 1
        assert "neighbors" in out.failure

    def test_needs_at_least_two_robots(self):
        with pytest.raises(ShapeError, match="2"):
            run_navigation_scenario({0: state(0, 0)}, {0: np.zeros(2)}, scripted=True)

    def test_scripted_action_turns_toward_goal(self):
        v, omega = scripted_expert_action(state(0, 0, heading=0.0), np.array([0.0, 5.0]))
        assert omega > 0.9  # hard left toward +y
        v2, _ = scripted_expert_action(state(0, 0, heading=math.pi / 2), np.array([0.0, 5.0]))
        assert v2 > v  # aligned robot drives faster


def _circle_team(n, radius_m, at_goal=()):
    """n robots on a circle, each heading for the opposite point; robots in
    ``at_goal`` start on their goal, so they reach it at the first step."""
    states, goals = {}, {}
    for a in range(n):
        angle = 2.0 * math.pi * a / n
        start = np.array([radius_m * math.cos(angle), radius_m * math.sin(angle)])
        goals[a] = start.copy() if a in at_goal else -start
        states[a] = state(*start, heading=angle + 0.5)
    return states, goals


JITTER_LOSSY = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0,
                         loss_prob=0.3, seed=7)
JITTER = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0, seed=3)
SLOW = LinkModel(base_latency_ns=80_000_000)

# name -> (robots, link, aggregation mode, deterministic actions, robots at goal)
TRAJECTORY_CASES = {
    "3-best-effort-sampled": (3, None, "best_effort", False, ()),
    "3-blocking-slow-mean": (3, SLOW, "blocking", True, ()),
    "3-blocking-early-reach-sampled": (3, JITTER, "blocking", False, (1,)),
    "10-lossy-jitter-sampled": (10, JITTER_LOSSY, "best_effort", False, ()),
    "10-lossy-jitter-mean": (10, JITTER_LOSSY, "best_effort", True, ()),
    "10-blocking-jitter-sampled": (10, JITTER, "blocking", False, ()),
    "10-lossy-early-reach-mean": (10, JITTER_LOSSY, "best_effort", True, (2, 7)),
}

# SHA-256 of each case's trajectory, steps and minimum distance, recorded
# before the control loop decoded the team in one stacked pass.
TRAJECTORY_PINS = {
    "3-best-effort-sampled":
        "2d9552ae028ccff54bdd438c254e2c1d39955a47db2ac2889ede020c65482f57",
    "3-blocking-slow-mean":
        "0041381b14031c2c50c4f03fa84cd7d8d4593c473ec3f147a0477e124e1eb99b",
    "3-blocking-early-reach-sampled":
        "5af165adbfe29a881dd8322aa0f79fd30c7d86a50d468661527a4d1a9bf76312",
    "10-lossy-jitter-sampled":
        "5a261e4fa2abbe3dc0471e75366af38fe9ffe97c2eeaeb5dccf5b387de0a5bc6",
    "10-lossy-jitter-mean":
        "3192063c891d4b6e2bf9445389c67996dde95f801ace478299a97e02b6be249f",
    "10-blocking-jitter-sampled":
        "8db494253e21d11ff8a0a5eef74443d471462977c683eded7854e0e3883b1203",
    "10-lossy-early-reach-mean":
        "1dc7d3acf0d5597705fab84aef83f34f8cdacf36d813962eb07e63a3280255a3",
}


def _trajectory_digest(case: str) -> str:
    robots, link, mode, deterministic, at_goal = TRAJECTORY_CASES[case]
    states, goals = _circle_team(robots, radius_m=3.0 if robots == 3 else 5.0, at_goal=at_goal)
    policy = (ControlPolicy.random(feature_dim=8, hidden=16, seed=5) if robots == 3
              else ControlPolicy.random(seed=11))
    out = run_navigation_scenario(
        states, goals, policy=policy,
        params=NavigationParams(max_steps=60, deterministic_actions=deterministic, seed=23),
        topology=Topology.full_mesh(states, link), agg_config=AggregationConfig(mode=mode),
        record_trajectory=True,
    )
    assert not out.failed and not out.collided and out.steps == 60
    assert out.reached == [a in at_goal for a in range(robots)]
    digest = hashlib.sha256()
    for step, agent, x, y, heading in out.trajectory:
        digest.update(f"{step} {agent} {x.hex()} {y.hex()} {heading.hex()}\n".encode())
    digest.update(f"{out.steps} {out.min_pairwise_distance_m.hex()}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
def test_learned_trajectories_match_pins(case):
    assert _trajectory_digest(case) == TRAJECTORY_PINS[case]
