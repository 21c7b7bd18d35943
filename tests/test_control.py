import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    heading_vectors,
    min_pairwise_distance,
    policy_forward,
    run_navigation_scenario,
    scripted_expert_action,
    stacked_observations,
    stacked_unicycle_step,
    unicycle_step,
    wrap_angle,
)
from neuromesh.aggregation import AggregationConfig
from neuromesh.errors import ShapeError
from neuromesh import netsim
from neuromesh.netsim import LinkModel, MediumModel, Topology
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


class TestWrapAngleIsIdempotent:
    """The loop wraps each new heading once, where per-robot states wrapped
    it twice (in ``unicycle_step`` and again in ``UnicycleState``). Every
    output w of ``wrap_angle`` is r - pi rounded, for a float r in (0, 2pi]:
    exact for r >= pi/2 (Sterbenz), so w + pi gives back r. Otherwise w lies
    in (-pi, -pi/2] (r is a multiple of 2**-51, so w is not -pi) and w + pi
    is exact too. So a second wrap keeps the bits."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.pi)
    @example(-math.pi)
    @example(math.pi / 2)
    @example(-math.pi / 2)
    @example(2 * math.pi)
    @example(-2 * math.pi)
    @example(math.nextafter(2 * math.pi, 0.0))
    @example(math.nextafter(2 * math.pi, 7.0))
    @example(math.nextafter(-math.pi, 0.0))
    @example(5e-324)
    @settings(max_examples=2000, deadline=None)
    def test_second_wrap_keeps_the_bits(self, theta):
        once = wrap_angle(theta)
        assert -math.pi < once <= math.pi
        assert wrap_angle(once).hex() == once.hex()


@st.composite
def stacked_teams(draw):
    """A team of 1 to 12 robots: poses, goals, speeds, turn rates and which
    robots are still driving."""
    robots = draw(st.integers(1, 12))
    coords = st.floats(-100.0, 100.0, allow_nan=False)

    def rows(elements):
        return draw(st.lists(elements, min_size=robots, max_size=robots))

    return {
        "positions": np.array(rows(st.tuples(coords, coords)), dtype=np.float64).reshape(-1, 2),
        "goals": np.array(rows(st.tuples(coords, coords)), dtype=np.float64).reshape(-1, 2),
        "headings": [wrap_angle(h) for h in rows(st.floats(-10.0, 10.0))],
        "speeds": np.array(rows(st.floats(0.0, 1.0)), dtype=np.float64),
        "turns": rows(st.floats(-1.0, 1.0)),
        "active": np.array(rows(st.booleans()), dtype=bool),
        "dt": draw(st.sampled_from([0.05, 0.1, 1.0 / 30.0])),
    }


def _robot(team, i):
    return UnicycleState(team["positions"][i], team["headings"][i], team["speeds"][i])


class TestStackedTeamState:
    """Each row of the stacked helpers equals the one-robot call bit for bit."""

    @given(stacked_teams())
    @settings(max_examples=150, deadline=None)
    def test_observation_rows_match_one_robot_calls(self, team):
        obs = stacked_observations(team["positions"], team["goals"], team["speeds"],
                                   heading_vectors(team["headings"]))
        assert obs.dtype == np.float32 and obs.shape == (len(team["headings"]), 8)
        for i, row in enumerate(obs):
            robot = _robot(team, i)
            assert row.tobytes() == build_observation(robot, team["goals"][i]).tobytes()
            u = np.array([math.cos(robot.heading), math.sin(robot.heading)])
            p, g = robot.position, team["goals"][i]
            old = np.concatenate([g - p, p, u, p + robot.forward_speed * u]).astype(F32)
            assert row.tobytes() == old.tobytes()

    @given(stacked_teams())
    @settings(max_examples=150, deadline=None)
    def test_moving_active_rows_matches_one_robot_steps(self, team):
        active = np.flatnonzero(team["active"])
        positions, headings = team["positions"].copy(), list(team["headings"])
        units = heading_vectors(headings)
        speeds = team["speeds"][active]
        turns = [team["turns"][i] for i in active]
        positions[active], turned = stacked_unicycle_step(
            positions[active], [headings[i] for i in active], units[active], speeds, turns,
            team["dt"])
        for i, heading in zip(active, turned):
            headings[i] = heading
        for i in range(len(headings)):
            if not team["active"][i]:
                assert positions[i].tobytes() == team["positions"][i].tobytes()
                assert headings[i].hex() == team["headings"][i].hex()
                continue
            robot = _robot(team, i)
            one = unicycle_step(robot, float(team["speeds"][i]), team["turns"][i], team["dt"])
            assert positions[i].tobytes() == one.position.tobytes()
            assert headings[i].hex() == one.heading.hex()
            u = np.array([math.cos(robot.heading), math.sin(robot.heading)])
            old = robot.position + float(team["speeds"][i]) * u * team["dt"]
            assert positions[i].tobytes() == old.tobytes()
            twice = wrap_angle(wrap_angle(robot.heading + team["turns"][i] * team["dt"]))
            assert headings[i].hex() == twice.hex()

    @given(stacked_teams())
    @settings(max_examples=150, deadline=None)
    def test_distance_checks_match_per_robot_ones(self, team):
        positions, goals = team["positions"], team["goals"]
        pairs = np.triu_indices(len(positions), k=1)
        want = _min_pairwise(dict(enumerate(positions)))
        assert min_pairwise_distance(positions, pairs) == want
        to_goal = positions - goals
        dist = np.hypot(to_goal[:, 0], to_goal[:, 1])
        for i in range(len(positions)):
            assert dist[i].tobytes() == np.hypot(*(positions[i] - goals[i])).tobytes()


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
        out = run_navigation_scenario(states, goals, params=NavigationParams(max_steps=300))
        assert out.success
        assert not out.collided
        assert out.min_pairwise_distance_m >= 0.30

    def test_no_policy_runs_the_scripted_expert(self):
        # the outcome recorded when the scripted expert needed its own flag
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0, heading=math.pi),
                  2: state(0.0, 1.5, heading=-1.0)}
        goals = {0: np.array([-1.0, -2.0]), 1: np.array([1.0, 2.0]), 2: np.array([0.0, 3.0])}
        out = run_navigation_scenario(states, goals, params=NavigationParams(max_steps=300),
                                      record_trajectory=True)
        assert (out.success, out.steps, out.min_pairwise_distance_m) == (
            True, 100, 1.0240451915974695)
        assert hashlib.sha256(repr(out.trajectory).encode()).hexdigest() == (
            "6b76934b0afcb838c6a9df4aa5088e0121865aee38e1b0cde30d6c33f7f0032b")

    def test_head_on_swapped_goals_collide(self):
        states = {0: state(-1.0, 0.0, heading=0.0), 1: state(1.0, 0.0, heading=math.pi)}
        goals = {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])}
        out = run_navigation_scenario(states, goals, params=NavigationParams(max_steps=300))
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
        out = run_navigation_scenario(states, goals, params=params, record_trajectory=True)
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

    @pytest.mark.parametrize("scripted", [True, False], ids=["scripted", "learned"])
    @pytest.mark.parametrize("goal", [np.array([1.0]), np.zeros(3), np.zeros((2, 1))],
                             ids=["one-component", "three-component", "column"])
    def test_malformed_goal_is_rejected_before_the_first_step(self, scripted, goal):
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0)}
        goals = {0: np.array([-1.0, 2.0]), 1: goal}
        with pytest.raises(ShapeError, match="goal of robot 1 must be 2-D"):
            run_navigation_scenario(states, goals,
                                    policy=None if scripted else ControlPolicy.random(seed=1),
                                    params=NavigationParams(max_steps=20))

    def test_a_scripted_run_builds_no_mesh(self, monkeypatch):
        built = []
        init = netsim.MeshSimulator.__init__

        def counted_init(sim, *args, **kwargs):
            built.append(sim)
            init(sim, *args, **kwargs)

        monkeypatch.setattr(netsim.MeshSimulator, "__init__", counted_init)
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0, heading=math.pi)}
        goals = {0: np.array([-1.0, 2.0]), 1: np.array([1.0, 2.0])}
        assert run_navigation_scenario(states, goals,
                                       params=NavigationParams(max_steps=300)).success
        assert built == []
        run_navigation_scenario(states, goals, policy=ControlPolicy.random(seed=1),
                                params=NavigationParams(max_steps=2))
        assert len(built) == 1

    @pytest.mark.parametrize("name,value", [
        ("topology", Topology.full_mesh([0, 1])), ("medium", MediumModel()),
        ("agg_config", AggregationConfig()), ("seed", 0),
    ])
    def test_a_scripted_call_refuses_what_only_a_mesh_reads(self, name, value):
        states = {0: state(-1.0, 0.0), 1: state(1.0, 0.0)}
        goals = {0: np.array([-1.0, 2.0]), 1: np.array([1.0, 2.0])}
        with pytest.raises(ShapeError, match=f"does not read {name}$"):
            run_navigation_scenario(states, goals, params=NavigationParams(max_steps=20),
                                    **{name: value})

    def test_needs_at_least_two_robots(self):
        with pytest.raises(ShapeError, match="2"):
            run_navigation_scenario({0: state(0, 0)}, {0: np.zeros(2)})

    def test_scripted_action_turns_toward_goal(self):
        v, omega = scripted_expert_action(state(0, 0, heading=0.0), np.array([0.0, 5.0]))
        assert omega > 0.9  # hard left toward +y
        v2, _ = scripted_expert_action(state(0, 0, heading=math.pi / 2), np.array([0.0, 5.0]))
        assert v2 > v  # aligned robot drives faster


def _circle_team(n, radius_m, at_goal=(), facing=0.5):
    """n robots on a circle, each heading for the opposite point; robots in
    ``at_goal`` start on their goal, so they reach it at the first step.
    Robot a starts at heading angle_a + ``facing``: pi faces the centre."""
    states, goals = {}, {}
    for a in range(n):
        angle = 2.0 * math.pi * a / n
        start = np.array([radius_m * math.cos(angle), radius_m * math.sin(angle)])
        goals[a] = start.copy() if a in at_goal else -start
        states[a] = state(*start, heading=angle + facing)
    return states, goals


# (link, mesh seed)
JITTER_LOSSY = (LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0,
                          loss_prob=0.3), 7)
JITTER = (LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0), 3)
SLOW = (LinkModel(base_latency_ns=80_000_000), 0)
DEFAULT = (None, 0)

# name -> (robots, (link, mesh seed), aggregation mode, deterministic actions, robots at goal)
TRAJECTORY_CASES = {
    "3-best-effort-sampled": (3, DEFAULT, "best_effort", False, ()),
    "3-blocking-slow-mean": (3, SLOW, "blocking", True, ()),
    "3-blocking-early-reach-sampled": (3, JITTER, "blocking", False, (1,)),
    "10-lossy-jitter-sampled": (10, JITTER_LOSSY, "best_effort", False, ()),
    "10-lossy-jitter-mean": (10, JITTER_LOSSY, "best_effort", True, ()),
    "10-blocking-jitter-sampled": (10, JITTER, "blocking", False, ()),
    "10-lossy-early-reach-mean": (10, JITTER_LOSSY, "best_effort", True, (2, 7)),
}

# SHA-256 of each case's trajectory, steps and minimum distance, recorded
# before the control loop decoded the team in one stacked pass; the three
# lossy cases were re-recorded when loss and jitter moved to one RNG stream
# per sending robot.
TRAJECTORY_PINS = {
    "3-best-effort-sampled":
        "2d9552ae028ccff54bdd438c254e2c1d39955a47db2ac2889ede020c65482f57",
    "3-blocking-slow-mean":
        "0041381b14031c2c50c4f03fa84cd7d8d4593c473ec3f147a0477e124e1eb99b",
    "3-blocking-early-reach-sampled":
        "5af165adbfe29a881dd8322aa0f79fd30c7d86a50d468661527a4d1a9bf76312",
    "10-lossy-jitter-sampled":
        "248ddb05d85c6a7eacbbb33161917198a233ff661f77b3662823e819060be8a0",
    "10-lossy-jitter-mean":
        "0b760c0f5f774ec5b5f066e9742ad4a58f1a07fd4e967686d7a9b3e7dcc56625",
    "10-blocking-jitter-sampled":
        "8db494253e21d11ff8a0a5eef74443d471462977c683eded7854e0e3883b1203",
    "10-lossy-early-reach-mean":
        "25832bac068074f287a6f00c9580138b38b6ef5f9b205e6f6c5513d2624e1855",
}


def _trajectory_digest(case: str) -> str:
    robots, (link, mesh_seed), mode, deterministic, at_goal = TRAJECTORY_CASES[case]
    states, goals = _circle_team(robots, radius_m=3.0 if robots == 3 else 5.0, at_goal=at_goal)
    policy = (ControlPolicy.random(feature_dim=8, hidden=16, seed=5) if robots == 3
              else ControlPolicy.random(seed=11))
    out = run_navigation_scenario(
        states, goals, policy=policy,
        params=NavigationParams(max_steps=60, deterministic_actions=deterministic, seed=23),
        topology=Topology.full_mesh(states, link), agg_config=AggregationConfig(mode=mode),
        record_trajectory=True, seed=mesh_seed,
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


def _shifted_goals(states, offset):
    return {a: s.position + np.asarray(offset) for a, s in states.items()}


def _scripted(team, max_steps=200):
    states, goals = team
    return run_navigation_scenario(states, goals, params=NavigationParams(max_steps=max_steps),
                                   record_trajectory=True)


def _learned_inward(robots, radius_m, mode):
    states, goals = _circle_team(robots, radius_m, at_goal=(1,), facing=math.pi)
    policy = (ControlPolicy.random(feature_dim=8, hidden=16, seed=5) if robots == 3
              else ControlPolicy.random(seed=11))
    return run_navigation_scenario(
        states, goals, policy=policy, params=NavigationParams(max_steps=60, seed=23),
        topology=Topology.full_mesh(states, JITTER[0]), agg_config=AggregationConfig(mode=mode),
        record_trajectory=True, seed=JITTER[1],
    )


def _head_on():
    states = {0: state(-1.0, 0.0, heading=0.0), 1: state(1.0, 0.0, heading=math.pi)}
    return states, {0: np.array([1.0, 0.0]), 1: np.array([-1.0, 0.0])}


def _ten_shifted():
    states, _ = _circle_team(10, 5.0)
    goals = _shifted_goals(states, (0.0, 2.0))
    goals[1] = states[1].position.copy()
    return states, goals


# name -> (run, (steps, collided, success)). The scripted policy, runs that
# end in a collision (one of them before the first step) and robots that
# start on their goal.
OUTCOME_CASES = {
    "scripted-3-circle-at-goal": (lambda: _scripted(_circle_team(3, 3.0, at_goal=(1,))),
                                  (200, False, False)),
    "scripted-10-circle-at-goal": (lambda: _scripted(_circle_team(10, 5.0, at_goal=(1,))),
                                   (200, False, False)),
    "scripted-10-shifted-at-goal": (lambda: _scripted(_ten_shifted()), (127, False, True)),
    "scripted-2-head-on-collision": (lambda: _scripted(_head_on()), (34, True, False)),
    "learned-3-inward-collision": (lambda: _learned_inward(3, 0.6, "best_effort"),
                                   (35, True, False)),
    "learned-10-inward-collision-blocking": (lambda: _learned_inward(10, 1.5, "blocking"),
                                             (59, True, False)),
    "learned-3-start-collided": (lambda: _learned_inward(3, 0.1, "best_effort"),
                                 (0, True, False)),
}

# SHA-256 of each case's trajectory, steps, collision flag, reached flags and
# minimum distance, recorded before the control loop kept one stacked team
# state per run.
OUTCOME_PINS = {
    "scripted-3-circle-at-goal":
        "e03c3d6e2c8848d0c98e7443c504d727b233db081f78c814ed57215099e56fb4",
    "scripted-10-circle-at-goal":
        "2cbcecaff6a265f43684f403c56f7638d414b6def60e43741de502c9fdee3abe",
    "scripted-10-shifted-at-goal":
        "711d67c921e12cd97d91dd4eb1a7d3dc069da4dba07d6506d38a0285acae25ce",
    "scripted-2-head-on-collision":
        "ca2584bf6c0d018745a0085db93d2be074e46f7ab56b9ee0c32b44a287ffe6f9",
    "learned-3-inward-collision":
        "368734783d47b5597a5257e7dcc5efb6d8e23709f700b5e576b696479bfe673e",
    "learned-10-inward-collision-blocking":
        "ee79b36d3ca8996639d978c8fec2a45143ee5ad3a69aedc93b5c89dc8d8fe47a",
    "learned-3-start-collided":
        "5a6acfcebffe0ea3e9fedd12631dd4e15c7eea6a06cc75cfec11cc66e21066fa",
}


def _outcome_digest(out) -> str:
    digest = hashlib.sha256()
    for step, agent, x, y, heading in out.trajectory:
        digest.update(f"{step} {agent} {x.hex()} {y.hex()} {heading.hex()}\n".encode())
    digest.update(f"{out.steps} {out.collided} {out.reached} "
                  f"{out.min_pairwise_distance_m.hex()}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(OUTCOME_CASES))
def test_scripted_and_collision_outcomes_match_pins(case):
    run, (steps, collided, success) = OUTCOME_CASES[case]
    out = run()
    assert not out.failed
    assert (out.steps, out.collided, out.success) == (steps, collided, success)
    assert _outcome_digest(out) == OUTCOME_PINS[case]
