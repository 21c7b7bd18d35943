import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromesh.aggregation import AggregationConfig
from neuromesh.assignment import (
    AssignmentModel,
    brute_force_solve,
    dequantize_message,
    hungarian_solve,
    quantize_message,
    run_assignment_scenario,
    sr_metric,
    tcp_metric,
)
from neuromesh.errors import ShapeError
from neuromesh.netsim import LinkModel, Topology

F32 = np.float32


class TestHungarianSolve:
    def test_one_by_one(self):
        out = hungarian_solve([[4.0]])
        assert out.goals == [0]
        assert out.total_cost == 4.0

    def test_two_by_two(self):
        out = hungarian_solve([[1.0, 2.0], [2.0, 1.0]])
        assert out.goals == [0, 1]
        assert out.total_cost == 2.0

    def test_seeded_seven_by_seven_matches_enumeration(self):
        rng = np.random.default_rng(71)
        costs = rng.uniform(0, 10, size=(7, 7)).astype(F32)
        ours = hungarian_solve(costs)
        ref = brute_force_solve(costs)
        assert ours.total_cost == ref.total_cost
        assert ours.goals == ref.goals

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            hungarian_solve(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError, match="finite"):
            hungarian_solve([[np.inf, 1.0], [1.0, 2.0]])

    def test_tie_break_is_lexicographically_smallest(self):
        # all-equal costs: every permutation is optimal; identity must win
        out = hungarian_solve(np.ones((4, 4)))
        assert out.goals == [0, 1, 2, 3]
        # crafted tie: two optimal assignments, [0,1] and [1,0]
        tied = hungarian_solve([[1.0, 1.0], [1.0, 1.0]])
        assert tied.goals == [0, 1]

    def test_tie_break_matches_brute_force_on_integer_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            costs = rng.integers(0, 3, size=(5, 5)).astype(np.float64)
            ours = hungarian_solve(costs)
            ref = brute_force_solve(costs)
            assert ours.total_cost == ref.total_cost
            assert ours.goals == ref.goals

    def test_row_shift_keeps_assignment_changes_cost_by_constant(self):
        rng = np.random.default_rng(31)
        costs = rng.uniform(0, 10, size=(5, 5))
        base = hungarian_solve(costs)
        shifted = costs.copy()
        shifted[2] += 7.5
        out = hungarian_solve(shifted)
        assert out.goals == base.goals
        assert out.total_cost == pytest.approx(base.total_cost + 7.5, abs=1e-9)


# SHA-256 over the goal vectors of pin_matrices(), recorded with the
# per-candidate Kuhn tie-break that the incremental repair replaced.
SOLVER_PIN_SHA256 = "ea2ad006d8ddb8f190ded568007e3d4b095da8b70bc124e569127ab1dea84705"


def pin_matrices():
    """Seeded random, integer-tie (0-2) and all-equal matrices above brute-force size."""
    rng = np.random.default_rng(20261018)
    for n in (10, 20, 40, 80):
        yield rng.uniform(0.0, 10.0, size=(n, n))
        yield rng.integers(0, 3, size=(n, n)).astype(np.float64)
        yield np.ones((n, n))


class TestSolverBeyondBruteForce:
    def test_goal_vectors_match_pin(self):
        h = hashlib.sha256()
        for cost in pin_matrices():
            h.update(np.asarray(hungarian_solve(cost).goals, dtype="<i4").tobytes())
        assert h.hexdigest() == SOLVER_PIN_SHA256

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_total_cost_matches_scipy(self, n):
        optimize = pytest.importorskip("scipy.optimize")
        cost = np.random.default_rng(n).uniform(0.0, 10.0, size=(n, n))
        rows, cols = optimize.linear_sum_assignment(cost)
        ours = hungarian_solve(cost)
        assert sorted(ours.goals) == list(range(n))
        assert ours.total_cost == pytest.approx(float(cost[rows, cols].sum()), rel=1e-12)


class TestBruteForce:
    def test_two_by_two(self):
        assert brute_force_solve([[1.0, 2.0], [2.0, 1.0]]).total_cost == 2.0

    def test_zero_diagonal_prefers_identity(self):
        costs = np.ones((4, 4)) * 9
        np.fill_diagonal(costs, 0.0)
        out = brute_force_solve(costs)
        assert out.goals == [0, 1, 2, 3]
        assert out.total_cost == 0.0

    def test_factorial_guard(self):
        with pytest.raises(ShapeError, match="<= 9"):
            brute_force_solve(np.ones((10, 10)))

    def test_agreement_on_thousand_seeded_instances(self):
        rng = np.random.default_rng(111)
        for _ in range(1000):
            costs = rng.uniform(0, 10, size=(5, 5)).astype(F32)
            assert hungarian_solve(costs).total_cost == brute_force_solve(costs).total_cost


class TestMetrics:
    def test_sr_full_coverage(self):
        assert sr_metric(100, 5, 20) == 100.0

    def test_sr_partial(self):
        assert sr_metric(85, 5, 20) == 85.0

    def test_sr_zero(self):
        assert sr_metric(0, 5, 20) == 0.0

    def test_sr_rejects_impossible_count(self):
        with pytest.raises(ShapeError):
            sr_metric(101, 5, 20)

    def test_tcp_identical_costs(self):
        assert tcp_metric([(100.0, 100.0), (50.0, 50.0)]) == 0.0

    def test_tcp_single_pair(self):
        assert tcp_metric([(102.0, 100.0)]) == 2.0

    def test_tcp_mean_over_tests(self):
        assert tcp_metric([(110.0, 100.0), (100.0, 100.0)]) == 5.0

    def test_tcp_rejects_nonpositive_optimum(self):
        with pytest.raises(ShapeError, match="positive"):
            tcp_metric([(1.0, 0.0)])


class TestQuantizeMessage:
    def test_exact_budget_is_lossless(self):
        vec = np.arange(16, dtype=F32)
        payload, recovered = quantize_message(vec, 64)
        assert len(payload) == 64
        assert np.array_equal(recovered, vec)

    def test_small_budget_truncates_and_pads(self):
        vec = np.arange(1, 17, dtype=F32)
        payload, recovered = quantize_message(vec, 40)
        assert len(payload) == 40
        assert np.array_equal(recovered[:10], vec[:10])
        assert np.array_equal(recovered[10:], np.zeros(6, dtype=F32))

    def test_oversized_budget_is_identical_to_lossless(self):
        vec = np.arange(16, dtype=F32)
        _, at_64 = quantize_message(vec, 64)
        _, at_256 = quantize_message(vec, 256)
        assert np.array_equal(at_64, at_256)

    def test_budget_below_one_float_rejected(self):
        with pytest.raises(ShapeError, match="budget"):
            quantize_message(np.ones(4, dtype=F32), 3)

    @given(
        dim=st.integers(1, 24),
        budget_words=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_identity_when_budget_covers_dim(self, dim, budget_words):
        vec = np.linspace(-5, 5, dim).astype(F32)
        budget = budget_words * 4
        _, recovered = quantize_message(vec, budget)
        if budget >= 4 * dim:
            assert np.array_equal(recovered, vec)
        else:
            kept = budget // 4
            assert np.array_equal(recovered[:kept], vec[:kept])
            assert not recovered[kept:].any()

    def test_dequantize_rejects_oversized_payload(self):
        with pytest.raises(ShapeError):
            dequantize_message(bytes(16), dim=2)


class TestAssignmentScenario:
    def test_expert_mode_is_optimal_and_fully_covered(self):
        rng = np.random.default_rng(41)
        costs = rng.uniform(1, 10, size=(5, 5)).astype(F32)
        out = run_assignment_scenario(costs, mode="expert")
        assert not out.failed
        assert out.covered_goals == 5
        assert out.cost_out == out.cost_opt
        assert sorted(out.choices) == [0, 1, 2, 3, 4]

    def test_expert_lossless_budget_stays_optimal(self):
        rng = np.random.default_rng(43)
        costs = rng.uniform(1, 10, size=(5, 5)).astype(F32)
        out = run_assignment_scenario(costs, mode="expert", message_budget_bytes=128)
        assert out.covered_goals == 5
        assert out.cost_out == out.cost_opt

    def test_truncating_budget_can_break_coverage_but_never_crashes(self):
        rng = np.random.default_rng(47)
        covered = []
        for _ in range(10):
            costs = rng.uniform(1, 10, size=(5, 5)).astype(F32)
            out = run_assignment_scenario(costs, mode="expert", message_budget_bytes=8)
            assert not out.failed
            assert 1 <= out.covered_goals <= 5
            covered.append(out.covered_goals)
        assert min(covered) < 5  # 2 of 5 cost entries per row is genuinely lossy

    def test_learned_mode_with_random_weights_counts_conflicts(self):
        rng = np.random.default_rng(53)
        model = AssignmentModel.random(n_goals=5, seed=7)
        total_covered = 0
        for _ in range(10):
            costs = rng.uniform(1, 10, size=(5, 5)).astype(F32)
            out = run_assignment_scenario(costs, mode="learned", model=model)
            # coverage oracle: recount distinct choices independently
            assert out.covered_goals == len(set(out.choices))
            assert len(out.choices) == 5
            total_covered += out.covered_goals
        assert total_covered < 50  # untrained weights conflict somewhere

    def test_silenced_robot_in_blocking_mode_fails_the_run(self):
        rng = np.random.default_rng(59)
        costs = rng.uniform(1, 10, size=(4, 4)).astype(F32)
        agg = AggregationConfig(mode="blocking", timeout_ns=50_000_000)
        out = run_assignment_scenario(costs, mode="expert", agg_config=agg, silenced={2})
        assert out.failed
        assert "2" in out.failure
        assert out.choices == []

    def test_too_few_live_neighbors_fails_the_run(self):
        costs = np.random.default_rng(67).uniform(1, 10, size=(4, 4)).astype(F32)
        agg = AggregationConfig(mode="best_effort", min_neighbors=1)
        lossy = Topology.full_mesh(range(4), LinkModel(loss_prob=1.0))
        out = run_assignment_scenario(costs, mode="expert", agg_config=agg, topology=lossy)
        assert out.failed
        assert "need at least 1" in out.failure
        assert out.choices == []

    def test_tcp_expert_vs_expert_is_zero(self):
        rng = np.random.default_rng(61)
        pairs = []
        for _ in range(5):
            costs = rng.uniform(1, 10, size=(5, 5)).astype(F32)
            out = run_assignment_scenario(costs, mode="expert")
            pairs.append((out.cost_out, out.cost_opt))
        assert tcp_metric(pairs) == 0.0
