import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neuromesh.assignment as assignment_mod
from neuromesh.aggregation import AggregationConfig
from neuromesh.assignment import (
    Assignment,
    AssignmentModel,
    _augmenting_path_duals,
    _dequantize_rows,
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

    def test_empty_matrix_matches_brute_force(self):
        empty = np.zeros((0, 0))
        assert hungarian_solve(empty) == brute_force_solve(empty) == Assignment([], 0.0)

    def test_row_shift_keeps_assignment_changes_cost_by_constant(self):
        rng = np.random.default_rng(31)
        costs = rng.uniform(0, 10, size=(5, 5))
        base = hungarian_solve(costs)
        shifted = costs.copy()
        shifted[2] += 7.5
        out = hungarian_solve(shifted)
        assert out.goals == base.goals
        assert out.total_cost == pytest.approx(base.total_cost + 7.5, abs=1e-9)


def certificate_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    """One seeded n x n cost matrix of the named kind."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(0.0, 10.0, size=(n, n))
    if kind == "integer-ties":
        return rng.integers(0, 3, size=(n, n)).astype(np.float64)
    if kind == "negative":
        return rng.uniform(-10.0, 0.0, size=(n, n))
    if kind == "row-shift":
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        cost[rng.integers(n)] += rng.uniform(-50.0, 50.0)
        return cost
    if kind == "all-equal":
        return np.full((n, n), rng.uniform(-5.0, 5.0))
    # float32-rounded, as the CLI draws its random instances
    return rng.uniform(1.0, 10.0, size=(n, n)).astype(np.float32).astype(np.float64)


class TestDualCertificate:
    @given(
        kind=st.sampled_from(["random", "integer-ties", "negative", "row-shift",
                              "all-equal", "float32"]),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_duals_certify_the_matching(self, kind, n, seed):
        cost = certificate_matrix(kind, n, seed)
        p, u, v = _augmenting_path_duals(cost)
        assert len(p) == len(u) == len(v) == n + 1
        assert sorted(p[1:]) == list(range(1, n + 1))
        tol = 1e-9 * (1.0 + float(np.abs(cost).max()))
        reduced = cost - u[1:, None] - v[None, 1:]
        assert reduced.min() >= -tol
        rows = np.asarray(p[1:]) - 1
        assert np.abs(reduced[rows, np.arange(n)]).max() <= tol


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


# SHA-256 over the goal vectors of large_pin_matrices(), recorded with the
# e-maxx duals loop that the column-reduction start replaced.
SOLVER_PIN_LARGE_SHA256 = "8647a66f1f7a6ebe22c954914d735b6457a3f8da1215765a7fbb9110e90c4b98"


def large_pin_matrices():
    """Seeded integer-tie (0-2) matrices at n = 120 and 200, and a random one at 120."""
    rng = np.random.default_rng(20261019)
    yield rng.integers(0, 3, size=(120, 120)).astype(np.float64)
    yield rng.integers(0, 3, size=(200, 200)).astype(np.float64)
    yield rng.uniform(0.0, 10.0, size=(120, 120))


def goal_digest(matrices) -> str:
    h = hashlib.sha256()
    for cost in matrices:
        h.update(np.asarray(hungarian_solve(cost).goals, dtype="<i4").tobytes())
    return h.hexdigest()


class TestSolverBeyondBruteForce:
    def test_goal_vectors_match_pin(self):
        assert goal_digest(pin_matrices()) == SOLVER_PIN_SHA256

    def test_large_goal_vectors_match_pin(self):
        assert goal_digest(large_pin_matrices()) == SOLVER_PIN_LARGE_SHA256

    @pytest.mark.parametrize("n", [50, 100, 200, 500])
    def test_total_cost_matches_scipy(self, n):
        optimize = pytest.importorskip("scipy.optimize")
        cost = np.random.default_rng(n).uniform(0.0, 10.0, size=(n, n))
        rows, cols = optimize.linear_sum_assignment(cost)
        ours = hungarian_solve(cost)
        assert sorted(ours.goals) == list(range(n))
        assert ours.total_cost == pytest.approx(float(cost[rows, cols].sum()), rel=1e-12)


def count_dual_solves(monkeypatch) -> list:
    """Patch ``_augmenting_path_duals`` to log each run; returns the log."""
    runs = []
    duals = assignment_mod._augmenting_path_duals
    monkeypatch.setattr(assignment_mod, "_augmenting_path_duals",
                        lambda cost: runs.append(cost.shape) or duals(cost))
    return runs


class TestSolveMemo:
    def test_memo_gives_the_fresh_answer(self):
        rng = np.random.default_rng(5)
        ties = [rng.integers(0, 3, size=(5, 5)).astype(np.float64) for _ in range(50)]
        memo = {}
        for cost in [*pin_matrices(), *ties]:
            want = hungarian_solve(cost)
            assert hungarian_solve(cost, memo=memo) == want  # a miss, or a tie seen before
            assert hungarian_solve(cost, memo=memo) == want  # a hit

    def test_repeated_matrix_is_solved_once(self, monkeypatch):
        runs = count_dual_solves(monkeypatch)
        cost = np.random.default_rng(3).uniform(0.0, 10.0, size=(8, 8))
        memo = {}
        outs = [hungarian_solve(cost, memo=memo) for _ in range(4)]
        outs.append(hungarian_solve(cost.tolist(), memo=memo))  # the same bytes from lists
        assert len(runs) == 1 and len(memo) == 1
        assert all(out == outs[0] for out in outs)

    def test_editing_an_answer_leaves_the_memo_intact(self):
        cost = np.random.default_rng(4).uniform(0.0, 10.0, size=(6, 6))
        memo = {}
        miss = hungarian_solve(cost, memo=memo)
        want = list(miss.goals)
        miss.goals.reverse()
        hit = hungarian_solve(cost, memo=memo)
        assert hit.goals == want
        hit.goals[0] = -1
        assert hungarian_solve(cost, memo=memo).goals == want

    def test_matrix_one_ulp_away_is_solved_fresh(self, monkeypatch):
        runs = count_dual_solves(monkeypatch)
        cost = np.random.default_rng(6).uniform(0.0, 10.0, size=(6, 6))
        near = cost.copy()
        near[2, 3] = np.nextafter(near[2, 3], np.inf)
        memo = {}
        hungarian_solve(cost, memo=memo)
        assert hungarian_solve(near, memo=memo) == hungarian_solve(near)
        assert len(runs) == 3 and len(memo) == 2

    def test_validation_comes_before_the_lookup(self):
        memo = {}
        with pytest.raises(ShapeError, match="non-finite"):
            hungarian_solve([[np.inf, 1.0], [1.0, 2.0]], memo=memo)
        with pytest.raises(ShapeError, match="square"):
            hungarian_solve(np.ones((2, 3)), memo=memo)
        assert hungarian_solve(np.zeros((0, 0)), memo=memo) == Assignment([], 0.0)
        assert memo == {}


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

    def test_dequantize_rows_pads_each_row_into_one_block(self):
        rows = [np.arange(1, 5, dtype=F32), np.arange(5, 7, dtype=F32), np.zeros(0, dtype=F32)]
        block = _dequantize_rows(rows, dim=4)
        assert block.dtype == F32
        assert block.tolist() == [[1, 2, 3, 4], [5, 6, 0, 0], [0, 0, 0, 0]]
        assert _dequantize_rows([], dim=4).shape == (0, 4)

    def test_dequantize_rows_rejects_oversized_row(self):
        with pytest.raises(ShapeError, match="feature dim is 2"):
            _dequantize_rows([np.ones(2, dtype=F32), np.ones(4, dtype=F32)], dim=2)


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


class SolveLog:
    """Wraps the module attribute ``hungarian_solve`` as the benchmark tracer
    does, logging each call's float64 matrix bytes, and logs the dual solves
    behind it. With ``drop_memo`` the wrapper solves every call fresh.
    """

    def __init__(self, monkeypatch, drop_memo=False):
        self.matrices = []
        self.duals = count_dual_solves(monkeypatch)
        solve = assignment_mod.hungarian_solve

        def wrapped(costs, **kwargs):
            self.matrices.append(np.asarray(costs, dtype=np.float64).tobytes())
            if drop_memo:
                kwargs.pop("memo", None)
            return solve(costs, **kwargs)

        monkeypatch.setattr(assignment_mod, "hungarian_solve", wrapped)


def lossy_best_effort(n):
    agg = AggregationConfig(mode="best_effort")
    return {"agg_config": agg,
            "topology": Topology.full_mesh(range(n), LinkModel(loss_prob=0.05)), "seed": 3}


class TestScenarioSolveMemo:
    def test_lossless_expert_test_makes_every_call_and_one_dual_solve(self, monkeypatch):
        n = 20
        log = SolveLog(monkeypatch)
        costs = np.random.default_rng(71).uniform(1, 10, size=(n, n)).astype(F32)
        out = run_assignment_scenario(costs, mode="expert")
        assert out.covered_goals == n and out.cost_out == out.cost_opt
        assert len(log.matrices) == n + 1
        assert len(log.duals) == 1

    @pytest.mark.parametrize("case", ["truncating-budget", "lossy-best-effort",
                                      "silenced-best-effort", "silenced-blocking"])
    def test_outcome_equals_a_run_without_the_memo(self, monkeypatch, case):
        n = 8
        kwargs = {
            "truncating-budget": {"message_budget_bytes": 8},
            "lossy-best-effort": lossy_best_effort(n),
            "silenced-best-effort": {"agg_config": AggregationConfig(mode="best_effort"),
                                     "silenced": {5}},
            "silenced-blocking": {"agg_config": AggregationConfig(timeout_ns=50_000_000,
                                                                  mode="blocking"),
                                  "silenced": {5}},
        }[case]
        rng = np.random.default_rng(73)
        for _ in range(3):
            costs = rng.uniform(1, 10, size=(n, n)).astype(F32)
            with monkeypatch.context() as patch:
                fresh = SolveLog(patch, drop_memo=True)
                want = run_assignment_scenario(costs, mode="expert", **kwargs)
            with monkeypatch.context() as patch:
                log = SolveLog(patch)
                got = run_assignment_scenario(costs, mode="expert", **kwargs)
            assert got == want
            assert log.matrices == fresh.matrices
            assert len(log.duals) == len(set(log.matrices))

    def test_lossy_links_share_solves_between_robots_with_the_same_matrix(self, monkeypatch):
        n = 8
        log = SolveLog(monkeypatch)
        costs = np.random.default_rng(79).uniform(1, 10, size=(n, n)).astype(F32)
        run_assignment_scenario(costs, mode="expert", **lossy_best_effort(n))
        assert len(log.matrices) == n + 1
        assert 1 < len(log.duals) == len(set(log.matrices)) < n + 1


PIN_N = 20
BENCH_LINK = LinkModel(base_latency_ns=4_800_000, jitter_stddev_ns=600_000.0)
MATRIX_PIN_CASES = {
    "benchmark-link": {"topology": Topology.full_mesh(range(PIN_N), BENCH_LINK), "seed": 11},
    "truncating-budget": {"message_budget_bytes": 40},
    "lossy-best-effort": lossy_best_effort(PIN_N),
    "silenced-best-effort": {"agg_config": AggregationConfig(mode="best_effort"),
                             "silenced": {5}},
    "silenced-blocking": {"agg_config": AggregationConfig(timeout_ns=50_000_000,
                                                          mode="blocking"),
                          "silenced": {5}},
}
# (calls, SHA-256 over the dtype, shape and bytes of every matrix passed to
# hungarian_solve, in call order) over two n = 20 expert tests per case: each
# test solves the true matrix and then one per robot, unless it fails first.
MATRIX_PINS = {
    "benchmark-link":
        (42, "de08ae62b42e6a0254589e9648e9da59ef416266434ffb2170c5d5aae0982c7b"),
    "truncating-budget":
        (42, "1b5bedbfa11edb6e89b8286262ae0c1f0df07184bed07a0620772a2d3f9eb548"),
    "lossy-best-effort":
        (42, "f75361c21e4e3d20134aae7f03e6a7e65a8fb275c046050d852b604ad33bfa4c"),
    "silenced-best-effort":
        (42, "a3ea236bd3aca6192a86a940138ffadf7f478eaa6f66669c591c4c4e7cc151a6"),
    "silenced-blocking":
        (2, "9673e307b281cefae313e50dfb880f8cb8a7254ce488aa09fbf0dcb205a1b4bc"),
}


class TestSolvedMatrixPins:
    @pytest.mark.parametrize("case", list(MATRIX_PIN_CASES))
    def test_every_solved_matrix_is_pinned(self, monkeypatch, case):
        digest, calls = hashlib.sha256(), 0
        solve = assignment_mod.hungarian_solve

        def hashing(costs, **kwargs):
            nonlocal calls
            calls += 1
            m = np.asarray(costs)
            digest.update(repr((m.dtype.str, m.shape)).encode() + m.tobytes())
            return solve(costs, **kwargs)

        monkeypatch.setattr(assignment_mod, "hungarian_solve", hashing)
        rng = np.random.default_rng(83)
        for _ in range(2):
            costs = rng.uniform(1, 10, size=(PIN_N, PIN_N)).astype(F32)
            run_assignment_scenario(costs, mode="expert", **MATRIX_PIN_CASES[case])
        assert (calls, digest.hexdigest()) == MATRIX_PINS[case]
