import threading
import time

import numpy as np
import pytest

from neuromesh.errors import ConfigError
from neuromesh.pipeline import (
    PacedSource,
    PipelineStats,
    identity_stage,
    run_pipeline,
    run_sequential,
    with_delay,
)

F32 = np.float32


def tensors(n):
    return [np.full(3, i, dtype=F32) for i in range(n)]


class TestOrderingAndEquivalence:
    def test_identity_zero_delay_preserves_order(self):
        items = tensors(3)
        outputs, stats = run_pipeline(identity_stage, identity_stage, identity_stage, items)
        assert len(outputs) == 3
        for got, want in zip(outputs, items):
            assert np.array_equal(got, want)
        assert stats.items_processed == 3
        assert stats.drops == 0

    def test_parallel_equals_sequential_for_deterministic_stages(self):
        def enc(x):
            return x * 2.0

        def agg(x):
            return x + 1.0

        def dec(x):
            return x.astype(np.float64).sum()

        items = tensors(12)
        par, _ = run_pipeline(enc, agg, dec, items)
        seq, _ = run_sequential(enc, agg, dec, items)
        assert par == seq

    @pytest.mark.parametrize("runner", [run_pipeline, run_sequential],
                             ids=["run_pipeline", "run_sequential"])
    def test_an_iterable_is_pulled_on_demand(self, runner):
        encoded, seen = [], []

        def observations():
            for i in range(10):
                seen.append(len(encoded))  # items encoded when item i is pulled
                yield np.full(3, i, dtype=F32)

        def encoder(x):
            encoded.append(x)
            return x

        outputs, _ = runner(encoder, identity_stage, identity_stage, observations())
        assert len(outputs) == 10
        assert seen == [0, 0, 0, 3, 4, 5, 6, 7, 8, 9]  # three up front, then one per item

    @pytest.mark.parametrize("runner,on_caller", [
        (run_pipeline, {2}),
        (run_sequential, {0, 1, 2}),
    ], ids=["run_pipeline", "run_sequential"])
    def test_stages_that_run_on_the_calling_thread(self, runner, on_caller):
        seen = [set(), set(), set()]

        def recorded(k):
            def stage(x):
                seen[k].add(threading.current_thread())
                return x
            return stage

        runner(recorded(0), recorded(1), recorded(2), tensors(6))
        caller = {threading.current_thread()}
        assert {k for k in range(3) if seen[k] == caller} == on_caller

    def test_fewer_than_three_items_rejected(self):
        with pytest.raises(ConfigError, match="3"):
            run_pipeline(identity_stage, identity_stage, identity_stage, tensors(2))
        with pytest.raises(ConfigError, match="3"):
            run_sequential(identity_stage, identity_stage, identity_stage, tensors(2))


class TestTimingLaw:
    def test_bottleneck_middle_stage(self):
        delays = (0.005, 0.015, 0.010)
        stages = [with_delay(identity_stage, d) for d in delays]
        _, stats = run_pipeline(*stages, tensors(25))
        period_ms = stats.period_mean_ns / 1e6
        latency_ms = stats.latency_mean_ns / 1e6
        assert 15.0 <= period_ms <= 15.0 * 1.3
        assert 30.0 <= latency_ms <= 30.0 * 1.3

    def test_encoder_bound_pipeline_runs_at_encoder_rate(self):
        delays = (0.015, 0.005, 0.005)
        stages = [with_delay(identity_stage, d) for d in delays]
        _, stats = run_pipeline(*stages, tensors(25))
        assert 15.0 <= stats.period_mean_ns / 1e6 <= 15.0 * 1.3

    def test_decoder_bound_pipeline(self):
        # the admission controller must align both upstream stages when the
        # bottleneck sits at the end of the pipeline
        delays = (0.004, 0.006, 0.012)
        stages = [with_delay(identity_stage, d) for d in delays]
        _, stats = run_pipeline(*stages, tensors(25))
        assert 12.0 <= stats.period_mean_ns / 1e6 <= 12.0 * 1.35
        assert 22.0 <= stats.latency_mean_ns / 1e6 <= 22.0 * 1.35

    def test_sequential_period_is_the_sum(self):
        delays = (0.005, 0.015, 0.010)
        stages = [with_delay(identity_stage, d) for d in delays]
        _, stats = run_sequential(*stages, tensors(12))
        assert 30.0 <= stats.period_mean_ns / 1e6 <= 30.0 * 1.3

    def test_parallel_beats_sequential(self):
        delays = (0.008, 0.012, 0.004)
        stages = [with_delay(identity_stage, d) for d in delays]
        items = tensors(15)
        par_out, par = run_pipeline(*stages, items)
        seq_out, seq = run_sequential(*stages, items)
        assert par.period_mean_ns < seq.period_mean_ns
        assert par_out == seq_out

    def test_latency_at_least_period(self):
        delays = (0.004, 0.010, 0.006)
        stages = [with_delay(identity_stage, d) for d in delays]
        _, stats = run_pipeline(*stages, tensors(20))
        assert stats.latency_mean_ns >= stats.period_mean_ns


class TestErrorPolicy:
    def test_stage_error_poisons_only_that_item(self):
        def flaky(x):
            if int(x[0]) == 4:
                raise ValueError("injected")
            return x

        items = tensors(8)
        outputs, stats = run_pipeline(identity_stage, flaky, identity_stage, items)
        assert stats.errors == 1
        assert len(outputs) == 7
        got = [int(o[0]) for o in outputs]
        assert got == [0, 1, 2, 3, 5, 6, 7]

    def test_sequential_error_policy_matches(self):
        def flaky(x):
            if int(x[0]) == 2:
                raise ValueError("injected")
            return x

        outputs, stats = run_sequential(identity_stage, flaky, identity_stage, tensors(6))
        assert stats.errors == 1
        assert [int(o[0]) for o in outputs] == [0, 1, 3, 4, 5]


class TestStageDeath:
    runner = staticmethod(run_pipeline)

    @pytest.mark.parametrize("dying", [0, 1, 2])
    def test_dying_stage_is_raised_instead_of_stranding_its_peers(self, dying):
        class StageDied(BaseException):
            pass

        def dies_on_item_3(x):
            if int(x[0]) == 3:
                raise StageDied
            return x

        stages = [identity_stage] * 3
        stages[dying] = dies_on_item_3
        raised = []

        def run():
            try:
                self.runner(*stages, tensors(10))
            except StageDied as exc:
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=5.0)
        assert not runner.is_alive(), "the run is still going 5 s after a stage died"
        assert len(raised) == 1

    def test_dying_stage_stops_a_paced_source(self):
        # item 1 is emitted at 100 ms; the source's other 18 items would take 1.8 s more
        class StageDied(BaseException):
            pass

        def dies_on_item_1(x):
            if int(x[0]) == 1:
                raise StageDied
            return x

        source = PacedSource(tensors(20), interval_ns=100_000_000)
        started = time.monotonic()
        with pytest.raises(StageDied):
            self.runner(dies_on_item_1, identity_stage, identity_stage, source)
        assert time.monotonic() - started < 0.5
        assert not source._thread.is_alive(), "the paced source still emits after the raise"


class TestSequentialStageDeath(TestStageDeath):
    runner = staticmethod(run_sequential)


class TestIngressBackpressure:
    def test_paced_source_outrunning_encoder_drops_at_ingress(self):
        # 2 ms source cadence vs 10 ms encoder: most items drop, survivors
        # stay ordered, and the drop count is reported.
        source = PacedSource(tensors(40), interval_ns=2_000_000)
        stages = [with_delay(identity_stage, 0.010), identity_stage, identity_stage]
        outputs, stats = run_pipeline(*stages, source)
        assert stats.drops > 0
        assert stats.drops + stats.items_processed == 40
        indices = [int(o[0]) for o in outputs]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_slow_source_never_drops(self):
        source = PacedSource(tensors(6), interval_ns=5_000_000)
        outputs, stats = run_pipeline(identity_stage, identity_stage, identity_stage, source)
        assert stats.drops == 0
        assert len(outputs) == 6


class TestStatsCsv:
    def test_csv_row_shape(self):
        stats = PipelineStats(30e6, 1e6, 60e6, 2e6, 50, 0)
        row = stats.to_csv_row(agent_id=3)
        assert row[0] == 3
        assert len(row) == len(PipelineStats.CSV_COLUMNS)
        assert row[1] == "30.000"
