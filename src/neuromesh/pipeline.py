"""Three-stage concurrent pipeline: encode, message-pass/aggregate, decode.

One stage loop serves both schedules. ``run_pipeline`` runs every stage but
the last on its own thread, the last on the calling thread, and hands items
over through depth-1 slots. A producer admits a new item just in time for
its consumer's next pickup, predicted from the bottleneck period (the
largest per-stage processing-time estimate). In steady state the output
period therefore equals the slowest stage's duration while end-to-end
latency stays at the sum of the stage durations. ``run_sequential`` is the
one-stage case: the three stages composed, on the calling thread.

Each source stamps its own ingress: a list source when the encoder pulls
an item, a :class:`PacedSource` when it emits one. Handoff slots never
discard items, so both schedules produce identical outputs for
deterministic stages; only a paced source that outruns the encoder drops
(keep-latest), and those drops are counted.

A stage that raises poisons only its current item: the error is logged
and the item skipped. A stage that dies of any other ``BaseException``
closes the handoffs and the source, so its peers and a paced emitter stop
at once, and the runner re-raises the error after joining them.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

_SENTINEL = object()
_COST_ALPHA = 0.4  # EWMA weight for new stage-cost samples

WARMUP_ITEMS = 2
_STAGE_NAMES = ("encoder", "aggregator", "decoder")


def _sleep_until(target_ns: int) -> None:
    while True:
        remaining = target_ns - time.monotonic_ns()
        if remaining <= 0:
            return
        time.sleep(remaining / 1e9)


class _StageCosts:
    """Per-stage processing-time EWMAs shared by the stage threads.

    The bottleneck period is the maximum of the per-stage costs. Using
    processing times rather than observed handoff cadences keeps the
    admission controller stable: idle gaps a bad schedule introduces can
    never feed back into the estimate.
    """

    def __init__(self, n_stages: int):
        self._costs = [0.0] * n_stages

    def record(self, stage: int, cost_ns: int) -> None:
        prev = self._costs[stage]
        self._costs[stage] = cost_ns if not prev else prev + _COST_ALPHA * (cost_ns - prev)

    def cost(self, stage: int) -> float:
        return self._costs[stage]

    def period_ns(self) -> float:
        return max(self._costs)


class _Handoff:
    """Depth-1 blocking handoff between two stages; closing it releases both sides."""

    def __init__(self):
        self._cv = threading.Condition()
        self._item = _SENTINEL
        self._full = False
        self._closed = False
        self._last_take_ns = 0
        self._taker_waiting = False

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def put(self, item) -> bool:
        with self._cv:
            while self._full and not self._closed:
                self._cv.wait()
            if self._closed:
                return False
            self._item = item
            self._full = True
            self._cv.notify_all()
            return True

    def take(self):
        with self._cv:
            while not self._full:
                if self._closed:
                    return _SENTINEL
                self._taker_waiting = True
                self._cv.wait()
            self._taker_waiting = False
            item = self._item
            self._item = _SENTINEL
            self._full = False
            self._last_take_ns = time.monotonic_ns()
            self._cv.notify_all()
            return item

    def next_start_ns(self, period_ns: float, own_cost_ns: float) -> int:
        """When the producer should start its next item to arrive just in time.

        The consumer picks items up every bottleneck period; starting one
        period ahead of that pickup minus our own processing time lands the
        item exactly when the consumer frees up, so items neither queue in
        the slot nor starve the consumer. Returns 0 (start now) while
        estimates are missing or the consumer is already starving.
        """
        with self._cv:
            if not period_ns or not self._last_take_ns:
                return 0
            if self._taker_waiting and not self._full:
                return 0  # consumer is starving right now
            pickups_ahead = 2 if self._full else 1
            return int(self._last_take_ns + pickups_ahead * period_ns - own_cost_ns)


@dataclass
class _Item:
    index: int
    ingress_ns: int
    value: object


class PacedSource:
    """Emits observations into a keep-latest ingress slot, one interval apart.

    An interval counts from the previous emission, so the encoder always has
    one to take an observation; when it cannot keep up, pending observations
    are overwritten and counted as drops. Ingress time is generation time.
    """

    def __init__(self, observations, interval_ns: int):
        self.observations = list(observations)
        self.interval_ns = int(interval_ns)
        self.drops = 0
        self._cv = threading.Condition()
        self._pending = None
        self._done = False
        self._thread: threading.Thread | None = None

    def __len__(self):
        return len(self.observations)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="paced-source", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        next_ns = time.monotonic_ns()
        with self._cv:
            for index, obs in enumerate(self.observations):
                while not self._done and (wait_ns := next_ns - time.monotonic_ns()) > 0:
                    self._cv.wait(wait_ns / 1e9)
                if self._done:
                    return
                if self._pending is not None:
                    self.drops += 1
                self._pending = _Item(index, time.monotonic_ns(), obs)
                next_ns = self._pending.ingress_ns + self.interval_ns
                self._cv.notify_all()
            self._done = True
            self._cv.notify_all()

    def close(self) -> None:
        """End the stream now: the wait for the next emission returns at once."""
        with self._cv:
            self._done = True
            self._cv.notify_all()

    def next_item(self):
        with self._cv:
            while self._pending is None and not self._done:
                self._cv.wait()
            if self._pending is None:
                return None
            item = self._pending
            self._pending = None
            return item

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()


class _ListSource:
    """Pull-driven source: stamps ingress when the encoder pulls an item; nothing drops."""

    drops = 0

    def __init__(self, observations):
        self._items = enumerate(observations)

    def start(self) -> None:  # nothing runs behind a pulled source
        pass

    close = join = start

    def next_item(self):
        pulled = next(self._items, None)
        return None if pulled is None else _Item(pulled[0], time.monotonic_ns(), pulled[1])


@dataclass
class PipelineStats:
    """Measured steady-state behavior of one pipeline run.

    Periods and latencies are in nanoseconds, computed over outputs after a
    two-item warm-up. ``items_processed`` counts all emitted outputs;
    ``drops`` counts observations discarded at ingress; ``errors`` counts
    items poisoned by a raising stage.
    """

    period_mean_ns: float
    period_std_ns: float
    latency_mean_ns: float
    latency_std_ns: float
    items_processed: int
    drops: int
    errors: int = 0

    CSV_COLUMNS = (
        "agent_id",
        "period_mean_ms",
        "period_std_ms",
        "latency_mean_ms",
        "latency_std_ms",
        "items",
        "drops",
    )

    def to_csv_row(self, agent_id) -> list:
        return [
            agent_id,
            f"{self.period_mean_ns / 1e6:.3f}",
            f"{self.period_std_ns / 1e6:.3f}",
            f"{self.latency_mean_ns / 1e6:.3f}",
            f"{self.latency_std_ns / 1e6:.3f}",
            self.items_processed,
            self.drops,
        ]


def _compute_stats(records, drops: int, errors: int) -> PipelineStats:
    # records: (index, ingress_ns, egress_ns) in emission order
    measured = records[WARMUP_ITEMS:]
    latencies = np.array([e - i for _, i, e in measured], dtype=np.float64)
    egress = np.array([e for _, _, e in measured], dtype=np.float64)
    periods = np.diff(egress)
    return PipelineStats(
        period_mean_ns=float(periods.mean()) if periods.size else 0.0,
        period_std_ns=float(periods.std()) if periods.size else 0.0,
        latency_mean_ns=float(latencies.mean()) if latencies.size else 0.0,
        latency_std_ns=float(latencies.std()) if latencies.size else 0.0,
        items_processed=len(records),
        drops=drops,
        errors=errors,
    )


def with_delay(fn, delay_s: float):
    """Wrap a stage with an injected processing delay (timing fixtures)."""

    def delayed(x):
        time.sleep(delay_s)
        return fn(x)

    return delayed


def identity_stage(x):
    return x


def _make_source(observations):
    """The source for ``observations``.

    An iterable is pulled lazily; only its first three items are drawn up
    front, to check that the pipeline can fill.
    """
    if isinstance(observations, PacedSource):
        source, ready = observations, len(observations)
    else:
        rest = iter(observations)
        head = list(itertools.islice(rest, 3))
        source, ready = _ListSource(itertools.chain(head, rest)), len(head)
    if ready < 3:
        raise ConfigError("observations",
                          f"need at least 3 items to fill the pipeline, got {ready}")
    return source


def _run_stages(stages, names, observations):
    """Run ``stages`` in order over ``observations``; returns (outputs, PipelineStats).

    Every stage but the last runs on its own thread; the last runs on the
    calling thread and emits the outputs.
    """
    source = _make_source(observations)
    slots = [_Handoff() for _ in stages[1:]]
    costs = _StageCosts(len(stages))
    outputs: list = []
    records: list = []
    errors = [0]
    failures: list = []

    def stage_loop(k):
        inbox = source.next_item if k == 0 else slots[k - 1].take
        outbox = slots[k] if k < len(slots) else None
        while True:
            if outbox is not None:
                start_at = outbox.next_start_ns(costs.period_ns(), costs.cost(k))
                if start_at:
                    _sleep_until(start_at)
            item = inbox()
            if item is None or item is _SENTINEL:
                if outbox is not None:
                    outbox.put(_SENTINEL)
                return
            t0 = time.monotonic_ns()
            try:
                value = stages[k](item.value)
            except Exception:
                log.warning("%s failed on item %d; skipping", names[k], item.index, exc_info=True)
                errors[0] += 1
                continue
            t_out = time.monotonic_ns()
            costs.record(k, t_out - t0)
            if outbox is None:
                outputs.append(value)
                records.append((item.index, item.ingress_ns, t_out))
            elif not outbox.put(_Item(item.index, item.ingress_ns, value)):
                return  # a peer died and closed the handoffs

    def runner(k):
        try:
            stage_loop(k)
        except BaseException as exc:
            failures.append(exc)
            for slot in slots:
                slot.close()
            source.close()

    threads = [
        threading.Thread(target=runner, args=(k,), name=f"stage-{names[k]}")
        for k in range(len(slots))
    ]
    source.start()
    for t in threads:
        t.start()
    runner(len(slots))
    for t in threads:
        t.join(timeout=600.0)
        if t.is_alive():
            raise RuntimeError(f"pipeline thread {t.name} failed to finish")
    source.join()
    if failures:
        raise failures[0]
    return outputs, _compute_stats(records, source.drops, errors[0])


def run_pipeline(encoder, aggregator, decoder, observations):
    """Run the three stages concurrently; returns (outputs, PipelineStats).

    ``observations`` is an iterable (pulled on demand, lossless) or a
    :class:`PacedSource` (pushed at a fixed rate, keep-latest at ingress).
    Outputs preserve observation order.
    """
    return _run_stages((encoder, aggregator, decoder), _STAGE_NAMES, observations)


def run_sequential(encoder, aggregator, decoder, observations):
    """Run the stages back to back per item on the calling thread; same stats as run_pipeline."""

    def chain(x):
        return decoder(aggregator(encoder(x)))

    return _run_stages((chain,), ("stage",), observations)
