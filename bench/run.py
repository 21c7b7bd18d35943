#!/usr/bin/env python3
"""neuromesh benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload nav_learned --seed 0 --seconds 55 --trace 0

Run from the root of a neuromesh checkout; the program is imported from
``src/``. The workload's inputs (configs, and weight files for
``nav_learned``) are generated from ``--seed`` into ``.bench_tmp/``. Load
comes from one worker process at a time, each running ``neuromesh run``
in-process, with BLAS held to one thread.

``--trace 0`` starts several workers one after another, each measuring
set-up and then running calls for its share of ``--seconds``. After every
call a worker times a fixed reference loop; both end-to-end times are
scaled by the loop's reference time over its mean time in the run, so that
the host's drift in speed cancels out. The unscaled values are printed too.
``--trace 1`` makes four passes of a fixed number of calls: two traced
ones, whose counts must agree exactly, between two untraced ones. It
writes the spans of each traced pass to ``.bench_out/``.

Every call's CSV body is checked: against the rows kept in
``expected.json`` at the seed they were recorded with, against the first
call's rows at other seeds, and against the workload's invariants at every
seed. The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only if the
outputs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS_PER_RUN = 5
RUN_LIMIT_S = 170.0  # every worker is stopped this long after the run starts

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "NEUROMESH_SEED"}
WORKER_ENV.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Run:
    """One benchmark run: spawns workers and keeps what they report."""

    def __init__(self, workload, seed: int, workdir: Path, weights: dict | None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.weights = weights
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workers = []

    def worker(self, *, trace: bool, slice_s: float = 0.0, calls: int = 0,
               spans: Path | None = None) -> dict:
        n = len(self.workers)
        spec_path = self.workdir / f"worker{n}.json"
        result_path = self.workdir / f"result{n}.json"
        spec_path.write_text(json.dumps({
            "root": str(ROOT), "workload": self.workload.name, "seed": self.seed, "index": n,
            "workdir": str(self.workdir), "weights": self.weights,
            "trace": trace, "slice_s": slice_s, "calls": calls,
            "result": str(result_path), "spans": str(spans) if spans else None,
        }))
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(spawn_ns)],
            env=WORKER_ENV, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        result = json.loads(result_path.read_text())
        self.workers.append(result)
        return result

    def reference_ms(self) -> float:
        """Mean time of the reference loop after every call of the run."""
        return statistics.fmean(c["ref_ns"] / 1e6 for r in self.workers for c in r["calls"])


def check_outputs(run: Run, expected: dict, problems: list) -> tuple[int, int]:
    """Count attempted and failed units over every call of every worker.

    The reference for a worker's k-th call is the body kept in
    ``expected.json`` when there is one for this seed and k, else the first
    body any worker produced for k.
    """
    from workloads import call_seed, call_units, parse_body, row_problems, row_units

    w = run.workload
    kept = expected["bodies"][w.name]
    references = dict(enumerate(kept)) if run.seed == expected["seed"] else {}
    invariants = {}
    attempted = failed = 0
    for result in run.workers:
        for k, call in enumerate(result["calls"]):
            body = call["body"]
            if call["error"] is not None:
                units = call_units(w)
                attempted += units
                failed += units
                problems.append(f"call {k}: {call['error']}")
                continue
            ref = parse_body(references.setdefault(k, body))
            rows = parse_body(body)
            if rows[:1] != ref[:1]:
                problems.append(f"call {k}: CSV columns {rows[:1]} differ from {ref[:1]}")
            if (k, body) not in invariants:
                found = row_problems(w, call_seed(run.seed, k), rows[1:])
                invariants[k, body] = found
                problems.extend(f"call {k}: {p}" for p in found if p)
            found = invariants[k, body]
            for j, want in enumerate(ref[1:]):
                units = row_units(w, want)
                attempted += units
                got = rows[j + 1] if j + 1 < len(rows) else None
                if got != want or rows[:1] != ref[:1] or j >= len(found) or found[j]:
                    failed += units
                    if got != want:
                        problems.append(f"call {k} row {j}: {got} differs from expected {want}")
    return attempted, failed


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Metric values, and a note on what each is taken over.

    Both times are scaled by REF_LOOP_MS over the reference loop's mean time
    in this run, which removes the host's drift in speed (see workloads.py).
    The mean, not the median, because throughput is a mean and takes in the
    host's slow phases in proportion to their length.
    """
    from workloads import REF_LOOP_MS, parse_body, row_units

    w = run.workload
    scale = REF_LOOP_MS / run.reference_ms()
    setups = [r["setup_ns"] / 1e9 for r in run.workers if r["setup_ns"] is not None]
    units = busy_ns = calls = 0
    for r in run.workers:
        for k, call in enumerate(r["calls"]):
            start = call["start_ns"]
            if k == 0 and r["first_entry_ns"] is not None:
                start = r["first_entry_ns"]  # set-up is not part of throughput
            if call["error"] is None:
                units += sum(row_units(w, row) for row in parse_body(call["body"])[1:])
            busy_ns += call["end_ns"] - start
            calls += 1
    setup_s = statistics.median(setups)
    units_per_s = units * 1e9 / busy_ns
    values = {
        "setup_s": setup_s * scale,
        "units_per_s": units_per_s / scale,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in run.workers),
    }
    notes = {
        "setup_s": f"median of {len(setups)} worker set-ups; unscaled {setup_s:.6g}",
        "units_per_s": f"{units} {w.unit}s in {calls} neuromesh run calls; "
                       f"unscaled {units_per_s:.6g}",
        "peak_rss_mb": f"median of {len(run.workers)} workers",
    }
    return values, notes


def scenario_times(run: Run) -> str:
    """Unscaled wall time of the scenario calls, as a diagnostic line."""
    unit_ms = [ns / 1e6 for r in run.workers for ns in r["unit_ns"]]
    p90 = statistics.quantiles(unit_ms, n=10, method="inclusive")[8]
    return (f"scenario call wall time, unscaled: p50 {statistics.median(unit_ms):.4f} ms, "
            f"p90 {p90:.4f} ms over {len(unit_ms)} calls (a diagnostic, not a metric)")


def traced_run(run: Run, out_dir: Path, problems: list) -> dict:
    """Per-layer metrics from two traced passes, checked against each other."""
    from workloads import ASSIGN_N, ASSIGN_TESTS

    w = run.workload
    # Untraced passes bracket the traced ones, so host drift during the run
    # moves both sides of the overhead ratio alike.
    plain = [run.worker(trace=False, calls=w.trace_calls)]
    passes = []
    for k in range(2):
        spans = out_dir / f"trace-{w.name}-seed{run.seed}-pass{k + 1}.jsonl"
        passes.append(run.worker(trace=True, calls=w.trace_calls, spans=spans))
        print(f"spans of traced pass {k + 1}: {spans.relative_to(ROOT)}")
    plain.append(run.worker(trace=False, calls=w.trace_calls))
    counts = [_counts(p["trace"]) for p in passes]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"counts differ between the two traced passes: {diff}")
    t = passes[0]["trace"]
    counted = {op: v[0] for op, v in t["ops"].items()}

    def n(op):
        return counted.get(op, 0)

    for op in w.layers:
        if not n(op):
            problems.append(f"layer op {op} recorded no calls on {w.name}")
    if t["sim_sent"] != n("netsim.send"):
        problems.append(f"simulators counted {t['sim_sent']} sends, wrappers saw {n('netsim.send')}")
    if t["sim_sent"] != t["delivered"] + t["dropped"] + t["in_flight"]:
        problems.append(f"sends {t['sim_sent']} != delivered {t['delivered']} + dropped "
                        f"{t['dropped']} + in flight {t['in_flight']}")
    if not n("wire.decode") == n("wire.insert") == t["delivered"]:
        problems.append(f"decode {n('wire.decode')}, insert {n('wire.insert')} and "
                        f"delivered {t['delivered']} differ")
    if w.task == "assignment":
        tests = w.trace_calls * ASSIGN_TESTS
        if n("assignment.solve") != tests * (ASSIGN_N + 1):
            problems.append(f"{n('assignment.solve')} solves, expected "
                            f"{tests} tests x {ASSIGN_N + 1}")

    def self_ms(op):
        return statistics.mean(p["trace"]["ops"].get(op, [0, 0, 0])[2] for p in passes) / 1e6

    def per_call_ms(op):
        return self_ms(op) / n(op) if n(op) else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    def wall(result):
        return sum(c["end_ns"] - c["start_ns"] for c in result["calls"])

    return {
        "netsim.sims": t["sims"],
        "netsim.send.calls": n("netsim.send"),
        "netsim.send.self_ms": self_ms("netsim.send"),
        "netsim.run_until.calls": n("netsim.run_until"),
        "netsim.run_until.self_ms": self_ms("netsim.run_until"),
        "netsim.delivered": t["delivered"],
        "netsim.dropped": t["dropped"],
        "netsim.rng_seeds": n("netsim.derive_seed"),
        "wire.encode.calls": n("wire.encode"),
        "wire.encode.self_ms": self_ms("wire.encode"),
        "wire.encode.bytes": t["encode_bytes"],
        "wire.decode.calls": n("wire.decode"),
        "wire.decode.self_ms": self_ms("wire.decode"),
        "wire.insert.calls": n("wire.insert"),
        "wire.insert.self_ms": self_ms("wire.insert"),
        "wire.insert.accept_ratio": share(t["insert_accepted"], n("wire.insert")),
        "wire.snapshot.calls": n("wire.snapshot"),
        "wire.snapshot.self_ms": self_ms("wire.snapshot"),
        "aggregation.resolve.calls": n("aggregation.resolve"),
        "aggregation.resolve.self_ms": self_ms("aggregation.resolve"),
        "aggregation.resolve.pending_ratio": share(t["resolve_pending"], n("aggregation.resolve")),
        "aggregation.diff_sum.calls": n("aggregation.diff_sum"),
        "aggregation.diff_sum.self_ms": self_ms("aggregation.diff_sum"),
        "tensors.mlp_forward.calls": n("tensors.mlp_forward"),
        "tensors.mlp_forward.self_ms": self_ms("tensors.mlp_forward"),
        "tensors.mlp_forward.mflop": t["mlp_flop"] / 1e6,
        "tensors.mlp_forward.mbytes": t["mlp_bytes"] / 1e6,
        "assignment.solve.calls": n("assignment.solve"),
        "assignment.solve.self_ms": self_ms("assignment.solve"),
        "assignment.solve.distinct_ratio": share(t["distinct_solves"], n("assignment.solve")),
        "control.loop.self_ms": self_ms("control.scenario"),
        "control.agent_steps": t["agent_steps"],
        "config.load_ms": per_call_ms("config.load"),
        "reporting.write_csv_ms": per_call_ms("reporting.write_csv"),
        "host.calib_ms": run.reference_ms(),
        "trace.overhead_ratio": sum(map(wall, passes)) / sum(map(wall, plain)),
    }


def _counts(trace: dict) -> dict:
    out = {f"{op}.calls": v[0] for op, v in trace["ops"].items()}
    out.update((k, v) for k, v in trace.items() if k != "ops")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "neuromesh" / "__init__.py").is_file():
        print(f"error: no neuromesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import neuromesh.cli  # noqa: F401  compiles the bytecode before any worker is timed
    from workloads import DEFAULT_SEED, REF_LOOP, REF_LOOP_MS, WORKLOADS, write_weights

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workdir = ROOT / ".bench_tmp" / f"{w.name}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        run = Run(w, seed, workdir, write_weights(w, seed, workdir))
        problems: list = []
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            values = traced_run(run, out_dir, problems)
            wanted = spec["per_layer"]
            notes = {}
        else:
            for _ in range(SETUPS_PER_RUN):
                run.worker(trace=False, slice_s=seconds / SETUPS_PER_RUN)
            values, notes = end_to_end(run)
            wanted = spec["end_to_end"]
        expected = json.loads((BENCH / "expected.json").read_text())
        attempted, failed = check_outputs(run, expected, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        values["ok_share"] = 1.0 - failed / attempted
        notes["ok_share"] = f"{attempted - failed} of {attempted} {w.unit}s correct"
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    print(f"{w.name} seed {seed}: {len(run.workers)} workers, "
          f"{sum(len(r['calls']) for r in run.workers)} neuromesh run calls; unit = one {w.unit}")
    for m in wanted:
        print(f"  {m['name']:36s} {values[m['name']]:14.6g} {m['unit']:6s} "
              f"{notes.get(m['name'], '')}")
    if args.trace == 0:
        ref_ms = run.reference_ms()
        print(f"  host.calib_ms {ref_ms:.4f} ms: mean time of the {REF_LOOP}-step reference loop "
              f"after each call; times above are scaled by {REF_LOOP_MS} / {ref_ms:.4f}")
        print(f"  {scenario_times(run)}")
    distinct = list(dict.fromkeys(problems))
    for p in distinct[:20]:
        print(f"  problem: {p}")
    if len(distinct) > 20:
        print(f"  ... and {len(distinct) - 20} more problems")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
