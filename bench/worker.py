"""One benchmark worker process: set up, run ``neuromesh run`` calls, report.

Usage: ``python3 bench/worker.py SPEC_JSON SPAWN_NS``. ``run.py`` writes the
spec and passes the CLOCK_MONOTONIC time at which it spawned this process,
so set-up time covers interpreter start, imports, config load, weight load
and topology build, up to the first call into the scenario entry point.
The worker writes one JSON result file and prints nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _first_entry_timer(cli, entry_name, first, unit_ns):
    """Wrap the scenario entry point as bound in the CLI; time every call."""
    entry = getattr(cli, entry_name)
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        if not first:
            first["mono_ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            first["perf_ns"] = clock()
        t0 = clock()
        try:
            return entry(*args, **kwargs)
        finally:
            unit_ns.append(clock() - t0)

    setattr(cli, entry_name, timed)


def _peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM), in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str, spawn_ns: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    from neuromesh import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"neuromesh imported from {cli.__file__}, not from {src}")
    from workloads import WORKLOADS, call_config, call_network_seed, reference_loop_ns

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first: dict = {}
    unit_ns: list = []
    _first_entry_timer(cli, workload.entry, first, unit_ns)
    run = tracer.wrap("cli.main", cli.main) if tracer else cli.main

    workdir = Path(spec["workdir"])
    cfg_path = workdir / f"call{spec['index']}.json"
    csv_path = workdir / "out" / workload.csv_name
    sink = io.StringIO()
    calls = []
    deadline_ns = None
    while True:
        k = len(calls)
        cfg_path.write_text(json.dumps(call_config(
            workload, spec["seed"], k, call_network_seed(spec["index"], k), workdir / "out",
            spec["weights"])))
        csv_path.unlink(missing_ok=True)
        error = None
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(sink):
                code = run(["run", str(cfg_path)])
            if code != 0:
                error = f"neuromesh run exited with {code}"
        except Exception as exc:  # a raising call is a failed unit, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        sink.seek(0)
        sink.truncate()
        body = csv_path.read_bytes().decode().split("\n", 1)[1] if error is None else None
        calls.append({"start_ns": t0, "end_ns": t1, "error": error, "body": body,
                      "ref_ns": reference_loop_ns()})
        if spec["calls"]:
            if len(calls) == spec["calls"]:
                break
            continue
        if deadline_ns is None:
            deadline_ns = first.get("perf_ns", t1) + int(spec["slice_s"] * 1e9)
        if t1 >= deadline_ns:
            break

    result = {
        "setup_ns": first["mono_ns"] - int(spawn_ns) if first else None,
        "first_entry_ns": first.get("perf_ns"),
        "calls": calls,
        "unit_ns": unit_ns,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = _trace_result(tracer, spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))


def _trace_result(tracer, spans_path: str) -> dict:
    ops = tracer.totals()
    sims = tracer.sims
    out = {
        "ops": ops,
        "sims": len(sims),
        "sim_sent": sum(s.sent for s in sims),
        "delivered": sum(s.delivered for s in sims),
        "dropped": sum(s.dropped for s in sims),
        "encode_bytes": tracer.encode_bytes,
        "insert_accepted": tracer.insert_accepted,
        "resolve_pending": tracer.resolve_pending,
        "agent_steps": tracer.agent_steps,
        "mlp_flop": tracer.mlp_flop,
        "mlp_bytes": tracer.mlp_bytes,
        "distinct_solves": len(tracer.solve_keys),
    }
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(span, kind="span")) + "\n")
        for (op, parent), (count, total, self_ns) in sorted(
                tracer.ops.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
            fh.write(json.dumps({"kind": "op", "op": op, "parent": parent, "count": count,
                                 "total_ns": total, "self_ns": self_ns}) + "\n")
    out["in_flight"] = tracer.drain_sims()
    return out


if __name__ == "__main__":
    main(*sys.argv[1:3])
