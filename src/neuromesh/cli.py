"""Command-line harness: run scenarios, self-check.

Exit status separates infrastructure failures from experiment outcomes:
``run`` exits 0 whenever the scenario executed cleanly, even if every run
inside it failed its task; config and runtime errors exit nonzero with a
field-path diagnostic. Task outcomes live in the emitted CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .assignment import (
    AssignmentModel,
    run_assignment_scenario,
    sr_metric,
    tcp_metric,
)
from .config import (
    SCHEMA_DOC,
    build_aggregation,
    build_link_model,
    build_medium,
    build_navigation_params,
    build_topology,
    load_config,
)
from .control import ControlPolicy, UnicycleState, run_navigation_scenario
from .errors import NeuromeshError
from .netsim import MeshSimulator, derive_seed, measure_link_quality, scalability_sweep
from .reporting import share_with_interval, write_csv, write_manifest


def _run_timing(cfg: dict, outdir: Path) -> list[Path]:
    # Imported here so that other tasks load neither the pipeline nor logging.
    from .pipeline import PipelineStats, identity_stage, run_pipeline, run_sequential, with_delay

    delays = [d / 1000.0 for d in cfg["timing"]["delays_ms"]]
    items = [np.float32(i) for i in range(cfg["timing"]["items"])]
    stages = [with_delay(identity_stage, d) for d in delays]
    _, parallel = run_pipeline(*stages, items)
    _, sequential = run_sequential(*stages, items)
    rows = [
        ["parallel"] + parallel.to_csv_row(),
        ["sequential"] + sequential.to_csv_row(),
    ]
    columns = ("mode",) + PipelineStats.CSV_COLUMNS
    return [write_csv(outdir / "timing.csv", "timing", columns, rows)]


def _run_comms(cfg: dict, outdir: Path) -> list[Path]:
    section = cfg["comms"]
    medium = build_medium(cfg["network"])
    if section["scenario"] == "sweep":
        rows = scalability_sweep(
            section["team_sizes"],
            payload_bytes=section["payload_bytes"],
            offered_hz=section["offered_hz"],
            medium=medium,
            duration_s=section["duration_s"],
            link=build_link_model(cfg["network"]),
            seed=cfg["network"]["seed"],
        )
        csv_rows = [
            [r.team_size, f"{r.offered_hz:.2f}", f"{r.delivered_mean:.2f}",
             f"{r.delivered_std:.2f}", f"{r.oracle_value:.2f}"]
            for r in rows
        ]
        columns = ("team_size", "offered_hz", "delivered_mean", "delivered_std", "oracle_value")
        return [write_csv(outdir / "comms_sweep.csv", "comms-sweep", columns, csv_rows)]
    topo = build_topology(2, cfg["network"])
    sim = MeshSimulator(topo, medium, seed=cfg["network"]["seed"])
    quality = measure_link_quality(
        sim, 0, 1, section["payload_bytes"], section["offered_hz"], section["duration_s"]
    )
    columns = ("latency_mean_ms", "jitter_ms", "loss_pct", "throughput_msgs_per_s")
    row = [f"{quality.latency_mean_ns / 1e6:.3f}", f"{quality.jitter_ns / 1e6:.3f}",
           f"{quality.loss_pct:.3f}", f"{quality.throughput_msgs_per_s:.2f}"]
    return [write_csv(outdir / "comms_quality.csv", "comms-quality", columns, [row])]


def _assignment_model(section: dict) -> AssignmentModel | None:
    if section["mode"] != "learned":
        return None
    w = section["weights"]
    return AssignmentModel.load(w["encoder"], w["attention"], w["decoder"], heads=w["heads"])


def _instance_costs(section: dict, n: int, seed: int, test_id: int) -> np.ndarray:
    if section["costs"] != "random":
        return np.asarray(section["costs"], dtype=np.float32)
    lo, hi = section["cost_range"]
    rng = np.random.default_rng((seed, test_id))
    return rng.uniform(lo, hi, size=(n, n)).astype(np.float32)


def _assignment_row(test_id: int, outcome) -> list:
    """One ``assignment.csv`` row: test_id, covered_goals, C_out, C_opt, failed."""
    cost_out = "" if outcome.cost_out is None else f"{outcome.cost_out:.4f}"
    return [test_id, outcome.covered_goals, cost_out, f"{outcome.cost_opt:.4f}", int(outcome.failed)]


def _run_assignment(cfg: dict, outdir: Path) -> list[Path]:
    """Run the config's tests under each budget; test k's mesh is seeded with
    ``derive_seed(network.seed, k)``.

    Tests therefore draw independent losses, test k replays alone, and every
    budget of a grid sees the same draws. A single budget writes
    ``assignment.csv``; a grid writes one ``assignment_budget<b>.csv`` per budget.
    """
    section = cfg["assignment"]
    n = cfg["team_size"]
    model = _assignment_model(section)
    topo = build_topology(n, cfg["network"])
    medium = build_medium(cfg["network"])
    agg = build_aggregation(cfg["aggregation"])
    budgets = section["message_budget_bytes"]
    grid = isinstance(budgets, list)
    columns = ("test_id", "covered_goals", "C_out", "C_opt", "failed")
    outputs = []
    for budget in budgets if grid else [budgets]:
        tag = f"_budget{budget}" if grid else ""
        rows = []
        covered_total = 0
        failed = 0
        pairs = []
        for test_id in range(section["n_tests"]):
            costs = _instance_costs(section, n, cfg["seed"], test_id)
            outcome = run_assignment_scenario(
                costs, message_budget_bytes=budget,
                agg_config=agg, topology=topo, medium=medium, model=model,
                seed=derive_seed(cfg["network"]["seed"], test_id),
            )
            covered_total += outcome.covered_goals
            failed += outcome.failed
            if outcome.covered_goals == n and not outcome.failed:
                pairs.append((outcome.cost_out, outcome.cost_opt))
            rows.append(_assignment_row(test_id, outcome))
        sr = sr_metric(covered_total, n, section["n_tests"])
        tcp = tcp_metric(pairs) if pairs else float("nan")
        print(f"assignment{tag}: SR = {sr:.2f} %  TCP = {tcp:.4f} % over {len(pairs)} covered "
              f"tests  failed {share_with_interval(failed, section['n_tests'])}")
        outputs.append(write_csv(outdir / f"assignment{tag}.csv", "assignment", columns, rows))
    return outputs


def _control_team(cfg: dict, run_id: int):
    section = cfg["control"]
    n = cfg["team_size"]
    half = section["arena_half_extent_m"]
    rng = np.random.default_rng((cfg["seed"], run_id))
    states, goals = {}, {}
    for a in range(n):
        if section["initial_poses"] == "random":
            pose = rng.uniform(-half, half, size=2)
            heading = rng.uniform(-np.pi, np.pi)
        else:
            x, y, heading = section["initial_poses"][a]
            pose = np.array([x, y])
        states[a] = UnicycleState(pose, heading)
        if section["goals"] == "random":
            goals[a] = rng.uniform(-half, half, size=2)
        else:
            goals[a] = np.asarray(section["goals"][a], dtype=np.float64)
    return states, goals


def _run_control(cfg: dict, outdir: Path) -> list[Path]:
    section = cfg["control"]
    learned = {}  # a scripted run gets neither a policy nor a mesh
    if section["policy"] == "learned":
        w = section["weights"]
        learned = dict(policy=ControlPolicy.load(w["encoder"], w["pairwise"], w["decoder"]),
                       topology=build_topology(cfg["team_size"], cfg["network"]),
                       medium=build_medium(cfg["network"]),
                       agg_config=build_aggregation(cfg["aggregation"]))
    rows = []
    trajectory_rows = []
    successes = 0
    for run_id in range(section["n_runs"]):
        states, goals = _control_team(cfg, run_id)
        # Robot a of this run draws actions from seed ^ a (run_navigation_scenario);
        # agent ids stay below 2**16 (the wire's u16 sender_id), so shifting
        # the run id above them gives every (run, robot) pair its own stream.
        params = build_navigation_params(section, seed=cfg["seed"] + (run_id << 16))
        if learned:  # runs draw independent losses
            learned["seed"] = derive_seed(cfg["network"]["seed"], run_id)
        outcome = run_navigation_scenario(states, goals, params=params,
                                          record_trajectory=section["write_trajectories"],
                                          **learned)
        successes += outcome.success
        rows.append([
            run_id, int(outcome.success), outcome.steps,
            f"{outcome.min_pairwise_distance_m:.4f}",
        ])
        for step, agent, x, y, heading in outcome.trajectory:
            trajectory_rows.append(
                [run_id, step, agent, f"{x:.4f}", f"{y:.4f}", f"{heading:.4f}"]
            )
    print(f"control: succeeded {share_with_interval(successes, section['n_runs'])} of runs")
    outputs = [write_csv(
        outdir / "control_runs.csv", "control-runs",
        ("run_id", "success", "steps", "min_pairwise_distance_m"), rows,
    )]
    if section["write_trajectories"]:
        outputs.append(write_csv(
            outdir / "control_trajectories.csv", "trajectory",
            ("run_id", "step", "agent", "x_m", "y_m", "heading_rad"), trajectory_rows,
        ))
    return outputs


_RUNNERS = {
    "timing": _run_timing,
    "comms": _run_comms,
    "assignment": _run_assignment,
    "control": _run_control,
}


def _cmd_run(cfg: dict) -> int:
    outdir = Path(cfg["output_dir"])
    outputs = _RUNNERS[cfg["task"]](cfg, outdir)
    manifest = write_manifest(outdir / "run_manifest.json", cfg, outputs)
    for path in outputs + [manifest]:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="neuromesh",
        description="Decentralized multi-agent inference scenarios and network experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the scenario described by a config file")
    p_run.add_argument("config", help="path to a JSON scenario config")

    p_self = sub.add_parser("selftest", help="run the fast acceptance subset")
    p_self.add_argument("--weights-dir", default=None,
                        help="directory with optional learned-mode weight files")

    sub.add_parser("print-schema", help="print the config schema as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "print-schema":
            print(json.dumps(SCHEMA_DOC, indent=2))
            return 0
        if args.command == "selftest":
            from .selftest import run_selftest

            return run_selftest(weights_dir=args.weights_dir)
        return _cmd_run(load_config(args.config))
    except NeuromeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
