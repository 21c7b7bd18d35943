"""Scenario config parsing: JSON, fail-closed, field-path diagnostics.

Unknown fields, and fields the task never reads (:data:`TASK_FIELDS`), are errors
so typos cannot silently change an experiment. ``print-schema`` dumps :data:`SCHEMA_DOC`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .aggregation import AggregationConfig
from .errors import ConfigError
from .netsim import DEFAULT_BANDWIDTH_BPS, LinkModel, MediumModel, Topology

ENV_SEED = "NEUROMESH_SEED"

# Top-level fields each task reads besides COMMON_FIELDS, in validation order.
TASK_FIELDS = {
    "assignment": ("team_size", "network", "aggregation", "assignment", "sweep"),
    "control": ("team_size", "network", "aggregation", "control"),
    "timing": ("timing",),
    "comms": ("network", "comms", "sweep"),
}
TASKS = tuple(TASK_FIELDS)
COMMON_FIELDS = ("task", "seed", "output_dir")

SCHEMA_DOC = {
    "task": " | ".join(TASKS) + " (required); each task accepts only the fields it reads: "
            + "; ".join(f"{t}: {', '.join(fields)}" for t, fields in TASK_FIELDS.items()),
    "seed": "int >= 0, master seed; overridable with the NEUROMESH_SEED env var (default 0)",
    "output_dir": "directory for CSV outputs and the run manifest (default 'results')",
    "team_size": "int >= 2, number of agents (default 5; control default 3)",
    "network": {
        "base_latency_ms": "float >= 0 per-link latency (default 0)",
        "jitter_ms": "float >= 0 Gaussian delay stddev (default 0)",
        "loss_prob": "float in [0, 1] (default 0)",
        "per_node_bandwidth": "bytes/s > 0 outbound cap per node (default 6000000)",
        "contention": "'none' | 'shared_medium' (default 'none')",
        "seed": "int link RNG seed (default 0)",
    },
    "aggregation": {
        "mode": "'blocking' | 'best_effort' (default 'best_effort')",
        "timeout_ms": "float > 0 blocking timeout (default 500)",
        "min_neighbors": "int >= 0 (default 0)",
    },
    "assignment": {
        "n_tests": "int >= 1 instances to run (default 20)",
        "mode": "'expert' | 'learned' (default 'expert')",
        "message_budget_bytes": "int >= 4 payload cap, null = unlimited (default null)",
        "costs": "'random' or an inline team_size x team_size matrix (default 'random')",
        "cost_range": "[lo, hi] for random costs (default [1, 10])",
        "weights": "learned mode: {encoder, attention, decoder, heads, layers}",
    },
    "control": {
        "n_runs": "int >= 1 (default 20)",
        "policy": "'scripted' | 'learned' (default 'scripted')",
        "weights": "learned mode: {encoder, pairwise, decoder}",
        "initial_poses": "'random' or team_size [x, y, heading] entries (default 'random')",
        "goals": "'random' or team_size [x, y] entries (default 'random')",
        "arena_half_extent_m": "float, random pose range (default 2.0)",
        "success_radius_m": "float > 0 (default 0.15)",
        "collision_radius_m": "float > 0 (default 0.30)",
        "control_rate_hz": "float > 0 (default 20)",
        "max_steps": "int >= 1 (default 400)",
        "v_bounds": "[lo, hi] m/s (default [0.0, 0.5])",
        "omega_bounds": "[lo, hi] rad/s (default [-1.0, 1.0])",
        "deterministic_actions": "bool, use Beta mean instead of sampling (default false)",
        "write_trajectories": "bool, emit per-step trajectory CSV (default false)",
    },
    "timing": {
        "delays_ms": "[encoder, aggregator, decoder] injected stage delays (default [10, 30, 20])",
        "items": "int >= 3 observations per run (default 50)",
    },
    "comms": {
        "scenario": "'sweep' | 'quality' (default 'sweep')",
        "team_sizes": "non-empty list of ints >= 2 for the sweep (default [5, 10, 30, 50])",
        "payload_bytes": "int >= 8 (default 128)",
        "offered_hz": "float > 0 publish rate (default 200)",
        "duration_s": "float > 0 virtual seconds (default 0.6; quality default 60)",
    },
    "sweep": {
        "message_budget_bytes": "assignment sweep: non-empty list of ints >= 4",
        "team_sizes": "comms sweep: non-empty list of ints >= 2",
    },
}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_unknown(section: dict, allowed, path: str, reads=None, task=None) -> None:
    """Reject keys outside ``allowed``, and, given ``reads``, keys the task never reads."""
    for key in section:
        where = _field(path, key)
        _expect(key in allowed, where, "unknown field")
        _expect(reads is None or key in reads, where, f"the {task} task does not read this field")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_row(value, width: int) -> bool:
    return isinstance(value, list) and len(value) == width and all(map(_is_number, value))


def _number(section, key, path, default, minimum=None, maximum=None, strict_min=False):
    value = section.get(key, default)
    where = _field(path, key)
    _expect(_is_number(value), where, f"expected a number, got {value!r}")
    if minimum is not None:
        if strict_min:
            _expect(value > minimum, where, f"must be > {minimum}, got {value}")
        else:
            _expect(value >= minimum, where, f"must be >= {minimum}, got {value}")
    if maximum is not None:
        _expect(value <= maximum, where, f"must be <= {maximum}, got {value}")
    return value


def _integer(section, key, path, default, minimum=None):
    value = _number(section, key, path, default, minimum)
    _expect(float(value).is_integer(), _field(path, key), f"expected an integer, got {value!r}")
    return int(value)


def _int_list(section, key, path, default, minimum):
    value = section.get(key, default)
    _expect(isinstance(value, list) and value
            and all(isinstance(v, int) and v >= minimum for v in value),
            f"{path}.{key}", f"expected a non-empty list of ints >= {minimum}, got {value!r}")
    return value


def _choice(section, key, path, default, options):
    value = section.get(key, default)
    _expect(value in options, f"{path}.{key}", f"expected one of {options}, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read, validate, and normalize a scenario config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(path), "config file not found")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    _expect(isinstance(raw, dict), "", "config root must be an object")
    task = _choice(raw, "task", "", None, TASKS)
    _check_unknown(raw, SCHEMA_DOC, "", COMMON_FIELDS + TASK_FIELDS[task], task)

    cfg: dict = {"task": task}
    cfg["seed"] = _integer(raw, "seed", "", 0, minimum=0)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(ENV_SEED, f"not an integer: {env_seed!r}") from exc
        _expect(cfg["seed"] >= 0, ENV_SEED, f"must be >= 0, got {cfg['seed']}")
    out = raw.get("output_dir", "results")
    _expect(isinstance(out, str) and out, "output_dir", "expected a non-empty string")
    cfg["output_dir"] = out

    for field in TASK_FIELDS[task]:
        if field == "team_size":
            cfg[field] = _integer(raw, field, "", 3 if task == "control" else 5, minimum=2)
            continue
        section = raw.get(field, {})
        _expect(isinstance(section, dict), field, "expected an object")
        cfg[field] = _SECTION_VALIDATORS[field](section, cfg)
    return cfg


def _validate_network(net: dict, cfg: dict) -> dict:
    _check_unknown(net, set(SCHEMA_DOC["network"]), "network")
    return {
        "base_latency_ms": _number(net, "base_latency_ms", "network", 0.0, minimum=0),
        "jitter_ms": _number(net, "jitter_ms", "network", 0.0, minimum=0),
        "loss_prob": _number(net, "loss_prob", "network", 0.0, minimum=0, maximum=1),
        "per_node_bandwidth": _number(
            net, "per_node_bandwidth", "network", DEFAULT_BANDWIDTH_BPS, minimum=0, strict_min=True
        ),
        "contention": _choice(net, "contention", "network", "none", ("none", "shared_medium")),
        "seed": _integer(net, "seed", "network", 0),
    }


def _validate_aggregation(agg: dict, cfg: dict) -> dict:
    _check_unknown(agg, set(SCHEMA_DOC["aggregation"]), "aggregation")
    out = {
        "mode": _choice(agg, "mode", "aggregation", "best_effort", ("blocking", "best_effort")),
        "timeout_ms": _number(agg, "timeout_ms", "aggregation", 500.0, minimum=0, strict_min=True),
        "min_neighbors": _integer(agg, "min_neighbors", "aggregation", 0, minimum=0),
    }
    _expect(out["min_neighbors"] <= cfg["team_size"] - 1,
            "aggregation.min_neighbors",
            f"cannot exceed team_size - 1 = {cfg['team_size'] - 1}")
    return out


_SWEEP_GRIDS = {"assignment": ("message_budget_bytes", 4), "comms": ("team_sizes", 2)}


def _validate_sweep(sweep: dict, cfg: dict) -> dict:
    key, minimum = _SWEEP_GRIDS[cfg["task"]]
    _check_unknown(sweep, SCHEMA_DOC["sweep"], "sweep", (key,), cfg["task"])
    return {key: _int_list(sweep, key, "sweep", None, minimum)} if key in sweep else {}


def _validate_assignment(section: dict, cfg: dict) -> dict:
    _check_unknown(section, set(SCHEMA_DOC["assignment"]), "assignment")
    out = {
        "n_tests": _integer(section, "n_tests", "assignment", 20, minimum=1),
        "mode": _choice(section, "mode", "assignment", "expert", ("expert", "learned")),
    }
    budget = section.get("message_budget_bytes")
    if budget is not None:
        _expect(isinstance(budget, int) and budget >= 4,
                "assignment.message_budget_bytes", f"must be an int >= 4, got {budget!r}")
    out["message_budget_bytes"] = budget
    costs = section.get("costs", "random")
    if costs != "random":
        n = cfg["team_size"]
        _expect(isinstance(costs, list) and len(costs) == n
                and all(_is_row(row, n) for row in costs),
                "assignment.costs", f"expected 'random' or a {n}x{n} matrix of numbers")
    out["costs"] = costs
    rng = section.get("cost_range", [1.0, 10.0])
    _expect(isinstance(rng, list) and len(rng) == 2 and rng[0] < rng[1],
            "assignment.cost_range", f"expected [lo, hi] with lo < hi, got {rng!r}")
    out["cost_range"] = [float(rng[0]), float(rng[1])]
    out["weights"] = _validate_weights(
        section, "assignment", ("encoder", "attention", "decoder"),
        extras={"heads": 3, "layers": 2}, required=out["mode"] == "learned",
    )
    return out


def _validate_control(section: dict, cfg: dict) -> dict:
    _check_unknown(section, set(SCHEMA_DOC["control"]), "control")
    out = {
        "n_runs": _integer(section, "n_runs", "control", 20, minimum=1),
        "policy": _choice(section, "policy", "control", "scripted", ("scripted", "learned")),
        "arena_half_extent_m": _number(section, "arena_half_extent_m", "control", 2.0,
                                       minimum=0, strict_min=True),
        "success_radius_m": _number(section, "success_radius_m", "control", 0.15,
                                    minimum=0, strict_min=True),
        "collision_radius_m": _number(section, "collision_radius_m", "control", 0.30,
                                      minimum=0, strict_min=True),
        "control_rate_hz": _number(section, "control_rate_hz", "control", 20.0,
                                   minimum=0, strict_min=True),
        "max_steps": _integer(section, "max_steps", "control", 400, minimum=1),
        "deterministic_actions": section.get("deterministic_actions", False),
        "write_trajectories": section.get("write_trajectories", False),
    }
    for key in ("deterministic_actions", "write_trajectories"):
        _expect(isinstance(out[key], bool), f"control.{key}", "expected a boolean")
    for key, default in (("v_bounds", [0.0, 0.5]), ("omega_bounds", [-1.0, 1.0])):
        bounds = section.get(key, default)
        _expect(isinstance(bounds, list) and len(bounds) == 2 and bounds[0] < bounds[1],
                f"control.{key}", f"expected [lo, hi] with lo < hi, got {bounds!r}")
        out[key] = (float(bounds[0]), float(bounds[1]))
    for key, width in (("initial_poses", 3), ("goals", 2)):
        value = section.get(key, "random")
        if value != "random":
            _expect(isinstance(value, list) and len(value) == cfg["team_size"]
                    and all(_is_row(entry, width) for entry in value),
                    f"control.{key}",
                    f"expected 'random' or {cfg['team_size']} entries of {width} numbers")
        out[key] = value
    out["weights"] = _validate_weights(
        section, "control", ("encoder", "pairwise", "decoder"),
        required=out["policy"] == "learned",
    )
    return out


def _validate_timing(section: dict, cfg: dict) -> dict:
    _check_unknown(section, set(SCHEMA_DOC["timing"]), "timing")
    delays = section.get("delays_ms", [10.0, 30.0, 20.0])
    _expect(_is_row(delays, 3) and all(d >= 0 for d in delays),
            "timing.delays_ms", f"expected three non-negative numbers, got {delays!r}")
    return {
        "delays_ms": [float(d) for d in delays],
        "items": _integer(section, "items", "timing", 50, minimum=3),
    }


def _validate_comms(section: dict, cfg: dict) -> dict:
    _check_unknown(section, set(SCHEMA_DOC["comms"]), "comms")
    scenario = _choice(section, "scenario", "comms", "sweep", ("sweep", "quality"))
    return {
        "scenario": scenario,
        "team_sizes": _int_list(section, "team_sizes", "comms", [5, 10, 30, 50], minimum=2),
        "payload_bytes": _integer(section, "payload_bytes", "comms", 128, minimum=8),
        "offered_hz": _number(section, "offered_hz", "comms", 200.0, minimum=0, strict_min=True),
        "duration_s": _number(section, "duration_s", "comms",
                              60.0 if scenario == "quality" else 0.6,
                              minimum=0, strict_min=True),
    }


def _validate_weights(section: dict, path: str, names, extras=None, required=False):
    weights = section.get("weights")
    if weights is None:
        _expect(not required, f"{path}.weights", "required for learned mode")
        return None
    _expect(isinstance(weights, dict), f"{path}.weights", "expected an object")
    allowed = set(names) | set(extras or {})
    _check_unknown(weights, allowed, f"{path}.weights")
    out = {}
    for name in names:
        _expect(name in weights, f"{path}.weights.{name}", "missing weight file path")
        wpath = weights[name]
        _expect(isinstance(wpath, str), f"{path}.weights.{name}", "expected a path string")
        _expect(Path(wpath).exists(), f"{path}.weights.{name}", f"weight file not found: {wpath}")
        out[name] = wpath
    for name, default in (extras or {}).items():
        out[name] = _integer(weights, name, f"{path}.weights", default, minimum=1)
    return out


_SECTION_VALIDATORS = {
    "network": _validate_network, "aggregation": _validate_aggregation,
    "assignment": _validate_assignment, "control": _validate_control,
    "timing": _validate_timing, "comms": _validate_comms, "sweep": _validate_sweep,
}


def build_link_model(network: dict) -> LinkModel:
    return LinkModel(
        base_latency_ns=int(network["base_latency_ms"] * 1e6),
        jitter_stddev_ns=network["jitter_ms"] * 1e6,
        loss_prob=network["loss_prob"],
        seed=network["seed"],
    )


def build_medium(network: dict) -> MediumModel:
    return MediumModel(
        per_node_bandwidth_bps=network["per_node_bandwidth"],
        contention=network["contention"],
    )


def build_topology(team_size: int, network: dict) -> Topology:
    return Topology.full_mesh(range(team_size), build_link_model(network))


def build_aggregation(agg: dict) -> AggregationConfig:
    return AggregationConfig(
        mode=agg["mode"],
        timeout_ns=int(agg["timeout_ms"] * 1e6),
        min_neighbors=agg["min_neighbors"],
    )
