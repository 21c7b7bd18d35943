"""Scenario config parsing: JSON, fail-closed, field-path diagnostics.

Unknown fields, and fields the task never reads (:data:`TASK_FIELDS`), are errors so
typos cannot silently change an experiment. :data:`TOP_LEVEL` and :data:`SECTIONS` declare
each field once as ``(default, check, description)``, where a check maps (value, field
path, config so far) to the normalized value; :data:`SCHEMA_DOC` is built from them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from .aggregation import AggregationConfig
from .control import NavigationParams
from .errors import ConfigError
from .netsim import LinkModel, MediumModel, Topology

ENV_SEED = "NEUROMESH_SEED"

# Top-level fields each task reads besides COMMON_FIELDS, in validation order: a
# selector field in READ_WHEN comes before every field that depends on it.
TASK_FIELDS = {
    "assignment": ("seed", "team_size", "network", "aggregation", "assignment"),
    "control": ("seed", "team_size", "control", "network", "aggregation"),
    "timing": ("timing",),
    "comms": ("network", "comms"),
}
# Per task, each field or section the run reads only under one value of a selector
# field: path -> (selector path, that value). A config that sets it under any other
# value is refused; a default still fills it in.
READ_WHEN = {
    "assignment": {
        "aggregation.min_neighbors": ("aggregation.mode", "best_effort"),
        "assignment.cost_range": ("assignment.costs", "random"),
        "assignment.weights": ("assignment.mode", "learned"),
    },
    "control": {
        "network": ("control.policy", "learned"),
        "aggregation": ("control.policy", "learned"),
        "aggregation.timeout_ms": ("aggregation.mode", "blocking"),
        "aggregation.min_neighbors": ("aggregation.mode", "best_effort"),
        "control.weights": ("control.policy", "learned"),
        "control.deterministic_actions": ("control.policy", "learned"),
    },
    "comms": {"comms.team_sizes": ("comms.scenario", "sweep")},
}
TASKS = tuple(TASK_FIELDS)
COMMON_FIELDS = ("task", "output_dir")

_NAV = NavigationParams()
_AGG = AggregationConfig()
_LINK = LinkModel()
_MEDIUM = MediumModel()
_NAV_FIELDS = tuple(f.name for f in dataclasses.fields(NavigationParams) if f.name != "seed")
_CONTROL_TEAM_SIZE = 3  # the control task's team_size default
_QUALITY_DURATION_S = 60.0  # the quality scenario's comms.duration_s default


def _expect(cond: bool, path: str, message: str, *args) -> None:
    """Raise at ``path`` unless ``cond``; ``args``, if any, fill the ``message`` template."""
    if not cond:
        raise ConfigError(path, message.format(*args) if args else message)


def _check_unknown(section: dict, allowed, path: str, reads=None, task=None) -> None:
    """Reject keys outside ``allowed``, and, given ``reads``, keys the task never reads."""
    for key in section:
        where = f"{path}.{key}" if path else key
        _expect(key in allowed, where, "unknown field")
        _expect(reads is None or key in reads, where, f"the {task} task does not read this field")


def _is_finite(value) -> bool:  # abs() <= max rejects inf, nan and ints beyond float range
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(minimum=None, maximum=None, above=None, integer=False, rate=False, ns=None):
    """A finite number in bounds; ``rate``: Hz whose ``int(1e9 / rate)`` ns fits an int64;
    ``ns``: the ns in one unit of the value, which must stay below 2**63 ns."""
    def check(value, where, cfg):
        _expect(_is_finite(value), where, "expected a finite number, got {!r}", value)
        _expect(above is None or value > above, where, "must be > {}, got {}", above, value)
        _expect(minimum is None or value >= minimum, where, "must be >= {}, got {}", minimum, value)
        _expect(maximum is None or value <= maximum, where, "must be <= {}, got {}", maximum, value)
        _expect(not integer or float(value).is_integer(), where,
                "expected an integer, got {!r}", value)
        _expect(not rate or 1 <= 1e9 / value < 2**63, where,
                "period 1e9 / rate must lie in [1, 2**63) ns, got {} Hz", value)
        _expect(ns is None or value * ns < 2**63, where, "must be below 2**63 ns, got {}", value)
        return int(value) if integer else value
    return check


_integer = functools.partial(_number, integer=True)
_positive = _number(above=0)
_rate = _number(above=0, rate=True)


def _bandwidth(value, where, cfg):
    """Bytes/s > 0 that ``MediumModel`` accepts (a 65,536 B airtime below 2**63 ns)."""
    MediumModel(per_node_bandwidth_bps=_positive(value, where, cfg))
    return value


def _seed(value, where, cfg):
    """The master seed: the config's, unless the NEUROMESH_SEED env var overrides it."""
    seed, env = _integer(0)(value, where, cfg), os.environ.get(ENV_SEED)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(ENV_SEED, f"not an integer: {env!r}") from exc
        _expect(seed >= 0, ENV_SEED, f"must be >= 0, got {seed}")
    return seed


def _rule(ok, message, convert=None):
    """A check: ``message``, formatted with the value, if ``ok`` refuses it, else ``convert``."""
    def check(value, where, cfg):
        _expect(ok(value), where, message, value)
        return value if convert is None else convert(value)
    return check


def _interval(kind):
    """``[lo, hi]`` of finite numbers with ``lo < hi`` and a finite width, as ``kind``."""
    return _rule(lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                 and all(map(_is_finite, v)) and 0 < float(v[1]) - float(v[0]) < math.inf,
                 "expected [lo, hi] with lo < hi, got {!r}", lambda v: kind(map(float, v)))


def _choice(*options):
    return _rule(lambda v: v in options, f"expected one of {options}, got {{!r}}")


def _int_list(minimum):
    return _rule(lambda v: isinstance(v, list) and v and all(
        isinstance(i, int) and i >= minimum for i in v),
        f"expected a non-empty list of ints >= {minimum}, got {{!r}}")


_bool = _rule(lambda v: isinstance(v, bool), "expected a boolean")
_nonempty_string = _rule(lambda v: isinstance(v, str) and v, "expected a non-empty string")
_delays = _rule(lambda v: isinstance(v, list) and len(v) == 3
                and all(_is_finite(d) and 0 <= d * 1e6 < 2**63 for d in v),
                "expected three numbers in [0, 2**63) ns, got {!r}",
                lambda v: [float(d) for d in v])


def _budget(value, where, cfg):
    """null (unlimited), an int >= 4, or a grid: a non-empty list of distinct such ints."""
    budgets = value if isinstance(value, list) else [value]
    _expect(value is None or budgets and all(isinstance(b, int) and b >= 4 for b in budgets),
            where, "expected null, an int >= 4 or a non-empty list of ints >= 4, got {!r}", value)
    _expect(len(set(budgets)) == len(budgets), where, "repeats a budget: {!r}", value)
    return value


def _random_or_rows(width=None):
    """'random', or team_size rows of ``width`` numbers (a square matrix if None)."""
    def check(value, where, cfg):
        n = cfg["team_size"]
        shape = f"a {n}x{n} matrix of" if width is None else f"{n} entries of {width}"
        _expect(value == "random" or isinstance(value, list) and len(value) == n and all(
            isinstance(row, list) and len(row) == (width or n) and all(map(_is_finite, row))
            for row in value), where, f"expected 'random' or {shape} finite numbers")
        return value
    return check


def _refuse_unread(task: str, path: str, cfg: dict) -> None:
    """Refuse ``path``, which the config sets, unless its READ_WHEN selector holds the
    value under which the run reads it."""
    rule = READ_WHEN.get(task, {}).get(path)
    if rule is not None:
        section, key = rule[0].split(".")
        chosen = cfg[section][key]
        shown = chosen if isinstance(chosen, str) else "explicit"
        _expect(chosen == rule[1], path, f"the {shown} {key} does not read this field")


def _weights(selector, *names, **extras):
    """Weight file paths ``names``, which must exist, plus int ``extras`` >= 1: required
    when the section's ``selector`` field is 'learned' (READ_WHEN refuses them otherwise)."""
    def check(value, where, cfg):
        if value is None:
            _expect(cfg[where.split(".")[0]][selector] != "learned", where,
                    "required for learned mode")
            return None
        _expect(isinstance(value, dict), where, "expected an object")
        _check_unknown(value, names + tuple(extras), where)
        for name in names:
            wpath, at = value.get(name), f"{where}.{name}"
            _expect(name in value, at, "missing weight file path")
            _expect(isinstance(wpath, str), at, "expected a path string")
            _expect(Path(wpath).exists(), at, f"weight file not found: {wpath}")
        return {**{name: value[name] for name in names},
                **{name: _integer(1)(value.get(name, default), f"{where}.{name}", cfg)
                   for name, default in extras.items()}}
    return check


TOP_LEVEL = {
    "seed": (0, _seed, f"int >= 0, master seed; overridable with the {ENV_SEED} env var"),
    "output_dir": ("results", _nonempty_string, "directory for CSV outputs and the run manifest"),
    "team_size": (5, _integer(2), f"int >= 2, number of agents; {_CONTROL_TEAM_SIZE} for control"),
}

SECTIONS = {
    "network": {
        "base_latency_ms": (_LINK.base_latency_ns / 1e6, _number(0, ns=1e6),
                            "float >= 0 per-link latency, below 2**63 ns"),
        "jitter_ms": (_LINK.jitter_stddev_ns / 1e6, _number(0, ns=1e6),
                      "float >= 0 Gaussian delay stddev, below 2**63 ns"),
        "loss_prob": (_LINK.loss_prob, _number(0, 1), "float in [0, 1]"),
        "per_node_bandwidth": (_MEDIUM.per_node_bandwidth_bps, _bandwidth,
                               "bytes/s > 0 per node, unshared; a 65,536 B airtime below 2**63 ns"),
        "contention": (_MEDIUM.contention, _choice("none", "shared_medium"),
                       "'none' | 'shared_medium'"),
        "seed": (0, _integer(), "int network seed; unit k's mesh is seeded from (seed, k)"),
    },
    "aggregation": {
        "mode": (_AGG.mode, _choice("blocking", "best_effort"), "'blocking' | 'best_effort'"),
        "timeout_ms": (_AGG.timeout_ns / 1e6, _number(above=0, ns=1e6),
                       "float > 0, below 2**63 ns: assignment's decision deadline, counted "
                       "from the publish in both modes; control's blocking wait timeout"),
        "min_neighbors": (_AGG.min_neighbors, _integer(0), "int in [0, team_size - 1]"),
    },
    "assignment": {
        "n_tests": (20, _integer(1), "int >= 1 instances to run"),
        "mode": ("expert", _choice("expert", "learned"), "'expert' | 'learned'"),
        "message_budget_bytes": (None, _budget,
                                 "int >= 4 payload cap, null = unlimited, or a list of distinct "
                                 "caps: one assignment_budget<b>.csv each"),
        "costs": ("random", _random_or_rows(), "'random' or a team_size x team_size matrix"),
        "cost_range": ([1.0, 10.0], _interval(list), "finite [lo, hi], lo < hi"),
        "weights": (None, _weights("mode", "encoder", "attention", "decoder", heads=3),
                    "{encoder, attention, decoder} file paths; heads: int >= 1, 3 if unset"),
    },
    "control": {
        "n_runs": (20, _integer(1), "int >= 1"),
        "policy": ("scripted", _choice("scripted", "learned"), "'scripted' | 'learned'"),
        "weights": (None, _weights("policy", "encoder", "pairwise", "decoder"),
                    "{encoder, pairwise, decoder} file paths"),
        "initial_poses": ("random", _random_or_rows(3), "'random' or team_size [x, y, heading]"),
        "goals": ("random", _random_or_rows(2), "'random' or team_size [x, y]"),
        "arena_half_extent_m": (2.0, _positive, "float > 0, random pose range"),
        "success_radius_m": (_NAV.success_radius_m, _positive, "float > 0"),
        "collision_radius_m": (_NAV.collision_radius_m, _positive, "float > 0"),
        "control_rate_hz": (_NAV.control_rate_hz, _rate, "Hz > 0, 1e9 / rate in [1, 2**63) ns"),
        "max_steps": (_NAV.max_steps, _integer(1), "int >= 1"),
        "v_bounds": (_NAV.v_bounds, _interval(tuple), "finite [lo, hi] m/s, lo < hi"),
        "omega_bounds": (_NAV.omega_bounds, _interval(tuple), "finite [lo, hi] rad/s, lo < hi"),
        "deterministic_actions": (_NAV.deterministic_actions, _bool,
                                  "bool, use Beta mean instead of sampling"),
        "write_trajectories": (False, _bool, "bool, emit per-step trajectory CSV"),
    },
    "timing": {
        "delays_ms": ([10.0, 30.0, 20.0], _delays,
                      "[encoder, aggregator, decoder] injected stage delays, each below 2**63 ns"),
        "items": (50, _integer(3), "int >= 3 observations per run"),
    },
    "comms": {
        "scenario": ("sweep", _choice("sweep", "quality"), "'sweep' | 'quality'"),
        "team_sizes": ([5, 10, 30, 50], _int_list(2), "non-empty list of ints >= 2"),
        "payload_bytes": (128, _integer(8), "int >= 8"),
        "offered_hz": (200.0, _rate, "Hz > 0 publish rate, 1e9 / rate in [1, 2**63) ns"),
        "duration_s": (0.6, _number(above=0, ns=1e9),
                       f"float > 0 virtual s, below 2**63 ns; {_QUALITY_DURATION_S:g} for quality"),
    },
}


def _read_when(path: str) -> list[str]:
    """``path``'s READ_WHEN rules, each as '<task>: read only when <selector> is <value>'."""
    return [f"{task}: read only when {rules[path][0]} is {rules[path][1]!r}"
            for task, rules in READ_WHEN.items() if path in rules]


def _describe(table: dict, section: str = "") -> dict:
    """Each field's description with its READ_WHEN rules and its default appended."""
    return {key: "; ".join([doc, *_read_when(f"{section}.{key}" if section else key)])
                 + f" (default {repr(d) if isinstance(d, str) else json.dumps(d)})"
            for key, (d, _, doc) in table.items()}


SCHEMA_DOC = {
    "task": " | ".join(TASKS) + " (required); each task accepts only the fields it reads: "
            + "; ".join(f"{t}: {', '.join(fields)}" for t, fields in TASK_FIELDS.items())
            + "".join(f"; the {name} section, {note}" for name in SECTIONS
                      for note in _read_when(name)),
    **_describe(TOP_LEVEL),
    **{name: _describe(table, name) for name, table in SECTIONS.items()},
}


def load_config(path) -> dict:
    """Read, validate, and normalize a scenario config file."""
    _expect(Path(path).exists(), str(path), "config file not found")
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    _expect(isinstance(raw, dict), "", "config root must be an object")
    task = _choice(*TASKS)(raw.get("task"), "task", None)
    reads = COMMON_FIELDS + TASK_FIELDS[task]
    _check_unknown(raw, SCHEMA_DOC, "", reads, task)
    cfg: dict = {"task": task}
    for name in reads[1:]:
        if name in TOP_LEVEL:
            default, check, _ = TOP_LEVEL[name]
            default = _CONTROL_TEAM_SIZE if (task, name) == ("control", "team_size") else default
            cfg[name] = check(raw.get(name, default), name, cfg)
            continue
        section = raw.get(name, {})
        _expect(isinstance(section, dict), name, "expected an object")
        _check_unknown(section, SECTIONS[name], name)
        if name in raw:
            _refuse_unread(task, name, cfg)
        out = cfg[name] = {}  # filled in order, so a check can read the fields above it
        for key, (default, check, _) in SECTIONS[name].items():
            if key in section:
                _refuse_unread(task, f"{name}.{key}", cfg)
            out[key] = check(section.get(key, default), f"{name}.{key}", cfg)
        if name == "aggregation":  # the rules that tie a field to another one
            _expect(out["min_neighbors"] <= cfg["team_size"] - 1, "aggregation.min_neighbors",
                    f"cannot exceed team_size - 1 = {cfg['team_size'] - 1}")
        elif name == "comms" and out["scenario"] == "quality" and "duration_s" not in section:
            out["duration_s"] = _QUALITY_DURATION_S
    return cfg


def build_link_model(network: dict) -> LinkModel:
    return LinkModel(base_latency_ns=int(network["base_latency_ms"] * 1e6),
                     jitter_stddev_ns=network["jitter_ms"] * 1e6,
                     loss_prob=network["loss_prob"])


def build_medium(network: dict) -> MediumModel:
    return MediumModel(per_node_bandwidth_bps=network["per_node_bandwidth"],
                       contention=network["contention"])


def build_topology(team_size: int, network: dict) -> Topology:
    return Topology.full_mesh(range(team_size), build_link_model(network))


def build_aggregation(agg: dict) -> AggregationConfig:
    return AggregationConfig(mode=agg["mode"], timeout_ns=int(agg["timeout_ms"] * 1e6),
                             min_neighbors=agg["min_neighbors"])


def build_navigation_params(control: dict, seed: int) -> NavigationParams:
    """One control run's parameters; ``seed`` seeds its action draws."""
    return NavigationParams(seed=seed, **{key: control[key] for key in _NAV_FIELDS})
