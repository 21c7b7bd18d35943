"""Every config field a run accepts changes what it writes, or is refused at load.

For each task and mode, a small base config on lossy, jittered and saturated
links runs through ``neuromesh run``. Then each field the task reads is set
to another valid value, one at a time, and the config runs again. The new
run must change a CSV body (a CSV added or dropped counts), or exit 2 at load
with a message that names the field's path, or its section, and says that
the config's selector value does not read it. ``EXEMPT`` names every other
field with its reason; an exempt field must still move nothing, so an
exemption ends as soon as the field starts to count.

A selector field (``SELECTORS``) is covered by pairs: a base, and the same
base with only that selector changed, must write different bodies. ``timing``
is out of scope, because its CSV body holds host wall-clock measurements.
"""

import contextlib
import copy
import io
import json

import pytest

from neuromesh.assignment import AssignmentModel
from neuromesh.cli import main
from neuromesh.config import COMMON_FIELDS, READ_WHEN, SCHEMA_DOC, TASK_FIELDS
from neuromesh.control import ControlPolicy
from neuromesh.tensors import save_attention, save_mlp

NETWORK = {"base_latency_ms": 2.0, "jitter_ms": 5.0, "loss_prob": 0.1,
           "per_node_bandwidth": 5_000, "contention": "shared_medium", "seed": 3}
CONTROL = {"n_runs": 2, "max_steps": 100}

# The value each field is set to; every base leaves it at another value.
PERTURB = {
    "seed": 1,
    "team_size": 4,
    "output_dir": None,  # run() gives every run a directory of its own
    "network.base_latency_ms": 80.0,
    "network.jitter_ms": 30.0,
    "network.loss_prob": 0.5,
    "network.per_node_bandwidth": 2_000,
    "network.contention": "none",
    "network.seed": 4,
    "aggregation.timeout_ms": 5.0,
    "aggregation.min_neighbors": 2,
    "assignment.n_tests": 5,
    "assignment.message_budget_bytes": 8,
    "assignment.costs": [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
    "assignment.cost_range": [1.0, 2.0],
    "assignment.weights": "other",  # the other weight files of the base's kind
    "control.n_runs": 3,
    "control.weights": "other",
    "control.initial_poses": [[-1.0, 0.0, 0.0], [1.0, 0.0, 3.0], [0.0, 1.0, -1.5]],
    "control.goals": [[1.0, 0.5], [-1.0, 0.5], [0.0, -1.0]],
    "control.arena_half_extent_m": 1.0,
    "control.success_radius_m": 3.0,
    "control.collision_radius_m": 1.5,
    "control.control_rate_hz": 10.0,
    "control.max_steps": 10,
    "control.v_bounds": [0.0, 1.0],
    "control.omega_bounds": [-2.0, 2.0],
    "control.deterministic_actions": True,
    "control.write_trajectories": True,
    "comms.team_sizes": [4],
    "comms.payload_bytes": 512,
    "comms.offered_hz": 400.0,
    "comms.duration_s": 0.6,
}
SELECTORS = ("aggregation.mode", "assignment.mode", "control.policy", "comms.scenario")

# (task, field path) -> why the field moves no CSV body of that task's bases.
EXEMPT = {
    **{(task, "output_dir"): "a path: it says where the outputs go, not what they hold"
       for task in ("assignment", "control", "comms")},
}


@pytest.fixture(scope="module")
def weights(tmp_path_factory):
    """Per kind ('assignment3', 'assignment4', 'control'), two weight sets: 'base' and 'other'."""
    root = tmp_path_factory.mktemp("weights")
    out = {}
    for name, seed in (("base", 3), ("other", 4)):
        for n in (3, 4):
            model = AssignmentModel.random(n_goals=n, feature_dim=12, hidden=32, seed=seed)
            paths = {part: str(root / f"a{n}_{name}_{part}.mwts")
                     for part in ("encoder", "attention", "decoder")}
            save_mlp(paths["encoder"], model.encoder)
            save_attention(paths["attention"], model.attention)
            save_mlp(paths["decoder"], model.decoder)
            out[f"assignment{n}", name] = paths
        policy = ControlPolicy.random(feature_dim=8, hidden=16, seed=seed)
        paths = {part: str(root / f"c_{name}_{part}.mwts")
                 for part in ("encoder", "pairwise", "decoder")}
        for part, path in paths.items():
            save_mlp(path, getattr(policy, part))
        out["control", name] = paths
    return out


def bases(weights):
    """Base name -> config; each sets only what its mode needs."""
    def assignment(mode, agg):
        section = {"n_tests": 4, "mode": mode}
        if mode == "learned":
            section["weights"] = dict(weights["assignment3", "base"], heads=2)
        return {"task": "assignment", "team_size": 3, "network": NETWORK,
                "aggregation": agg, "assignment": section}

    def learned_control(agg, runs, **network):
        return {"task": "control", "network": dict(NETWORK, **network), "aggregation": agg,
                "control": dict(CONTROL, n_runs=runs, policy="learned",
                                weights=weights["control", "base"])}

    blocking, best_effort = {"mode": "blocking", "timeout_ms": 30.0}, {"mode": "best_effort"}
    # An assignment deadline inside its base's delivery window, so that every link field
    # moves what lands by it: on these links an expert robot's two messages land about
    # 24 and 46 ms after the publish, a learned robot's about 46 and 90 ms.
    return {
        "assignment-expert-blocking": assignment("expert", dict(blocking, timeout_ms=50.0)),
        "assignment-expert-best_effort": assignment("expert", dict(best_effort, timeout_ms=30.0)),
        "assignment-learned-blocking": assignment("learned", dict(blocking, timeout_ms=95.0)),
        "assignment-learned-best_effort": assignment("learned", dict(best_effort, timeout_ms=90.0)),
        "control-scripted": {"task": "control", "control": dict(CONTROL)},
        # One lost message ends a blocking run, so this base loses few and runs more often.
        "control-learned-blocking": learned_control(blocking, 4, loss_prob=0.01),
        "control-learned-best_effort": learned_control(best_effort, 2),
        "comms-sweep": {"task": "comms", "network": dict(NETWORK, per_node_bandwidth=50_000),
                        "comms": {"team_sizes": [3], "duration_s": 0.5}},
        "comms-quality": {"task": "comms", "network": NETWORK,
                          "comms": {"scenario": "quality", "duration_s": 1.0}},
    }


# A base and one selector field of it set to another value: the two runs must write
# different bodies. The partner is built from the base by ``with_selector``, so that
# the pair differs in the selector alone, as far as the rule table lets it.
SELECTOR_PAIRS = [
    ("assignment-expert-blocking", "assignment.mode", "learned"),
    ("assignment-expert-blocking", "aggregation.mode", "best_effort"),
    ("control-learned-blocking", "aggregation.mode", "best_effort"),
    ("control-scripted", "control.policy", "learned"),
    ("comms-sweep", "comms.scenario", "quality"),
]


def field_paths(task):
    """Every field path the task reads, selectors and ``task`` aside."""
    paths = []
    for name in COMMON_FIELDS[1:] + TASK_FIELDS[task]:
        doc = SCHEMA_DOC[name]
        paths += [f"{name}.{key}" for key in doc] if isinstance(doc, dict) else [name]
    return [path for path in paths if path not in SELECTORS]


def weight_set(cfg, name, weights):
    """The weight set ``name`` ('base' or 'other') of the kind ``cfg`` reads."""
    if cfg["task"] == "control":
        return dict(weights["control", name])
    return dict(weights[f"assignment{cfg['team_size']}", name], heads=2)


def perturbed(base, path, weights):
    cfg = copy.deepcopy(base)
    value = weight_set(base, "other", weights) if path.endswith(".weights") else PERTURB[path]
    if path == "team_size" and base.get("assignment", {}).get("mode") == "learned":
        # the learned model's encoder reads team_size costs, so the weights follow it
        cfg["assignment"]["weights"] = dict(weights["assignment4", "base"], heads=2)
    section, _, key = path.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return cfg


def with_selector(base, path, value, weights):
    """``base`` with the selector at ``path`` set to ``value``, less each field READ_WHEN
    refuses under that value, plus the base weights that a learned value requires."""
    cfg = copy.deepcopy(base)
    section, key = path.split(".")
    cfg.setdefault(section, {})[key] = value
    for field, (selector, needed) in READ_WHEN[cfg["task"]].items():
        if selector == path and needed != value:
            where, _, name = field.rpartition(".")
            (cfg.get(where, {}) if where else cfg).pop(name, None)
    if value == "learned":
        cfg[section]["weights"] = weight_set(cfg, "base", weights)
    return cfg


def run(cfg, tmp_path, name):
    """Exit status, stderr and {CSV name: body below the header} of one ``neuromesh run``."""
    out = tmp_path / name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, output_dir=str(out))))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["run", str(path)])
    bodies = {csv.name: csv.read_text().split("\n", 1)[1] for csv in sorted(out.glob("*.csv"))}
    return status, err.getvalue(), bodies


@pytest.mark.parametrize("base_name", [
    "assignment-expert-blocking", "assignment-expert-best_effort",
    "assignment-learned-blocking", "assignment-learned-best_effort",
    "control-scripted", "control-learned-blocking", "control-learned-best_effort",
    "comms-sweep", "comms-quality",
])
def test_each_field_moves_a_csv_body_or_is_refused(base_name, weights, tmp_path):
    base = bases(weights)[base_name]
    task = base["task"]
    status, err, reference = run(base, tmp_path, "base")
    assert status == 0 and reference, err
    quiet = []
    for k, path in enumerate(field_paths(task)):
        status, err, bodies = run(perturbed(base, path, weights), tmp_path, f"run{k}")
        moved = status == 0 and bodies != reference
        if (task, path) in EXEMPT:
            assert status == 0 and not moved, f"{path} now counts: end its exemption"
            continue
        if status == 2:  # refused by its READ_WHEN rule, or by its section's
            assert "does not read this field" in err and any(
                f"error: {p}: " in err for p in (path, path.split(".")[0])
                if p in READ_WHEN[task]), err
        elif not moved:
            quiet.append(path)
    assert not quiet, f"{base_name}: accepted but moved no CSV body: {quiet}"


@pytest.mark.parametrize("base_name,path,value", SELECTOR_PAIRS)
def test_each_selector_moves_a_csv_body(base_name, path, value, weights, tmp_path):
    base = bases(weights)[base_name]
    outputs = [run(cfg, tmp_path, name) for name, cfg in
               (("base", base), ("partner", with_selector(base, path, value, weights)))]
    assert [status for status, _, _ in outputs] == [0, 0], outputs[1][1]
    assert outputs[0][2] != outputs[1][2]
