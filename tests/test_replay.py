"""Golden replay of lossy runs: CSV bodies pinned by SHA-256.

The benchmark replays lossless runs only. These pins cover the drop path
(Bernoulli loss plus jitter) end to end through ``neuromesh run``: a learned
control run with trajectories and a best-effort assignment run. Each body is
also compared with the same config at ``loss_prob`` 0, so a pin can only hold
if messages were really dropped; the one exception, the learned control
run's summary CSV, is named at its call site and must match the lossless
body. A blocking learned control run is pinned too; its body must change
with ``network.seed``.

Each control run or assignment test k draws its losses over a mesh seeded
with ``derive_seed(network.seed, k)``, so the units of a run draw
independent losses, and test k run alone gives the row it has in the run.
"""

import hashlib
import json

from neuromesh import cli
from neuromesh.assignment import run_assignment_scenario
from neuromesh.cli import main
from neuromesh.config import build_aggregation, build_medium, build_topology, validate_config
from neuromesh.control import ControlPolicy
from neuromesh.netsim import derive_seed
from neuromesh.tensors import save_mlp

LOSSY_NETWORK = {"base_latency_ms": 4.8, "jitter_ms": 0.6, "loss_prob": 0.3, "seed": 7}

GOLDEN = {
    "control_runs.csv": "ceabd9e31797330e02657d6a77ad07c0c5485793c94747350e990c4911741192",
    "control_trajectories.csv": "44a288dac9172e37f667595e39f58cf616a3cc2131c83192095ad6e870bf33d8",
    "assignment.csv": "4df720a4f9b08bc6624d62901971922bc2d8625d8648b2ee291fb9dc0e23270e",
}


def csv_bodies(tmp_path, name, cfg, csv_names):
    """Run ``cfg`` through the CLI; return each CSV's bytes below the header line."""
    out = tmp_path / name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, output_dir=str(out))))
    assert main(["run", str(path)]) == 0
    return {csv: (out / csv).read_bytes().split(b"\n", 1)[1] for csv in csv_names}


def check_replay(tmp_path, cfg, csv_names, same_as_lossless=()):
    """Pin each lossy body; each must differ from the body at ``loss_prob`` 0.

    ``same_as_lossless`` names the CSVs known to match the lossless body
    instead; the check asserts that they still do, so the exemption ends as
    soon as the output shows the losses again.
    """
    lossy = csv_bodies(tmp_path, "lossy", cfg, csv_names)
    lossless_cfg = dict(cfg, network=dict(cfg["network"], loss_prob=0.0))
    lossless = csv_bodies(tmp_path, "lossless", lossless_cfg, csv_names)
    for csv in csv_names:
        if csv in same_as_lossless:
            assert lossy[csv] == lossless[csv], f"{csv}: now shows the losses; pin it as lossy"
        else:
            assert lossy[csv] != lossless[csv], f"{csv}: loss never changed the output"
        assert hashlib.sha256(lossy[csv]).hexdigest() == GOLDEN[csv], csv


def test_learned_control_under_loss_replays(tmp_path):
    policy = ControlPolicy.random(feature_dim=16, hidden=32, seed=5)
    weights = {}
    for name in ("encoder", "pairwise", "decoder"):
        weights[name] = str(tmp_path / f"{name}.mwts")
        save_mlp(weights[name], getattr(policy, name))
    cfg = {
        "task": "control",
        "seed": 3,
        "team_size": 3,
        "network": LOSSY_NETWORK,
        "control": {
            "n_runs": 2,
            "max_steps": 40,
            "policy": "learned",
            "weights": weights,
            "arena_half_extent_m": 5.0,
            "write_trajectories": True,
        },
    }
    # Both runs' trajectories move with the losses, but neither minimum
    # pairwise distance moves at the summary's 4 decimals (0.5126 and 3.2299
    # m at loss 0.3 and at loss 0), so control_runs.csv records no drop here.
    check_replay(tmp_path, cfg, ("control_runs.csv", "control_trajectories.csv"),
                 same_as_lossless=("control_runs.csv",))


BEST_EFFORT_ASSIGNMENT = {
    "task": "assignment",
    "seed": 4,
    "team_size": 6,
    "network": LOSSY_NETWORK,
    "aggregation": {"mode": "best_effort"},
    "assignment": {"n_tests": 5},
}


def test_best_effort_assignment_under_loss_replays(tmp_path):
    check_replay(tmp_path, BEST_EFFORT_ASSIGNMENT, ("assignment.csv",))


def test_each_assignment_test_replays_alone(tmp_path):
    csv = "assignment.csv"
    body = csv_bodies(tmp_path, "run", BEST_EFFORT_ASSIGNMENT, (csv,))[csv]
    rows = body.decode().splitlines()[1:]
    cfg = validate_config(BEST_EFFORT_ASSIGNMENT)
    n, network, section = cfg["team_size"], cfg["network"], cfg["assignment"]
    assert any(row.split(",")[1] != str(n) for row in rows), "no test lost a goal to the losses"
    for k in reversed(range(len(rows))):  # last first: no test depends on the ones before it
        out = run_assignment_scenario(
            cli._instance_costs(section, n, cfg["seed"], k),
            message_budget_bytes=section["message_budget_bytes"],
            agg_config=build_aggregation(cfg["aggregation"]),
            topology=build_topology(n, network), medium=build_medium(network),
            model=cli._assignment_model(section), seed=derive_seed(network["seed"], k),
        )
        assert rows[k] == ",".join(map(str, cli._assignment_row(k, out)))


# Blocking waits for every step's features, so a run fails at the step of its
# first lost envelope: the steps column is a record of the loss draws.
BLOCKING_CONTROL_RUNS_SHA256 = "8f97f4d3eedf29799088174241e5391a5e881a7b61e0461fdc440bb9f1459bcd"


def test_blocking_learned_control_fails_at_its_first_loss(tmp_path):
    policy = ControlPolicy.random(feature_dim=16, hidden=32, seed=5)
    weights = {}
    for name in ("encoder", "pairwise", "decoder"):
        weights[name] = str(tmp_path / f"{name}.mwts")
        save_mlp(weights[name], getattr(policy, name))
    cfg = {
        "task": "control",
        "seed": 3,
        "team_size": 3,
        "network": dict(LOSSY_NETWORK, loss_prob=0.02),
        "aggregation": {"mode": "blocking"},
        "control": {
            "n_runs": 6,
            "max_steps": 40,
            "policy": "learned",
            "weights": weights,
            "arena_half_extent_m": 5.0,
        },
    }
    csv = "control_runs.csv"
    body = csv_bodies(tmp_path, "seed7", cfg, (csv,))[csv]
    reseeded = dict(cfg, network=dict(cfg["network"], seed=8))
    assert csv_bodies(tmp_path, "seed8", reseeded, (csv,))[csv] != body
    rows = [line.split(b",") for line in body.splitlines()[1:]]
    assert any(row[1] == b"0" and int(row[2]) < 40 for row in rows), "no run ended at a loss"
    assert hashlib.sha256(body).hexdigest() == BLOCKING_CONTROL_RUNS_SHA256
