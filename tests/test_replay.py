"""Golden replay of lossy runs: CSV bodies pinned by SHA-256.

The benchmark replays lossless runs only. These pins cover the drop path
(Bernoulli loss plus jitter) end to end through ``neuromesh run``: a learned
control run with trajectories and a best-effort assignment run. Each body is
also compared with the same config at ``loss_prob`` 0, so a pin can only hold
if messages were really dropped.

ROADMAP item 4's link-seed fix (mixing the instance index into the link
seeds) changes which messages are lost; it will deliberately re-record these
digests.
"""

import hashlib
import json

from neuromesh.cli import main
from neuromesh.control import ControlPolicy
from neuromesh.tensors import save_mlp

LOSSY_NETWORK = {"base_latency_ms": 4.8, "jitter_ms": 0.6, "loss_prob": 0.3, "seed": 7}

GOLDEN = {
    "control_runs.csv": "6458e186e089494346ed13462a19130164086b42ab11bbe92f7013eb712f2f47",
    "control_trajectories.csv": "0297dcdb75314c40439da48f040ea7cd162e5efdc4c0d148e48518f60610e1de",
    "assignment.csv": "85e6a350fc4813421307603a6faefc729fe1a031050f09a3b865341247920da9",
}


def csv_bodies(tmp_path, name, cfg, csv_names):
    """Run ``cfg`` through the CLI; return each CSV's bytes below the header line."""
    out = tmp_path / name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, output_dir=str(out))))
    assert main(["run", str(path)]) == 0
    return {csv: (out / csv).read_bytes().split(b"\n", 1)[1] for csv in csv_names}


def check_replay(tmp_path, cfg, csv_names):
    lossy = csv_bodies(tmp_path, "lossy", cfg, csv_names)
    lossless_cfg = dict(cfg, network=dict(cfg["network"], loss_prob=0.0))
    lossless = csv_bodies(tmp_path, "lossless", lossless_cfg, csv_names)
    for csv in csv_names:
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
    check_replay(tmp_path, cfg, ("control_runs.csv", "control_trajectories.csv"))


def test_best_effort_assignment_under_loss_replays(tmp_path):
    cfg = {
        "task": "assignment",
        "seed": 4,
        "team_size": 6,
        "network": LOSSY_NETWORK,
        "aggregation": {"mode": "best_effort"},
        "assignment": {"n_tests": 5},
    }
    check_replay(tmp_path, cfg, ("assignment.csv",))
