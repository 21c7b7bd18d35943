"""Golden replay of lossy runs: CSV bodies pinned by SHA-256.

The benchmark replays lossless runs only. These pins cover the drop path
(Bernoulli loss plus jitter) end to end through ``neuromesh run``: a learned
control run with trajectories and a best-effort assignment run. Each body is
also compared with the same config at ``loss_prob`` 0, so a pin can only hold
if messages were really dropped. A blocking learned control run is pinned too;
its body must change with ``network.seed``.

A run builds its link RNG streams once, and each run or test continues
them where the previous one stopped (``netsim.link_streams``). So the second
control run and the assignment tests after the first draw different losses
than a fresh simulator would, and the trajectory and assignment digests
hold only for the whole run, replayed from its first test.
"""

import hashlib
import json

from neuromesh.cli import main
from neuromesh.control import ControlPolicy
from neuromesh.tensors import save_mlp

LOSSY_NETWORK = {"base_latency_ms": 4.8, "jitter_ms": 0.6, "loss_prob": 0.3, "seed": 7}

GOLDEN = {
    "control_runs.csv": "6458e186e089494346ed13462a19130164086b42ab11bbe92f7013eb712f2f47",
    "control_trajectories.csv": "291aeddb242ee8ec1e08b0cbfc6743617b1e27a2e6d6a77d85916e85deebe267",
    "assignment.csv": "0e7c8502dc5a6404f0886443524e98a702b0b8d2c05bf21db3854927b4f41d87",
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


# Blocking waits for every step's features, so a run fails at the step of its
# first lost envelope: the steps column is a record of the loss draws.
BLOCKING_CONTROL_RUNS_SHA256 = "ccd4b52829cf8029f0f94a15973743cd7e6b9041369d789b76eb4b3f0b28bcb6"


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
