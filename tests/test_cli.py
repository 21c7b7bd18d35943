import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import neuromesh
import neuromesh.wire as wire_mod
from neuromesh import control
from neuromesh.cli import main
from neuromesh.config import COMMON_FIELDS, SCHEMA_DOC, TASK_FIELDS, validate_config
from neuromesh.errors import ConfigError
from neuromesh.netsim import derive_seed

from oracles import binomial_central_interval


def write_config(tmp_path, body):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(body))
    return str(path)


def learned_control(tmp_path):
    """A learned ``control`` section whose weight paths exist, for configs that are
    validated and not run."""
    present = tmp_path / "present.mwts"
    present.write_bytes(b"")
    return {"policy": "learned", "weights": dict.fromkeys(("encoder", "pairwise", "decoder"),
                                                          str(present))}


def read_csv_lines(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# neuromesh-csv schema=")
    return lines


class TestConfigValidation:
    def test_unknown_field_is_an_error_with_path(self):
        with pytest.raises(ConfigError, match="network.bandwith"):
            validate_config({"task": "comms", "network": {"bandwith": 1}})

    def test_negative_bandwidth_names_the_field(self):
        with pytest.raises(ConfigError, match="network.per_node_bandwidth"):
            validate_config({"task": "comms", "network": {"per_node_bandwidth": -1}})

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            validate_config({"task": "teleport"})

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("NEUROMESH_SEED", "777")
        cfg = validate_config({"task": "assignment", "seed": 1})
        assert cfg["seed"] == 777

    def test_missing_weight_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="assignment.weights.encoder"):
            validate_config({
                "task": "assignment",
                "assignment": {
                    "mode": "learned",
                    "weights": {
                        "encoder": str(tmp_path / "missing.mwts"),
                        "attention": str(tmp_path / "missing.mwts"),
                        "decoder": str(tmp_path / "missing.mwts"),
                    },
                },
            })

    def test_weights_the_mode_never_reads_are_rejected_before_any_file_check(self, tmp_path):
        missing = str(tmp_path / "missing.mwts")
        with pytest.raises(ConfigError, match="the expert mode does not read this field") as err:
            validate_config({"task": "assignment", "assignment": {
                "weights": {"encoder": missing, "attention": missing, "decoder": missing}}})
        assert err.value.path == "assignment.weights"

    def test_a_scripted_control_config_refuses_weights(self, tmp_path):
        present = tmp_path / "present.mwts"
        present.write_bytes(b"")
        with pytest.raises(ConfigError, match="the scripted policy does not read this field") \
                as err:
            validate_config({"task": "control", "control": {"policy": "scripted", "weights": {
                "encoder": str(present), "pairwise": str(present), "decoder": str(present)}}})
        assert err.value.path == "control.weights"

    @pytest.mark.parametrize("task,selector", [("assignment", "mode"), ("control", "policy")])
    def test_learned_mode_still_requires_weights(self, task, selector):
        with pytest.raises(ConfigError, match="required for learned mode") as err:
            validate_config({"task": task, task: {selector: "learned"}})
        assert err.value.path == f"{task}.weights"

    def test_defaults_fill_in(self):
        cfg = validate_config({"task": "control"})
        assert cfg["team_size"] == 3
        assert cfg["control"]["success_radius_m"] == 0.15
        assert cfg["network"]["per_node_bandwidth"] == 6_000_000

    def test_min_neighbors_bounded_by_team_size(self):
        with pytest.raises(ConfigError, match="aggregation.min_neighbors"):
            validate_config({
                "task": "assignment",
                "team_size": 3,
                "aggregation": {"min_neighbors": 3},
            })

    @pytest.mark.parametrize("task", ["assignment", "control"])
    @pytest.mark.parametrize("field,value", [
        ("paradigm", "reduction"), ("kind", "max"), ("rounds", 2),
    ])
    def test_aggregation_field_the_task_never_reads_is_rejected(self, task, field, value):
        with pytest.raises(ConfigError, match=f"aggregation.{field}"):
            validate_config({"task": task, "aggregation": {field: value}})

    @pytest.mark.parametrize("task", ["assignment", "control"])
    def test_aggregation_defaults_still_validate(self, task, tmp_path):
        raw = {"task": task, "aggregation": {"mode": "blocking"}}
        if task == "control":  # a scripted control run reads no aggregation field
            raw["control"] = learned_control(tmp_path)
        cfg = validate_config(raw)
        assert cfg["aggregation"] == {"mode": "blocking", "timeout_ms": 500.0, "min_neighbors": 0}


    @pytest.mark.parametrize("task,field", [
        (task, field) for task, fields in {
            "assignment": ("control", "timing", "comms"),
            "control": ("assignment", "timing", "comms"),
            "timing": ("seed", "team_size", "network", "aggregation", "assignment", "control",
                       "comms"),
            "comms": ("seed", "team_size", "aggregation", "assignment", "control", "timing"),
        }.items() for field in fields
    ])
    def test_field_the_task_does_not_read_is_rejected(self, task, field):
        # "x" is also a malformed value for every section: it must not get that far
        with pytest.raises(ConfigError, match="does not read this field") as err:
            validate_config({"task": task, field: "x"})
        assert err.value.path == field

    def test_unknown_top_level_field_keeps_its_message(self):
        with pytest.raises(ConfigError, match="unknown field") as err:
            validate_config({"task": "timing", "timeing": {}})
        assert err.value.path == "timeing"

    def test_task_config_holds_only_the_sections_it_reads(self):
        assert set(validate_config({"task": "assignment"})) == {
            "task", "seed", "output_dir", "team_size", "network", "aggregation", "assignment"}

    def test_field_table_and_schema_agree(self):
        sections = set(SCHEMA_DOC) - set(COMMON_FIELDS)
        read = {field for fields in TASK_FIELDS.values() for field in fields}
        assert sections == read
        for task, fields in TASK_FIELDS.items():
            assert f"{task}: {', '.join(fields)}" in SCHEMA_DOC["task"]


class TestCliRun:
    def test_malformed_config_exits_nonzero_with_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "comms",
            "network": {"per_node_bandwidth": -5},
        })
        assert main(["run", cfg]) == 2
        assert "network.per_node_bandwidth" in capsys.readouterr().err

    def test_a_scripted_control_config_that_sets_a_link_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"task": "control", "output_dir": str(out),
                                      "network": {"loss_prob": 1.0}, "control": {"n_runs": 1}})
        assert main(["run", cfg]) == 2
        assert "network: the scripted policy does not read this field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body,env_seed,path", [
        ({"task": "assignment", "seed": -1}, None, "seed:"),
        ({"task": "control"}, "-3", "NEUROMESH_SEED:"),
        ({"task": "assignment", "assignment": {"costs": [[1, 2], [3]]}}, None, "assignment.costs:"),
        ({"task": "assignment", "assignment": {"costs": [[1, "a"], [3, 4]]}}, None,
         "assignment.costs:"),
        ({"task": "control", "control": {"initial_poses": [[0, 0], [1, 1, 0]]}}, None,
         "control.initial_poses:"),
        ({"task": "control", "control": {"initial_poses": [[0, 0, "north"], [1, 1, 0]]}}, None,
         "control.initial_poses:"),
        ({"task": "control", "control": {"goals": [[0, 0, 0], [1, 1]]}}, None, "control.goals:"),
        ({"task": "control", "control": {"goals": [[0, "a"], [1, 1]]}}, None, "control.goals:"),
        ({"task": "assignment", "network": {"base_latency_ms": math.inf}}, None,
         "network.base_latency_ms:"),
        ({"task": "assignment", "network": {"jitter_ms": math.inf}}, None, "network.jitter_ms:"),
        ({"task": "assignment", "network": {"jitter_ms": 10**400}}, None, "network.jitter_ms:"),
        ({"task": "assignment", "assignment": {"cost_range": ["a", "b"]}}, None,
         "assignment.cost_range:"),
        ({"task": "assignment", "assignment": {"cost_range": [0, None]}}, None,
         "assignment.cost_range:"),
        ({"task": "assignment", "assignment": {"cost_range": [True, 5]}}, None,
         "assignment.cost_range:"),
        ({"task": "assignment", "assignment": {"cost_range": [-1e308, 1e308]}}, None,
         "assignment.cost_range:"),
        ({"task": "control", "control": {"v_bounds": ["a", "b"]}}, None, "control.v_bounds:"),
        ({"task": "control", "control": {"v_bounds": [True, 5]}}, None, "control.v_bounds:"),
        ({"task": "control", "control": {"omega_bounds": [0, None]}}, None,
         "control.omega_bounds:"),
        ({"task": "control", "control": {"omega_bounds": [-1e308, 1e308]}}, None,
         "control.omega_bounds:"),
        ({"task": "comms", "comms": {"offered_hz": 1e10}}, None, "comms.offered_hz:"),
        ({"task": "comms", "comms": {"offered_hz": 1e-300}}, None, "comms.offered_hz:"),
        ({"task": "control", "control": {"control_rate_hz": 1e-300}}, None,
         "control.control_rate_hz:"),
    ], ids=["negative-seed", "negative-env-seed", "ragged-costs", "non-numeric-costs",
            "short-pose", "non-numeric-pose", "long-goal", "non-numeric-goal",
            "infinite-latency", "infinite-jitter", "jitter-beyond-float",
            "string-cost-range", "null-cost-range", "bool-cost-range", "overflowing-cost-range",
            "string-v-bounds", "bool-v-bounds", "null-omega-bounds", "overflowing-omega-bounds",
            "sub-ns-publish-period", "publish-period-beyond-int64",
            "control-period-beyond-int64"])
    def test_malformed_value_exits_2_at_load_with_its_path(self, tmp_path, capsys, monkeypatch,
                                                           body, env_seed, path):
        if env_seed is not None:
            monkeypatch.setenv("NEUROMESH_SEED", env_seed)
        task = body["task"]
        section = {"assignment": {"n_tests": 1}, "control": {"n_runs": 1, "max_steps": 5},
                   "comms": {"team_sizes": [2], "duration_s": 0.1}}[task]
        section.update(body.get(task, {}))
        team = {"team_size": 2} if "team_size" in TASK_FIELDS[task] else {}
        cfg = write_config(tmp_path, dict(body, **team, output_dir=str(tmp_path / "out"),
                                          **{task: section}))
        assert main(["run", cfg]) == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_timing_scenario_emits_parallel_and_sequential_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "task": "timing",
            "output_dir": str(tmp_path / "out"),
            "timing": {"delays_ms": [2, 6, 4], "items": 10},
        })
        assert main(["run", cfg]) == 0
        lines = read_csv_lines(tmp_path / "out" / "timing.csv")
        assert lines[1].split(",")[0] == "mode"
        assert lines[2].startswith("parallel,")
        assert lines[3].startswith("sequential,")

    def test_comms_sweep_covers_requested_team_sizes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "task": "comms",
            "output_dir": str(tmp_path / "out"),
            "comms": {"team_sizes": [5, 10, 30, 50], "duration_s": 0.1},
        })
        assert main(["run", cfg]) == 0
        lines = read_csv_lines(tmp_path / "out" / "comms_sweep.csv")
        sizes = [line.split(",")[0] for line in lines[2:]]
        assert sizes == ["5", "10", "30", "50"]

    def test_comms_quality_row(self, tmp_path):
        cfg = write_config(tmp_path, {
            "task": "comms",
            "output_dir": str(tmp_path / "out"),
            "network": {"base_latency_ms": 4.8, "jitter_ms": 0.6, "loss_prob": 0.003},
            "comms": {"scenario": "quality", "duration_s": 2.0},
        })
        assert main(["run", cfg]) == 0
        lines = read_csv_lines(tmp_path / "out" / "comms_quality.csv")
        latency = float(lines[2].split(",")[0])
        assert latency == pytest.approx(4.8, rel=0.15)

    def test_assignment_run_writes_per_test_rows_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "assignment",
            "output_dir": str(out),
            "assignment": {"n_tests": 4},
        })
        assert main(["run", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "SR = 100.00" in stdout
        assert "TCP = 0.0000" in stdout
        assert "failed 0/4 = 0.0 % (95 % CI 0.0-49.0 %)" in stdout
        lines = read_csv_lines(out / "assignment.csv")
        assert len(lines) == 2 + 4
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["task"] == "assignment"
        assert len(manifest["config_sha256"]) == 64

    def test_control_run_writes_outcome_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "control",
            "output_dir": str(out),
            "control": {
                "n_runs": 2,
                "max_steps": 200,
                "initial_poses": [[-1, 0, 0], [1, 0, 3.14159], [0, 1.5, 0]],
                "goals": [[-1, 2], [1, 2], [0, -1.5]],
            },
        })
        assert main(["run", cfg]) == 0
        lines = read_csv_lines(out / "control_runs.csv")
        assert lines[1] == "run_id,success,steps,min_pairwise_distance_m"
        assert len(lines) == 2 + 2

    def test_csv_output_is_deterministic_modulo_header(self, tmp_path):
        bodies = []
        for run in range(2):
            out = tmp_path / f"out{run}"
            cfg = write_config(tmp_path, {
                "task": "assignment",
                "seed": 5,
                "output_dir": str(out),
                "assignment": {"n_tests": 3},
            })
            assert main(["run", cfg]) == 0
            lines = (out / "assignment.csv").read_text().splitlines()
            bodies.append("\n".join(lines[1:]))
        assert bodies[0] == bodies[1]

    def test_schema_version_in_header_line(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "timing",
            "output_dir": str(out),
            "timing": {"delays_ms": [1, 2, 1], "items": 5},
        })
        assert main(["run", cfg]) == 0
        header = read_csv_lines(out / "timing.csv")[0]
        assert "schema=timing/1" in header

    def test_print_schema_is_valid_json(self, capsys):
        assert main(["print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert "network" in schema


class TestOutputReplacement:
    """A rerun unlinks each existing output and creates it again, never writing into it."""

    @staticmethod
    def assignment_config(tmp_path, out):
        return write_config(tmp_path, {
            "task": "assignment",
            "seed": 5,
            "output_dir": str(out),
            "assignment": {"n_tests": 3},
        })

    def test_a_rerun_replaces_longer_stale_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.assignment_config(tmp_path, out)
        assert main(["run", cfg]) == 0
        outputs = [out / "assignment.csv", out / "run_manifest.json"]
        body = outputs[0].read_text().split("\n", 1)[1]
        stale = "stale,row,0\n" * 100
        old = []
        for path in outputs:
            path.write_text(path.read_text() + stale)
            # A second name keeps the old inode alive, so the new file cannot reuse its number.
            old.append(tmp_path / f"old_{path.name}")
            os.link(path, old[-1])
        assert main(["run", cfg]) == 0
        assert outputs[0].read_text().split("\n", 1)[1] == body  # no stale bytes trail it
        manifest = outputs[1].read_text()
        assert json.loads(manifest)["task"] == "assignment" and manifest.endswith("}\n")
        for path, kept in zip(outputs, old):
            assert path.stat().st_ino != kept.stat().st_ino
            assert kept.read_text().endswith(stale)  # the old file was left, not truncated

    def test_a_symlinked_output_is_replaced_and_its_target_left_alone(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        targets = {}
        for name in ("assignment.csv", "run_manifest.json"):
            targets[name] = tmp_path / f"target_{name}"
            targets[name].write_text("not an output\n")
            (out / name).symlink_to(targets[name])
        assert main(["run", self.assignment_config(tmp_path, out)]) == 0
        for name, target in targets.items():
            assert not (out / name).is_symlink()
            assert target.read_text() == "not an output\n"
        assert len(read_csv_lines(out / "assignment.csv")) == 2 + 3
        assert json.loads((out / "run_manifest.json").read_text())["task"] == "assignment"


class TestFailuresAreOutcomes:
    POSES = [[-1, 0, 0], [1, 0, 3.14159], [0, 1.5, 0]]
    GOALS = [[-1, 2], [1, 2], [0, -1.5]]

    def write_policy(self, tmp_path):
        from neuromesh.control import ControlPolicy
        from neuromesh.tensors import save_mlp

        policy = ControlPolicy.random(feature_dim=8, hidden=16, seed=6)
        paths = {}
        for name in ("encoder", "pairwise", "decoder"):
            paths[name] = str(tmp_path / f"{name}.mwts")
            save_mlp(paths[name], getattr(policy, name))
        return paths

    def run_rows(self, tmp_path, body, csv_name):
        out = tmp_path / "out"
        body = dict(body, output_dir=str(out), network={"loss_prob": 1.0})
        assert main(["run", write_config(tmp_path, body)]) == 0
        return [line.split(",") for line in read_csv_lines(out / csv_name)[2:]]

    @pytest.mark.parametrize("aggregation", [
        {"mode": "blocking"},
        {"mode": "best_effort", "min_neighbors": 1},
    ])
    def test_learned_control_under_total_loss_fails_every_run(self, tmp_path, aggregation):
        rows = self.run_rows(tmp_path, {
            "task": "control",
            "aggregation": aggregation,
            "control": {"n_runs": 2, "max_steps": 20, "policy": "learned",
                        "weights": self.write_policy(tmp_path),
                        "initial_poses": self.POSES, "goals": self.GOALS},
        }, "control_runs.csv")
        assert len(rows) == 2
        assert all(row[1] == "0" for row in rows)

    def test_assignment_with_too_few_live_neighbors_fails_every_test(self, tmp_path):
        rows = self.run_rows(tmp_path, {
            "task": "assignment",
            "aggregation": {"mode": "best_effort", "min_neighbors": 1},
            "assignment": {"n_tests": 3},
        }, "assignment.csv")
        assert len(rows) == 3
        assert all(row[-1] == "1" for row in rows)


class TestIndependentLosses:
    """Each test of a run draws over a mesh seeded for that test, so losses are independent."""

    LOSS = 0.003
    ROBOTS = 10
    TESTS = 200

    def test_blocking_failures_follow_the_binomial_law(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "assignment",
            "output_dir": str(out),
            "team_size": self.ROBOTS,
            "network": {"loss_prob": self.LOSS},
            "aggregation": {"mode": "blocking"},
            "assignment": {"mode": "expert", "n_tests": self.TESTS},
        })
        assert main(["run", cfg]) == 0
        failed = sum(int(line.split(",")[-1])
                     for line in read_csv_lines(out / "assignment.csv")[2:])
        # A blocking test fails if any of its n (n - 1) messages is lost.
        p_fail = 1.0 - (1.0 - self.LOSS) ** (self.ROBOTS * (self.ROBOTS - 1))
        lo, hi = binomial_central_interval(self.TESTS, p_fail, 0.99)
        assert lo <= failed <= hi, f"{failed} of {self.TESTS} failed, expected {lo}..{hi}"
        assert f"failed {failed}/{self.TESTS} = " in capsys.readouterr().out

    def test_every_budget_of_a_grid_sees_the_same_losses(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "assignment",
            "output_dir": str(out),
            "team_size": 6,
            "network": {"loss_prob": 0.02},
            "aggregation": {"mode": "blocking"},
            "assignment": {"n_tests": 30, "message_budget_bytes": [8, 64]},
        })
        assert main(["run", cfg]) == 0
        failed = [[line.split(",")[-1] for line in read_csv_lines(out / name)[2:]]
                  for name in ("assignment_budget8.csv", "assignment_budget64.csv")]
        assert failed[0] == failed[1]
        assert 0 < failed[0].count("1") < 30

    def test_control_summary_reports_the_success_share(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "task": "control",
            "output_dir": str(tmp_path / "out"),
            "control": {"n_runs": 1, "max_steps": 5},
        })
        assert main(["run", cfg]) == 0
        line = re.search(r"control: succeeded (\d)/1 = .* \(95 % CI .*\) of runs",
                         capsys.readouterr().out)
        assert line is not None


class TestIndependentActions:
    """Every robot of every control run samples its actions from a stream of its own."""

    @pytest.mark.parametrize("robots", [3, 10])
    def test_no_two_robot_runs_share_an_action_stream(self, tmp_path, monkeypatch, robots):
        runs = 20
        seeds = []  # derive_seed arguments of each robot's action stream, in order

        def recording(*parts):
            seeds.append(parts)
            return derive_seed(*parts)

        monkeypatch.setattr(control, "derive_seed", recording)
        monkeypatch.delenv("NEUROMESH_SEED", raising=False)
        cfg = write_config(tmp_path, {
            "task": "control",
            "seed": 0,
            "team_size": robots,
            "output_dir": str(tmp_path / "out"),
            "control": {"n_runs": runs, "max_steps": 1},
        })
        assert main(["run", cfg]) == 0
        assert len(seeds) == len(set(seeds)) == runs * robots
        assert seeds[:robots] == [(a,) for a in range(robots)]  # run 0 keeps its streams


class TestSweep:
    """A budget grid is one ``neuromesh run``, and the comms task sweeps team sizes."""

    @staticmethod
    def bodies(tmp_path, name, budget):
        """{CSV name: body below the header} and the manifest of one lossy, jittered run."""
        out = tmp_path / name
        cfg = write_config(tmp_path, {
            "task": "assignment",
            "output_dir": str(out),
            "team_size": 6,
            "network": {"loss_prob": 0.01, "jitter_ms": 3.0, "seed": 2},
            "aggregation": {"mode": "blocking", "timeout_ms": 50.0},
            "assignment": {"n_tests": 8, "message_budget_bytes": budget},
        })
        assert main(["run", cfg]) == 0
        bodies = {csv.name: csv.read_text().split("\n", 1)[1] for csv in out.glob("*.csv")}
        return bodies, json.loads((out / "run_manifest.json").read_text())

    def test_assignment_budget_grid(self, tmp_path):
        bodies, manifest = self.bodies(tmp_path, "grid", [8, 64])
        names = ["assignment_budget8.csv", "assignment_budget64.csv"]
        assert sorted(bodies) == sorted(names)
        assert [Path(p).name for p in manifest["outputs"]] == names

    def test_each_budget_of_a_grid_writes_the_body_of_its_own_run(self, tmp_path):
        grid, _ = self.bodies(tmp_path, "grid", [8, 16, 64])
        for budget in (8, 16, 64):
            single, _ = self.bodies(tmp_path, f"single{budget}", budget)
            assert list(single) == ["assignment.csv"]
            assert grid[f"assignment_budget{budget}.csv"] == single["assignment.csv"]
        assert grid["assignment_budget8.csv"] != grid["assignment_budget64.csv"]

    @pytest.mark.parametrize("values", ["64", [2], [], [8, None], True])
    def test_malformed_grid_exits_2_with_its_path(self, tmp_path, capsys, values):
        cfg = write_config(tmp_path, {
            "task": "assignment",
            "output_dir": str(tmp_path / "out"),
            "assignment": {"n_tests": 1, "message_budget_bytes": values},
        })
        assert main(["run", cfg]) == 2
        assert "assignment.message_budget_bytes:" in capsys.readouterr().err

    def test_a_repeated_budget_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "assignment",
            "output_dir": str(out),
            "assignment": {"n_tests": 1, "message_budget_bytes": [8, 16, 8]},
        })
        assert main(["run", cfg]) == 2
        assert ("assignment.message_budget_bytes: repeats a budget: [8, 16, 8]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("body,message", [
        ({"task": "comms", "network": {"topology": "full_mesh"},
          "comms": {"team_sizes": [3], "duration_s": 0.1}},
         "network.topology: unknown field"),
        ({"task": "assignment", "assignment": {"n_goals": 5, "n_tests": 1}},
         "assignment.n_goals: unknown field"),
        ({"task": "assignment", "assignment": {"n_tests": 1},
          "sweep": {"message_budget_bytes": [8, 64]}},
         "sweep: unknown field"),
        ({"task": "comms", "seed": 3, "comms": {"team_sizes": [3], "duration_s": 0.1}},
         "seed: the comms task does not read this field"),
    ])
    def test_setting_without_effect_exits_2_with_its_path(self, tmp_path, capsys, body, message):
        cfg = write_config(tmp_path, dict(body, output_dir=str(tmp_path / "out")))
        assert main(["run", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_sweep_command_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "assignment", "output_dir": str(tmp_path / "out"),
                                      "assignment": {"message_budget_bytes": [8, 64]}})
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task,body,seed", [
        ("assignment", {"seed": 5, "assignment": {"n_tests": 1}}, 5),
        ("comms", {"comms": {"team_sizes": [2], "duration_s": 0.1}}, None),
    ])
    def test_the_manifest_seed_is_the_seed_the_task_reads(self, tmp_path, monkeypatch, task,
                                                          body, seed):
        monkeypatch.delenv("NEUROMESH_SEED", raising=False)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, dict(body, task=task,
                                                        output_dir=str(out)))]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["seed"] == seed

    def test_comms_sweep_scenario_honors_link_loss(self, tmp_path):
        def delivered_mean(loss_prob):
            out = tmp_path / f"loss{loss_prob}"
            cfg = write_config(tmp_path, {
                "task": "comms",
                "output_dir": str(out),
                "network": {"loss_prob": loss_prob, "seed": 3},
                "comms": {"duration_s": 0.2, "team_sizes": [4]},
            })
            assert main(["run", cfg]) == 0
            return float(read_csv_lines(out / "comms_sweep.csv")[2].split(",")[2])

        assert delivered_mean(0.5) < delivered_mean(0.0)


class TestSelftest:
    def test_fresh_checkout_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8
        assert "SKIP learned-assignment" in out

    def test_corrupted_wire_constant_fails_the_round_trip_criterion(self, monkeypatch, capsys):
        monkeypatch.setattr(wire_mod, "MAGIC", b"XMSH")
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL wire-round-trip" in out

    def test_learned_checks_run_when_weights_exist(self, tmp_path, capsys):
        from neuromesh.assignment import AssignmentModel
        from neuromesh.tensors import save_attention, save_mlp

        model = AssignmentModel.random(n_goals=5, seed=1)
        save_mlp(tmp_path / "assignment_encoder.mwts", model.encoder)
        save_attention(tmp_path / "assignment_attention.mwts", model.attention)
        save_mlp(tmp_path / "assignment_decoder.mwts", model.decoder)
        assert main(["selftest", "--weights-dir", str(tmp_path)]) == 0
        assert "PASS learned-assignment" in capsys.readouterr().out


class TestImportSurface:
    def test_the_cli_loads_neither_pipeline_selftest_nor_sockets(self):
        """A fresh interpreter's ``import neuromesh.cli`` leaves the other commands' modules out."""
        src = str(Path(neuromesh.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        script = (
            "import sys, neuromesh.cli\n"
            "print(sorted(m for m in ('socket', 'logging', 'neuromesh.pipeline',"
            " 'neuromesh.selftest') if m in sys.modules))\n"
            "import neuromesh, neuromesh.netsim as netsim, neuromesh.pipeline as pipeline\n"
            "print(neuromesh.run_pipeline is pipeline.run_pipeline,"
            " neuromesh.run_sequential is pipeline.run_sequential,"
            " neuromesh.PipelineStats is pipeline.PipelineStats,"
            " neuromesh.LoopbackTransport is netsim.LoopbackTransport)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out == ["[]", "True True True True"]

    def test_an_unknown_name_is_still_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            neuromesh.no_such_name


class TestNanosecondBounds:
    """Time fields scaled to integer ns exit 2 at load once the ns reach 2**63,
    instead of overflowing in the run."""

    @pytest.mark.parametrize("task,section,field,value", [
        ("assignment", "aggregation", "timeout_ms", 1e303),
        ("assignment", "network", "base_latency_ms", 1e303),
        ("assignment", "network", "jitter_ms", 1e303),
        ("comms", "comms", "duration_s", 1e300),
    ], ids=["timeout", "latency", "jitter", "duration"])
    def test_overflowing_time_exits_2_at_load(self, tmp_path, capsys, task, section, field,
                                              value):
        body = {"task": task, "output_dir": str(tmp_path / "out"), section: {field: value}}
        if task == "assignment":
            body.update(team_size=2, assignment={"n_tests": 1})
        assert main(["run", write_config(tmp_path, body)]) == 2
        assert f"{section}.{field}: must be below 2**63 ns" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,field,scale", [
        ("aggregation", "timeout_ms", 1e6), ("network", "base_latency_ms", 1e6),
        ("network", "jitter_ms", 1e6), ("comms", "duration_s", 1e9),
    ])
    def test_the_bound_is_2_to_the_63_ns(self, section, field, scale):
        task = "comms" if section == "comms" else "assignment"
        below = 2**63 / scale * (1 - 1e-9)
        assert validate_config({"task": task, section: {field: below}})[section][field] == below
        with pytest.raises(ConfigError, match="2\\*\\*63 ns") as err:
            validate_config({"task": task, section: {field: 2**63 / scale * (1 + 1e-9)}})
        assert err.value.path == f"{section}.{field}"

    @pytest.mark.parametrize("command,task,body", [
        ("run", "assignment", {"team_size": 2, "assignment": {"n_tests": 1}}),
        ("run", "comms", {"comms": {"duration_s": 0.1, "team_sizes": [2]}}),
    ], ids=["assignment", "comms-sweep"])
    def test_tiny_bandwidth_exits_2_at_load(self, tmp_path, capsys, command, task, body):
        body = dict(body, task=task, output_dir=str(tmp_path / "out"),
                    network={"per_node_bandwidth": 1e-300})
        assert main([command, write_config(tmp_path, body)]) == 2
        assert ("network.per_node_bandwidth: a 65536 B datagram's airtime must be below "
                "2**63 ns") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_bandwidth_bound_is_a_65536_b_airtime_of_2_to_the_63_ns(self, tmp_path):
        lowest = 65_536 * 1e9 / 2**63
        above = lowest * (1 + 1e-9)
        assert validate_config({"task": "comms", "network": {"per_node_bandwidth": above}})[
            "network"]["per_node_bandwidth"] == above
        with pytest.raises(ConfigError, match="2\\*\\*63 ns") as err:
            validate_config({"task": "comms",
                             "network": {"per_node_bandwidth": lowest * (1 - 1e-9)}})
        assert err.value.path == "network.per_node_bandwidth"
        cfg = write_config(tmp_path, {"task": "comms", "output_dir": str(tmp_path / "out"),
                                      "network": {"per_node_bandwidth": above},
                                      "comms": {"team_sizes": [2], "duration_s": 0.1}})
        assert main(["run", cfg]) == 0  # the slowest bandwidth that loads also runs

    @pytest.mark.parametrize("delays", [[1e300, 0, 0], [0, 0, 1e13], [0, math.inf, 0]])
    def test_overflowing_delay_exits_2_and_writes_no_timing_csv(self, tmp_path, capsys, delays):
        cfg = write_config(tmp_path, {"task": "timing", "output_dir": str(tmp_path / "out"),
                                      "timing": {"delays_ms": delays, "items": 3}})
        assert main(["run", cfg]) == 2
        assert "timing.delays_ms:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "timing.csv").exists()
