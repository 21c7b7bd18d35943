"""The config field tables: what validation accepts, rejects and fills in.

Any value at any documented field path must be accepted or rejected with a
``ConfigError`` naming a path, never a stray exception; and an empty config
must fill in exactly the fields ``print-schema`` documents, with the defaults
it shows.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromesh.config import COMMON_FIELDS, READ_WHEN, SCHEMA_DOC, TASK_FIELDS, validate_config
from neuromesh.errors import ConfigError

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, min_size=2, max_size=2),  # the shape of an interval field
    st.lists(SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=8), SCALARS, max_size=3),
)


def documented_paths(task):
    """Every field path the task reads: top-level names and section.key pairs."""
    paths = [("task",)]
    for name in COMMON_FIELDS[1:] + TASK_FIELDS[task]:
        doc = SCHEMA_DOC[name]
        paths += [(name, key) for key in doc] if isinstance(doc, dict) else [(name,)]
    return paths


FIELD_PATHS = [(task, path) for task in TASK_FIELDS for path in documented_paths(task)]


@pytest.mark.parametrize("task,path", FIELD_PATHS,
                         ids=[f"{task}-{'.'.join(path)}" for task, path in FIELD_PATHS])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(value=VALUES)
def test_any_value_is_accepted_or_a_config_error(task, path, value):
    raw = {"task": task}
    if len(path) == 1:
        raw[path[0]] = value
    else:
        raw[path[0]] = {path[1]: value}
    try:
        validate_config(raw)
    except ConfigError as exc:
        assert exc.path


def shown_default(doc: str):
    """The value a SCHEMA_DOC description shows as ``(default ...)``."""
    match = re.search(r"\(default (.*)\)$", doc)
    assert match, f"no default shown in {doc!r}"
    return json.loads(match.group(1).replace("'", '"'))


@pytest.mark.parametrize("task", TASK_FIELDS)
def test_defaults_fill_exactly_the_documented_fields(monkeypatch, task):
    monkeypatch.delenv("NEUROMESH_SEED", raising=False)
    cfg = validate_config({"task": task})
    assert set(cfg) == set(COMMON_FIELDS + TASK_FIELDS[task])
    for name, value in cfg.items():
        doc = SCHEMA_DOC[name]
        if name == "task":
            continue
        if isinstance(doc, dict):
            assert set(value) == set(doc), name
            for key, text in doc.items():
                # a round trip through JSON, as the run manifest stores it, turns tuples to lists
                assert json.loads(json.dumps(value[key])) == shown_default(text), f"{name}.{key}"
        elif (task, name) == ("control", "team_size"):
            assert f"; {value} for control" in doc
        else:
            assert value == shown_default(doc), name


def test_task_dependent_defaults_are_documented():
    cfg = validate_config({"task": "comms", "comms": {"scenario": "quality"}})
    assert f"; {cfg['comms']['duration_s']:g} for quality" in SCHEMA_DOC["comms"]["duration_s"]
    assert validate_config({"task": "control"})["team_size"] == 3


def test_bad_task_names_the_task_field():
    with pytest.raises(ConfigError) as err:
        validate_config({"task": "teleport"})
    assert err.value.path == "task"


# Per READ_WHEN selector and the value under which the run reads its fields, a value
# under which it does not.
UNREAD = {
    ("control.policy", "learned"): "scripted",
    ("aggregation.mode", "best_effort"): "blocking",
    ("aggregation.mode", "blocking"): "best_effort",
    ("assignment.mode", "learned"): "expert",
    ("assignment.costs", "random"): [[1.0] * 5] * 5,
    ("comms.scenario", "sweep"): "quality",
}
RULES = [(task, path, rule) for task, rules in READ_WHEN.items() for path, rule in rules.items()]


def set_path(raw, path, value):
    section, _, key = path.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[key] = value


def unread_config(task, path, rule, tmp_path):
    """A config of ``task`` whose selector leaves ``path`` unread, and whose policy is
    learned where the rule's section is read only under it."""
    raw = {"task": task}
    if task == "control" and rule[0] != "control.policy":
        present = tmp_path / "present.mwts"
        present.write_bytes(b"")
        raw["control"] = {"policy": "learned", "weights": dict.fromkeys(
            ("encoder", "pairwise", "decoder"), str(present))}
    set_path(raw, rule[0], UNREAD[rule])
    return raw


@pytest.mark.parametrize("task,path,rule", RULES, ids=[f"{t}-{p}" for t, p, _ in RULES])
def test_a_field_its_selector_leaves_unread_is_refused_even_at_its_default(
        monkeypatch, task, path, rule, tmp_path):
    monkeypatch.delenv("NEUROMESH_SEED", raising=False)
    raw = unread_config(task, path, rule, tmp_path)
    cfg = validate_config(raw)  # left out, the field still fills in its default
    section, _, key = path.partition(".")
    default = cfg[section][key] if key else cfg[section]
    set_path(raw, path, json.loads(json.dumps(default)))
    name = rule[0].partition(".")[2]
    shown = UNREAD[rule] if isinstance(UNREAD[rule], str) else "explicit"
    with pytest.raises(ConfigError, match=f"the {shown} {name} does not read this field") as err:
        validate_config(raw)
    assert err.value.path == path


def test_no_assignment_weights_field_sets_the_layer_count(tmp_path):
    present = tmp_path / "present.mwts"
    present.write_bytes(b"")
    weights = dict.fromkeys(("encoder", "attention", "decoder"), str(present))
    with pytest.raises(ConfigError, match="unknown field") as err:
        validate_config({"task": "assignment", "assignment": {
            "mode": "learned", "weights": dict(weights, layers=2)}})
    assert err.value.path == "assignment.weights.layers"
