"""Property test of the grid config contract on mutated demo configs.

The grid's validator must reject a config exactly when JSON Schema rejects it
against the shipped grid_config.schema.json, apart from the rules that schema
does not state: numbers must be finite as floats, and the cross-key and
file-name rules of ``cli._validate_grid_config``. Whatever the config, ``grid`` must end in a
documented exit code, and a config the validator rejects must write nothing.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")

from hypothesis import given, settings, strategies as st  # noqa: E402

import scorefuse  # noqa: E402
from scorefuse.cli import _validate_grid_config, main  # noqa: E402
from scorefuse.errors import ParseError  # noqa: E402

SCHEMA = json.loads(
    (Path(scorefuse.__file__).parent / "schemas" / "grid_config.schema.json").read_text(encoding="utf-8")
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# words of the messages of the rules the schema does not state
CODE_RULES = (
    "names unknown matchers",
    "'method_id' values must be unique",
    "is not a usable file name",
    "'output_dir' must be a relative path",
    "must not contain a path separator",
)


def _keys(schema):
    """Every property name the schema declares."""
    for key, sub in schema.get("properties", {}).items():
        yield key
        yield from _keys(sub)
    if "items" in schema:
        yield from _keys(schema["items"])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
KEYS = st.sampled_from(sorted(set(_keys(SCHEMA)))) | st.text(max_size=6)


def _nodes(doc, path=()):
    """(path, value) of ``doc`` and of everything inside it."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, child in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(child, (*path, key))


def _mutate(data, config) -> None:
    """Drop a key or entry, insert one, or swap a value for another JSON value."""
    nodes = list(_nodes(config))
    node = data.draw(st.sampled_from([n for _, n in nodes if isinstance(n, (dict, list))]))
    leaves = [n for _, n in nodes if not isinstance(n, (dict, list))]
    value = data.draw(JSON_VALUES | st.sampled_from(leaves))
    op = data.draw(st.sampled_from(["drop", "insert", "swap"]))
    if op == "insert":
        if isinstance(node, dict):
            node[data.draw(KEYS)] = value
        else:
            node.insert(data.draw(st.integers(0, len(node))), value)
    elif node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if op == "drop":
            del node[key]
        else:
            node[key] = value


def _has_non_finite(doc) -> bool:
    """Whether ``doc`` holds a number that is not finite as a float."""
    return any(type(v) in (int, float) and not abs(v) <= sys.float_info.max for _, v in _nodes(doc))


def _files(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A small demo: two cam1 settings, intra only, an average and a perceptron."""
    root = tmp_path_factory.mktemp("property") / "demo"
    assert main(["synth", "--demo", str(root), "--seed", "2"]) == 0
    config = json.loads((root / "config.json").read_text(encoding="utf-8"))
    config["settings"] = [s for s in config["settings"] if s["camera_id"] == "cam1"]
    config["score_files"] = [f for f in config["score_files"] if f["camera_id"] == "cam1"]
    config["methods"] = [m for m in config["methods"] if m["method_id"] in ("avg", "perceptron")]
    config["methods"][1]["hyper"] = {"max_epochs": 20, "tolerance": 1e-6}
    VALIDATOR.validate(config)
    return root, config


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_grid_validator_agrees_with_json_schema(demo, data):
    root, base = demo
    config = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, config)
    path = root / "mutated.json"
    path.write_text(json.dumps(config), encoding="utf-8")

    try:
        _validate_grid_config(config, path)
        error = None
    except ParseError as exc:
        error = str(exc)
    if not VALIDATOR.is_valid(config):
        assert error is not None, config
    elif error is not None:
        assert _has_non_finite(config) or any(rule in error for rule in CODE_RULES), error

    before = _files(root)
    code = main(["grid", "--config", str(path)])
    assert code in {0, 2, 3, 4, 5, 6, 7}
    if error is not None:
        assert code == 3
        assert _files(root) == before
