"""Property tests of the JSON input contracts on mutated documents.

The grid's validator must reject a config exactly when JSON Schema rejects it
against the shipped grid_config.schema.json, apart from the rules that schema
does not state: numbers must be finite as floats, and the cross-key and
file-name rules of ``cli._validate_grid_config``. Whatever the config, ``grid`` must end in a
documented exit code, and a config the validator rejects must write nothing.
``provenance.violations`` must agree with JSON Schema in the same way on
every other shipped schema, and ``load_embeddings`` must accept a line
exactly when the embedding schema does and the line's role is the file's.
"""

import copy
import inspect
import json
import math
import re
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")

from hypothesis import given, settings, strategies as st  # noqa: E402

import scorefuse  # noqa: E402
from scorefuse.cli import _validate_grid_config, main  # noqa: E402
from scorefuse.embeddings import load_embeddings  # noqa: E402
from scorefuse.errors import ParseError  # noqa: E402
from scorefuse.fusion import FusionWeights, PerceptronFuser, TrainingLog, fuser_from_dict, fuser_to_dict  # noqa: E402
from scorefuse.provenance import _TYPES, schema, violations  # noqa: E402

SCHEMA_DIR = Path(scorefuse.__file__).parent / "schemas"
SCHEMA = json.loads((SCHEMA_DIR / "grid_config.schema.json").read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# words of the messages of the rules the schema does not state
CODE_RULES = (
    "names unknown matchers",
    "'method_id' values must be unique",
    "is not a usable file name",
    "'output_dir' must be a relative path",
    "must not contain a path separator",
    "share the key",
    "needs exactly one matcher",
    "needs a 'weights_file'",
    "is only read by kind",
    "name the same matcher, setting and split",
    "pairs none of the settings",
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


def _mutate(data, config, keys=KEYS, values=JSON_VALUES) -> None:
    """Drop a key or entry, insert one, or swap a value for another JSON value."""
    nodes = list(_nodes(config))
    node = data.draw(st.sampled_from([n for _, n in nodes if isinstance(n, (dict, list))]))
    leaves = [n for _, n in nodes if not isinstance(n, (dict, list))]
    value = data.draw(values | st.sampled_from(leaves))
    op = data.draw(st.sampled_from(["drop", "insert", "swap"]))
    if op == "insert":
        if isinstance(node, dict):
            node[data.draw(keys)] = value
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


# ---------------------------------------------------------------- the other shipped schemas

# a valid document of each schema, holding every optional key
DOCUMENTS = {
    "model": {
        "mu_nonmated": 0.3, "sigma_nonmated": 0.1, "mu_mated": 0.6, "sigma_mated": 0.1,
        "n_mated": 5, "n_nonmated": 5, "seed": 1, "clamp": False,
    },
    "fuser_weights": fuser_to_dict(FusionWeights(("m1", "m2"), (2.0, 1.0), "pcc", (0.5, 0.2), ("a note",))),
    "fuser_perceptron": fuser_to_dict(
        PerceptronFuser(("m1", "m2"), (1.5, -0.5), 0.25, TrainingLog(0.69, 0.3, 12, "converged"))
    ),
    "embedding": {"entity_id": "e1", "role": "probe", "vector": [1.0, 2]},
}
# the values of the generic mutations, with integers beyond the float range and the roles
DOCUMENT_VALUES = JSON_VALUES | st.sampled_from([10**400, -(10**400), "reference", "probe", "weights", "perceptron"])


def _mutated(data, name: str):
    """The document of schema ``name``, mutated one to three times, or replaced whole."""
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(DOCUMENT_VALUES)
    doc = copy.deepcopy(DOCUMENTS[name])
    keys = st.sampled_from(sorted(set(_keys(schema(name))))) | st.text(max_size=6)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc, keys, DOCUMENT_VALUES)
    return doc


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_the_shipped_documents_are_valid(name):
    jsonschema.Draft202012Validator(schema(name)).validate(DOCUMENTS[name])
    assert not list(violations(DOCUMENTS[name], schema(name)))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_violations_agree_with_json_schema(name, data):
    doc = _mutated(data, name)
    # named as fuser_from_dict names a fuser document
    found = list(violations(doc, schema(name), ("fuser document" if name.startswith("fuser_") else name,)))
    if not jsonschema.Draft202012Validator(schema(name)).is_valid(doc):
        assert found, doc
    elif found:
        assert _has_non_finite(doc), found
    if name.startswith("fuser_") and type(doc) is dict and doc.get("kind") == name.removeprefix("fuser_"):
        try:
            fuser_from_dict(doc)
            error = None
        except ParseError as exc:
            error = str(exc)
        # beyond the schema, only the dataclass's own rules refuse a document
        if found:
            assert error == found[0]
        else:
            assert error is None or error.startswith("fuser document: "), error


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@pytest.fixture(scope="module")
def lines_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_embeddings_line_loads_exactly_when_the_schema_accepts_it(lines_dir, data):
    line = _mutated(data, "embedding")
    path = lines_dir / "probes.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    try:
        loaded = load_embeddings(path, "probe")
        error = None
    except ParseError as exc:
        error = str(exc)
    found = list(violations(line, schema("embedding"), ("embedding",)))
    role_matches = type(line) is dict and line.get("role") == "probe"
    assert (error is None) == (not found and role_matches), (line, error)
    valid = jsonschema.Draft202012Validator(schema("embedding")).is_valid(line)
    assert (error is None) == (valid and role_matches and all(map(_finite, line["vector"]))), (line, error)
    if error is None:
        assert loaded.ids == (line["entity_id"],)
        assert loaded.matrix.tolist() == [list(map(float, line["vector"]))]
    elif found:
        assert error == f"{path}:1: {found[0]}"


# keywords that annotate a schema and that a validator does not read
ANNOTATIONS = {"$schema", "$id", "title", "description", "default"}


def _subschemas(node):
    """A schema and every schema inside it."""
    yield node
    for sub in node.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in node:
        yield from _subschemas(node["items"])


def test_every_keyword_and_type_of_the_shipped_schemas_is_one_violations_reads():
    source = inspect.getsource(violations)
    read = set(re.findall(r'schema\.get\("(\w+)"|"(\w+)" in schema|schema\["(\w+)"\]', source))
    read = {word for words in read for word in words if word}
    paths = sorted(SCHEMA_DIR.glob("*.schema.json"))
    assert {p.name.removesuffix(".schema.json") for p in paths} == {"grid_config", *DOCUMENTS}
    for path in paths:
        nodes = list(_subschemas(json.loads(path.read_text(encoding="utf-8"))))
        used = {keyword for node in nodes for keyword in node}
        assert used - ANNOTATIONS <= read, (path.name, used - ANNOTATIONS - read)
        named = (node.get("type", []) for node in nodes)
        types = {t for names in named for t in ([names] if isinstance(names, str) else names)}
        assert types <= set(_TYPES), (path.name, types - set(_TYPES))
