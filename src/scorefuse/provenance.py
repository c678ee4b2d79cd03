"""Reproducibility plumbing: digests, canonical JSON, UTF-8 reads, atomic writes.

Output artifacts never contain timestamps or environment data, only the
tool version, the seed that drew their numbers and input digests, so
re-running a command with identical inputs reproduces byte-identical files.
CSV artifacts keep the canonical table format and carry their provenance in
a ``<name>.meta.json`` sidecar instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import uuid
from pathlib import Path

from .errors import ParseError


def tool_version() -> str:
    from . import __version__

    return __version__


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_json(obj) -> str:
    """Deterministic, human-readable JSON text (sorted keys, LF, indent 2)."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    """The error for an input file whose bytes are not UTF-8."""
    byte = exc.object[exc.start]
    return ParseError(f"{path}: not valid UTF-8 (byte 0x{byte:02x}: {exc.reason})")


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings as written."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def parse_json(text: str, where):
    """The JSON document ``text``; a fault is a :class:`ParseError` naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ParseError(f"{where}: invalid JSON (nested too deeply)") from None
    except ValueError:  # an integer literal longer than int() converts
        raise ParseError(f"{where}: invalid JSON (integer with too many digits)") from None


def read_json(path):
    """The JSON document in a UTF-8 file."""
    return parse_json(read_text(path), path)


@functools.cache
def schema(name: str) -> dict:
    """The shipped ``schemas/<name>.schema.json``, read once per process;
    callers share the returned dict and must not change it."""
    text = (Path(__file__).with_name("schemas") / f"{name}.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def finite(*values) -> bool:
    """Whether every one of ``values`` is a number finite as a float."""
    try:
        return all(map(math.isfinite, values))
    except (OverflowError, TypeError):  # an integer beyond the float range, or not a number
        return False


def _finite_number(value) -> bool:
    """Whether ``value`` is a JSON number that is finite as a float."""
    return type(value) in (int, float) and finite(value)


_TYPES = {  # JSON Schema type: (test, how a message names it)
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "a list"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "null": (lambda v: v is None, "null"),
    "number": (_finite_number, "a finite number"),
    "integer": (lambda v: type(v) is int or type(v) is float and v.is_integer(), "an integer"),
}


def violations(value, schema: dict, path: tuple[str, ...] = ()):
    """Each way ``value`` breaks ``schema``, as a message naming the key.

    ``path`` names ``value``: its first entry names the document, each later
    one a key, as its ``repr``, or a list entry; an empty path names a grid
    config. Reads the keywords that the shipped schemas use and no other:
    type (a name or a list of names), const, enum, required, properties,
    additionalProperties (false), items, minItems, uniqueItems, minimum and
    exclusiveMinimum. Its const and enum values are strings or null, which
    ``==`` compares as JSON does. Beyond JSON Schema, a number must be
    finite as a float.
    """
    name = ": ".join(path) or "config"
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t][0](value) for t in types):
        yield f"{name} must be {' or '.join(_TYPES[t][1] for t in types)}, got {value!r}"
        return
    if "const" in schema and value != schema["const"]:
        yield f"{name} must be {schema['const']!r}, got {value!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield f"{name} must be one of {schema['enum']}, got {value!r}"
    if type(value) in (int, float):
        if "minimum" in schema and not value >= schema["minimum"]:
            yield f"{name} must be >= {schema['minimum']}, got {value!r}"
        if "exclusiveMinimum" in schema and not value > schema["exclusiveMinimum"]:
            yield f"{name} must be > {schema['exclusiveMinimum']}, got {value!r}"
    if isinstance(value, dict):
        yield from (f"{name}: missing key {k!r}" for k in schema.get("required", ()) if k not in value)
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            yield from (f"{name}: unknown key {k!r}" for k in value if k not in properties)
        for key, sub in properties.items():
            if key in value:
                yield from violations(value[key], sub, (*path, repr(key)))
    if isinstance(value, list):
        for entry in value if "items" in schema else ():
            # a method is named by its id, as in the grid's other messages
            if path[-1] == "'methods'" and isinstance(entry, dict) and "method_id" in entry:
                label = f"method {entry['method_id']!r}"
            else:
                label = f"{path[-1][1:-1]} entry {entry!r}"
            yield from violations(entry, schema["items"], (*path[:-1], label))
        if len(value) < schema.get("minItems", 0):
            yield f"{name} must have at least {schema['minItems']} entry, got {value!r}"
        if schema.get("uniqueItems") and len({json.dumps(v, sort_keys=True) for v in value}) < len(value):
            yield f"{name} must not repeat an entry, got {value!r}"


def atomic_write_text(path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output.

    The temp file is created with mode 0666, so the kernel applies the
    process umask as it would for a plain ``open``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _envelope(seed: int, inputs: dict[str, str]) -> dict:
    """The provenance every artifact records: tool version, seed, input digests.

    ``seed`` is the seed that drew the artifact's numbers, 0 for a command that draws none."""
    return {"tool_version": tool_version(), "seed": seed, "input_digests": dict(sorted(inputs.items()))}


def write_json_artifact(path, payload: dict, *, seed: int = 0, inputs: dict[str, str]) -> None:
    """Write a JSON artifact with the standard provenance envelope."""
    atomic_write_text(path, canonical_json({**_envelope(seed, inputs), **payload}))


def write_csv_artifact(path, text: str, *, seed: int = 0, inputs: dict[str, str]) -> None:
    """Write a CSV artifact plus its ``.meta.json`` provenance sidecar."""
    path = Path(path)
    atomic_write_text(path, text)
    meta = {
        "artifact": path.name,
        "artifact_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        **_envelope(seed, inputs),
    }
    atomic_write_text(path.with_name(path.name + ".meta.json"), canonical_json(meta))
