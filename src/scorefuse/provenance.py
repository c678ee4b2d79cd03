"""Reproducibility plumbing: digests, canonical JSON, UTF-8 reads, atomic writes.

Output artifacts never contain timestamps or environment data, only the
tool version, the run seed and input digests, so re-running a command with
identical inputs reproduces byte-identical files. CSV artifacts keep the
canonical table format and carry their provenance in a ``<name>.meta.json``
sidecar instead.
"""

from __future__ import annotations

import hashlib
import json
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


def read_json(path):
    """The JSON document in a UTF-8 file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from None


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


def write_json_artifact(path, payload: dict, *, seed: int, inputs: dict[str, str]) -> None:
    """Write a JSON artifact with the standard provenance envelope."""
    doc = {
        "tool_version": tool_version(),
        "seed": seed,
        "input_digests": dict(sorted(inputs.items())),
        **payload,
    }
    atomic_write_text(path, canonical_json(doc))


def write_csv_artifact(path, text: str, *, seed: int, inputs: dict[str, str]) -> None:
    """Write a CSV artifact plus its ``.meta.json`` provenance sidecar."""
    path = Path(path)
    atomic_write_text(path, text)
    meta = {
        "artifact": path.name,
        "artifact_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "tool_version": tool_version(),
        "seed": seed,
        "input_digests": dict(sorted(inputs.items())),
    }
    atomic_write_text(path.with_name(path.name + ".meta.json"), canonical_json(meta))
