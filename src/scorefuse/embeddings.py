"""Matching scores computed from pairs of feature embeddings.

Two score functions are provided: a Euclidean-distance posterior
``1 / (d + 1)`` mapping any distance into (0, 1], and plain cosine
similarity in [-1, 1]. Embedding files are JSON lines, one object per
embedding: ``{"entity_id": "...", "role": "reference"|"probe",
"vector": [..]}``.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ContractError, ParseError, UnknownEntityError
from .provenance import not_utf8
from .tables import PairColumns, ScoreTable

ROLES = ("reference", "probe")
METRICS = ("euclidean_posterior", "cosine")

# bytes of gathered reference and probe vectors that batch_score holds at once
_BLOCK_BYTES = 1 << 24


class EmbeddingSet:
    """Identity-keyed embeddings, all sharing one dimension.

    ``matrix`` is a read-only (n, d) float64 array whose row ``i`` is the
    vector of ``ids[i]``; ``entries`` maps each id to its row.
    """

    def __init__(self, ids, vectors):
        self.ids = tuple(ids)
        vectors = list(vectors)
        entries: dict[str, int] = {}
        for entity_id in self.ids:
            if entity_id in entries:
                raise ContractError(f"duplicate entity_id {entity_id!r}")
            entries[entity_id] = len(entries)
        if not entries:
            raise ContractError("embedding set is empty")
        dim = len(vectors[0])
        for entity_id, vector in zip(self.ids, vectors):
            if len(vector) != dim:
                raise ContractError(
                    f"embedding {entity_id!r} has dimension {len(vector)}, expected {dim}"
                )
        self.matrix = np.array(vectors, dtype=np.float64).reshape(len(self.ids), dim)
        self.matrix.setflags(write=False)
        self.entries = MappingProxyType(entries)


def _lines(path: Path):
    """The lines of a UTF-8 text file, read one at a time."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None


def load_embeddings(path, role: str) -> EmbeddingSet:
    """Read a JSON-lines embedding file whose every line has the given ``role``."""
    path = Path(path)
    ids, vectors = [], []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise ParseError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(obj, dict) or not {"entity_id", "role", "vector"} <= obj.keys():
            raise ParseError(
                f"{path}:{lineno}: expected object with entity_id, role, vector"
            )
        vector = obj["vector"]
        # JSON true and false are Python ints too, so test exact types
        if not isinstance(vector, list) or not {int, float}.issuperset(map(type, vector)):
            raise ParseError(f"{path}:{lineno}: vector must be a list of numbers")
        entity_id, line_role = str(obj["entity_id"]), str(obj["role"])
        try:
            vector = list(map(float, vector))
        except OverflowError:
            raise ParseError(f"{path}:{lineno}: vector holds an integer too large for a float") from None
        if line_role not in ROLES:
            raise ParseError(f"{path}:{lineno}: role must be one of {ROLES}, got {line_role!r}")
        if line_role != role:
            raise ParseError(f"{path}:{lineno}: role must be {role!r} in a file of {role}s, got {line_role!r}")
        if not vector:
            raise ParseError(f"{path}:{lineno}: embedding {entity_id!r} has empty vector")
        if not all(map(math.isfinite, vector)):
            raise ParseError(f"{path}:{lineno}: embedding {entity_id!r} has non-finite entries")
        ids.append(entity_id)
        vectors.append(vector)
    try:
        return EmbeddingSet(ids, vectors)
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``.

    A stacked (1, d) @ (d, 1) product makes one BLAS ``ddot`` call per row,
    the call ``np.dot`` and ``np.linalg.norm`` make for one vector, so each
    row gets the same bits as those.
    """
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(-1)


def _score_rows(refs: np.ndarray, probes: np.ndarray, cosine: bool, ref_ids, probe_ids) -> np.ndarray:
    """Score each row of ``refs`` against the same row of ``probes``.

    Cosine is ``dot / (|ref| |probe|)`` clamped into [-1, 1], each norm the
    square root of a squared norm; the posterior is ``1 / (d + 1)``. The
    first row whose cosine has a zero norm (reference, then probe), or whose
    arithmetic leaves the float range, raises :class:`ContractError` naming
    the embedding, from ``ref_ids`` / ``probe_ids``, or the pair.
    """
    with np.errstate(all="ignore"):
        if cosine:
            ref_sq, probe_sq, dots = _row_dots(refs, refs), _row_dots(probes, probes), _row_dots(refs, probes)
            norm_products = np.sqrt(ref_sq) * np.sqrt(probe_sq)
            scores = np.clip(dots / norm_products, -1.0, 1.0)
            checks = [
                (ref_sq == 0.0, "cosine undefined for zero-norm embedding {ref!r}"),
                (probe_sq == 0.0, "cosine undefined for zero-norm embedding {probe!r}"),
                (~np.isfinite(ref_sq), "squared norm of embedding {ref!r} is not finite"),
                (~np.isfinite(probe_sq), "squared norm of embedding {probe!r} is not finite"),
                (~np.isfinite(dots), "dot product of pair {pair} is not finite"),
                (~np.isfinite(norm_products), "norm product of pair {pair} is not finite"),
            ]
        else:
            diffs = refs - probes
            squared = _row_dots(diffs, diffs)
            scores = 1.0 / (np.sqrt(squared) + 1.0)
            checks = [(~np.isfinite(squared), "squared distance of pair {pair} is not finite")]
    failed = np.column_stack([mask for mask, _ in checks])
    bad = np.flatnonzero(failed.any(axis=1))
    if len(bad):
        row = int(bad[0])
        ref, probe = ref_ids[row], probe_ids[row]
        message = checks[int(np.argmax(failed[row]))][1]
        raise ContractError(message.format(ref=ref, probe=probe, pair=(probe, ref)))
    return scores


def _score_pair(x, y, cosine: bool) -> float:
    a = np.asarray(x, dtype=np.float64).reshape(1, -1)
    b = np.asarray(y, dtype=np.float64).reshape(1, -1)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch: 'x' has {a.shape[1]}, 'y' has {b.shape[1]}")
    return float(_score_rows(a, b, cosine, ["x"], ["y"])[0])


def score_euclidean(x, y) -> float:
    """Euclidean-distance posterior 1 / (d + 1) of vectors ``x`` and ``y``, in (0, 1]."""
    return _score_pair(x, y, False)


def score_cosine(x, y) -> float:
    """Cosine similarity of vectors ``x`` and ``y``, in [-1, 1]; a zero-norm vector is rejected."""
    return _score_pair(x, y, True)


def batch_score(
    refs: EmbeddingSet,
    probes: EmbeddingSet,
    pairs: PairColumns,
    metric: str,
    matcher_id: str | None = None,
) -> ScoreTable:
    """Score every pair, preserving input order.

    ``metric`` is ``euclidean_posterior`` or ``cosine``; the returned table
    is declared [0, 1] resp. [-1, 1]. Each score is the arithmetic of
    :func:`score_euclidean` / :func:`score_cosine`, run over blocks of rows.
    A bad pair raises the error of the first bad row, checked in this order:
    unknown probe id, unknown reference id (:class:`UnknownEntityError`),
    dimension mismatch, then the checks of the score arithmetic
    (:class:`ContractError`).
    """
    if metric not in METRICS:
        raise ContractError(f"metric must be one of {METRICS}, got {metric!r}")
    cosine = metric == "cosine"
    declared = (-1.0, 1.0) if cosine else (0.0, 1.0)
    probe_ids, ref_ids = pairs.probe_ids.tolist(), pairs.reference_ids.tolist()
    probe_rows = np.fromiter(map(probes.entries.get, probe_ids, repeat(-1)), np.intp, len(probe_ids))
    ref_rows = np.fromiter(map(refs.entries.get, ref_ids, repeat(-1)), np.intp, len(ref_ids))
    unknown = np.flatnonzero((probe_rows < 0) | (ref_rows < 0))
    n = int(unknown[0]) if len(unknown) else len(pairs)  # rows before the first unknown id
    dim, probe_dim = refs.matrix.shape[1], probes.matrix.shape[1]
    if n and dim != probe_dim:
        raise ContractError(
            f"dimension mismatch: {ref_ids[0]!r} has {dim}, {probe_ids[0]!r} has {probe_dim}"
        )
    scores = np.empty(n, dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (2 * 8 * dim))
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        scores[block] = _score_rows(
            refs.matrix[ref_rows[block]],
            probes.matrix[probe_rows[block]],
            cosine,
            pairs.reference_ids[block],
            pairs.probe_ids[block],
        )
    if n < len(pairs):
        missing = probe_ids[n] if probe_rows[n] < 0 else ref_ids[n]
        raise UnknownEntityError(f"unknown entity id {missing!r}")
    return ScoreTable(matcher_id or metric, declared, pairs, scores)
