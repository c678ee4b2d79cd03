"""Matching scores computed from pairs of feature embeddings.

Two score functions are provided: a Euclidean-distance posterior
``1 / (d + 1)`` mapping any distance into (0, 1], and plain cosine
similarity in [-1, 1]. Embedding files are JSON lines, one object per
embedding: ``{"entity_id": "...", "role": "reference"|"probe",
"vector": [..]}``, as schemas/embedding.schema.json states.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ContractError, ParseError, UnknownEntityError
from .kinds import METRICS
from .provenance import finite, not_utf8, parse_json, schema, violations
from .tables import PairColumns, ScoreTable

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


def _is_embedding(obj, role: str) -> bool:
    """Whether ``obj`` meets schemas/embedding.schema.json, numbers finite as
    floats, and has ``role``: the check of every line, which
    :func:`violations` explains when it fails."""
    if not (
        type(obj) is dict
        and type(obj.get("entity_id")) is str
        and obj.get("role") == role
        and type(vector := obj.get("vector")) is list
        and vector
        # JSON true and false are Python ints too, so test exact types
        and {int, float}.issuperset(map(type, vector))
    ):
        return False
    return finite(*vector)


def load_embeddings(path, role: str) -> EmbeddingSet:
    """Read a JSON-lines embedding file whose every line has the given ``role``."""
    path = Path(path)
    ids, vectors = [], []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, f"{path}:{lineno}")
        if not _is_embedding(obj, role):
            for msg in violations(obj, schema("embedding"), ("embedding",)):
                raise ParseError(f"{path}:{lineno}: {msg}")
            raise ParseError(f"{path}:{lineno}: role must be {role!r} in a file of {role}s, got {obj['role']!r}")
        ids.append(obj["entity_id"])
        vectors.append(obj["vector"])
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


def _score_rows(refs: np.ndarray, probes: np.ndarray, cosine: bool, pair_of) -> np.ndarray:
    """Score each row of ``refs`` against the same row of ``probes``.

    Cosine is ``dot / (|ref| |probe|)`` clamped into [-1, 1], each norm the
    square root of a squared norm; the posterior is ``1 / (d + 1)``. The
    first row whose cosine has a zero norm (reference, then probe), or whose
    arithmetic leaves the float range, raises :class:`ContractError` naming
    the embedding or the pair, whose (probe id, reference id) is
    ``pair_of(row)``.
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
        probe, ref = pair_of(row)
        message = checks[int(np.argmax(failed[row]))][1]
        raise ContractError(message.format(ref=ref, probe=probe, pair=(probe, ref)))
    return scores


def _score_pair(x, y, cosine: bool) -> float:
    a = np.asarray(x, dtype=np.float64).reshape(1, -1)
    b = np.asarray(y, dtype=np.float64).reshape(1, -1)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch: 'x' has {a.shape[1]}, 'y' has {b.shape[1]}")
    return float(_score_rows(a, b, cosine, lambda row: ("y", "x"))[0])


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
    # each distinct id is looked up once
    ids = pairs.ids
    probe_rows = np.fromiter(map(probes.entries.get, ids, repeat(-1)), np.intp, len(ids))[pairs.probe_codes]
    ref_rows = np.fromiter(map(refs.entries.get, ids, repeat(-1)), np.intp, len(ids))[pairs.reference_codes]
    unknown = np.flatnonzero((probe_rows < 0) | (ref_rows < 0))
    n = int(unknown[0]) if len(unknown) else len(pairs)  # rows before the first unknown id
    dim, probe_dim = refs.matrix.shape[1], probes.matrix.shape[1]
    if n and dim != probe_dim:
        probe, ref = pairs.key(0)
        raise ContractError(f"dimension mismatch: {ref!r} has {dim}, {probe!r} has {probe_dim}")
    scores = np.empty(n, dtype=np.float64)
    step = max(1, _BLOCK_BYTES // (2 * 8 * dim))
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        scores[block] = _score_rows(
            refs.matrix[ref_rows[block]],
            probes.matrix[probe_rows[block]],
            cosine,
            lambda row: pairs.key(start + row),
        )
    if n < len(pairs):
        missing = pairs.key(n)[0 if probe_rows[n] < 0 else 1]
        raise UnknownEntityError(f"unknown entity id {missing!r}")
    return ScoreTable(matcher_id or metric, declared, pairs, scores)
