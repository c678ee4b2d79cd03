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
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import ContractError, ParseError, UnknownEntityError
from .provenance import not_utf8
from .tables import ComparisonPair, PairColumns, ScoreTable

ROLES = ("reference", "probe")
METRICS = ("euclidean_posterior", "cosine")


@dataclass(frozen=True)
class Embedding:
    entity_id: str
    role: str
    vector: tuple[float, ...]

    def __post_init__(self):
        if self.role not in ROLES:
            raise ContractError(f"role must be one of {ROLES}, got {self.role!r}")
        if len(self.vector) < 1:
            raise ContractError(f"embedding {self.entity_id!r} has empty vector")
        if not all(math.isfinite(v) for v in self.vector):
            raise ContractError(f"embedding {self.entity_id!r} has non-finite entries")


@dataclass(frozen=True)
class EmbeddingSet:
    """Identity-keyed embeddings, all sharing one dimension."""

    dimension: int
    entries: Mapping[str, Embedding]

    def __post_init__(self):
        for emb in self.entries.values():
            if len(emb.vector) != self.dimension:
                raise ContractError(
                    f"embedding {emb.entity_id!r} has dimension {len(emb.vector)}, "
                    f"expected {self.dimension}"
                )
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    @classmethod
    def from_embeddings(cls, embeddings: Iterable[Embedding]) -> "EmbeddingSet":
        entries: dict[str, Embedding] = {}
        dim = None
        for emb in embeddings:
            if emb.entity_id in entries:
                raise ContractError(f"duplicate entity_id {emb.entity_id!r}")
            if dim is None:
                dim = len(emb.vector)
            entries[emb.entity_id] = emb
        if dim is None:
            raise ContractError("embedding set is empty")
        return cls(dim, entries)

    def lookup(self, entity_id: str) -> Embedding:
        try:
            return self.entries[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}") from None


def _lines(path: Path):
    """The lines of a UTF-8 text file, read one at a time."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None


def load_embeddings(path) -> EmbeddingSet:
    """Read a JSON-lines embedding file."""
    path = Path(path)
    embeddings = []
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
        if not isinstance(vector, list) or not all(
            isinstance(v, (int, float)) for v in vector
        ):
            raise ParseError(f"{path}:{lineno}: vector must be a list of numbers")
        try:
            embeddings.append(
                Embedding(str(obj["entity_id"]), str(obj["role"]), tuple(map(float, vector)))
            )
        except ContractError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    try:
        return EmbeddingSet.from_embeddings(embeddings)
    except ContractError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _check_dims(x: Embedding, y: Embedding) -> None:
    if len(x.vector) != len(y.vector):
        raise ContractError(
            f"dimension mismatch: {x.entity_id!r} has {len(x.vector)}, "
            f"{y.entity_id!r} has {len(y.vector)}"
        )


def _euclidean(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 / (float(np.linalg.norm(a - b)) + 1.0)


def _cosine(a: np.ndarray, b: np.ndarray, na: float, nb: float, x: Embedding, y: Embedding) -> float:
    if na == 0.0 or nb == 0.0:
        bad = x.entity_id if na == 0.0 else y.entity_id
        raise ContractError(f"cosine undefined for zero-norm embedding {bad!r}")
    # guard against tiny float excursions beyond [-1, 1]
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def score_euclidean(x: Embedding, y: Embedding) -> float:
    """Euclidean-distance posterior 1 / (d + 1), always in (0, 1]."""
    _check_dims(x, y)
    return _euclidean(np.asarray(x.vector, dtype=np.float64), np.asarray(y.vector, dtype=np.float64))


def score_cosine(x: Embedding, y: Embedding) -> float:
    """Cosine similarity in [-1, 1]; zero-norm vectors are rejected."""
    _check_dims(x, y)
    a = np.asarray(x.vector, dtype=np.float64)
    b = np.asarray(y.vector, dtype=np.float64)
    return _cosine(a, b, float(np.linalg.norm(a)), float(np.linalg.norm(b)), x, y)


def batch_score(
    refs: EmbeddingSet,
    probes: EmbeddingSet,
    pairs: PairColumns | list[ComparisonPair] | tuple[ComparisonPair, ...],
    metric: str,
    matcher_id: str | None = None,
) -> ScoreTable:
    """Score every pair, preserving input order.

    ``metric`` is ``euclidean_posterior`` or ``cosine``; the returned table
    is declared [0, 1] resp. [-1, 1]. Unresolved ids raise
    :class:`UnknownEntityError` naming the id. Each pair's score is the
    same arithmetic as :func:`score_euclidean` / :func:`score_cosine`; only
    the conversion of each embedding to an array (and its norm) is done
    once per embedding rather than once per pair.
    """
    if metric not in METRICS:
        raise ContractError(f"metric must be one of {METRICS}, got {metric!r}")
    cosine = metric == "cosine"
    declared = (-1.0, 1.0) if cosine else (0.0, 1.0)
    columns = PairColumns.of(pairs)
    prepared: dict[int, tuple[np.ndarray, float]] = {}  # by object: a probe and a reference may share an id

    def array(emb: Embedding) -> tuple[np.ndarray, float]:
        if id(emb) not in prepared:
            vec = np.asarray(emb.vector, dtype=np.float64)
            prepared[id(emb)] = (vec, float(np.linalg.norm(vec)) if cosine else 0.0)
        return prepared[id(emb)]

    scores = []
    for probe_id, ref_id in zip(columns.probe_ids.tolist(), columns.reference_ids.tolist()):
        probe = probes.lookup(probe_id)
        ref = refs.lookup(ref_id)
        if len(ref.vector) != len(probe.vector):
            _check_dims(ref, probe)
        (a, na), (b, nb) = array(ref), array(probe)
        scores.append(_cosine(a, b, na, nb, ref, probe) if cosine else _euclidean(a, b))
    return ScoreTable(matcher_id or metric, declared, columns, scores)
