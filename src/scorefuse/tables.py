"""Canonical data model for labeled comparison scores.

A comparison pairs one probe with one reference; ``mated`` records whether
the two belong to the same subject. Pairs are stored as columns
(:class:`PairColumns`); one :class:`ScoreTable` holds the score column of a
single matcher over them, and :func:`align_tables` joins several matchers
into one score matrix keyed by (probe_id, reference_id).

Score CSV format (UTF-8, header required, one matcher per file)::

    matcher_id,probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id,score

``mated`` is 0 or 1 and must agree with subject equality; floats are written
with ``repr`` so a canonical file round-trips byte-identically.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    ConsistencyError,
    ContractError,
    DuplicatePairError,
    ParseError,
    PartitionError,
    RangeViolationError,
)
from .provenance import atomic_write_text, not_utf8, read_text
from .rng import SplitMix64, substream_seed

SCORE_CSV_HEADER = (
    "matcher_id",
    "probe_id",
    "reference_id",
    "probe_subject",
    "reference_subject",
    "mated",
    "camera_id",
    "distance_m",
    "dataset_id",
    "score",
)


@dataclass(frozen=True)
class SettingDescriptor:
    """One acquisition configuration: camera, subject distance, dataset."""

    camera_id: str
    distance_m: float
    dataset_id: str

    def __post_init__(self):
        if not (self.distance_m > 0):
            raise ContractError(f"distance_m must be positive, got {self.distance_m}")

    def key(self) -> str:
        """Stable short label, e.g. for file names: dataset-camera-distance."""
        return f"{self.dataset_id}-{self.camera_id}-{self.distance_m:g}"


def _check_mated(mated: bool, probe_subject: str, reference_subject: str) -> None:
    if mated != (probe_subject == reference_subject):
        raise ContractError(
            f"mated={mated} inconsistent with subjects "
            f"{probe_subject!r} vs {reference_subject!r}"
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_state(self, state: dict) -> None:
    """``__setstate__`` that leaves unpickled arrays read-only, as they were built."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            _frozen(value)
    self.__dict__.update(state)


def _first_true(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _first_not_equal(values, expected) -> int | None:
    if values.count(expected) == len(values):
        return None
    return next(i for i, v in enumerate(values) if v != expected)


def _first_repeat(keys) -> tuple[int, int] | None:
    """(row, earlier row) of the first key seen before, or None."""
    if len(set(keys)) == len(keys):
        return None
    seen: dict = {}
    for i, key in enumerate(keys):
        if key in seen:
            return i, seen[key]
        seen[key] = i


def _inconsistent(mated: np.ndarray, probe_subjects, reference_subjects) -> int | None:
    """First row whose ``mated`` flag disagrees with subject equality."""
    same = np.asarray(probe_subjects, dtype=object) == np.asarray(reference_subjects, dtype=object)
    return _first_true(np.asarray(mated, dtype=bool) != same)


def _per_row(values, codes: np.ndarray) -> list:
    """``values[code]`` for every row's code."""
    table = np.empty(len(values), dtype=object)
    table[:] = values
    return table[codes].tolist()


class PairColumns:
    """Comparison pairs stored as columns.

    ``probe_ids``, ``reference_ids``, ``probe_subjects`` and
    ``reference_subjects`` are object arrays of ``str``, ``mated`` is a bool
    array and ``setting_codes`` an int array indexing ``settings``, a tuple of
    distinct :class:`SettingDescriptor`. Arrays are read-only, so every table
    over the same pairs (each matcher's scores, a fused column) shares one
    instance and its cached key index. ``check_mated=False`` skips the check
    that every ``mated`` flag agrees with subject equality, for a caller that
    has already made it.
    """

    def __init__(
        self,
        probe_ids,
        reference_ids,
        probe_subjects,
        reference_subjects,
        mated,
        setting_codes,
        settings,
        *,
        check_mated: bool = True,
    ):
        text = [
            _frozen(np.array(col, dtype=object).reshape(-1))
            for col in (probe_ids, reference_ids, probe_subjects, reference_subjects)
        ]
        self.probe_ids, self.reference_ids, self.probe_subjects, self.reference_subjects = text
        self.mated = _frozen(np.array(mated, dtype=bool).reshape(-1))
        self.setting_codes = _frozen(np.array(setting_codes, dtype=np.intp).reshape(-1))
        self.settings = tuple(settings)
        n = len(self.mated)
        if any(len(col) != n for col in text) or len(self.setting_codes) != n:
            raise ContractError("pair columns must have equal lengths")
        if len(set(self.settings)) != len(self.settings):
            raise ContractError("settings must be distinct")
        codes = self.setting_codes
        if n and (codes.min() < 0 or codes.max() >= len(self.settings)):
            raise ContractError("setting code out of range")
        bad = _inconsistent(self.mated, self.probe_subjects, self.reference_subjects) if check_mated else None
        if bad is not None:
            _check_mated(bool(self.mated[bad]), self.probe_subjects[bad], self.reference_subjects[bad])

    __setstate__ = _frozen_state

    def __len__(self) -> int:
        return len(self.mated)

    def key(self, i: int) -> tuple[str, str]:
        return (self.probe_ids[i], self.reference_ids[i])

    @cached_property
    def key_index(self) -> dict[tuple[str, str], int]:
        """Row of each (probe_id, reference_id) key (the last, if repeated)."""
        keys = zip(self.probe_ids.tolist(), self.reference_ids.tolist())
        return dict(zip(keys, range(len(self))))

    def first_duplicate(self) -> int | None:
        """First row whose key appeared on an earlier row, or None."""
        if len(self.key_index) == len(self):
            return None
        return _first_repeat(list(zip(self.probe_ids.tolist(), self.reference_ids.tolist())))[0]

    def setting_fields(self) -> tuple[list, list, list]:
        """Per-row camera_id, distance_m and dataset_id."""
        s, codes = self.settings, self.setting_codes
        return (
            _per_row([x.camera_id for x in s], codes),
            _per_row([x.distance_m for x in s], codes),
            _per_row([x.dataset_id for x in s], codes),
        )


class ScoreTable:
    """All comparison scores of one matcher, with its declared score range.

    A float64 ``scores`` column over a :class:`PairColumns`.
    """

    def __init__(self, matcher_id: str, declared_range, columns: PairColumns, scores):
        lo, hi = declared_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ContractError(f"invalid declared_range [{lo}, {hi}]")
        scores = _frozen(np.array(scores, dtype=np.float64).reshape(-1))
        if len(scores) != len(columns):
            raise ContractError(f"{len(scores)} scores for {len(columns)} pairs")
        outside = _first_true(~((lo <= scores) & (scores <= hi)))
        dup = columns.first_duplicate()
        if outside is not None and (dup is None or outside <= dup):
            raise RangeViolationError(
                f"score {float(scores[outside])!r} for pair {columns.key(outside)} outside "
                f"declared range [{lo}, {hi}]"
            )
        if dup is not None:
            raise DuplicatePairError(f"duplicate comparison pair {columns.key(dup)}")
        self.matcher_id = matcher_id
        self.declared_range = (lo, hi)
        self.columns = columns
        self.scores = scores

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def mated_mask(self) -> np.ndarray:
        return self.columns.mated

    def n_mated(self) -> int:
        return int(self.mated_mask.sum())

    def n_nonmated(self) -> int:
        return len(self) - self.n_mated()


class AlignedScores:
    """Scores of N matchers joined on (probe_id, reference_id).

    ``matrix[i, j]`` is matcher ``matcher_ids[j]``'s score for row ``i`` of
    ``columns``; every entry lies in [0, 1]. The matrix is stored C-contiguous,
    so every fit and fusion sees one memory layout.
    """

    def __init__(self, matcher_ids, columns: PairColumns, matrix):
        matcher_ids = tuple(matcher_ids)
        n_ids = len(matcher_ids)
        if n_ids < 1:
            raise ContractError("need at least one matcher")
        if len(set(matcher_ids)) != n_ids:
            raise ContractError(f"matcher ids not distinct: {matcher_ids}")
        if len(columns) < 1:
            raise ContractError("aligned scores need at least one row")
        mat = np.ascontiguousarray(matrix, dtype=np.float64)
        if mat.shape != (len(columns), n_ids):
            raise ContractError(
                f"matrix shape {mat.shape} does not match "
                f"{len(columns)} pairs x {n_ids} matchers"
            )
        if not np.all(np.isfinite(mat)):
            raise ContractError("aligned scores must be finite")
        if mat.min() < 0.0 or mat.max() > 1.0:
            raise ContractError("aligned scores must lie in [0, 1]")
        mat.setflags(write=False)
        self.matcher_ids = matcher_ids
        self.columns = columns
        self.matrix = mat

    __setstate__ = _frozen_state

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def mated_mask(self) -> np.ndarray:
        return self.columns.mated

    def column(self, matcher_id: str) -> np.ndarray:
        try:
            j = self.matcher_ids.index(matcher_id)
        except ValueError:
            raise ContractError(f"unknown matcher {matcher_id!r}") from None
        return self.matrix[:, j]

    def select(self, matcher_ids: list[str] | tuple[str, ...]) -> "AlignedScores":
        """Sub-view with the given matchers, in the given order."""
        cols = [self.matcher_ids.index(m) if m in self.matcher_ids else -1 for m in matcher_ids]
        missing = [m for m, c in zip(matcher_ids, cols) if c < 0]
        if missing:
            raise ContractError(f"matchers not present in aligned scores: {missing}")
        return AlignedScores(tuple(matcher_ids), self.columns, self.matrix[:, cols])

    def keys(self):
        """The (probe_id, reference_id) keys, as a set-like view."""
        return self.columns.key_index.keys()

    @cached_property
    def sha256(self) -> str:
        """Digest of matcher ids, row keys, labels, settings and scores.

        The hashed bytes are each matcher id plus NUL, then per row
        ``probe|reference|mated 0/1|setting key`` plus NUL, then the
        row-major float64 matrix.
        """
        c = self.columns
        h = hashlib.sha256()
        for mid in self.matcher_ids:
            h.update(mid.encode("utf-8"))
            h.update(b"\x00")
        rows = zip(
            c.probe_ids.tolist(),
            c.reference_ids.tolist(),
            _per_row(["0", "1"], c.mated.astype(np.intp)),
            _per_row([s.key() for s in c.settings], c.setting_codes),
        )
        h.update("".join(f"{p}|{r}|{m}|{k}\x00" for p, r, m, k in rows).encode("utf-8"))
        h.update(self.matrix.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint subject partitions for train / validation / test."""

    train_subjects: frozenset[str]
    validation_subjects: frozenset[str]
    test_subjects: frozenset[str]
    seed: int

    def __post_init__(self):
        a, b, c = self.train_subjects, self.validation_subjects, self.test_subjects
        if a & b or a & c or b & c:
            raise ContractError("split partitions must be pairwise disjoint")


# ---------------------------------------------------------------- CSV input


class _FirstBadRow:
    """The error that reading a CSV file row by row would report.

    Such a reading checks every row in a fixed order of checks and stops at
    the first failure, so it reports the first failing check of the earliest
    bad row. Here each check runs over whole columns, in that same order, and
    looks only at the rows before the earliest failure found so far
    (``limit``); a later check can therefore only replace the error with one
    on an earlier row. A plain file is split into ``columns`` in one pass
    (:func:`_plain_columns`); any other is read by ``csv.reader``, and its
    first check is the column count, after which ``columns`` holds the fields
    of the rows before ``limit``.
    """

    def __init__(self, path: Path, header: tuple[str, ...]):
        self.path = path
        self.error: Exception | None = None
        columns = _plain_columns(path, header)
        if columns is not None:
            self.limit = len(columns[0])
            self.columns = columns
            return
        rows = _read_rows(path, header)
        width = len(header)
        self.limit = len(rows)
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        bad = _first_true(lengths != width)
        if bad is not None:
            self.fail(bad, ParseError, f"expected {width} columns, got {lengths[bad]}")
        self.columns = tuple(zip(*rows[: self.limit])) or ((),) * width

    def fail(self, row: int | None, cls, message) -> None:
        """Record ``cls`` at ``row`` if it is earlier than the current error.

        ``message`` is a string or a function of the row giving one.
        """
        if row is not None and row < self.limit:
            text = message(row) if callable(message) else message
            self.limit = row
            self.error = cls(f"{self.path}:{row + 2}: {text}")

    def head(self, column):
        return column[: self.limit]

    def mated(self, flags) -> np.ndarray:
        flags = self.head(flags)
        if flags.count("1") + flags.count("0") != len(flags):
            bad = next(i for i, f in enumerate(flags) if f not in ("0", "1"))
            self.fail(bad, ParseError, f"mated must be 0 or 1, got {flags[bad]!r}")
        return np.array(self.head(flags), dtype=object) == "1"

    def floats(self, texts, what: str) -> np.ndarray:
        """The rows' ``texts`` as finite floats."""
        texts = self.head(texts)
        try:
            values = np.fromiter(map(float, texts), np.float64, len(texts))
        except ValueError:
            bad = next(i for i, text in enumerate(texts) if not _is_float(text))
            self.fail(bad, ParseError, f"non-numeric {what} {texts[bad]!r}")
            values = np.fromiter(map(float, texts[:bad]), np.float64, bad)
        self.fail(
            _first_true(~np.isfinite(values)),
            ParseError,
            lambda i: f"non-finite {what} {texts[i]!r}",
        )
        return values

    def key_index(self, probes, refs) -> dict[tuple[str, str], int]:
        """Row of each (probe, reference) key; a repeated key fails on its second row.

        It looks at every row of ``columns``: the first repeat among them is
        also the first among the rows before ``limit``, when it lies there.
        """
        index = dict(zip(zip(probes, refs), range(len(probes))))
        if len(index) < len(probes):
            row, first = _first_repeat(list(zip(probes, refs)))
            key = (probes[row], refs[row])
            self.fail(row, DuplicatePairError, f"duplicate pair {key}, first seen on line {first + 2}")
        return index

    def pairs(
        self, probes, refs, psubs, rsubs, mated, cams, distances, dsets, key_index
    ) -> PairColumns:
        """The checks of the pair constructors (setting, then mated flag), then the columns.

        A setting is a distinct (camera, distance, dataset) triple, numbered in
        order of first appearance; each column is coded on its own and the
        codes combined, so no per-row triple is built.
        """
        codes, first = _first_appearance(distances[: self.limit])
        for column in (self.head(cams), self.head(dsets)):
            column_codes, n_distinct = _text_codes(column)
            codes, first = _first_appearance(codes * n_distinct + column_codes)
        settings = []
        for row in first.tolist():
            try:
                settings.append(SettingDescriptor(cams[row], float(distances[row]), dsets[row]))
            except ContractError as exc:
                self.fail(row, ParseError, str(exc))
        n = self.limit
        bad = _inconsistent(mated[:n], psubs[:n], rsubs[:n])
        if bad is not None:
            try:
                _check_mated(bool(mated[bad]), psubs[bad], rsubs[bad])
            except ContractError as exc:
                self.fail(bad, ParseError, str(exc))
        if self.error is not None:
            raise self.error
        # every row's mated flag was checked above
        columns = PairColumns(probes, refs, psubs, rsubs, mated, codes, settings, check_mated=False)
        columns.__dict__["key_index"] = key_index
        return columns


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes numbering the distinct ``values`` in order of first appearance,
    and the first row of each code."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def _text_codes(column) -> tuple[np.ndarray, int]:
    """Codes numbering the distinct strings of ``column``, and how many there are."""
    if not column or column.count(column[0]) == len(column):
        return np.zeros(len(column), dtype=np.intp), 1
    distinct = {text: k for k, text in enumerate(dict.fromkeys(column))}
    return np.fromiter(map(distinct.__getitem__, column), np.intp, len(column)), len(distinct)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _plain_columns(path: Path, header: tuple[str, ...]) -> list[list[str]] | None:
    """The columns of a plain CSV file, or None for any other file.

    A plain file has the expected header, no ``"`` and no CR, and exactly
    ``len(header) - 1`` commas on every body line, so it has no blank line
    either. ``csv.reader`` would split such a file on commas and LFs alone:
    one split of the joined body lines gives every field, and column k is
    every ``len(header)``-th field from the k-th.
    """
    text = read_text(path)
    if '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    width = len(header)
    if lines[0] != ",".join(header):
        return None
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    if list(map(str.count, body, repeat(","))).count(width - 1) != len(body):
        return None
    fields = ",".join(body).split(",") if body else []
    return [fields[k::width] for k in range(width)]


_FIELD_LIMIT_LOCK = threading.Lock()


def _read_rows(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    """The body rows of a CSV file, read by ``csv.reader``.

    ``csv.reader`` refuses a field longer than a process-wide limit (128 Ki
    characters by default) that the split path does not have. The limit is
    raised to the size of the file, which no field can exceed, and never
    lowered.
    """
    size = path.stat().st_size
    with _FIELD_LIMIT_LOCK:
        if csv.field_size_limit() < size:
            csv.field_size_limit(size)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(header):
                raise ParseError(f"{path}:1: bad header, expected {','.join(header)}")
            return list(reader)
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def load_score_table(path, declared_range: tuple[float, float]) -> ScoreTable:
    """Parse one matcher's score CSV; row order is preserved.

    Raises :class:`ParseError` (with the offending line number) for malformed
    rows, :class:`RangeViolationError` for scores outside ``declared_range``,
    and :class:`DuplicatePairError` for repeated (probe_id, reference_id).
    When several rows are bad, the error names the first of them.
    """
    path = Path(path)
    return _score_table(path, declared_range, _FirstBadRow(path, SCORE_CSV_HEADER))


def load_score_tables(paths, declared_range: tuple[float, float]):
    """Yield each file's :func:`load_score_table`, in order, reading a file
    only when the previous one has loaded.

    Files that list the same comparisons, as the matchers of one setting and
    split do, share one :class:`PairColumns`. A later file whose eight pair
    fields, as read, equal the first file's row for row, and whose matcher id
    and scores pass their checks, keeps only its matcher id and score column
    over the first table's columns. Any other file is checked in full, so a
    bad file raises what :func:`load_score_table` raises for it.
    """
    first = fields = None
    for path in map(Path, paths):
        check = _FirstBadRow(path, SCORE_CSV_HEADER)
        if first is None:
            first, fields = _score_table(path, declared_range, check), check.columns[1:9]
            yield first
            continue
        table = _shared_table(check, fields, first.columns, declared_range)
        yield _score_table(path, declared_range, check) if table is None else table


def _shared_table(check: _FirstBadRow, fields, columns: PairColumns, declared_range) -> ScoreTable | None:
    """The table of ``check``'s file over ``columns``, or None unless its pair
    fields equal ``fields`` and its matcher id and scores pass their checks."""
    mids, score_texts = check.columns[0], check.columns[9]
    if check.error is not None or not mids or mids.count(mids[0]) != len(mids):
        return None
    if check.columns[1:9] != fields:
        return None
    try:
        scores = np.fromiter(map(float, score_texts), np.float64, len(score_texts))
    except ValueError:
        return None
    lo, hi = declared_range
    if not np.all((lo <= scores) & (scores <= hi)):  # also false for NaN
        return None
    return ScoreTable(mids[0], declared_range, columns, scores)


def _score_table(path: Path, declared_range, check: _FirstBadRow) -> ScoreTable:
    """The checks of :func:`load_score_table` over ``check``'s columns, then its table."""
    lo, hi = declared_range
    mids, probes, refs, psubs, rsubs, flags, cams, dists, dsets, score_texts = check.columns
    matcher_id = mids[0] if mids else path.stem
    check.fail(
        _first_not_equal(check.head(mids), matcher_id),
        ParseError,
        lambda i: f"matcher_id {mids[i]!r} differs from {matcher_id!r} (one matcher per file)",
    )
    mated = check.mated(flags)
    distances = check.floats(dists, "distance_m")
    scores = check.floats(score_texts, "score")
    outside = ~((lo <= scores) & (scores <= hi))
    check.fail(
        _first_true(outside[: check.limit]),
        RangeViolationError,
        lambda i: f"score {score_texts[i]} outside declared range [{lo}, {hi}]",
    )
    key_index = check.key_index(probes, refs)
    n = check.limit
    columns = check.pairs(probes, refs, psubs, rsubs, mated, cams, distances, dsets, key_index)
    return ScoreTable(matcher_id, (lo, hi), columns, scores[:n])


PAIRS_CSV_HEADER = (
    "probe_id",
    "reference_id",
    "probe_subject",
    "reference_subject",
    "mated",
    "camera_id",
    "distance_m",
    "dataset_id",
)


def load_pairs(path) -> PairColumns:
    """Parse a comparison-pair CSV (score CSV columns minus matcher/score)."""
    path = Path(path)
    check = _FirstBadRow(path, PAIRS_CSV_HEADER)
    probes, refs, psubs, rsubs, flags, cams, dists, dsets = check.columns
    mated = check.mated(flags)
    distances = check.floats(dists, "distance_m")
    key_index = check.key_index(probes, refs)
    return check.pairs(probes, refs, psubs, rsubs, mated, cams, distances, dsets, key_index)


# ---------------------------------------------------------------- CSV output


def score_table_csv_text(table: ScoreTable) -> str:
    """The canonical CSV form (repr floats, LF newlines)."""
    c = table.columns
    cams, dists, dsets = c.setting_fields()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_HEADER)
    writer.writerows(
        zip(
            repeat(table.matcher_id),
            c.probe_ids.tolist(),
            c.reference_ids.tolist(),
            c.probe_subjects.tolist(),
            c.reference_subjects.tolist(),
            _per_row(["0", "1"], c.mated.astype(np.intp)),
            cams,
            map(repr, dists),
            dsets,
            map(repr, table.scores.tolist()),
        )
    )
    return buf.getvalue()


def write_score_table(table: ScoreTable, path) -> None:
    atomic_write_text(path, score_table_csv_text(table))


# ---------------------------------------------------------------- transforms


def normalize_scores(table: ScoreTable, method: str = "affine_to_unit") -> ScoreTable:
    """Map a table's scores into [0, 1].

    ``affine_to_unit`` applies s -> (s - lo) / (hi - lo) using the declared
    range (order-preserving, so rank metrics are unaffected); ``identity``
    asserts the table is already declared [0, 1] and returns it unchanged.
    """
    lo, hi = table.declared_range
    if method == "identity":
        if (lo, hi) != (0.0, 1.0):
            raise ContractError(
                f"identity normalization requires declared range [0, 1], got [{lo}, {hi}]"
            )
        return table
    if method != "affine_to_unit":
        raise ContractError(f"unknown normalization method {method!r}")
    if not hi > lo:
        raise ContractError(f"affine_to_unit needs hi > lo, got [{lo}, {hi}]")
    return ScoreTable(table.matcher_id, (0.0, 1.0), table.columns, (table.scores - lo) / (hi - lo))


def _setting_remap(settings: tuple, onto: tuple) -> np.ndarray:
    """Index into ``onto`` of each setting, -1 where absent."""
    return np.array([onto.index(s) if s in onto else -1 for s in settings], dtype=np.intp)


def align_tables(tables: list[ScoreTable]) -> AlignedScores:
    """Join matcher tables on (probe_id, reference_id).

    Every table must be declared [0, 1] and nonempty, and all tables must
    cover exactly the same keys; a key missing anywhere is an
    :class:`AlignmentError` (silent inner joins would corrupt protocol
    comparisons). Ground truth and metadata must agree per key. Row order
    follows the first table; matcher order follows the input order.
    """
    if not tables:
        raise ContractError("align_tables needs at least one table")
    ids = [t.matcher_id for t in tables]
    if len(set(ids)) != len(ids):
        raise ContractError(f"duplicate matcher ids: {ids}")
    for t in tables:
        if t.declared_range != (0.0, 1.0):
            raise ContractError(
                f"matcher {t.matcher_id!r} declared range {t.declared_range} "
                "is not [0, 1]; normalize first"
            )
        if len(t) == 0:
            raise ContractError(f"matcher {t.matcher_id!r} table is empty")

    base = tables[0].columns
    if all(t.columns is base for t in tables[1:]):
        return AlignedScores(tuple(ids), base, np.column_stack([t.scores for t in tables]))
    # keys are unique per table, so the base key index lists every row's key
    # in row order, and equal lengths and no failed lookup mean every table
    # covers exactly the base keys
    base_keys = base.key_index
    try:
        gathers = [
            np.fromiter(map(t.columns.key_index.__getitem__, base_keys), np.intp, len(base_keys))
            for t in tables[1:]
        ]
        complete = all(len(t) == len(base) for t in tables)
    except KeyError:
        complete = False
    if not complete:
        key_sets = [t.columns.key_index.keys() for t in tables]
        all_keys = set().union(*key_sets)
        for t, keys in zip(tables, key_sets):
            missing = sorted(all_keys - keys)
            if missing:
                shown = ", ".join(map(str, missing[:5]))
                more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
                raise AlignmentError(
                    f"matcher {t.matcher_id!r} is missing {len(missing)} pair(s): {shown}{more}"
                )

    matrix = np.empty((len(base), len(tables)), dtype=np.float64)
    matrix[:, 0] = tables[0].scores
    conflicts = []  # (row, table, check) of each table's first conflicting row
    for j, (t, idx) in enumerate(zip(tables[1:], gathers), 1):
        other = t.columns
        matrix[:, j] = t.scores[idx]
        setting_codes = _setting_remap(other.settings, base.settings)[other.setting_codes[idx]]
        checks = (
            other.mated[idx] != base.mated,
            setting_codes != base.setting_codes,
            (other.probe_subjects[idx] != base.probe_subjects)
            | (other.reference_subjects[idx] != base.reference_subjects),
        )
        for k, mask in enumerate(checks):
            row = _first_true(mask)
            if row is not None:
                conflicts.append((row, j, k))
    if conflicts:
        row, _, k = min(conflicts)
        what = ("mated flags", "settings", "subjects")[k]
        raise ConsistencyError(f"conflicting {what} for pair {base.key(row)}")
    return AlignedScores(tuple(ids), base, matrix)


# ---------------------------------------------------------------- subject splits


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_subjects(
    subjects: set[str],
    test_fraction: float,
    validation_fraction_of_remainder: float,
    seed: int,
) -> SplitSpec:
    """Deterministically partition subjects into train/validation/test.

    Subjects are sorted lexicographically, shuffled with a seeded SplitMix64
    Fisher-Yates pass, then cut: the first round-half-up(test_fraction * n)
    become test, the next round-half-up share of the remainder validation,
    the rest train. Same inputs and seed always give the same split.
    """
    if not (0.0 < test_fraction < 1.0 and 0.0 < validation_fraction_of_remainder < 1.0):
        raise ContractError("fractions must lie strictly between 0 and 1")
    n = len(subjects)
    if n < 3:
        raise ContractError(f"need at least 3 subjects, got {n}")
    ordered = sorted(subjects)
    SplitMix64(substream_seed(seed, "subject-split")).shuffle(ordered)

    n_test = _round_half_up(test_fraction * n)
    if n_test == 0 or n_test >= n:
        raise PartitionError(f"test_fraction {test_fraction} empties a partition for n={n}")
    remainder = n - n_test
    n_val = _round_half_up(validation_fraction_of_remainder * remainder)
    if n_val == 0 or n_val >= remainder:
        raise PartitionError(
            f"validation fraction {validation_fraction_of_remainder} empties a partition "
            f"for remainder={remainder}"
        )
    test = frozenset(ordered[:n_test])
    validation = frozenset(ordered[n_test : n_test + n_val])
    train = frozenset(ordered[n_test + n_val :])
    return SplitSpec(train, validation, test, seed)
