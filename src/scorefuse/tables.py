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
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    AlignmentError,
    ConsistencyError,
    ContractError,
    DuplicatePairError,
    ParseError,
    RangeViolationError,
)
from .provenance import atomic_write_text, finite, not_utf8, read_text

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
        if not finite(self.distance_m):
            raise ContractError(f"distance_m must be finite, got {self.distance_m}")

    def key(self) -> str:
        """Stable short label, e.g. for file names: dataset-camera-distance."""
        return f"{self.dataset_id}-{self.camera_id}-{self.distance_m:g}"


# the setting of synthetic tables that name none
DEFAULT_SETTING = SettingDescriptor("synthcam", 1.0, "synthetic")


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


def _decoded(values, codes: np.ndarray) -> np.ndarray:
    """The read-only object array of ``values[code]`` for every row's code."""
    table = np.empty(len(values), dtype=object)
    table[:] = values
    return _frozen(table[codes])


_LOW = (1 << 32) - 1  # the reference code's bits of a key


def _pair_keys(probe_codes: np.ndarray, reference_codes: np.ndarray) -> np.ndarray:
    """Each row's int64 key ``(probe_code << 32) | reference_code``, negative if a code is."""
    return (probe_codes.astype(np.int64) << 32) | reference_codes


def _remap(values, onto) -> np.ndarray:
    """Index into ``onto`` of each of ``values``, -1 where absent."""
    where = dict(zip(onto, range(len(onto))))
    return np.fromiter(map(where.get, values, repeat(-1)), np.intp, len(values))


class PairColumns:
    """Comparison pairs stored as columns of integer codes.

    ``ids`` holds the distinct probe and reference ids, ``subjects`` the
    distinct subjects, in order of first appearance. Row i's key is the
    int64 ``keys[i] = (probe_code << 32) | reference_code``, codes into
    ``ids``; both int32 subject code columns index ``subjects`` and the
    int32 ``setting_codes`` index ``settings``, distinct
    :class:`SettingDescriptor`. ``mated`` is subject code equality.
    ``probe_ids`` and the other text columns are decoded on each read.
    Arrays are read-only, so every table over the same pairs shares one
    instance.
    """

    def __init__(self, probe_ids, reference_ids, probe_subjects, reference_subjects, setting_codes, settings):
        codes = np.array(setting_codes, dtype=np.intp).reshape(-1)
        self.settings = tuple(settings)
        n = len(codes)
        if any(len(col) != n for col in (probe_ids, reference_ids, probe_subjects, reference_subjects)):
            raise ContractError("pair columns must have equal lengths")
        id_codes, ids = _text_codes([*probe_ids, *reference_ids])
        subject_codes, subjects = _text_codes([*probe_subjects, *reference_subjects])
        self.ids, self.subjects = tuple(ids), tuple(subjects)
        self.keys = _frozen(_pair_keys(id_codes[:n], id_codes[n:]))
        self.probe_subject_codes = _frozen(subject_codes[:n].astype(np.int32))
        self.reference_subject_codes = _frozen(subject_codes[n:].astype(np.int32))
        self.mated = _frozen(self.probe_subject_codes == self.reference_subject_codes)
        if len(set(self.settings)) != len(self.settings):
            raise ContractError("settings must be distinct")
        if n and (codes.min() < 0 or codes.max() >= len(self.settings)):
            raise ContractError("setting code out of range")
        self.setting_codes = _frozen(codes.astype(np.int32))

    __setstate__ = _frozen_state

    def __len__(self) -> int:
        return len(self.mated)

    probe_codes = property(lambda self: self.keys >> 32)
    reference_codes = property(lambda self: self.keys & _LOW)
    probe_ids = property(lambda self: _decoded(self.ids, self.probe_codes))
    reference_ids = property(lambda self: _decoded(self.ids, self.reference_codes))
    probe_subjects = property(lambda self: _decoded(self.subjects, self.probe_subject_codes))
    reference_subjects = property(lambda self: _decoded(self.subjects, self.reference_subject_codes))

    def key(self, i: int) -> tuple[str, str]:
        """Row ``i``'s (probe_id, reference_id)."""
        key = int(self.keys[i])
        return (self.ids[key >> 32], self.ids[key & _LOW])

    @cached_property
    def first_duplicate(self) -> int | None:
        """First row whose key appeared on an earlier row, or None: the
        least row after the first of a run of equal keys in stable order.
        Computed once, as every table over these pairs checks it."""
        ordered = np.sort(self.keys)
        if not np.any(ordered[1:] == ordered[:-1]):
            return None
        order = np.argsort(self.keys, kind="stable")
        later = order[1:][self.keys[order[1:]] == self.keys[order[:-1]]]
        return int(later.min())

    def setting_fields(self) -> tuple[list, list, list]:
        """Per-row camera_id, distance_m and dataset_id."""
        s, codes = self.settings, self.setting_codes
        return (
            _decoded([x.camera_id for x in s], codes).tolist(),
            _decoded([x.distance_m for x in s], codes).tolist(),
            _decoded([x.dataset_id for x in s], codes).tolist(),
        )


def shared_pairs(a: PairColumns, b: PairColumns) -> list[tuple[str, str]]:
    """The (probe_id, reference_id) keys that ``a`` and ``b`` both hold, sorted.

    Returns at once when the two share no id. Otherwise ``b``'s keys are
    coded in ``a``'s ids, compared with ``a``'s keys, and only the rows
    found are decoded.
    """
    if set(a.ids).isdisjoint(b.ids):
        return []
    onto = _remap(b.ids, a.ids)
    keys = _pair_keys(onto[b.probe_codes], onto[b.reference_codes])
    return sorted(map(b.key, np.flatnonzero(np.isin(keys, a.keys)).tolist()))


class ScoreTable:
    """All comparison scores of one matcher, with its declared score range.

    A float64 ``scores`` column over a :class:`PairColumns`.
    """

    def __init__(self, matcher_id: str, declared_range, columns: PairColumns, scores):
        lo, hi = declared_range
        if not (finite(lo, hi) and lo <= hi):
            raise ContractError(f"invalid declared_range [{lo}, {hi}]")
        scores = _frozen(np.array(scores, dtype=np.float64).reshape(-1))
        if len(scores) != len(columns):
            raise ContractError(f"{len(scores)} scores for {len(columns)} pairs")
        outside = _first_true(~((lo <= scores) & (scores <= hi)))
        dup = columns.first_duplicate
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

    def select(self, matcher_ids: list[str] | tuple[str, ...]) -> "AlignedScores":
        """Sub-view with the given matchers, in the given order."""
        cols = [self.matcher_ids.index(m) if m in self.matcher_ids else -1 for m in matcher_ids]
        missing = [m for m, c in zip(matcher_ids, cols) if c < 0]
        if missing:
            raise ContractError(f"matchers not present in aligned scores: {missing}")
        return AlignedScores(tuple(matcher_ids), self.columns, self.matrix[:, cols])


# ---------------------------------------------------------------- CSV input


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes numbering the distinct ``values`` in order of first appearance,
    and the first row of each code."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def _text_codes(column: list) -> tuple[np.ndarray, list]:
    """Codes numbering the distinct strings of ``column`` in order of first
    appearance, and those strings: ``dict.setdefault`` maps each string to
    the row where it first appears, and the rank of that row is its code."""
    if not column or (column[-1] == column[0] and column.count(column[0]) == len(column)):
        return np.zeros(len(column), dtype=np.intp), column[:1]
    first_row: dict[str, int] = {}
    rows = np.fromiter(map(first_row.setdefault, column, count()), np.intp, len(column))
    rank = np.empty(len(column), dtype=np.intp)
    rank[np.fromiter(first_row.values(), np.intp, len(first_row))] = np.arange(len(first_row))
    return rank[rows], list(first_row)


def _plain_body(path: Path, header: tuple[str, ...]) -> list[str] | None:
    """The body lines of a file with no ``"`` and no CR whose first line is
    ``header``, without the empty line after a last LF; None for any other
    file."""
    text = read_text(path)
    if '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if lines[0] != ",".join(header):
        return None
    return lines[1:-1] if lines[-1] == "" else lines[1:]


def _plain_columns(path: Path, header: tuple[str, ...]) -> list[list[str]] | None:
    """The columns of a plain CSV file, or None for any other file.

    A plain file has the expected header, no ``"`` and no CR, and exactly
    ``len(header) - 1`` commas on every body line, so it has no blank line
    either. ``csv.reader`` would split such a file on commas and LFs alone:
    one split of the joined body lines gives every field, and column k is
    every ``len(header)``-th field from the k-th.
    """
    body = _plain_body(path, header)
    width = len(header)
    if body is None or list(map(str.count, body, repeat(","))).count(width - 1) != len(body):
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


def _fields(path: Path, header: tuple[str, ...], declared_range) -> tuple[list, bool]:
    """The columns of a CSV file, and whether it is plain.

    A plain file is split in one pass (:func:`_plain_columns`); any other is
    read by ``csv.reader``, and a row with the wrong number of fields makes
    :func:`_first_error` report the first bad row.
    """
    columns = _plain_columns(path, header)
    if columns is not None:
        return columns, True
    rows = _read_rows(path, header)
    if list(map(len, rows)).count(len(header)) != len(rows):
        _first_error(path, header, rows, declared_range)
    return list(zip(*rows)) or [()] * len(header), False


def _pair_columns(fields) -> PairColumns | None:
    """The :class:`PairColumns` of the eight pair fields, or None if a row is bad.

    A setting is a distinct (camera, distance, dataset) triple, numbered in
    order of first appearance; each column is coded on its own and the
    codes combined, so no per-row triple is built. Each distinct distance
    text is parsed once.
    """
    probes, refs, psubs, rsubs, flags, cams, dists, dsets = fields
    if flags.count("1") + flags.count("0") != len(flags):
        return None
    try:
        distance_of = {text: float(text) for text in dict.fromkeys(dists)}
    except ValueError:
        return None
    distances = np.fromiter(map(distance_of.__getitem__, dists), np.float64, len(dists))
    codes, first = _first_appearance(distances)
    for column in (cams, dsets):
        column_codes, distinct = _text_codes(column)
        codes, first = _first_appearance(codes * len(distinct) + column_codes)
    try:
        settings = [SettingDescriptor(cams[i], float(distances[i]), dsets[i]) for i in first.tolist()]
        columns = PairColumns(probes, refs, psubs, rsubs, codes, settings)
    except ContractError:
        return None
    same_mated = np.array_equal(np.array(flags, dtype=object) == "1", columns.mated)
    return columns if same_mated and columns.first_duplicate is None else None


def _checked_table(path: Path, declared_range, columns) -> ScoreTable:
    """The table of a score file's columns, or the error of its first bad row."""
    mids, *pair_fields, score_texts = columns
    matcher_id = mids[0] if mids else path.stem
    scores = _valid_scores(score_texts, declared_range)
    pairs = _pair_columns(pair_fields) if mids.count(matcher_id) == len(mids) and scores is not None else None
    if pairs is None:
        _first_error(path, SCORE_CSV_HEADER, list(zip(*columns)), declared_range)
    return ScoreTable(matcher_id, declared_range, pairs, scores)


def _first_error(path: Path, header: tuple[str, ...], rows, declared_range) -> NoReturn:
    """Raise the error of the first bad row of ``rows``, read one at a time.

    The rows are those of a score file, or of a pairs file when
    ``declared_range`` is None. Each row runs its checks in a fixed order and
    the first that fails is raised, naming the row's line; the loaders call
    this only when a check over whole columns has found some bad row.
    """
    scored = declared_range is not None
    seen: dict[tuple[str, str], int] = {}

    def error(cls, text: str) -> Exception:
        return cls(f"{path}:{line}: {text}")  # the line being read

    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise error(ParseError, f"expected {len(header)} columns, got {len(row)}")
        if scored:
            matcher_id, *row, score_text = row
            if matcher_id != rows[0][0]:
                text = f"matcher_id {matcher_id!r} differs from {rows[0][0]!r} (one matcher per file)"
                raise error(ParseError, text)
        probe, ref, psub, rsub, flag, cam, distance_text, dset = row
        if flag not in ("0", "1"):
            raise error(ParseError, f"mated must be 0 or 1, got {flag!r}")
        values = []
        for what, text in [("distance_m", distance_text)] + ([("score", score_text)] if scored else []):
            try:
                values.append(float(text))
            except ValueError:
                raise error(ParseError, f"non-numeric {what} {text!r}") from None
            if not math.isfinite(values[-1]):
                raise error(ParseError, f"non-finite {what} {text!r}")
        if scored:
            lo, hi = declared_range
            if not lo <= values[1] <= hi:
                raise error(RangeViolationError, f"score {score_text} outside declared range [{lo}, {hi}]")
        key = (probe, ref)
        if key in seen:
            raise error(DuplicatePairError, f"duplicate pair {key}, first seen on line {seen[key]}")
        seen[key] = line
        try:
            SettingDescriptor(cam, values[0], dset)
        except ContractError as exc:
            raise error(ParseError, str(exc)) from None
        if (flag == "1") != (psub == rsub):
            raise error(ParseError, f"mated={flag == '1'} inconsistent with subjects {psub!r} vs {rsub!r}")
    raise AssertionError(f"{path}: a column check failed on no row")


def load_score_table(path, declared_range: tuple[float, float]) -> ScoreTable:
    """Parse one matcher's score CSV: the one-file case of :func:`load_score_tables`."""
    return next(load_score_tables([path], declared_range))


def load_score_tables(paths, declared_range: tuple[float, float]):
    """Parse each matcher's score CSV, in order, reading a file only when
    the previous one has loaded; row order is preserved.

    Raises :class:`ParseError` (with the offending line number) for malformed
    rows, :class:`RangeViolationError` for scores outside ``declared_range``,
    and :class:`DuplicatePairError` for repeated (probe_id, reference_id).
    When several rows are bad, the error names the first of them.

    Files that list the same comparisons, as the matchers of one setting and
    split do, share one :class:`PairColumns`. When the first file is plain
    (:func:`_plain_columns`) and has rows, a later file is first compared
    with it as text (:func:`_same_pairs`). A later file that repeats the
    first file's pair fields and holds only valid scores gets a table over
    the first table's columns. Any other file runs every check and gets
    columns of its own, so a bad file raises what it would raise alone.
    """
    first = None  # matcher id, cut lines and columns of a plain first file with rows
    for k, path in enumerate(map(Path, paths)):
        same = first and _same_pairs(path, first[0], first[1])
        scores = same and _valid_scores(same[1], declared_range)
        if scores is not None:
            yield ScoreTable(same[0], declared_range, first[2], scores)
            continue
        columns, plain = _fields(path, SCORE_CSV_HEADER, declared_range)
        table = _checked_table(path, declared_range, columns)
        yield table
        # after the yield, so that a one-file load builds no cut
        if k == 0 and plain and len(table):
            cut = "\n" + "\n".join(map(",".join, zip(*columns[:9])))
            first = (table.matcher_id, cut, table.columns)


def _same_pairs(path: Path, first_id: str, first_cut: str) -> tuple[str, list[str]] | None:
    """The matcher id and score texts of a plain score file that repeats the
    first file's rows but for matcher id and score, or None.

    ``first_cut`` is the first file's body lines, each after a LF and
    without its last field. This file's lines, cut at their last comma,
    equal it with ``first_id`` replaced at every line start by this file's
    row-1 matcher id exactly when each row holds that id and the first
    file's eight pair fields: in a plain file LF only starts lines, and
    every line of the first file starts with ``first_id``.
    """
    body = _plain_body(path, SCORE_CSV_HEADER)
    if not body:
        return None
    parts = list(map(str.rpartition, body, repeat(",")))
    matcher_id = parts[0][0].partition(",")[0]
    if "\n" + "\n".join(map(itemgetter(0), parts)) != first_cut.replace(f"\n{first_id},", f"\n{matcher_id},"):
        return None
    return matcher_id, list(map(itemgetter(2), parts))


def _valid_scores(texts, declared_range) -> np.ndarray | None:
    """``texts`` as floats if every one is a finite number in ``declared_range``, else None."""
    lo, hi = declared_range
    try:
        scores = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return None
    return scores if np.all(np.isfinite(scores) & (lo <= scores) & (scores <= hi)) else None


PAIRS_CSV_HEADER = SCORE_CSV_HEADER[1:9]


def load_pairs(path) -> PairColumns:
    """Parse a comparison-pair CSV (score CSV columns minus matcher/score)."""
    path = Path(path)
    columns = _fields(path, PAIRS_CSV_HEADER, None)[0]
    pairs = _pair_columns(columns)
    if pairs is None:
        _first_error(path, PAIRS_CSV_HEADER, list(zip(*columns)), None)
    return pairs


# ---------------------------------------------------------------- CSV output


def plain_fields(fields) -> bool:
    """True if no field holds ``,``, ``"``, CR or LF, so none needs quoting."""
    text = "".join(fields)
    return not ("," in text or '"' in text or "\r" in text or "\n" in text)


def _quoted(field: str) -> str:
    """``field`` as one CSV field: in quotes, with ``"`` doubled, if it is not plain."""
    return field if plain_fields((field,)) else '"' + field.replace('"', '""') + '"'


def csv_text(header, rows, plain: bool) -> str:
    """``header`` and ``rows`` as CSV text with LF line ends.

    A field that holds ``,``, ``"``, CR or LF is quoted, which is what
    ``csv.writer`` writes from Python 3.13 on; older versions leave a lone CR
    unquoted, and ``csv.reader`` then splits the row there. When the caller
    knows that every field is plain (:func:`plain_fields`), the quoting
    check is skipped.
    """
    if not plain:
        header = map(_quoted, header)
        rows = (map(_quoted, row) for row in rows)
    return "\n".join(chain([",".join(header)], map(",".join, rows), [""]))


def score_table_csv_text(table: ScoreTable) -> str:
    """The canonical CSV form (repr floats, LF newlines)."""
    c = table.columns
    cams, dists, dsets = c.setting_fields()
    rows = zip(
        repeat(table.matcher_id),
        c.probe_ids.tolist(),
        c.reference_ids.tolist(),
        c.probe_subjects.tolist(),
        c.reference_subjects.tolist(),
        _decoded(["0", "1"], c.mated.astype(np.intp)).tolist(),
        cams,
        map(repr, dists),
        dsets,
        map(repr, table.scores.tolist()),
    )
    plain = all(map(plain_fields, [[table.matcher_id], c.ids, c.subjects, cams, dsets]))
    return csv_text(SCORE_CSV_HEADER, rows, plain)


def write_score_table(table: ScoreTable, path) -> None:
    atomic_write_text(path, score_table_csv_text(table))


# ---------------------------------------------------------------- transforms


def normalize_scores(table: ScoreTable) -> ScoreTable:
    """Map a table's scores into [0, 1] by s -> (s - lo) / (hi - lo), using
    the declared range (order-preserving, so rank metrics are unaffected)."""
    lo, hi = table.declared_range
    if not hi > lo:
        raise ContractError(f"normalize_scores needs hi > lo, got [{lo}, {hi}]")
    return ScoreTable(table.matcher_id, (0.0, 1.0), table.columns, (table.scores - lo) / (hi - lo))


def _gather(base: PairColumns, other: PairColumns) -> np.ndarray | None:
    """The row of ``other`` that holds each of ``base``'s keys, or None if
    some key is missing from ``other``."""
    onto = _remap(other.ids, base.ids)
    keys = _pair_keys(onto[other.probe_codes], onto[other.reference_codes])
    order = np.argsort(keys)
    rows = order[np.minimum(np.searchsorted(keys, base.keys, sorter=order), len(keys) - 1)]
    return rows if np.array_equal(keys[rows], base.keys) else None


def align_tables(tables: list[ScoreTable]) -> AlignedScores:
    """Join matcher tables on (probe_id, reference_id).

    Every table must be declared [0, 1] and nonempty, and all tables must
    cover exactly the same keys; a key missing anywhere is an
    :class:`AlignmentError` (silent inner joins would corrupt protocol
    comparisons). Settings and subjects, which fix ground truth, must agree
    per key. Row order follows the first table; matcher order follows the
    input order.
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
    # keys are unique per table, so equal lengths and every base key found
    # mean every table covers exactly the base keys
    gathers = [_gather(base, t.columns) for t in tables[1:]]
    if any(idx is None for idx in gathers) or any(len(t) != len(base) for t in tables):
        key_sets = [set(zip(t.columns.probe_ids.tolist(), t.columns.reference_ids.tolist())) for t in tables]
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
        setting_codes = _remap(other.settings, base.settings)[other.setting_codes[idx]]
        subjects = _remap(other.subjects, base.subjects)
        checks = (
            setting_codes != base.setting_codes,
            (subjects[other.probe_subject_codes[idx]] != base.probe_subject_codes)
            | (subjects[other.reference_subject_codes[idx]] != base.reference_subject_codes),
        )
        for k, mask in enumerate(checks):
            row = _first_true(mask)
            if row is not None:
                conflicts.append((row, j, k))
    if conflicts:
        row, _, k = min(conflicts)
        what = ("settings", "subjects")[k]
        raise ConsistencyError(f"conflicting {what} for pair {base.key(row)}")
    return AlignedScores(tuple(ids), base, matrix)
