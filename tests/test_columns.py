"""Columnar loading, joining and writing of score tables.

The loaders read whole columns and validate them with array operations, but
must report exactly what a row-by-row reading reports: the same exception
class and message, for the earliest bad line. ``reference_load`` below is
that row-by-row reading, kept as the oracle.
"""

import hashlib
import math
import pickle
import random
import re

import numpy as np
import pytest

from scorefuse.cli import main
from scorefuse.errors import (
    AlignmentError,
    ConsistencyError,
    ContractError,
    DuplicatePairError,
    ParseError,
    RangeViolationError,
    ScoreFuseError,
)
from scorefuse.tables import (
    PAIRS_CSV_HEADER,
    SCORE_CSV_HEADER,
    AlignedScores,
    ScoreTable,
    SettingDescriptor,
    align_tables,
    load_pairs,
    load_score_table,
    load_score_tables,
    score_table_csv_text,
)

from helpers import columns, rows_of, table

SCORE_HEADER = ",".join(SCORE_CSV_HEADER)
PAIRS_HEADER = ",".join(PAIRS_CSV_HEADER)


def score_rows(n=6):
    """Valid score rows: even rows mated, two settings."""
    rows = []
    for i in range(n):
        mated = i % 2 == 0
        rsub = f"s{i}" if mated else f"t{i}"
        dist = "1.0" if i < n // 2 else "2.6"
        rows.append(["m", f"p{i}", f"r{i}", f"s{i}", rsub, "1" if mated else "0", "cam0", dist, "unit", f"0.{i + 1}"])
    return rows


def write_rows(path, header, rows):
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
    return path


def reference_load(path, declared_range=None):
    """Row-by-row reading of a score CSV (or, without a range, a pairs CSV).

    Returns the list of parsed rows, each (probe_id, reference_id,
    probe_subject, reference_subject, mated, setting) plus the score of a
    score CSV, or raises what the first bad row raises.
    """
    import csv

    header = SCORE_CSV_HEADER if declared_range else PAIRS_CSV_HEADER
    out, seen, matcher_id = [], {}, None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise ParseError(f"{path}:1: bad header, expected {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            if declared_range:
                mid, *row, score_s = row
                if matcher_id is None:
                    matcher_id = mid
                elif mid != matcher_id:
                    raise ParseError(
                        f"{path}:{lineno}: matcher_id {mid!r} differs from {matcher_id!r} "
                        "(one matcher per file)"
                    )
            probe, ref, psub, rsub, mated_s, cam, dist_s, dset = row
            if mated_s not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: mated must be 0 or 1, got {mated_s!r}")
            values = {}
            for what, text in (("distance_m", dist_s),) + (
                (("score", score_s),) if declared_range else ()
            ):
                try:
                    values[what] = float(text)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric {what} {text!r}") from None
                if not math.isfinite(values[what]):
                    raise ParseError(f"{path}:{lineno}: non-finite {what} {text!r}")
            if declared_range:
                lo, hi = declared_range
                if not (lo <= values["score"] <= hi):
                    raise RangeViolationError(
                        f"{path}:{lineno}: score {score_s} outside declared range [{lo}, {hi}]"
                    )
            key = (probe, ref)
            if key in seen:
                raise DuplicatePairError(
                    f"{path}:{lineno}: duplicate pair {key}, first seen on line {seen[key]}"
                )
            seen[key] = lineno
            try:
                setting = SettingDescriptor(cam, values["distance_m"], dset)
            except ContractError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            mated = mated_s == "1"
            if mated != (psub == rsub):
                raise ParseError(f"{path}:{lineno}: mated={mated} inconsistent with subjects {psub!r} vs {rsub!r}")
            out.append((probe, ref, psub, rsub, mated, setting) + ((values["score"],) if declared_range else ()))
    return out


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ParseError as exc:
        return (type(exc), str(exc))


# ---------------------------------------------------------------- named error cases


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        (5, "2", ParseError, "mated must be 0 or 1, got '2'"),
        (9, "abc", ParseError, "non-numeric score 'abc'"),
        (9, "nan", ParseError, "non-finite score 'nan'"),
        (9, "-inf", ParseError, "non-finite score '-inf'"),
        (7, "far", ParseError, "non-numeric distance_m 'far'"),
        (7, "inf", ParseError, "non-finite distance_m 'inf'"),
        (7, "0", ParseError, "distance_m must be positive, got 0.0"),
        (9, "1.25", RangeViolationError, "score 1.25 outside declared range [0.0, 1.0]"),
        (0, "other", ParseError, "matcher_id 'other' differs from 'm' (one matcher per file)"),
        (5, "0", ParseError, "mated=False inconsistent with subjects 's4' vs 's4'"),
    ],
)
def test_load_score_table_names_the_bad_line(tmp_path, field, value, error, message):
    rows = score_rows()
    rows[4][field] = value  # line 6
    path = write_rows(tmp_path / "t.csv", SCORE_HEADER, rows)
    with pytest.raises(error) as exc:
        load_score_table(path, (0.0, 1.0))
    assert type(exc.value) is error
    assert str(exc.value) == f"{path}:6: {message}"


def test_load_score_table_duplicate_names_both_lines(tmp_path):
    rows = score_rows()
    rows[3][1:3] = ["p1", "r1"]  # line 5 repeats line 3
    path = write_rows(tmp_path / "t.csv", SCORE_HEADER, rows)
    with pytest.raises(DuplicatePairError) as exc:
        load_score_table(path, (0.0, 1.0))
    assert str(exc.value) == f"{path}:5: duplicate pair ('p1', 'r1'), first seen on line 3"


def test_load_score_table_wrong_column_count(tmp_path):
    rows = score_rows()
    rows[2] = rows[2][:-1]  # line 4
    rows[4] = rows[4] + ["extra"]
    path = write_rows(tmp_path / "t.csv", SCORE_HEADER, rows)
    with pytest.raises(ParseError) as exc:
        load_score_table(path, (0.0, 1.0))
    assert str(exc.value) == f"{path}:4: expected 10 columns, got 9"


def test_load_reports_earliest_line_not_first_check(tmp_path):
    # line 4 fails a late check (subjects), line 5 an early one (column count)
    rows = score_rows()
    rows[2][4] = "other"
    rows[3] = rows[3][:3]
    path = write_rows(tmp_path / "t.csv", SCORE_HEADER, rows)
    with pytest.raises(ParseError, match=r"t\.csv:4: mated=True inconsistent"):
        load_score_table(path, (0.0, 1.0))
    # on one line, the check a row meets first wins: range before duplicate
    rows = score_rows()
    rows[3][1:3] = ["p1", "r1"]
    rows[3][9] = "7.0"
    path = write_rows(tmp_path / "u.csv", SCORE_HEADER, rows)
    with pytest.raises(RangeViolationError, match=r"u\.csv:5: score 7\.0"):
        load_score_table(path, (0.0, 1.0))


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        (4, "x", ParseError, "mated must be 0 or 1, got 'x'"),
        (6, "", ParseError, "non-numeric distance_m ''"),
        (6, "nan", ParseError, "non-finite distance_m 'nan'"),
        (6, "-2", ParseError, "distance_m must be positive, got -2.0"),
        (4, "1", ParseError, "mated=True inconsistent with subjects 's3' vs 't3'"),
        (1, "r0", DuplicatePairError, "duplicate pair ('p0', 'r0'), first seen on line 2"),
    ],
)
def test_load_pairs_names_the_bad_line(tmp_path, field, value, error, message):
    rows = [r[1:9] for r in score_rows()]
    rows[3][field] = value  # line 5
    if field == 1:
        rows[3][0] = "p0"
    path = write_rows(tmp_path / "pairs.csv", PAIRS_HEADER, rows)
    with pytest.raises(error) as exc:
        load_pairs(path)
    assert type(exc.value) is error
    assert str(exc.value) == f"{path}:5: {message}"


def test_load_pairs_wrong_column_count(tmp_path):
    rows = [r[1:9] for r in score_rows()]
    rows[1] = rows[1] + ["x"]
    path = write_rows(tmp_path / "pairs.csv", PAIRS_HEADER, rows)
    with pytest.raises(ParseError) as exc:
        load_pairs(path)
    assert str(exc.value) == f"{path}:3: expected 8 columns, got 9"


# ---------------------------------------------------------------- against the row-by-row oracle


def _mutate(rng: random.Random, rows: list[list[str]], scored: bool) -> None:
    """One random corruption (or harmless variation) of one row."""
    i = rng.randrange(len(rows))
    row = rows[i]
    off = 1 if scored else 0  # column offset of probe_id
    if len(row) != off + 9 - (not scored):
        return  # already cut short or lengthened
    kind = rng.randrange(9)
    if kind == 0:
        row[off + 4] = rng.choice(["0", "1", "2", "", " 1"])
    elif kind == 1:
        row[off + 6] = rng.choice(["x", "inf", "nan", "0", "-1", "1", "2.60", "1e0", " 3"])
    elif kind == 2 and scored:
        row[9] = rng.choice(["abc", "nan", "inf", "1.5", "-0.1", "1", "0", "1e-3", ""])
    elif kind == 3 and scored:
        row[0] = rng.choice(["m", "n"])
    elif kind == 4:
        donor = rows[rng.randrange(len(rows))]
        if len(donor) > off + 1:
            row[off], row[off + 1] = donor[off], donor[off + 1]
    elif kind == 5:
        row[off + rng.choice([2, 3])] = rng.choice(["s0", "t1", "s2"])
    elif kind == 6:
        r = rng.random()
        if r < 0.4:
            rows[i] = row[: rng.randrange(len(row))]
        elif r < 0.8:
            rows[i] = row + ["x"]
        elif i + 1 < len(rows):
            rows[i + 1] = [row.pop()] + rows[i + 1]  # the file keeps its number of commas
    elif kind == 7:
        row[off + 5] = rng.choice(["cam0", "cam1"])
    else:
        row[off + 7] = "unit,quoted"  # written quoted; still one field


# File-level formats: line ending, final newline, an inserted blank body line,
# a field holding a quote. Plain LF files take the loaders' split path; the
# others are read by csv.reader.
FORMATS = [
    {"eol": "\n", "final": True},
    {"eol": "\n", "final": False},
    {"eol": "\r\n", "final": True},
    {"eol": "\r\n", "final": False},
    {"eol": "\n", "final": True, "blank": True},
    {"eol": "\r\n", "final": False, "blank": True},
    {"eol": "\n", "final": True, "quote": True},
]


def _write_csv(path, header, rows, fmt, rng):
    import csv
    import io

    rows = [list(r) for r in rows]
    if fmt.get("quote"):
        row = rng.choice(rows)
        k = rng.randrange(len(row))
        row[k] = row[k][:1] + '"' + row[k][1:]  # written as "x""y"; still one field
    buf = io.StringIO()
    csv.writer(buf, lineterminator=fmt["eol"]).writerows(rows)
    lines = [header] + buf.getvalue().split(fmt["eol"])[:-1]
    if fmt.get("blank"):
        lines.insert(rng.randrange(1, len(lines) + 1), "")
    text = fmt["eol"].join(lines) + (fmt["eol"] if fmt["final"] else "")
    path.write_bytes(text.encode("utf-8"))


def _load(scored, path):
    """The loader's outcome, with the table or pairs as a list of rows."""
    if scored:
        got = outcome(load_score_table, path, (0.0, 1.0))
        return ("ok", rows_of(got[1].columns, got[1].scores)) if got[0] == "ok" else got
    got = outcome(load_pairs, path)
    return ("ok", rows_of(got[1])) if got[0] == "ok" else got


@pytest.mark.parametrize("scored", [True, False])
def test_loaders_match_row_by_row_reading(tmp_path, monkeypatch, scored):
    import scorefuse.tables as tables

    split_used = []
    split = tables._plain_columns

    def spy(path, header):
        columns = split(path, header)
        split_used.append(columns is not None)
        return columns

    monkeypatch.setattr(tables, "_plain_columns", spy)
    rng = random.Random(20250417 + scored)
    header = SCORE_HEADER if scored else PAIRS_HEADER
    outcomes, paths = set(), set()
    for case in range(400):
        rows = [r if scored else r[1:9] for r in score_rows(8)]
        for _ in range(rng.randrange(1, 4)):
            _mutate(rng, rows, scored)
        fmt = FORMATS[case % len(FORMATS)]
        path = tmp_path / f"case{case}.csv"
        _write_csv(path, header, rows, fmt, rng)
        want = outcome(reference_load, path, *([(0.0, 1.0)] if scored else []))
        split_used.clear()
        assert _load(scored, path) == want, (case, fmt, rows)
        plain = fmt["eol"] == "\n" and not fmt.get("blank") and not fmt.get("quote") and all(
            len(r) == header.count(",") + 1 and not re.search('[",]', "".join(r)) for r in rows
        )
        assert split_used == [plain], (case, fmt, rows)
        paths.add(plain)
        with monkeypatch.context() as m:  # the same file through csv.reader
            m.setattr(tables, "_plain_columns", lambda path, header: None)
            assert _load(scored, path) == want, (case, fmt, rows)
        outcomes.add(want[0] if want[0] == "ok" else re.sub(r".*?:\d+: (\S+ \S+).*", r"\1", want[1]))
    # the cases reach both read paths, and every check: ok, and each error's first two words
    assert paths == {True, False}
    assert "ok" in outcomes and len(outcomes) >= (14 if scored else 9), sorted(outcomes)


def _group_outcome(tables, loaded: list):
    """Each table's matcher, range and rows, then the aligned digest; or the
    first error and the number of files loaded before it. ``loaded`` receives
    the tables."""
    try:
        loaded.extend(tables)
        aligned = align_tables(loaded)
    except ScoreFuseError as exc:
        return (type(exc), str(exc), len(loaded))
    return ("ok", [(t.matcher_id, t.declared_range, rows_of(t.columns, t.scores)) for t in loaded], aligned.sha256)


def test_group_loader_matches_loading_each_file(tmp_path):
    rng = random.Random(20261018)
    outcomes, shared = set(), set()
    for case in range(240):
        base = score_rows(8)
        paths, variants = [], []
        for k in range(rng.randrange(2, 5)):
            rows = [[f"m{k}", *r[1:9], repr(rng.random())] for r in base]
            variant = rng.choice(
                ["same", "crlf"] if k == 0 else ["same", "mutated", "score", "reordered", "crlf", "quoted", "longer"]
            )
            if variant == "mutated":
                for _ in range(rng.randrange(1, 3)):
                    _mutate(rng, rows, True)
            elif variant == "score":  # the first file's pairs, with one bad or edge score
                rng.choice(rows)[9] = rng.choice(["1.5", "-0.1", "nan", "inf", "abc", "1", "0"])
            elif variant == "reordered":
                rng.shuffle(rows)
            elif variant == "longer":  # the first file's rows, then a short row
                rows.append(rows[0][: rng.randrange(1, 10)])
            variants.append(variant)
            fmt = {"crlf": FORMATS[2], "quoted": FORMATS[6]}.get(variant, FORMATS[0])
            paths.append(tmp_path / f"case{case}-{k}.csv")
            _write_csv(paths[-1], SCORE_HEADER, rows, fmt, rng)
        want = _group_outcome((load_score_table(p, (0.0, 1.0)) for p in paths), [])
        tables = []
        assert _group_outcome(load_score_tables(paths, (0.0, 1.0)), tables) == want, (case, variants)
        outcomes.add(want[0] if want[0] == "ok" else want[0].__name__)
        if want[0] == "ok":
            shared.update(t.columns is tables[0].columns for t in tables[1:])
    # both ways of loading a later file, and errors of loading and of joining
    assert shared == {True, False}
    assert {"ok", "ParseError", "AlignmentError", "ConsistencyError"} <= outcomes, outcomes


def test_pickled_tables_keep_read_only_arrays():
    a = table([0.9, 0.7], [0.2], matcher_id="a")
    aligned = align_tables([a, ScoreTable("b", (0.0, 1.0), a.columns, a.scores / 2)])
    copy = pickle.loads(pickle.dumps(aligned))
    assert copy.sha256 == aligned.sha256
    for arr in (copy.matrix, copy.columns.probe_ids, copy.columns.mated, copy.columns.setting_codes):
        assert not arr.flags.writeable


def test_long_field_reads_the_same_on_both_paths(tmp_path):
    # 140,000 characters: more than csv.reader's default field limit (131,072)
    rows = score_rows()
    rows[2][1] = "p" * 140_000
    got = {}
    for eol in ("\n", "\r\n"):
        path = tmp_path / f"{len(eol)}.csv"
        path.write_bytes((eol.join([SCORE_HEADER] + [",".join(r) for r in rows]) + eol).encode("utf-8"))
        got[eol] = _load(True, path)
    assert got["\n"] == got["\r\n"]
    assert got["\n"][0] == "ok" and got["\n"][1][2][0] == rows[2][1]


def test_csv_reader_error_names_the_file_and_line(tmp_path, monkeypatch):
    import csv

    rows = score_rows()
    rows[1][1] = "p" * 40
    path = tmp_path / "t.csv"
    path.write_bytes("\r\n".join([SCORE_HEADER] + [",".join(r) for r in rows]).encode("utf-8"))
    set_limit = csv.field_size_limit
    monkeypatch.setattr(csv, "field_size_limit", lambda: 1 << 30)  # the loader leaves the limit alone
    old = set_limit(20)  # the longest header field has 17 characters
    try:
        with pytest.raises(ParseError) as exc:
            load_score_table(path, (0.0, 1.0))
    finally:
        set_limit(old)
    assert str(exc.value) == f"{path}:3: field larger than field limit (20)"


# ---------------------------------------------------------------- joins


def _table(matcher_id: str, scored_rows) -> ScoreTable:
    """A [0, 1] table of pair rows, each followed by its score."""
    return ScoreTable(matcher_id, (0.0, 1.0), columns(scored_rows), [row[6] for row in scored_rows])


def _conflicting(t: ScoreTable, row: int, **changes) -> ScoreTable:
    """``t`` renamed to matcher "b", with one row changed and the rows reversed."""
    scored_rows = rows_of(t.columns, t.scores)
    fields = dict(zip(("probe_id", "reference_id", "probe_subject", "reference_subject", "mated",
                       "setting", "score"), scored_rows[row]))
    fields.update(changes)
    scored_rows[row] = tuple(fields.values())
    return _table("b", scored_rows[::-1])


@pytest.mark.parametrize(
    "changes, what",
    [
        ({"mated": False, "reference_subject": "zz"}, "mated flags"),
        ({"setting": SettingDescriptor("cam9", 1.0, "unit")}, "settings"),
        ({"probe_subject": "s99", "reference_subject": "s99"}, "subjects"),
    ],
)
def test_align_conflict_names_the_pair(changes, what):
    a = table([0.9, 0.8, 0.7], [0.1, 0.2, 0.3], matcher_id="a")
    b = _conflicting(a, 2, **changes)
    with pytest.raises(ConsistencyError) as exc:
        align_tables([a, b])
    assert str(exc.value) == f"conflicting {what} for pair {a.columns.key(2)}"


def test_align_reports_first_row_then_first_check():
    a = table([0.9, 0.8, 0.7], [0.1, 0.2, 0.3], matcher_id="a")
    b = _conflicting(a, 4, setting=SettingDescriptor("cam9", 1.0, "unit"))
    b = _conflicting(_table("x", rows_of(b.columns, b.scores)[::-1]), 1,
                     probe_subject="q", reference_subject="q")
    with pytest.raises(ConsistencyError, match=r"subjects for pair \('p00001'"):
        align_tables([a, b])


def test_align_joins_on_keys_in_any_row_order():
    a = table([0.9, 0.8], [0.1, 0.2, 0.3], matcher_id="a")
    b = _table("b", [(*row[:6], row[6] / 2) for row in rows_of(a.columns, a.scores)[::-1]])
    al = align_tables([a, b])
    assert [al.columns.key(i) for i in range(len(al))] == [a.columns.key(i) for i in range(len(a))]
    np.testing.assert_array_equal(al.matrix[:, 1], a.scores / 2)


@pytest.mark.parametrize(
    "keep_a, keep_b, short",
    [
        (slice(None), slice(None, -1), "b"),  # b lacks a key of a
        (slice(None, -1), slice(None), "a"),  # b has a key a lacks
        (slice(1, None), slice(None, -1), "a"),  # same length, different keys
    ],
)
def test_align_missing_key_in_either_table(keep_a, keep_b, short):
    a = table([0.9, 0.8], [0.1, 0.2, 0.3], matcher_id="a")
    scored_rows = rows_of(a.columns, a.scores)
    a = _table("a", scored_rows[keep_a])
    b = _table("b", scored_rows[keep_b][::-1])
    with pytest.raises(AlignmentError, match=f"'{short}' is missing 1 pair"):
        align_tables([a, b])


def test_aligned_digest_matches_row_by_row_formula():
    settings = [SettingDescriptor("c1", 1.0, "d"), SettingDescriptor("c2", 2.6, "d")]
    pairs = [
        (f"p{i}", f"r{i}", f"s{i}", f"s{i}" if i % 3 else f"t{i}", bool(i % 3), settings[i % 2])
        for i in range(7)
    ]
    matrix = np.linspace(0.0, 1.0, 14).reshape(7, 2)
    al = AlignedScores(("x", "y"), columns(pairs), matrix)
    h = hashlib.sha256()
    for mid in al.matcher_ids:
        h.update(mid.encode("utf-8") + b"\x00")
    for probe, ref, _, _, mated, setting in pairs:
        h.update(f"{probe}|{ref}|{int(mated)}|{setting.key()}".encode() + b"\x00")
    h.update(np.ascontiguousarray(matrix).tobytes())
    assert al.sha256 == h.hexdigest()


# ---------------------------------------------------------------- round trips


def test_round_trip_of_demo_file_is_byte_identical(tmp_path):
    assert main(["synth", "--demo", str(tmp_path / "demo"), "--seed", "3"]) == 0
    for path in sorted((tmp_path / "demo" / "scores").glob("m2__*.csv")):
        text = path.read_text(encoding="utf-8")
        assert score_table_csv_text(load_score_table(path, (0.0, 1.0))) == text


def test_round_trip_of_synth_file_is_byte_identical(tmp_path):
    out = tmp_path / "s.csv"
    args = ["synth", "--out", str(out), "--n-mated", "40", "--n-nonmated", "90", "--seed", "5",
            "--camera", "c,1", "--id-tag", 'q"x:']
    assert main(args) == 0
    text = out.read_text(encoding="utf-8")
    t = load_score_table(out, (-0.6, 1.5))  # unclamped: mu +- 9 sigma
    assert score_table_csv_text(t) == text
    assert t.columns.settings == (SettingDescriptor("c,1", 1.0, "synthetic"),)


def test_round_trip_of_file_with_commas_in_ids(tmp_path):
    out = tmp_path / "c.csv"
    args = ["synth", "--out", str(out), "--n-mated", "30", "--n-nonmated", "50", "--seed", "2",
            "--clamp", "--id-tag", "a,b:"]
    assert main(args) == 0
    text = out.read_text(encoding="utf-8")
    assert '"a,b:p000000","a,b:r000000"' in text  # quoted, so csv.reader reads this file
    t = load_score_table(out, (0.0, 1.0))
    assert t.columns.probe_ids[0] == "a,b:p000000"
    assert score_table_csv_text(t) == text
