import math

import numpy as np
import pytest

from scorefuse.errors import (
    AlignmentError,
    ConsistencyError,
    ContractError,
    DuplicatePairError,
    ParseError,
    PartitionError,
    RangeViolationError,
)
from scorefuse.tables import (
    ScoreTable,
    SettingDescriptor,
    align_tables,
    load_pairs,
    load_score_table,
    normalize_scores,
    split_subjects,
    write_score_table,
)

from helpers import SETTING, aligned, columns, pair, rows_of, table

CSV_3ROWS = """matcher_id,probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id,score
m,p1,r1,s1,s1,1,cam0,1.0,unit,0.9
m,p2,r2,s1,s2,0,cam0,1.0,unit,0.2
m,p3,r3,s3,s3,1,cam0,2.6,unit,0.5
"""


def test_load_three_rows_preserves_order(tmp_path):
    f = tmp_path / "scores.csv"
    f.write_text(CSV_3ROWS, encoding="utf-8")
    t = load_score_table(f, (0.0, 1.0))
    assert t.matcher_id == "m"
    assert t.columns.probe_ids.tolist() == ["p1", "p2", "p3"]
    assert t.scores.tolist() == [0.9, 0.2, 0.5]
    assert t.columns.settings[t.columns.setting_codes[2]].distance_m == 2.6
    assert t.columns.mated.tolist()[1] is False


def test_load_round_trip_is_byte_identical(tmp_path):
    src = tmp_path / "scores.csv"
    src.write_text(CSV_3ROWS, encoding="utf-8")
    t = load_score_table(src, (0.0, 1.0))
    out = tmp_path / "rewritten.csv"
    write_score_table(t, out)
    assert out.read_bytes() == src.read_bytes()
    # and rewriting the reloaded table is stable too
    out2 = tmp_path / "rewritten2.csv"
    write_score_table(load_score_table(out, (0.0, 1.0)), out2)
    assert out2.read_bytes() == out.read_bytes()


def test_load_parse_error_names_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text(CSV_3ROWS.replace("0.9", "abc"), encoding="utf-8")
    with pytest.raises(ParseError, match=r"bad\.csv:2"):
        load_score_table(f, (0.0, 1.0))


def test_load_range_error(tmp_path):
    f = tmp_path / "range.csv"
    f.write_text(CSV_3ROWS.replace("0.9", "1.2"), encoding="utf-8")
    with pytest.raises(RangeViolationError, match="1.2"):
        load_score_table(f, (0.0, 1.0))


def test_load_duplicate_pair_error(tmp_path):
    f = tmp_path / "dup.csv"
    f.write_text(CSV_3ROWS.replace("p2,r2", "p1,r1"), encoding="utf-8")
    with pytest.raises(DuplicatePairError, match=r"\('p1', 'r1'\)"):
        load_score_table(f, (0.0, 1.0))


def test_load_rejects_inconsistent_mated_flag(tmp_path):
    f = tmp_path / "flag.csv"
    f.write_text(CSV_3ROWS.replace("s1,s2,0", "s1,s2,1"), encoding="utf-8")
    with pytest.raises(ParseError, match=r"flag\.csv:3"):
        load_score_table(f, (0.0, 1.0))


def test_load_rejects_bad_header_and_column_count(tmp_path):
    f = tmp_path / "hdr.csv"
    f.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad header"):
        load_score_table(f, (0.0, 1.0))
    g = tmp_path / "cols.csv"
    g.write_text(CSV_3ROWS.replace("unit,0.2", "unit"), encoding="utf-8")
    with pytest.raises(ParseError, match=r"cols\.csv:3"):
        load_score_table(g, (0.0, 1.0))


def test_record_invariants():
    with pytest.raises(ContractError):
        SettingDescriptor("c", 0.0, "d")
    with pytest.raises(RangeViolationError):
        ScoreTable("m", (0.0, 1.0), columns([pair(0, True)]), [math.inf])
    with pytest.raises(ContractError):
        columns([("p", "r", "s1", "s2", True, SETTING)])


def test_normalize_cosine_endpoints():
    t = table([-1.0], [0.0], declared=(-1.0, 1.0))
    out = normalize_scores(t, "affine_to_unit")
    assert out.declared_range == (0.0, 1.0)
    assert out.scores.tolist() == [0.0, 0.5]


def test_normalize_identity_cases():
    t = table([0.7], [0.2])
    assert normalize_scores(t, "affine_to_unit").scores[0] == pytest.approx(0.7, abs=1e-15)
    assert normalize_scores(t, "identity") is t
    wide = table([0.5], [0.2], declared=(0.0, 2.0))
    with pytest.raises(ContractError):
        normalize_scores(wide, "identity")


def test_normalize_preserves_order():
    rng = np.random.default_rng(3)
    scores = np.sort(rng.uniform(-1.0, 1.0, size=200))
    t = table(scores[:100], scores[100:], declared=(-1.0, 1.0))
    out = normalize_scores(t, "affine_to_unit")
    normalized = out.scores.tolist()
    ranks_in = np.argsort(t.scores, kind="stable")
    ranks_out = np.argsort(normalized, kind="stable")
    assert list(ranks_in) == list(ranks_out)
    assert all(b > a for a, b in zip(normalized, normalized[1:]) if b != a)


def test_align_two_tables_identical_keys():
    t1 = table([0.9, 0.8], [0.1] * 8, matcher_id="a")
    t2 = table([0.7, 0.6], [0.2] * 8, matcher_id="b")
    al = align_tables([t1, t2])
    assert al.matcher_ids == ("a", "b")
    assert len(al) == 10
    assert al.matrix.shape == (10, 2)
    np.testing.assert_array_equal(al.matrix[:, 0], t1.scores)
    np.testing.assert_array_equal(al.matrix[:, 1], t2.scores)


def test_align_single_table_is_identity():
    t = table([0.9], [0.1, 0.2])
    al = align_tables([t])
    assert al.matcher_ids == ("m",)
    np.testing.assert_array_equal(al.matrix[:, 0], t.scores)


def test_align_missing_key_is_an_error():
    t1 = table([0.9, 0.8], [0.1] * 8, matcher_id="a")
    t2 = ScoreTable("b", (0.0, 1.0), columns(rows_of(t1.columns)[:-1]), t1.scores[:-1])
    with pytest.raises(AlignmentError, match="'b'.*missing 1 pair"):
        align_tables([t1, t2])


def test_align_conflicting_mated_flag_is_an_error():
    t1 = table([0.9], [0.1], matcher_id="a")
    first, second = rows_of(t1.columns)  # the first with the same key, flipped ground truth
    conflicting = (*first[:2], "other1", "other2", False, first[5])
    t2 = ScoreTable("b", (0.0, 1.0), columns([conflicting, second]), [0.9, t1.scores[1]])
    with pytest.raises(ConsistencyError, match="mated"):
        align_tables([t1, t2])


def test_align_requires_unit_range():
    t1 = table([0.9], [0.1], matcher_id="a", declared=(0.0, 2.0))
    with pytest.raises(ContractError, match="normalize"):
        align_tables([t1])


def test_aligned_select_and_column():
    al = aligned({"a": [0.1, 0.9], "b": [0.2, 0.8]}, [False, True])
    sub = al.select(["b"])
    assert sub.matcher_ids == ("b",)
    np.testing.assert_array_equal(sub.matrix[:, 0], al.column("b"))
    with pytest.raises(ContractError):
        al.select(["missing"])


def test_split_sizes_for_130_subjects():
    subjects = {f"subj{i:03d}" for i in range(130)}
    spec = split_subjects(subjects, 0.1923, 0.10, seed=11)
    assert len(spec.test_subjects) == 25
    assert len(spec.validation_subjects) == 11
    assert len(spec.train_subjects) == 94


def test_split_is_deterministic_and_seed_sensitive():
    subjects = {f"s{i}" for i in range(50)}
    a = split_subjects(subjects, 0.2, 0.1, seed=7)
    b = split_subjects(subjects, 0.2, 0.1, seed=7)
    c = split_subjects(subjects, 0.2, 0.1, seed=8)
    assert a == b
    assert a != c


def test_split_three_subjects():
    spec = split_subjects({"a", "b", "c"}, 0.34, 0.5, seed=0)
    assert len(spec.test_subjects) == 1
    assert len(spec.validation_subjects) == 1
    assert len(spec.train_subjects) == 1


def test_split_partitions_cover_and_are_disjoint_for_many_seeds():
    subjects = {f"u{i}" for i in range(17)}
    for seed in range(25):
        spec = split_subjects(subjects, 0.25, 0.2, seed=seed)
        parts = [spec.train_subjects, spec.validation_subjects, spec.test_subjects]
        assert set().union(*parts) == subjects
        assert sum(len(p) for p in parts) == len(subjects)


def test_split_rejects_degenerate_fractions():
    with pytest.raises(ContractError):
        split_subjects({"a", "b", "c"}, 0.0, 0.5, seed=0)
    with pytest.raises(PartitionError):
        split_subjects({f"s{i}" for i in range(4)}, 0.01, 0.5, seed=0)


def test_load_pairs(tmp_path):
    f = tmp_path / "pairs.csv"
    f.write_text(
        "probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id\n"
        "p1,r1,s1,s1,1,cam0,1.0,unit\n"
        "p2,r2,s1,s2,0,cam0,1.0,unit\n",
        encoding="utf-8",
    )
    pairs = load_pairs(f)
    assert len(pairs) == 2
    assert pairs.mated.tolist() == [True, False]
    bad = tmp_path / "badpairs.csv"
    bad.write_text(f.read_text().replace("p2,r2", "p1,r1"), encoding="utf-8")
    with pytest.raises(DuplicatePairError):
        load_pairs(bad)
