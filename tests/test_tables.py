import math

import numpy as np
import pytest

from scorefuse.errors import (
    AlignmentError,
    ConsistencyError,
    ContractError,
    DuplicatePairError,
    ParseError,
    RangeViolationError,
)
from scorefuse.fusion import FusionWeights, PerceptronFuser, PerceptronHyper, TrainingLog
from scorefuse.synth import GaussianScoreModel
from scorefuse.tables import (
    ScoreTable,
    SettingDescriptor,
    align_tables,
    load_pairs,
    load_score_table,
    normalize_scores,
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
    # mated is derived from the subjects, so a row's flag cannot disagree
    assert columns([("p", "r", "s1", "s2", True, SETTING)]).mated.tolist() == [False]


HUGE = 10**400  # an integer beyond the float range, where math.isfinite raises OverflowError


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ScoreTable("m", (0.0, HUGE), columns([pair(0, True)]), [0.5]), "invalid declared_range"),
        (lambda: FusionWeights(("a",), (HUGE,), "manual"), "weights must be finite"),
        (lambda: PerceptronFuser(("a",), (1.0,), HUGE, TrainingLog(1.0, 1.0, 1)), "parameters must be finite"),
        (lambda: PerceptronHyper(tolerance=HUGE), "tolerance must be a finite number"),
        (lambda: GaussianScoreModel(0.2, HUGE, 0.8, 0.1, 1, 1, 1), "sigma_nonmated must be finite"),
        (lambda: SettingDescriptor("c", math.inf, "d"), "distance_m must be finite, got inf"),
        # a non-number is refused by the same ContractError, not a TypeError
        (lambda: SettingDescriptor("c", "1", "d"), "distance_m must be a number, got '1'"),
        (lambda: FusionWeights(("a",), ("1",), "manual"), "weights must be finite"),
        (lambda: GaussianScoreModel(0.2, "0.1", 0.8, 0.1, 1, 1, 1), "sigma_nonmated must be finite"),
        (lambda: GaussianScoreModel(0.2, 0.1, 0.8, 0.1, "1", 1, 1), "class sizes must be integers"),
        (lambda: PerceptronFuser(("a",), ("1",), 0.0, TrainingLog(1.0, 1.0, 1)), "parameters must be finite"),
    ],
    ids=["score-table-range", "fusion-weights", "perceptron-bias", "hyper-tolerance", "gaussian-sigma",
         "setting-distance", "setting-distance-text", "fusion-weights-text", "gaussian-sigma-text",
         "gaussian-size-text", "perceptron-coefficient-text"],
)
def test_constructors_refuse_numbers_not_finite_as_floats(build, message):
    with pytest.raises(ContractError, match=message):
        build()


def test_normalize_cosine_endpoints():
    t = table([-1.0], [0.0], declared=(-1.0, 1.0))
    out = normalize_scores(t)
    assert out.declared_range == (0.0, 1.0)
    assert out.scores.tolist() == [0.0, 0.5]


def test_normalize_identity_cases():
    t = table([0.7], [0.2])
    assert normalize_scores(t).scores[0] == pytest.approx(0.7, abs=1e-15)


def test_normalize_preserves_order():
    rng = np.random.default_rng(3)
    scores = np.sort(rng.uniform(-1.0, 1.0, size=200))
    t = table(scores[:100], scores[100:], declared=(-1.0, 1.0))
    out = normalize_scores(t)
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
    with pytest.raises(ConsistencyError, match="conflicting subjects"):  # ground truth is subject equality
        align_tables([t1, t2])


def test_align_requires_unit_range():
    t1 = table([0.9], [0.1], matcher_id="a", declared=(0.0, 2.0))
    with pytest.raises(ContractError, match="normalize"):
        align_tables([t1])


def test_aligned_select_and_column():
    al = aligned({"a": [0.1, 0.9], "b": [0.2, 0.8]}, [False, True])
    sub = al.select(["b"])
    assert sub.matcher_ids == ("b",)
    np.testing.assert_array_equal(sub.matrix[:, 0], al.matrix[:, al.matcher_ids.index("b")])
    with pytest.raises(ContractError):
        al.select(["missing"])


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
