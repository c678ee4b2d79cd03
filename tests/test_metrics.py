
from fractions import Fraction as F

import numpy as np
import pytest

from scorefuse.errors import ContractError, UndefinedEffectError
from scorefuse.metrics import (
    auc,
    build_curves,
    class_scores,
    cohens_d,
    correlation_matrix,
    curves_csv_text,
    curves_from_scores,
    eer,
    evaluate_table,
    format_report,
    pcc,
    rate_at_operating_point,
    roc_csv_text,
)
from scorefuse.rng import SplitMix64
from scorefuse.synth import brute_force_auc, brute_force_eer
from scorefuse.tables import ScoreTable

from helpers import aligned, table


def rates_by_counting(mated, nonmated, t):
    """Definitional FMR/FNMR at a single threshold."""
    fmr = sum(1 for s in nonmated if s >= t) / len(nonmated)
    fnmr = sum(1 for s in mated if s < t) / len(mated)
    return fmr, fnmr


def random_table(stream: SplitMix64, max_per_class=250, tie_prone=False):
    n1 = 1 + stream.next_word() % max_per_class
    n0 = 1 + stream.next_word() % max_per_class
    scores = stream.uniforms(n1 + n0)
    if tie_prone:
        scores = np.round(scores, 2)  # heavy ties
    return table(scores[:n1], scores[n1:])


def test_curves_separated_pair():
    t = table([0.9], [0.1])
    curves = build_curves(t)
    # definitional check at an off-grid threshold
    assert rates_by_counting([0.9], [0.1], 0.5) == (0.0, 0.0)
    assert curves.n_mated == 1 and curves.n_nonmated == 1
    assert auc(curves) == 1.0
    assert eer(curves) == 0.0


def test_curves_degenerate_identical_scores():
    t = table([0.7, 0.7], [0.7, 0.7])
    curves = build_curves(t)
    # rates jump jointly at the single distinct score
    assert set(np.unique(curves.fmr)) <= {0.0, 1.0}
    assert set(np.unique(curves.fnmr)) <= {0.0, 1.0}
    jumps_fmr = np.flatnonzero(np.diff(curves.fmr) != 0)
    jumps_fnmr = np.flatnonzero(np.diff(curves.fnmr) != 0)
    assert list(jumps_fmr) == list(jumps_fnmr)
    assert auc(curves) == 0.5
    assert eer(curves) == 0.5


def test_curves_hand_derived_four_scores():
    mated, nonmated = [0.8, 0.6], [0.7, 0.2]
    t = table(mated, nonmated)
    curves = build_curves(t)
    assert rates_by_counting(mated, nonmated, 0.65) == (0.5, 0.5)
    # 3 of the 4 cross-pairs are correctly ordered
    assert auc(curves) == pytest.approx(0.75, abs=1e-15)
    assert brute_force_auc(t) == pytest.approx(0.75, abs=1e-15)
    # FMR == FNMR == 0.5 exactly at threshold 0.7, so the interpolated EER
    # reports that common value (the sweep oracle below agrees)
    assert eer(curves) == pytest.approx(0.5, abs=1e-12)
    assert brute_force_eer(t) == pytest.approx(eer(curves), abs=1e-12)


def test_curve_invariants_hold_on_random_tables():
    stream = SplitMix64(101)
    for k in range(60):
        t = random_table(stream, tie_prone=(k % 2 == 0))
        curves = build_curves(t)
        assert np.all(np.diff(curves.thresholds) > 0)
        assert np.all(np.diff(curves.fmr) <= 0)
        assert np.all(np.diff(curves.fnmr) >= 0)
        assert (curves.fmr[0], curves.fnmr[0]) == (1.0, 0.0)
        assert (curves.fmr[-1], curves.fnmr[-1]) == (0.0, 1.0)
        # the distinct scores are np.unique's, bit for bit
        distinct = np.unique(np.concatenate([np.sort(s) for s in class_scores(t)]))
        assert curves.thresholds[1:-1].tobytes() == distinct.tobytes()


@pytest.mark.parametrize(
    "mated, nonmated",
    [
        ([0.7], [0.7]),  # one distinct score
        ([0.7, 0.7, 0.7], [0.7, 0.7]),
        ([0.9, 0.5, 0.5, 0.1], [0.5, 0.3, 0.3, 0.9]),  # ties within and across classes
        ([0.0, 0.5], [-0.0, 0.25]),  # -0.0 beside 0.0, in both orders
        ([-0.0, 0.5], [0.0, 0.25]),
        ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]),
    ],
)
def test_curve_thresholds_are_np_unique_bit_for_bit(mated, nonmated):
    curves = curves_from_scores(np.array(mated), np.array(nonmated))
    scores = np.unique(np.concatenate([np.sort(mated), np.sort(nonmated)]))
    expected = np.concatenate([[scores[0] - 1.0], scores, [scores[-1] + 1.0]])
    assert curves.thresholds.tobytes() == expected.tobytes()


def test_single_class_table_rejected():
    t = table([0.5, 0.6], [])
    with pytest.raises(ContractError):
        build_curves(t)


def test_auc_chance_level_and_tie_credit():
    scores = [0.1, 0.4, 0.4, 0.9]
    t = table(scores, list(scores))  # both classes share the multiset
    curves = build_curves(t)
    assert auc(curves) == 0.5
    assert eer(curves) == pytest.approx(0.5, abs=1e-12)
    tied = table([0.3, 0.3], [0.3, 0.3, 0.3])
    assert auc(build_curves(tied)) == 0.5


def test_auc_equals_brute_force_on_random_tables():
    stream = SplitMix64(77)
    for k in range(100):
        t = random_table(stream, max_per_class=120, tie_prone=(k % 3 == 0))
        curves = build_curves(t)
        assert abs(auc(curves) - brute_force_auc(t)) < 1e-12
        assert abs(eer(curves) - brute_force_eer(t)) < 1e-9


def test_eer_bracketing_under_interpolation():
    stream = SplitMix64(55)
    for _ in range(50):
        t = random_table(stream, max_per_class=80)
        curves = build_curves(t)
        value = eer(curves)
        d = curves.fmr - curves.fnmr
        zeros = np.flatnonzero(d == 0.0)
        if len(zeros):
            assert value == curves.fmr[zeros[0]]
            continue
        i = int(np.flatnonzero((d[:-1] > 0) & (d[1:] < 0))[0])
        alpha = d[i] / (d[i] - d[i + 1])
        fmr_star = curves.fmr[i] + alpha * (curves.fmr[i + 1] - curves.fmr[i])
        fnmr_star = curves.fnmr[i] + alpha * (curves.fnmr[i + 1] - curves.fnmr[i])
        assert abs(fmr_star - fnmr_star) < 1e-9
        assert value == pytest.approx(fmr_star, abs=1e-12)


def test_operating_points_separated_and_chance():
    separated = build_curves(table([0.9, 0.95], [0.1, 0.2]))
    assert rate_at_operating_point(separated, fmr=0.01) == 0.0
    assert rate_at_operating_point(separated, fnmr=0.01) == 0.0

    scores = SplitMix64(8).uniforms(2000).tolist()
    chance = build_curves(table(scores, list(scores)))
    assert rate_at_operating_point(chance, fmr=0.01) == pytest.approx(0.99, abs=1e-9)
    assert rate_at_operating_point(chance, fnmr=0.01) == pytest.approx(0.99, abs=1e-9)

    with pytest.raises(ContractError):
        rate_at_operating_point(chance, fmr=0.01, fnmr=0.01)
    with pytest.raises(ContractError):
        rate_at_operating_point(chance)
    with pytest.raises(ContractError):
        rate_at_operating_point(chance, fmr=1.5)


# two exact sweeps (dyadic rates, so no rounding): threshold -> (FMR, FNMR)
# eight per class: 4 -> (5/8, 1/8), 5 -> (1/2, 1/4), 6 -> (3/8, 3/8), 7 -> (1/4, 1/2)
EIGHT = ([2, 4, 5, 6, 7, 8, 9, 10], [0, 1, 3, 4, 5, 6, 7, 11])
# four per class: 3 -> (1/2, 1/4), 4 -> (1/2, 1/2), 5 -> (1/2, 3/4), 6 -> (1/4, 3/4)
FOUR = ([1, 3, 4, 6], [0, 2, 5, 7])


@pytest.mark.parametrize(
    "scores, pinned, q, expected",
    [
        # FMR hits q at a sweep point: the first such point's FNMR
        (EIGHT, "fmr", 0.25, F(1, 2)),
        (EIGHT, "fmr", 0.5, F(1, 4)),
        (FOUR, "fmr", 0.5, F(1, 4)),
        (FOUR, "fmr", 0.25, F(3, 4)),
        # six mated: the FNMR step 1/3 -> 5/6 into the hit does not add back to
        # the nearest double of 5/6, so the hit must return the point's rate
        (([2, 3, 5, 5, 5, 8], [2, 5, 5, 11]), "fmr", 0.25, float(F(5, 6))),
        # FNMR hits q at a sweep point: the last such point's FMR
        (EIGHT, "fnmr", 0.25, F(1, 2)),
        (EIGHT, "fnmr", 0.5, F(1, 4)),
        (FOUR, "fnmr", 0.25, F(1, 2)),
        (FOUR, "fnmr", 0.5, F(1, 2)),
        # FMR equals FNMR at a sweep point: the EER is that common value
        (EIGHT, "eer", 0.0, F(3, 8)),
        (FOUR, "eer", 0.0, F(1, 2)),
        # no hit: halfway from FNMR 1/8 (threshold 4) to 1/4 (threshold 5)
        (EIGHT, "fnmr", 0.1875, F(9, 16)),
    ],
)
def test_read_off_exact_hits(scores, pinned, q, expected):
    curves = curves_from_scores(*(np.array(s, dtype=np.float64) for s in scores))
    value = eer(curves) if pinned == "eer" else rate_at_operating_point(curves, **{pinned: q})
    assert value == expected


def test_operating_point_matches_gaussian_closed_form():
    from scorefuse.synth import (
        GaussianScoreModel,
        analytic_fmr_at_fnmr,
        analytic_fnmr_at_fmr,
        generate_scores,
    )

    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=50000, n_nonmated=50000, seed=5)
    curves = build_curves(generate_scores(model))
    assert rate_at_operating_point(curves, fmr=0.01) == pytest.approx(
        analytic_fnmr_at_fmr(model, 0.01), abs=0.01
    )
    assert rate_at_operating_point(curves, fnmr=0.01) == pytest.approx(
        analytic_fmr_at_fnmr(model, 0.01), abs=0.01
    )


def _with_exact_moments(mean: float, sd: float, n: int, seed: int) -> np.ndarray:
    raw = SplitMix64(seed).normals(n)
    raw = (raw - raw.mean()) / raw.std(ddof=1)
    return mean + sd * raw


def test_cohens_d_exact_constructions():
    same = table([0.4, 0.5, 0.6], [0.4, 0.5, 0.6])
    assert cohens_d(same) == 0.0

    mated = _with_exact_moments(1.0, 1.0, 40, seed=1)
    non = _with_exact_moments(0.0, 1.0, 40, seed=2)
    t = table(mated, non, declared=(-10.0, 10.0))
    assert cohens_d(t) == pytest.approx(1.0, abs=1e-9)

    mated = _with_exact_moments(0.6, 0.1, 50, seed=3)
    non = _with_exact_moments(0.3, 0.1, 50, seed=4)
    t = table(mated, non, declared=(-10.0, 10.0))
    assert cohens_d(t) == pytest.approx(3.0, abs=1e-9)


def test_cohens_d_errors():
    with pytest.raises(ContractError):
        cohens_d(table([0.5], [0.1, 0.2]))
    with pytest.raises(UndefinedEffectError):
        cohens_d(table([0.5, 0.5], [0.5, 0.5]))


def test_pcc_known_values():
    a = [1.0, 2.0, 3.0, 4.0]
    assert pcc(a, [2 * x + 1 for x in a]) == pytest.approx(1.0, abs=1e-12)
    assert pcc(a, [-x for x in a]) == pytest.approx(-1.0, abs=1e-12)
    assert pcc(a, [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ContractError):
        pcc([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ContractError):
        pcc([1.0], [1.0])


def test_correlation_matrix_basics():
    al = aligned({"a": [0.1, 0.5, 0.9], "b": [0.1, 0.5, 0.9]}, [True, False, True])
    m = correlation_matrix(al)
    assert m.values[0][1] == pytest.approx(1.0, abs=1e-12)
    assert m.values[0][0] == 1.0 and m.values[1][1] == 1.0

    single = aligned({"a": [0.1, 0.9]}, [False, True])
    assert correlation_matrix(single).values == ((1.0,),)

    flat = aligned({"a": [0.5, 0.5], "b": [0.1, 0.9]}, [False, True])
    with pytest.raises(ContractError, match="'a'"):
        correlation_matrix(flat)


def test_correlation_matrix_independent_columns_and_affine_invariance():
    stream = SplitMix64(909)
    n = 10000
    cols = {"a": stream.uniforms(n).tolist(), "b": stream.uniforms(n).tolist()}
    flags = [i % 2 == 0 for i in range(n)]
    m = correlation_matrix(aligned(cols, flags))
    assert abs(m.values[0][1]) < 0.05

    shifted = {"a": cols["a"], "b": (0.5 * np.asarray(cols["b"]) + 0.2).tolist()}
    m2 = correlation_matrix(aligned(shifted, flags))
    assert m2.values[0][1] == pytest.approx(m.values[0][1], abs=1e-12)
    assert m.values[0][1] == m.values[1][0]


def test_rank_metrics_invariant_under_increasing_transform():
    stream = SplitMix64(31)
    for _ in range(20):
        t = random_table(stream, max_per_class=100)
        curves = build_curves(t)
        baseline = (
            auc(curves),
            eer(curves),
            rate_at_operating_point(curves, fmr=0.01),
            rate_at_operating_point(curves, fnmr=0.01),
        )
        a = 0.5 + 2.0 * stream.uniforms(1)[0]
        b = 0.5 + stream.uniforms(1)[0]
        scores = t.scores
        transformed = a * scores**3 + b * scores  # strictly increasing on [0, 1]
        t2 = ScoreTable(
            "t",
            (0.0, float(transformed.max()) + 1.0),
            t.columns,
            transformed,
        )
        curves2 = build_curves(t2)
        transformed_metrics = (
            auc(curves2),
            eer(curves2),
            rate_at_operating_point(curves2, fmr=0.01),
            rate_at_operating_point(curves2, fnmr=0.01),
        )
        for x, y in zip(baseline, transformed_metrics):
            assert abs(x - y) < 1e-12


def test_evaluate_table_and_formatting():
    t = table([0.9, 0.8, 0.7], [0.2, 0.1, 0.3])
    report = evaluate_table(t)
    assert report.auc_pct == 100.0
    assert report.eer_pct == 0.0
    assert report.n_mated == 3 and report.n_nonmated == 3
    text = format_report(report, precision=2)
    assert "AUC [%]          100.00" in text
    assert "EER [%]          0.00" in text
    text1 = format_report(report, precision=1)
    assert "100.0" in text1


def test_curve_csv_exports():
    curves = curves_from_scores(np.array([0.9]), np.array([0.1]))
    assert curves_csv_text(curves) == (
        "threshold,fmr,fnmr\n"
        "-0.9,1.0,0.0\n"
        "0.1,1.0,0.0\n"
        "0.9,0.0,0.0\n"
        "1.9,0.0,1.0\n"
    )
    assert roc_csv_text(curves) == (
        "fmr,one_minus_fnmr\n"
        "0.0,0.0\n"
        "0.0,1.0\n"
        "1.0,1.0\n"
        "1.0,1.0\n"
    )
