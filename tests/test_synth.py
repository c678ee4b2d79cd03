import math

import numpy as np
import pytest

from scorefuse.errors import ContractError, UnsupportedOracleError
from scorefuse.metrics import auc, build_curves, cohens_d, eer
from scorefuse.rng import SplitMix64, mix64, normal_cdf, substream_seed
from scorefuse.synth import (
    GaussianScoreModel,
    analytic_auc,
    analytic_cohens_d,
    analytic_eer,
    brute_force_auc,
    brute_force_eer,
    generate_scores,
    make_complementary_matchers,
)
from scorefuse.fusion import apply_fusion
from scorefuse.tables import write_score_table

from helpers import table


def test_splitmix_reference_values():
    # SplitMix64 of seed 0: first outputs of the reference implementation
    stream = SplitMix64(0)
    assert stream.next_word() == 0xE220A8397B1DCDAF
    assert stream.next_word() == 0x6E789E6AA1B965F4
    assert stream.next_word() == 0x06C45D188009454F
    # vectorized path walks the same sequence
    s2 = SplitMix64(0)
    assert s2.words(3).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_uniforms_are_open_unit_and_deterministic():
    u = SplitMix64(123).uniforms(10000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert np.array_equal(u, SplitMix64(123).uniforms(10000))
    assert substream_seed(1, "a", "b") != substream_seed(1, "a", "c")
    assert substream_seed(1, "a") == substream_seed(1, "a")


def test_generate_scores_is_deterministic():
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=50, n_nonmated=70, seed=99)
    t1 = generate_scores(model)
    t2 = generate_scores(model)
    assert t1.scores.tolist() == t2.scores.tolist()
    assert t1.columns.probe_ids.tolist() == t2.columns.probe_ids.tolist()
    other = generate_scores(
        GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=50, n_nonmated=70, seed=100)
    )
    assert t1.scores.tolist() != other.scores.tolist()


def test_generate_scores_counts_flags_and_tags():
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=5, n_nonmated=7, seed=1)
    t = generate_scores(model, matcher_id="mx", id_tag="k:")
    assert t.matcher_id == "mx"
    assert t.n_mated() == 5 and t.n_nonmated() == 7
    assert all(p.startswith("k:") for p in t.columns.probe_ids)
    keys = set(zip(t.columns.probe_ids, t.columns.reference_ids))
    assert len(keys) == 12


def test_generate_scores_clamping():
    model = GaussianScoreModel(
        0.1, 0.3, 0.9, 0.3, n_mated=2000, n_nonmated=2000, seed=3, clamp=True
    )
    t = generate_scores(model)
    assert t.declared_range == (0.0, 1.0)
    assert t.scores.min() == 0.0 and t.scores.max() == 1.0  # clamping visibly active


def test_tiny_sigma_separates_perfectly():
    model = GaussianScoreModel(0.3, 1e-6, 0.6, 1e-6, n_mated=500, n_nonmated=500, seed=4)
    assert auc(build_curves(generate_scores(model))) == 1.0


def test_empirical_moments_match_model():
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=100000, n_nonmated=100000, seed=12)
    t = generate_scores(model)
    mated = t.scores[t.mated_mask]
    non = t.scores[~t.mated_mask]
    assert mated.mean() == pytest.approx(0.6, abs=0.002)
    assert non.mean() == pytest.approx(0.3, abs=0.002)


def test_analytic_auc_values():
    flat = GaussianScoreModel(0.5, 0.1, 0.5, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_auc(flat) == 0.5
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_auc(model) == pytest.approx(0.9830525732376554, abs=1e-10)
    two_sigma = GaussianScoreModel(0.3, 0.1, 0.5, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert two_sigma.mu_mated - two_sigma.mu_nonmated == pytest.approx(0.2)
    assert analytic_auc(two_sigma) == pytest.approx(normal_cdf(math.sqrt(2.0)), abs=1e-12)
    clamped = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=1, n_nonmated=1, seed=0, clamp=True)
    with pytest.raises(UnsupportedOracleError):
        analytic_auc(clamped)


def test_analytic_eer_values():
    flat = GaussianScoreModel(0.5, 0.1, 0.5, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_eer(flat) == 0.5
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_eer(model) == pytest.approx(0.0668072012688581, abs=1e-10)
    two_sigma = GaussianScoreModel(0.3, 0.1, 0.5, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_eer(two_sigma) == pytest.approx(normal_cdf(-1.0), abs=1e-12)
    uneven = GaussianScoreModel(0.3, 0.1, 0.6, 0.2, n_mated=1, n_nonmated=1, seed=0)
    with pytest.raises(UnsupportedOracleError):
        analytic_eer(uneven)


def test_analytic_cohens_d_values():
    flat = GaussianScoreModel(0.5, 0.1, 0.5, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_cohens_d(flat) == 0.0
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_cohens_d(model) == pytest.approx(3.0, abs=1e-12)
    uneven = GaussianScoreModel(0.3, 0.1, 0.6, 0.2, n_mated=1, n_nonmated=1, seed=0)
    assert analytic_cohens_d(uneven) == pytest.approx(0.3 / math.sqrt(0.025), abs=1e-12)


def test_empirical_matches_analytic_at_scale():
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=100000, n_nonmated=100000, seed=42)
    t = generate_scores(model)
    curves = build_curves(t)
    assert abs(auc(curves) - analytic_auc(model)) < 0.005
    assert abs(eer(curves) - analytic_eer(model)) < 0.005
    assert abs(cohens_d(t) - analytic_cohens_d(model)) < 0.05


def test_brute_force_oracle_examples():
    t = table([0.8, 0.6], [0.7, 0.2])
    assert brute_force_auc(t) == pytest.approx(0.75, abs=1e-15)
    tied = table([0.4, 0.4], [0.4, 0.4, 0.4])
    assert brute_force_auc(tied) == 0.5
    with pytest.raises(ContractError):
        brute_force_auc(table([0.5], []))


def test_brute_force_matches_sweep_implementation():
    stream = SplitMix64(404)
    for k in range(100):
        n1 = 1 + stream.next_word() % 150
        n0 = 1 + stream.next_word() % 150
        scores = stream.uniforms(n1 + n0)
        if k % 2 == 0:
            scores = np.round(scores, 1)  # force ties
        t = table(scores[:n1], scores[n1:])
        curves = build_curves(t)
        assert abs(auc(curves) - brute_force_auc(t)) < 1e-12
        assert abs(eer(curves) - brute_force_eer(t)) < 1e-9


def test_complementary_matchers_structure():
    al = make_complementary_matchers(1.0, 200, seed=6)
    assert al.matcher_ids == ("matcher_1", "matcher_2")
    assert len(al) == 400
    assert al.mated_mask.sum() == 200
    assert al.matrix.min() > 0.0 and al.matrix.max() < 1.0
    again = make_complementary_matchers(1.0, 200, seed=6)
    assert np.array_equal(al.matrix, again.matrix)


@pytest.mark.parametrize(
    "separation,n,tol",
    [(0.0, 4000, 0.03), (1.0, 8000, 0.02), (2.0, 8000, 0.02)],
)
def test_complementary_matchers_fusion_gain(separation, n, tol):
    al = make_complementary_matchers(separation, n, seed=13)
    single = auc(build_curves(apply_fusion("avg", al.select(["matcher_1"]))))
    fused = auc(build_curves(apply_fusion("avg", al)))
    assert single == pytest.approx(normal_cdf(separation / math.sqrt(2.0)), abs=tol)
    assert fused == pytest.approx(normal_cdf(separation), abs=tol)
    if separation > 0:
        assert fused > single


def test_generated_table_round_trips_through_csv(tmp_path):
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=20, n_nonmated=20, seed=77, clamp=True)
    t = generate_scores(model)
    path = tmp_path / "synth.csv"
    write_score_table(t, path)
    from scorefuse.tables import load_score_table

    back = load_score_table(path, t.declared_range)
    assert back.scores.tolist() == t.scores.tolist()


@pytest.mark.parametrize("field", ["mu_nonmated", "sigma_nonmated", "mu_mated", "sigma_mated"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_parameters(field, value):
    params = dict(mu_nonmated=0.3, sigma_nonmated=0.1, mu_mated=0.6, sigma_mated=0.1)
    params[field] = value
    with pytest.raises(ContractError, match=f"^{field} must be finite"):
        GaussianScoreModel(**params, n_mated=1, n_nonmated=1, seed=0)
