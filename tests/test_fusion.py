
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from scorefuse.errors import ContractError, ParseError
from scorefuse.fusion import (
    FusionWeights,
    PerceptronHyper,
    apply_fusion,
    estimate_pcc_weights,
    fuse_average,
    fuse_bayesian,
    fuse_weighted,
    fuser_from_dict,
    fuser_to_dict,
    load_fuser,
    load_weights,
    save_fuser,
    train_perceptron,
)
from scorefuse.metrics import auc, build_curves
from scorefuse.provenance import canonical_json
from scorefuse.rng import SplitMix64

from helpers import aligned


def test_average_identities():
    assert fuse_average([0.2, 0.4, 0.6]) == 0.4
    assert fuse_average([0.37]) == 0.37
    assert fuse_average([0.9] * 4) == 0.9
    with pytest.raises(ContractError):
        fuse_average([])


def test_bayesian_identities():
    assert fuse_bayesian([0.5, 0.5]) == 0.5
    # 0.64 / (0.64 + 0.04) = 16/17
    assert fuse_bayesian([0.8, 0.8]) == pytest.approx(0.64 / 0.68, abs=1e-9)
    assert fuse_bayesian([0.9, 0.1]) == pytest.approx(0.5, abs=1e-12)
    assert fuse_bayesian([1.0, 0.0]) == pytest.approx(0.5, abs=1e-6)


def test_bayesian_stays_inside_open_interval_at_any_width():
    for n in (2, 3, 5, 50, 500):
        hi = fuse_bayesian([1.0] * n)
        lo = fuse_bayesian([0.0] * n)
        assert 0.0 < lo < 0.5 < hi < 1.0


def test_perceptron_rolls_back_divergent_step():
    labels = [i % 2 == 0 for i in range(100)]
    val = aligned({"m": [0.99 if f else 0.01 for f in labels]}, labels)
    fuser = train_perceptron(val, PerceptronHyper(max_epochs=50))
    assert fuser.training_log.final_loss <= fuser.training_log.initial_loss


def test_bayesian_sharpens_agreement():
    # unanimity above 1/2 pushes the fused score beyond any input
    for p in (0.6, 0.75, 0.9):
        assert fuse_bayesian([p, p]) > p
    assert fuse_bayesian([0.5, 0.5]) == 0.5
    assert fuse_bayesian([0.7]) == pytest.approx(0.7, abs=1e-12)


def test_weighted_identities():
    w = FusionWeights(("a", "b"), (2.0, 1.0), "manual")
    assert fuse_weighted([0.9, 0.3], w) == 0.7
    selector = FusionWeights(("a", "b"), (1.0, 0.0), "manual")
    assert fuse_weighted([0.9, 0.3], selector) == 0.9
    with pytest.raises(ContractError):
        fuse_weighted([0.9], w)


def test_weighted_uniform_equals_average():
    rng = np.random.default_rng(1)
    uniform = FusionWeights(("a", "b", "c"), (1.0, 1.0, 1.0), "manual")
    for _ in range(100):
        scores = rng.random(3).tolist()
        assert fuse_weighted(scores, uniform) == pytest.approx(
            fuse_average(scores), abs=1e-12
        )


def test_permutation_invariance_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        scores = rng.random(5).tolist()
        perm = rng.permutation(5)
        shuffled = [scores[i] for i in perm]
        assert fuse_average(scores) == fuse_average(shuffled)
        assert fuse_bayesian(scores) == fuse_bayesian(shuffled)
        w = rng.random(5) + 0.1
        fw = FusionWeights(tuple("abcde"), tuple(w.tolist()), "manual")
        fw_p = FusionWeights(tuple("abcde"), tuple(w[perm].tolist()), "manual")
        assert fuse_weighted(scores, fw) == fuse_weighted(shuffled, fw_p)


def test_fusers_are_monotone_in_each_argument():
    rng = np.random.default_rng(3)
    w = FusionWeights(("a", "b", "c"), (0.5, 1.5, 1.0), "manual")
    for _ in range(100):
        scores = rng.uniform(0.05, 0.9, size=3).tolist()
        k = int(rng.integers(0, 3))
        bumped = list(scores)
        bumped[k] += float(rng.uniform(0.001, 0.09))
        assert fuse_average(bumped) > fuse_average(scores)
        assert fuse_weighted(bumped, w) >= fuse_weighted(scores, w)
        assert fuse_bayesian(bumped) > fuse_bayesian(scores)


def test_range_preservation():
    rng = np.random.default_rng(4)
    w = FusionWeights(("a", "b"), (0.3, 0.7), "manual")
    for _ in range(200):
        scores = rng.random(2).tolist()
        assert 0.0 <= fuse_average(scores) <= 1.0
        assert 0.0 < fuse_bayesian(scores) < 1.0
        assert 0.0 <= fuse_weighted(scores, w) <= 1.0


def _informative_and_noise(n=1000, seed=9):
    """Matcher 1 equals the label, matcher 2 is label-independent noise."""
    stream = SplitMix64(seed)
    labels = [i % 2 == 0 for i in range(n)]
    informative = [1.0 if flag else 0.0 for flag in labels]
    noise = stream.uniforms(n).tolist()
    return aligned({"informative": informative, "noise": noise}, labels)


def test_pcc_weights_on_perfect_and_anti_correlated():
    labels = [True, False, True, False]
    perfect = aligned({"good": [1.0, 0.0, 1.0, 0.0]}, labels)
    w = estimate_pcc_weights(perfect)
    assert w.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert w.provenance == "pcc"

    anti = aligned({"bad": [0.0, 1.0, 0.0, 1.0], "good": [1.0, 0.0, 1.0, 0.0]}, labels)
    w = estimate_pcc_weights(anti)
    assert w.weights[0] == 0.0
    assert w.raw_pcc[0] == pytest.approx(-1.0, abs=1e-12)
    assert w.weights[1] == pytest.approx(1.0, abs=1e-12)


def test_pcc_weights_informative_vs_noise():
    val = _informative_and_noise()
    w = estimate_pcc_weights(val)
    assert w.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(w.weights[1]) < 0.1
    assert w.weights[0] > 10 * w.weights[1]
    # fused ranking follows the informative matcher
    fused = apply_fusion(w, val)
    assert auc(build_curves(fused)) == pytest.approx(1.0, abs=1e-9)


def test_pcc_weights_affine_invariance():
    val = _informative_and_noise(n=400, seed=12)
    base = estimate_pcc_weights(val)
    # positive affine rescale of the noise column
    rescaled = aligned(
        {
            "informative": val.matrix[:, 0].tolist(),
            "noise": (0.25 * val.matrix[:, 1] + 0.5).tolist(),
        },
        val.mated_mask.tolist(),
    )
    w2 = estimate_pcc_weights(rescaled)
    assert w2.weights[1] == pytest.approx(base.weights[1], abs=1e-12)
    assert w2.weights[0] == pytest.approx(base.weights[0], abs=1e-12)


def test_pcc_weights_zero_variance_and_fallback():
    labels = [True, False, True, False]
    flat = aligned({"flat": [0.5] * 4, "good": [1.0, 0.0, 1.0, 0.0]}, labels)
    w = estimate_pcc_weights(flat)
    assert w.weights[0] == 0.0
    assert any("zero score variance" in note for note in w.notes)

    only_bad = aligned({"bad": [0.0, 1.0, 0.0, 1.0]}, labels)
    w = estimate_pcc_weights(only_bad)
    assert w.provenance == "uniform"
    assert w.weights == (1.0,)

    single_class = aligned({"m": [0.6, 0.7]}, [True, True])
    with pytest.raises(ContractError, match="both classes"):
        estimate_pcc_weights(single_class)


def test_perceptron_prefers_informative_matcher():
    val = _informative_and_noise(n=2000, seed=21)
    fuser = train_perceptron(val)
    log = fuser.training_log
    assert log.final_loss <= log.initial_loss
    assert abs(fuser.coefficients[0]) > abs(fuser.coefficients[1])
    held_out = _informative_and_noise(n=1000, seed=22)
    fused = apply_fusion(fuser, held_out)
    single_auc = auc(build_curves(apply_fusion("avg", held_out.select(["informative"]))))
    assert auc(build_curves(fused)) >= single_auc - 0.005


def test_perceptron_separable_single_matcher():
    labels = [i % 2 == 0 for i in range(200)]
    val = aligned({"m": [1.0 if f else 0.0 for f in labels]}, labels)
    fuser = train_perceptron(val)
    preds = fuser.predict(val.matrix)
    assert np.all(preds[val.mated_mask] >= 0.5)
    assert np.all(preds[~val.mated_mask] < 0.5)


def test_perceptron_flipped_labels_gives_negative_coefficient():
    labels = [i % 2 == 0 for i in range(200)]
    flipped = aligned({"m": [0.0 if f else 1.0 for f in labels]}, labels)
    fuser = train_perceptron(flipped)
    assert fuser.coefficients[0] < 0


def test_perceptron_scaled_parameters_keep_ranking():
    from scorefuse.fusion import PerceptronFuser, TrainingLog

    val = _informative_and_noise(n=500, seed=30)
    fuser = train_perceptron(val)
    scaled = PerceptronFuser(
        fuser.matcher_ids,
        tuple(3.0 * c for c in fuser.coefficients),
        3.0 * fuser.bias,
        fuser.training_log,
    )
    a = apply_fusion(fuser, val).scores
    b = apply_fusion(scaled, val).scores
    assert list(np.argsort(a, kind="stable")) == list(np.argsort(b, kind="stable"))
    assert isinstance(fuser.training_log, TrainingLog)


def test_perceptron_single_class_rejected():
    with pytest.raises(ContractError, match="both classes"):
        train_perceptron(aligned({"m": [0.2, 0.3]}, [False, False]))


def test_apply_fusion_identities():
    labels = [True, False, True, False]
    one = aligned({"m": [0.9, 0.1, 0.8, 0.2]}, labels)
    out = apply_fusion("avg", one)
    np.testing.assert_array_equal(out.scores, one.matrix[:, 0])

    two_same = aligned({"a": [0.5] * 4, "b": [0.5] * 4}, labels)
    np.testing.assert_array_equal(apply_fusion("bayes", two_same).scores, [0.5] * 4)

    both = aligned({"a": [0.9, 0.1, 0.8, 0.2], "b": [0.7, 0.3, 0.6, 0.4]}, labels)
    uniform = FusionWeights(("a", "b"), (1.0, 1.0), "manual")
    np.testing.assert_allclose(
        apply_fusion(uniform, both).scores,
        apply_fusion("avg", both).scores,
        atol=1e-12,
    )

    wrong = FusionWeights(("x", "y"), (1.0, 1.0), "manual")
    with pytest.raises(ContractError, match="match"):
        apply_fusion(wrong, both)
    with pytest.raises(ContractError, match="unknown fusion"):
        apply_fusion("median", both)


def test_apply_fusion_method_ids_and_row_order():
    labels = [True, False]
    both = aligned({"a": [0.9, 0.1], "b": [0.7, 0.3]}, labels)
    assert apply_fusion("avg", both).matcher_id == "avg"
    assert apply_fusion("bayes", both).matcher_id == "bayes"
    manual = FusionWeights(("a", "b"), (1.0, 2.0), "manual")
    assert apply_fusion(manual, both).matcher_id == "weighted"
    pcc_w = estimate_pcc_weights(both)
    assert apply_fusion(pcc_w, both).matcher_id == "pcc_avg"
    fuser = train_perceptron(both, PerceptronHyper(max_epochs=50))
    fused = apply_fusion(fuser, both)
    assert fused.matcher_id == "perceptron"
    assert fused.columns.probe_ids.tolist() == both.columns.probe_ids.tolist()
    assert np.all((fused.scores > 0.0) & (fused.scores < 1.0))


def test_weights_validation():
    with pytest.raises(ContractError):
        FusionWeights(("a",), (0.0,), "manual")  # zero sum
    with pytest.raises(ContractError):
        FusionWeights(("a", "b"), (1.0,), "manual")
    with pytest.raises(ContractError):
        FusionWeights(("a",), (-0.5,), "manual")
    with pytest.raises(ContractError):
        FusionWeights(("a",), (1.0,), "guess")


def test_fuser_round_trip_via_json(tmp_path):
    val = _informative_and_noise(n=200, seed=40)
    for fuser in (estimate_pcc_weights(val), train_perceptron(val, PerceptronHyper(max_epochs=200))):
        path = tmp_path / "fuser.json"
        save_fuser(fuser, path)
        loaded = load_fuser(path)
        assert loaded == fuser
        assert fuser_from_dict(fuser_to_dict(fuser)) == fuser
    with pytest.raises(ParseError):
        fuser_from_dict({"kind": "mystery"})


@pytest.mark.parametrize(
    "edit, words",
    [
        (lambda doc: doc.update(bias="0.5"), "'bias' must be a finite number, got '0.5'"),
        (lambda doc: doc.update(coefficients=[1.0, True]), "coefficients entry True must be a finite number"),
        (lambda doc: doc["training_log"].update(epochs_run=2.5), "'training_log': 'epochs_run' must be an integer"),
        (lambda doc: doc["training_log"].pop("final_loss"), "missing key 'final_loss'"),
        (lambda doc: doc.update(training_log=[]), "'training_log' must be an object, got []"),
        (lambda doc: doc.update(bias=float("nan")), "finite number, got nan"),
    ],
)
def test_perceptron_documents_refuse_mistyped_fields(edit, words):
    doc = fuser_to_dict(train_perceptron(_informative_and_noise(n=200, seed=40), PerceptronHyper(max_epochs=20)))
    doc = json.loads(json.dumps(doc))
    edit(doc)
    with pytest.raises(ParseError, match=re.escape(words)):
        fuser_from_dict(doc)


def test_perceptron_documents_read_integral_numbers_as_integers():
    """As the grid config's integers do, ``epochs_run`` may be written 2.0."""
    fuser = train_perceptron(_informative_and_noise(n=200, seed=40), PerceptronHyper(max_epochs=20))
    doc = fuser_to_dict(fuser)
    doc["training_log"]["epochs_run"] = float(doc["training_log"]["epochs_run"])
    assert fuser_from_dict(doc) == fuser


def test_perceptron_documents_with_a_training_log_seed_still_load():
    fuser = train_perceptron(_informative_and_noise(n=200, seed=40), PerceptronHyper(max_epochs=20))
    doc = fuser_to_dict(fuser)
    assert "seed" not in doc["training_log"]
    doc["training_log"]["seed"] = 0  # as earlier versions wrote it
    assert fuser_from_dict(doc) == fuser


def test_fuser_documents_hold_the_dataclass_fields_as_canonical_json(tmp_path):
    val = _informative_and_noise(n=200, seed=40)
    perceptron = train_perceptron(val, PerceptronHyper(max_epochs=200))
    for fuser in (estimate_pcc_weights(val), perceptron):
        assert set(fuser_to_dict(fuser)) == {"kind", *(f.name for f in fields(fuser))}
    assert set(fuser_to_dict(perceptron)["training_log"]) == {f.name for f in fields(perceptron.training_log)}

    weights = FusionWeights(("café", "b"), (2.0, 1.0), "manual")
    path = tmp_path / "w.json"
    save_fuser(weights, path)
    assert path.read_text(encoding="utf-8") == canonical_json(fuser_to_dict(weights))
    # the ASCII-escaped form that earlier versions wrote still loads
    path.write_text(json.dumps(fuser_to_dict(weights), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert "caf\\u00e9" in path.read_text(encoding="utf-8")
    assert load_weights(path, ("café", "b")) == weights

    save_fuser(perceptron, path)
    with pytest.raises(ParseError, match="does not contain weights"):
        load_weights(path, perceptron.matcher_ids)
