"""Each fusion rule against an independent oracle, and the invariances its
one implementation guarantees: ``avg`` and ``weighted`` bit-equal to exact
rational arithmetic, ``bayes`` within 1e-13 of a sorted ``math.fsum``, no
bit changed by a column permutation or the matrix's memory layout, and
``fuse`` giving the bits of the matching grid cell."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import scorefuse.protocol
from scorefuse.cli import main
from scorefuse.fusion import (
    DEFAULT_CLAMP_EPSILON,
    FusionWeights,
    PerceptronFuser,
    TrainingLog,
    apply_fusion,
    estimate_pcc_weights,
    fuse_average,
    fuse_bayesian,
    fuse_weighted,
    save_fuser,
    train_perceptron,
)
from scorefuse.kinds import FITTED_KINDS
from scorefuse.tables import AlignedScores, load_score_table

from helpers import columns, pair

WIDTHS = (1, 2, 3, 4, 5, 8)


def fraction_means(rows, weights) -> list[float]:
    """Each row's sum(w * s) / sum(w) in exact rational arithmetic, rounded once."""
    exact = [Fraction(w) for w in weights]
    total = sum(exact, Fraction(0))
    return [float(sum((w * Fraction(s) for w, s in zip(exact, row)), Fraction(0)) / total) for row in rows]


def fsum_bayes(row) -> float:
    """Sigmoid of the correctly rounded sum of the clamped scores' log-odds."""
    eps = DEFAULT_CLAMP_EPSILON
    clamped = sorted(min(1.0 - eps, max(eps, s)) for s in row)
    z = math.fsum(math.log(s) - math.log(1.0 - s) for s in clamped)
    value = 1.0 / (1.0 + math.exp(-z))
    return min(max(value, 2.2250738585072014e-308), 1.0 - 2.0**-53)


def score_rows(n: int, k: int, rng) -> np.ndarray:
    """``n`` rows of ``k`` scores in [0, 1], a quarter each: uniform;
    neighbours of one value, whose means sit on or next to rounding ties;
    magnitudes down to 1e-30; multiples of 1/20."""
    q = n // 4
    base = rng.random((q, 1))
    parts = [
        rng.random((q, k)),
        np.clip(base + rng.integers(-3, 4, (q, k)) * np.spacing(base), 0.0, 1.0),
        rng.random((q, k)) * 10.0 ** rng.integers(-30, 1, (q, k)),
        rng.integers(0, 21, (n - 3 * q, k)) / 20.0,
    ]
    return np.concatenate(parts)


def aligned_matrix(matrix, ids=None) -> AlignedScores:
    n, k = matrix.shape
    ids = ids or tuple(f"m{j}" for j in range(k))
    return AlignedScores(ids, columns(pair(i, i % 2 == 0) for i in range(n)), matrix)


def check_rules_against_oracles(rows_per_width: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for k in WIDTHS:
        mat = score_rows(rows_per_width, k, rng)
        test = aligned_matrix(mat)
        rows = mat.tolist()

        got = apply_fusion("avg", test).scores
        expected = fraction_means(rows, [1.0] * k)
        assert np.array_equal(got, expected), f"avg, {k} matchers"

        half = len(rows) // 2
        for lo, hi, weights in (
            (0, half, rng.random(k) + 0.01),
            (half, len(rows), rng.integers(1, 5, k).astype(float)),
        ):
            fw = FusionWeights(test.matcher_ids, tuple(weights.tolist()), "manual")
            got = apply_fusion(fw, aligned_matrix(mat[lo:hi])).scores
            expected = fraction_means(rows[lo:hi], fw.weights)
            assert np.array_equal(got, expected), f"weighted {fw.weights}"

        got = apply_fusion("bayes", test).scores
        expected = np.array([fsum_bayes(row) for row in rows])
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0, err_msg=f"bayes, {k} matchers")


def test_rules_match_their_oracles():
    check_rules_against_oracles(rows_per_width=3_400, seed=0)


@pytest.mark.slow
def test_rules_match_their_oracles_on_a_million_rows():
    check_rules_against_oracles(rows_per_width=200_000, seed=1)


def test_scalar_fusers_are_one_row_of_the_kernels():
    rng = np.random.default_rng(5)
    for k in WIDTHS:
        mat = score_rows(400, k, rng)
        test = aligned_matrix(mat)
        fw = FusionWeights(test.matcher_ids, tuple((rng.random(k) + 0.1).tolist()), "manual")
        rows = mat.tolist()
        assert apply_fusion("avg", test).scores.tolist() == [fuse_average(r) for r in rows]
        assert apply_fusion("bayes", test).scores.tolist() == [fuse_bayesian(r) for r in rows]
        assert apply_fusion(fw, test).scores.tolist() == [fuse_weighted(r, fw) for r in rows]


def _fusers(test: AlignedScores) -> dict:
    ids = test.matcher_ids
    k = len(ids)
    return {
        "avg": "avg",
        "bayes": "bayes",
        "weighted": FusionWeights(ids, tuple(np.linspace(0.5, 2.0, k).tolist()), "manual"),
        "pcc_avg": estimate_pcc_weights(test),
        "perceptron": PerceptronFuser(
            ids, tuple(np.linspace(-3.0, 4.0, k).tolist()), -0.7, TrainingLog(1.0, 1.0, 1)
        ),
    }


def _permuted(fuser, perm):
    if isinstance(fuser, str):
        return fuser
    ids = tuple(fuser.matcher_ids[j] for j in perm)
    if isinstance(fuser, FusionWeights):
        return FusionWeights(ids, tuple(fuser.weights[j] for j in perm), fuser.provenance)
    coefficients = tuple(fuser.coefficients[j] for j in perm)
    return PerceptronFuser(ids, coefficients, fuser.bias, fuser.training_log)


def test_column_order_and_memory_layout_change_no_bit():
    rng = np.random.default_rng(7)
    mat = rng.random((3_000, 8))
    test = aligned_matrix(mat)
    fortran = aligned_matrix(np.asfortranarray(mat))
    perm = rng.permutation(8)
    permuted = aligned_matrix(mat[:, perm], tuple(test.matcher_ids[j] for j in perm))
    for name, fuser in _fusers(test).items():
        expected = apply_fusion(fuser, test).scores
        assert np.array_equal(apply_fusion(fuser, fortran).scores, expected), f"{name}: layout"
        assert np.array_equal(apply_fusion(_permuted(fuser, perm), permuted).scores, expected), name
    # a fit sees the same bits whatever layout its matrix arrived in
    assert train_perceptron(fortran) == train_perceptron(test)
    assert estimate_pcc_weights(fortran) == estimate_pcc_weights(test)


def test_fuse_gives_the_bits_of_the_matching_grid_cell(tmp_path, monkeypatch):
    demo = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo), "--seed", "1"]) == 0
    config = json.loads((demo / "config.json").read_text(encoding="utf-8"))
    matchers = ["m1", "m2", "m3", "m4"]
    weights = FusionWeights(tuple(matchers), (0.4, 0.3, 0.2, 0.1), "manual")
    save_fuser(weights, demo / "weights.json")
    config["settings"] = config["settings"][:1]
    setting = config["settings"][0]
    config["methods"] = [m for m in config["methods"] if m["kind"] != "single"]
    config["methods"].append(
        {"method_id": "weighted", "kind": "weighted", "matchers": matchers, "weights_file": "weights.json"}
    )
    (demo / "one.json").write_text(json.dumps(config), encoding="utf-8")

    cells = {}
    evaluate = scorefuse.protocol.evaluate_table

    def capture(table):
        cells[table.matcher_id] = table.scores
        return evaluate(table)

    monkeypatch.setattr(scorefuse.protocol, "evaluate_table", capture)
    assert main(["grid", "--config", str(demo / "one.json")]) == 0
    monkeypatch.undo()

    key = f"{setting['dataset_id']}-{setting['camera_id']}-{setting['distance_m']:g}"

    def files(split):
        return [str(demo / "scores" / f"{m}__{key}__{split}.csv") for m in matchers]

    for method in ("avg", "bayes", "pcc_avg", "weighted", "perceptron"):
        out = tmp_path / method
        argv = ["fuse", "--method", method, "--inputs", *files("test"), "--out-dir", str(out)]
        if method in FITTED_KINDS:  # --validation is a usage error with any other method
            argv += ["--validation", *files("validation")]
        if method == "weighted":
            argv += ["--weights-file", str(demo / "weights.json")]
        if method == "perceptron":  # --max-epochs is a usage error with any other method
            argv += ["--max-epochs", "2000"]
        assert main(argv) == 0
        fused = load_score_table(out / f"fused_{method}.csv", (0.0, 1.0)).scores
        assert np.array_equal(fused, cells[method]), method
        result = json.loads(
            (demo / "results" / f"result__intra__{key}__{key}__{method}.json").read_text(encoding="utf-8")
        )
        if result["fitted"] is not None:
            doc = json.loads((out / f"fuser_{method}.json").read_text(encoding="utf-8"))
            assert {k: doc[k] for k in result["fitted"]} == result["fitted"], method
