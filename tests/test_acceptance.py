"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest

from scorefuse.cli import main
from scorefuse.errors import LeakageError
from scorefuse.fusion import (
    FusionWeights,
    apply_fusion,
    estimate_pcc_weights,
    fuse_average,
    fuse_bayesian,
    fuse_weighted,
    train_perceptron,
)
from scorefuse.metrics import (
    auc,
    build_curves,
    cohens_d,
    eer,
    rate_at_operating_point,
)
from scorefuse.protocol import MethodSpec, PlanItem, plan_experiments, run_experiment
from scorefuse.rng import SplitMix64, normal_cdf
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
from scorefuse.tables import AlignedScores, ScoreTable, SettingDescriptor

from helpers import aligned, columns, rows_of, table


def _announce(num: int, name: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _random_table(stream: SplitMix64, max_total=500, tie_prone=False):
    n1 = 1 + stream.next_word() % (max_total // 2)
    n0 = 1 + stream.next_word() % (max_total // 2)
    scores = stream.uniforms(n1 + n0)
    if tie_prone:
        scores = np.round(scores, 2)
    return table(scores[:n1], scores[n1:])


def test_c01_gaussian_oracle_suite():
    start = time.perf_counter()
    model = GaussianScoreModel(0.3, 0.1, 0.6, 0.1, n_mated=100000, n_nonmated=100000, seed=20240917)
    t = generate_scores(model)
    curves = build_curves(t)
    assert analytic_auc(model) == pytest.approx(0.98305, abs=1e-5)
    assert analytic_eer(model) == pytest.approx(0.06681, abs=1e-5)
    assert analytic_cohens_d(model) == pytest.approx(3.0, abs=1e-12)
    assert abs(auc(curves) - analytic_auc(model)) < 0.005
    assert abs(eer(curves) - analytic_eer(model)) < 0.005
    assert abs(cohens_d(t) - analytic_cohens_d(model)) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(1, "gaussian oracle suite")


def test_c02_brute_force_equivalence():
    start = time.perf_counter()
    stream = SplitMix64(0xACCE5501)
    for k in range(1000):
        t = _random_table(stream, tie_prone=(k % 3 == 0))
        curves = build_curves(t)
        assert abs(auc(curves) - brute_force_auc(t)) < 1e-12
        assert abs(eer(curves) - brute_force_eer(t)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _announce(2, "brute-force equivalence (1000 tables)")


def test_c03_rank_invariance():
    stream = SplitMix64(0xACCE5503)
    for k in range(100):
        t = _random_table(stream, max_total=400, tie_prone=(k % 4 == 0))
        curves = build_curves(t)
        before = (
            auc(curves),
            eer(curves),
            rate_at_operating_point(curves, fnmr=0.01),
            rate_at_operating_point(curves, fmr=0.01),
        )
        a = 0.5 + 2.0 * stream.uniforms(1)[0]
        b = 0.5 + stream.uniforms(1)[0]
        c = stream.uniforms(1)[0]
        scores = t.scores
        transformed = a * scores**3 + b * scores + c  # strictly increasing
        t2 = ScoreTable(
            "t",
            (float(transformed.min()) - 1.0, float(transformed.max()) + 1.0),
            t.columns,
            transformed,
        )
        curves2 = build_curves(t2)
        after = (
            auc(curves2),
            eer(curves2),
            rate_at_operating_point(curves2, fnmr=0.01),
            rate_at_operating_point(curves2, fmr=0.01),
        )
        for x, y in zip(before, after):
            assert abs(x - y) < 1e-12
    _announce(3, "rank invariance under increasing transforms")


def test_c04_fusion_gain_law():
    al = make_complementary_matchers(1.0, 50000, seed=0xACCE5504)
    single_aucs = [
        auc(build_curves(apply_fusion("avg", al.select([m])))) for m in al.matcher_ids
    ]
    fused_auc = auc(build_curves(apply_fusion("avg", al)))
    for value in single_aucs:
        assert value == pytest.approx(normal_cdf(1.0 / math.sqrt(2.0)), abs=0.01)  # ~0.7603
        assert fused_auc > value
    assert fused_auc == pytest.approx(normal_cdf(1.0), abs=0.01)  # ~0.8413
    _announce(4, "fusion gain law (complementarity oracle)")


def test_c05_fusion_rule_unit_identities():
    assert fuse_average([0.2, 0.4, 0.6]) == 0.4
    assert fuse_bayesian([0.8, 0.8]) == pytest.approx(0.9411764705882353, abs=1e-9)
    assert fuse_bayesian([0.9, 0.1]) == pytest.approx(0.5, abs=1e-12)
    weights = FusionWeights(("a", "b"), (2.0, 1.0), "manual")
    assert fuse_weighted([0.9, 0.3], weights) == 0.7
    assert fuse_bayesian([1.0, 0.0]) == pytest.approx(0.5, abs=1e-6)
    _announce(5, "fusion rule unit identities")


def test_c06_chance_level_consistency():
    stream = SplitMix64(2)
    mated = stream.uniforms(10000)
    nonmated = stream.uniforms(10000)
    t = table(mated, nonmated)
    curves = build_curves(t)
    assert 100.0 * auc(curves) == pytest.approx(50.0, abs=1.0)
    assert 100.0 * eer(curves) == pytest.approx(50.0, abs=1.0)
    _announce(6, "chance-level consistency")


def test_c07_pcc_weight_properties():
    stream = SplitMix64(0xACCE5507)
    labels = [i % 2 == 0 for i in range(1000)]
    informative = [1.0 if f else 0.0 for f in labels]
    noise = stream.uniforms(1000).tolist()
    val = aligned({"inf": informative, "noise": noise}, labels)
    base = estimate_pcc_weights(val)
    assert base.weights[0] > 10 * base.weights[1]

    rescaled = aligned(
        {"inf": informative, "noise": (0.1 * np.asarray(noise) + 0.45).tolist()}, labels
    )
    again = estimate_pcc_weights(rescaled)
    assert again.weights[0] == pytest.approx(base.weights[0], abs=1e-12)
    assert again.weights[1] == pytest.approx(base.weights[1], abs=1e-12)

    anti = aligned({"anti": [0.0 if f else 1.0 for f in labels], "inf": informative}, labels)
    w = estimate_pcc_weights(anti)
    assert w.weights[0] == 0.0
    assert w.raw_pcc[0] == pytest.approx(-1.0, abs=1e-12)
    _announce(7, "pcc weight properties")


def test_c08_perceptron_fuser():
    start = time.perf_counter()
    stream = SplitMix64(0xACCE5508)
    labels = [i % 2 == 0 for i in range(2000)]
    val = aligned(
        {"inf": [1.0 if f else 0.0 for f in labels], "noise": stream.uniforms(2000).tolist()},
        labels,
    )
    fuser = train_perceptron(val)
    assert fuser.training_log.final_loss <= fuser.training_log.initial_loss
    assert abs(fuser.coefficients[0]) > abs(fuser.coefficients[1])

    held_labels = [i % 2 == 0 for i in range(1000)]
    held = aligned(
        {"inf": [1.0 if f else 0.0 for f in held_labels], "noise": stream.uniforms(1000).tolist()},
        held_labels,
        tag="h-",
    )
    fused_auc = auc(build_curves(apply_fusion(fuser, held)))
    informative_auc = auc(build_curves(apply_fusion("avg", held.select(["inf"]))))
    assert fused_auc >= informative_auc - 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _announce(8, "perceptron fuser")


def test_c09_protocol_grid(tmp_path):
    settings = [
        SettingDescriptor(cam, dist, "synth")
        for cam in ("cam1", "cam2")
        for dist in (1.0, 2.6)
    ]
    for kind, expected in (
        ("intra", 4),
        ("cross_distance", 4),
        ("cross_camera", 4),
        ("cross_both", 4),
    ):
        plan = plan_experiments(settings, {kind})
        assert len(plan) == expected, kind
        assert all(i.kind == kind for i in plan)

    # injected validation/test overlap raises the leakage error
    base = make_complementary_matchers(1.0, 200, seed=1)
    setting = settings[0]
    pairs = columns((*row[:5], setting) for row in rows_of(base.columns))
    stamped = AlignedScores(base.matcher_ids, pairs, base.matrix)
    item = PlanItem(setting, setting)
    method = MethodSpec("avg", "avg", base.matcher_ids)
    with pytest.raises(LeakageError):
        run_experiment(item, method, stamped, stamped)

    # rerun with the same seed is byte-identical
    demo_dir = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo_dir), "--seed", "2024"]) == 0
    config = json.loads((demo_dir / "config.json").read_text())
    config["kinds"] = ["intra", "cross_both"]
    config["methods"] = [m for m in config["methods"] if m["method_id"] in ("avg", "pcc_avg")]
    small = demo_dir / "grid.json"
    small.write_text(json.dumps(config), encoding="utf-8")
    assert main(["grid", "--config", str(small)]) == 0
    results_dir = demo_dir / "results"
    first = {p.name: p.read_bytes() for p in results_dir.glob("*")}
    assert main(["grid", "--config", str(small)]) == 0
    second = {p.name: p.read_bytes() for p in results_dir.glob("*")}
    assert first == second
    _announce(9, "protocol grid, leakage guard, byte-identical rerun")


def test_c10_end_to_end_demo(tmp_path, capsys):
    start = time.perf_counter()
    demo_dir = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo_dir), "--seed", "11"]) == 0

    scores = demo_dir / "scores"
    fuse_inputs = [str(scores / f"m{i}__demo-cam1-1__test.csv") for i in range(1, 5)]
    fuse_val = [str(scores / f"m{i}__demo-cam1-1__validation.csv") for i in range(1, 5)]
    assert (
        main(
            ["fuse", "--method", "pcc_avg", "--inputs", *fuse_inputs,
             "--validation", *fuse_val, "--out-dir", str(demo_dir / "fused"), "--seed", "11"]
        )
        == 0
    )
    fused_csv = demo_dir / "fused" / "fused_pcc_avg.csv"
    assert fused_csv.exists()

    assert (
        main(["eval", "--scores", str(fused_csv), "--out-dir", str(demo_dir / "eval"), "--seed", "11"])
        == 0
    )
    report = json.loads((demo_dir / "eval" / "report.json").read_text())
    assert set(report["metrics"]) == {
        "auc_pct", "eer_pct", "cohens_d", "fmr_at_fnmr1_pct", "fnmr_at_fmr1_pct",
        "n_mated", "n_nonmated",
    }

    assert main(["grid", "--config", str(demo_dir / "config.json")]) == 0
    summary = json.loads((demo_dir / "results" / "summary.json").read_text())
    rows = summary["summary"]["method"]
    assert [r["method"] for r in rows] == [
        "baseline", "m1", "m2", "m3", "m4", "avg", "bayes", "pcc_avg", "perceptron",
    ]
    for row in rows:
        for metric in ("auc_pct", "eer_pct", "cohens_d", "fmr_at_fnmr1_pct", "fnmr_at_fmr1_pct"):
            assert f"{metric}_mean" in row and f"{metric}_sd" in row

    csv_lines = (demo_dir / "results" / "summary.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 9  # header + baseline + 4 single + 4 fused

    # fusion actually pays off on the demo grid: fused average beats singles
    by_method = {r["method"]: r for r in rows}
    assert by_method["avg"]["auc_pct_mean"] > max(
        by_method[m]["auc_pct_mean"] for m in ("m1", "m2", "m3", "m4")
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _announce(10, "end-to-end demo pipeline")
