import math
from dataclasses import fields

import numpy as np
import pytest

from scorefuse.errors import ContractError, LeakageError
from scorefuse.fusion import PerceptronHyper
from scorefuse.metrics import MetricsReport, evaluate_table
from scorefuse.protocol import (
    ExperimentResult,
    MethodSpec,
    PlanItem,
    aggregate_results,
    check_leakage,
    classify_pair,
    plan_experiments,
    result_to_dict,
    run_experiment,
)
from scorefuse.synth import make_complementary_matchers
from scorefuse.tables import AlignedScores, PairColumns, SettingDescriptor

from helpers import aligned, columns, rows_of

S = SettingDescriptor


def grid_2x2(dataset="d"):
    return [
        S("cam1", 1.0, dataset),
        S("cam1", 2.6, dataset),
        S("cam2", 1.0, dataset),
        S("cam2", 2.6, dataset),
    ]


def test_classify_pairs():
    a, b = S("cam1", 1.0, "d"), S("cam1", 2.6, "d")
    c, e = S("cam2", 1.0, "d"), S("cam2", 2.6, "x")
    assert classify_pair(a, a) == "intra"
    assert classify_pair(a, b) == "cross_distance"
    assert classify_pair(a, c) == "cross_camera"
    assert classify_pair(b, c) == "cross_both"
    assert classify_pair(a, e) == "cross_dataset"


def test_plan_intra_counts():
    settings = [S("cam1", d, "d") for d in (1.0, 2.6, 4.2)]
    plan = plan_experiments(settings, {"intra"})
    assert len(plan) == 3
    assert all(i.kind == "intra" and i.train_setting == i.test_setting for i in plan)


def test_plan_cross_distance_counts():
    settings = [S("cam1", d, "d") for d in (1.0, 2.6, 4.2)]
    plan = plan_experiments(settings, {"cross_distance"})
    assert len(plan) == 6  # 3 x 2 ordered pairs
    assert all(i.kind == "cross_distance" for i in plan)
    # ordered: both directions present
    keys = {(i.train_setting.distance_m, i.test_setting.distance_m) for i in plan}
    assert (1.0, 4.2) in keys and (4.2, 1.0) in keys


def test_plan_cross_both_on_2x2():
    plan = plan_experiments(grid_2x2(), {"cross_both"})
    assert len(plan) == 4
    for item in plan:
        assert item.train_setting.camera_id != item.test_setting.camera_id
        assert item.train_setting.distance_m != item.test_setting.distance_m


def test_plan_partitions_all_ordered_pairs():
    settings = grid_2x2()
    kinds = {"cross_distance", "cross_camera", "cross_both"}
    plan = plan_experiments(settings, kinds)
    n = len(settings)
    assert len(plan) == n * (n - 1)
    by_kind = {}
    for item in plan:
        by_kind.setdefault(item.kind, 0)
        by_kind[item.kind] += 1
    assert by_kind == {"cross_distance": 4, "cross_camera": 4, "cross_both": 4}


def test_plan_cross_dataset():
    settings = [S("cam1", 1.0, "d1"), S("cam1", 1.0, "d2")]
    plan = plan_experiments(settings, {"cross_dataset"})
    assert len(plan) == 2
    assert all(i.kind == "cross_dataset" for i in plan)


def test_plan_ordering_is_deterministic():
    settings = grid_2x2()
    a = plan_experiments(list(reversed(settings)), {"intra", "cross_both"})
    b = plan_experiments(settings, {"intra", "cross_both"})
    assert a == b
    assert [i.kind for i in a[:4]] == ["intra"] * 4


def test_plan_errors():
    with pytest.raises(ContractError):
        plan_experiments([], {"intra"})
    with pytest.raises(ContractError):
        plan_experiments([S("c", 1.0, "d")] * 2, {"intra"})
    with pytest.raises(ContractError):
        plan_experiments([S("c", 1.0, "d")], {"sideways"})


def _val_and_test(setting_train, setting_test, seed=0):
    base = make_complementary_matchers(1.0, 300, seed=seed)
    # restamp pairs with the right settings and distinct id spaces per split
    def restamp(al, setting, tag):
        pairs = columns(
            (tag + probe, tag + ref, tag + probe_subject, tag + ref_subject, mated, setting)
            for probe, ref, probe_subject, ref_subject, mated, _ in rows_of(al.columns)
        )
        return AlignedScores(al.matcher_ids, pairs, al.matrix)

    val = restamp(make_complementary_matchers(1.0, 300, seed=seed + 1), setting_train, "v-")
    test = restamp(base, setting_test, "t-")
    return val, test


def test_run_experiment_single_equals_direct_report():
    setting = S("cam1", 1.0, "d")
    item = PlanItem(setting, setting)
    val, test = _val_and_test(setting, setting)
    method = MethodSpec("m1", "single", ("matcher_1",))
    result = run_experiment(item, method, val, test)
    from scorefuse.fusion import apply_fusion

    direct = evaluate_table(apply_fusion("avg", test.select(["matcher_1"])))
    assert result.report == direct


def test_run_experiment_leakage_guard():
    setting = S("cam1", 1.0, "d")
    item = PlanItem(setting, setting)
    val, test = _val_and_test(setting, setting)
    # inject an overlapping pair id space: reuse the test table as validation
    method = MethodSpec("avg", "avg", ("matcher_1", "matcher_2"))
    with pytest.raises(LeakageError, match="pair"):
        run_experiment(item, method, test, test)


def test_check_leakage_names_the_shared_pairs():
    # probes p0..p5 against references r0..r5 (validation) and r6..r11 (test)
    def pairs(refs, shared=()):
        keys = [(f"p{i}", f"r{j}") for i, j in zip(range(6), refs)] + list(shared)
        return AlignedScores(("m",), columns((p, r, p, p, True, S("c", 1.0, "d")) for p, r in keys), np.full((len(keys), 1), 0.5))

    val = pairs(range(6))
    check_leakage(val, pairs(range(6, 12)))  # shared probes, no shared pair
    with pytest.raises(LeakageError) as exc:
        check_leakage(val, pairs(range(6, 12), [("p3", "r3"), ("p1", "r1")]))
    assert str(exc.value) == (
        "2 comparison pair(s) appear in both validation and test partitions: ('p1', 'r1'), ('p3', 'r3')"
    )


def test_check_leakage_on_crossed_and_disjoint_ids(monkeypatch):
    def scores(*keys):
        rows = [(p, r, "s", "s", True, S("c", 1.0, "d")) for p, r in keys]
        return AlignedScores(("m",), columns(rows), np.full((len(keys), 1), 0.5))

    # every id of the test pair is a validation id, but the pair is not one
    val = scores(("p1", "r2"), ("p3", "r3"))
    check_leakage(val, scores(("p2", "r1")))
    with pytest.raises(LeakageError) as exc:
        check_leakage(val, scores(("p2", "r1"), ("p3", "r3")))
    assert str(exc.value) == "1 comparison pair(s) appear in both validation and test partitions: ('p3', 'r3')"
    # ids that no validation pair holds end the check before any key is read
    other = scores(("q1", "t1"), ("q2", "t2"))
    monkeypatch.setattr(PairColumns, "keys", property(lambda self: pytest.fail("keys read")), raising=False)
    check_leakage(val, other)


def test_run_experiment_checks_settings_and_matchers():
    train_s, test_s = S("cam1", 1.0, "d"), S("cam1", 2.6, "d")
    item = PlanItem(train_s, test_s)
    val, test = _val_and_test(train_s, test_s)
    missing = MethodSpec("x", "avg", ("matcher_1", "nope"))
    with pytest.raises(ContractError, match="nope"):
        run_experiment(item, missing, val, test)

    wrong_item = PlanItem(test_s, test_s)  # val came from train_s
    method = MethodSpec("avg", "avg", ("matcher_1", "matcher_2"))
    with pytest.raises(ContractError, match="validation"):
        run_experiment(wrong_item, method, val, test)

    swapped = PlanItem(train_s, train_s)  # test came from test_s
    with pytest.raises(ContractError, match="test"):
        run_experiment(swapped, method, val, test)


def test_run_experiment_parametric_needs_validation():
    setting = S("cam1", 1.0, "d")
    item = PlanItem(setting, setting)
    _, test = _val_and_test(setting, setting)
    method = MethodSpec("pcc", "pcc_avg", ("matcher_1", "matcher_2"))
    with pytest.raises(ContractError, match="validation"):
        run_experiment(item, method, None, test)


def test_run_experiment_perceptron_close_to_avg_on_symmetric_matchers():
    setting = S("cam1", 1.0, "d")
    item = PlanItem(setting, setting)
    val, test = _val_and_test(setting, setting, seed=33)
    avg_res = run_experiment(
        item, MethodSpec("avg", "avg", ("matcher_1", "matcher_2")), val, test
    )
    per_res = run_experiment(
        item,
        MethodSpec(
            "per",
            "perceptron",
            ("matcher_1", "matcher_2"),
            hyper=PerceptronHyper(max_epochs=3000),
        ),
        val,
        test,
    )
    # equal-quality symmetric matchers: stacking cannot beat or trail the
    # plain average by much
    assert per_res.report.auc_pct == pytest.approx(avg_res.report.auc_pct, abs=2.0)
    assert per_res.fitted["kind"] == "perceptron"
    coeffs = per_res.fitted["coefficients"]
    assert coeffs[0] == pytest.approx(coeffs[1], rel=0.5)


def test_run_experiment_is_deterministic():
    setting = S("cam1", 1.0, "d")
    item = PlanItem(setting, setting)
    val, test = _val_and_test(setting, setting, seed=8)
    method = MethodSpec("pcc", "pcc_avg", ("matcher_1", "matcher_2"))
    r1 = run_experiment(item, method, val, test)
    r2 = run_experiment(item, method, val, test)
    assert result_to_dict(r1) == result_to_dict(r2)
    doc = result_to_dict(r1)
    assert set(doc["metrics"]) == {f.name for f in fields(MetricsReport)}
    assert set(doc["train_setting"]) == set(doc["test_setting"]) == {f.name for f in fields(SettingDescriptor)}


def _result(method_id, kind, auc_pct, distance=1.0):
    from dataclasses import replace

    from scorefuse.fusion import apply_fusion

    setting = S("cam1", distance, "d")
    if kind == "intra":
        item = PlanItem(setting, setting)
    else:
        item = PlanItem(setting, S("cam1", distance + 1.0, "d"))
    base = aligned({"m": [0.9, 0.8, 0.2, 0.1]}, [True, True, False, False])
    report = evaluate_table(apply_fusion("avg", base))
    report = replace(report, auc_pct=auc_pct)  # pin the value being aggregated
    return ExperimentResult(item, method_id, report)


def test_aggregate_mean_and_sd():
    results = [_result("avg", "intra", 90.0), _result("avg", "intra", 92.0)]
    rows = aggregate_results(results, "method")
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "avg"
    assert row["n_results"] == 2
    assert row["auc_pct_mean"] == pytest.approx(91.0, abs=1e-12)
    assert row["auc_pct_sd"] == pytest.approx(math.sqrt(0.0002) * 100, abs=1e-12)

    single = aggregate_results(results[:1], "method")[0]
    assert single["auc_pct_sd"] == 0.0


def test_aggregate_grouping_and_brute_force_recompute():
    results = [
        _result("avg", "intra", 90.0),
        _result("avg", "cross", 80.0),
        _result("bayes", "intra", 85.0),
        _result("avg", "intra", 94.0),
    ]
    rows = aggregate_results(results, "method_kind")
    keys = [(r["method"], r["kind"]) for r in rows]
    assert keys == [("avg", "intra"), ("avg", "cross_distance"), ("bayes", "intra")]
    by_key = {k: r for k, r in zip(keys, rows)}
    vals = [90.0, 94.0]
    assert by_key[("avg", "intra")]["auc_pct_mean"] == pytest.approx(np.mean(vals), abs=1e-12)
    assert by_key[("avg", "intra")]["auc_pct_sd"] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    method_rows = aggregate_results(results, "method")
    assert [r["method"] for r in method_rows] == ["avg", "bayes"]  # one row per method

    with pytest.raises(ContractError):
        aggregate_results([], "method")
    with pytest.raises(ContractError):
        aggregate_results(results, "by_moon_phase")


def test_aggregate_by_test_distance():
    results = [
        _result("avg", "intra", 90.0, distance=1.0),
        _result("avg", "intra", 96.0, distance=1.0),
        _result("avg", "intra", 80.0, distance=4.2),
    ]
    rows = aggregate_results(results, "method_distance")
    by_dist = {r["test_distance_m"]: r for r in rows}
    assert set(by_dist) == {1.0, 4.2}
    assert by_dist[1.0]["auc_pct_mean"] == pytest.approx(93.0, abs=1e-12)
    assert by_dist[1.0]["n_results"] == 2
    assert by_dist[4.2]["auc_pct_sd"] == 0.0
