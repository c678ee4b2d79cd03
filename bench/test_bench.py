"""Small-size tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DemoGrid, ScaledGrid, ScoreFuseEval  # noqa: E402

TINY = {
    "demo_grid": DemoGrid,  # the demo has one size
    "scaled_grid": lambda: ScaledGrid(rows=1000),
    "score_fuse_eval": lambda: ScoreFuseEval(subjects=40),
}


def build(workload, path: Path, seed: int = 5) -> Path:
    """Set up ``workload`` under ``path`` and run one checked round."""
    procs = run.Processes(run.ROOT, path)
    inputs = run.fresh_dir(path / "inputs")
    workload.setup(inputs, seed, lambda argv: procs.run(argv, inputs).code)
    rnd = run.run_round(workload, inputs, procs.run)
    assert rnd.failed == 0 and rnd.errors == []
    return inputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    built = {}

    def get(name):
        if name not in built:
            built[name] = build(TINY[name](), tmp_path_factory.mktemp(name))
        return built[name]

    return get


# ---------------------------------------------------------------- whole runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.run(TINY[name](), seed=2, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    result = run.run(TINY[name](), seed=2, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.PER_LAYER)
    value = {k: m["value"] for k, m in result["metrics"].items()}
    if name == "demo_grid":
        assert value["protocol.run_experiment.calls"] == 144
        assert value["fusion.fit_distinct_ratio"] == 0.25
        assert value["rng.normals.count"] == 40 * 600
        assert value["protocol.run_experiment.p90_s"] > 0
    elif name == "scaled_grid":
        assert value["tables.load_useful_ratio"] == pytest.approx(2 / 3)
        assert value["protocol.run_experiment.calls"] == 28
    else:
        assert value["embeddings.batch_score.pairs"] == 6 * 10 * 40
        assert value["cli.grid.s"] == 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo_grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(TINY)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_scaled_grid_results_do_not_depend_on_jobs(tmp_path):
    inputs = build(ScaledGrid(rows=200, jobs=1), tmp_path)
    (inputs / "results").rename(inputs / "results_jobs1")
    procs = run.Processes(run.ROOT, tmp_path)
    assert procs.run(ScaledGrid(jobs=2).commands()[0], inputs).code == 0
    one = {p.name: p.read_bytes() for p in (inputs / "results_jobs1").iterdir()}
    two = {p.name: p.read_bytes() for p in (inputs / "results").iterdir()}
    assert len(one) == 28 + 3 and one == two  # cells + summary.json, .csv, .csv.meta.json


# ---------------------------------------------------------------- each check rejects a corrupted output


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _first(work: Path, pattern: str) -> Path:
    return sorted(work.glob(pattern))[0]


def _drop_result(work):
    _first(work, "results/result__*.json").unlink()


def _shift_auc(work):
    _edit_json(_first(work, "results/result__*__avg.json"), lambda d: d["metrics"].update(auc_pct=d["metrics"]["auc_pct"] + 1e-6))


def _shift_weight(work):
    def edit(d):
        d["fitted"]["weights"][0] += 1e-9

    _edit_json(_first(work, "results/result__*__pcc_avg.json"), edit)


def _shift_eer(work):
    _edit_json(_first(work, "results/result__*__m1.json"), lambda d: d["metrics"].update(eer_pct=d["metrics"]["eer_pct"] + 40))


def _raise_final_loss(work):
    def edit(d):
        d["fitted"]["training_log"]["final_loss"] = d["fitted"]["training_log"]["initial_loss"] + 0.1

    _edit_json(_first(work, "demo/results/result__*__perceptron.json"), edit)


def _invert_perceptrons(work):
    def edit(d):
        d["fitted"]["coefficients"] = [-c for c in d["fitted"]["coefficients"]]

    for path in work.glob("demo/results/result__*__perceptron.json"):
        _edit_json(path, edit)


def _replace_last_value(path: Path, transform) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{transform(float(last))!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shift_score(work):
    _replace_last_value(work / "out/scores/sys_a_test.csv", lambda s: s + 1e-9)


def _shift_correlation(work):
    _replace_last_value(work / "out/correlation.csv", lambda r: r - 1e-6)


def _shift_fused_weight(work):
    def edit(d):
        d["weights"][1] *= 1.001

    _edit_json(work / "out/fused/fuser_pcc_avg.json", edit)


def _shift_report_auc(work):
    _edit_json(work / "out/eval/report.json", lambda d: d["metrics"].update(auc_pct=d["metrics"]["auc_pct"] - 1e-6))


def _drop_curve_row(work):
    path = work / "out/eval/curves.csv"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-2]), encoding="utf-8")


def _separable_scores(work):
    path = work / "out/scores/sys_b_test.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for r in rows:
        r[9] = "0.9" if r[5] == "1" else "0.1"
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


CORRUPTIONS = [
    ("scaled_grid", checks.cell_counts, _drop_result),
    ("scaled_grid", checks.auc_rank_statistic, _shift_auc),
    ("scaled_grid", checks.pcc_weights, _shift_weight),
    ("scaled_grid", lambda g: checks.gaussian_closed_form(g, ScaledGrid.model), _shift_eer),
    ("demo_grid", checks.perceptron_loss, _raise_final_loss),
    ("demo_grid", checks.fusion_gain, _invert_perceptrons),
    ("score_fuse_eval", checks.cosine_scores, _shift_score),
    ("score_fuse_eval", checks.correlation, _shift_correlation),
    ("score_fuse_eval", checks.fused_pcc, _shift_fused_weight),
    ("score_fuse_eval", checks.eval_report, _shift_report_auc),
    ("score_fuse_eval", checks.curves, _drop_curve_row),
    ("score_fuse_eval", checks.difficulty, _separable_scores),
]


def _outputs_of(name: str, work: Path):
    workload = TINY[name]()
    if workload.config is None:
        return checks.PipelineOutputs(work, workload)
    return checks.GridOutputs(work / workload.config, workload.cells)


@pytest.mark.parametrize(
    "name, check, corrupt", CORRUPTIONS, ids=[c[2].__name__.strip("_") for c in CORRUPTIONS]
)
def test_check_passes_clean_output_and_rejects_corrupted(name, check, corrupt, outputs, tmp_path):
    work = shutil.copytree(outputs(name), tmp_path / "work")
    assert check(_outputs_of(name, work)) == []
    corrupt(work)
    assert check(_outputs_of(name, work)) != []
