"""Output checks, computed from the inputs with the benchmark's own numpy code.

Nothing here is compared with a stored copy of earlier output and nothing
calls into ``scorefuse``: AUCs are recomputed as the rank statistic, fused
scores are rebuilt from the fitted parameters the program reports, and
cosine scores and correlations are recomputed from the written vectors.
Every check takes the outputs of one round and returns a list of error
messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from statistics import NormalDist

import numpy as np

SCORE_HEADER = (
    "matcher_id,probe_id,reference_id,probe_subject,reference_subject,mated,"
    "camera_id,distance_m,dataset_id,score"
)
PAIRS_HEADER = "probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id"

AUC_TOL_PCT = 1e-9  # the program's AUC is the same integer count, rounded once
FLOAT_TOL = 1e-12  # recomputed scores, weights and correlations
CLOSED_FORM_SES = 5.0  # allowed distance from a closed form, in standard errors
MIN_SINGLE_HTER = 0.02  # lower bound on a single matcher's EER: inputs must not be trivially separable
_PHI = NormalDist().cdf


# ---------------------------------------------------------------- arithmetic


def read_score_csv(path: Path):
    """(keys, mated, scores) of one score CSV, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if ",".join(next(rows)) != SCORE_HEADER:
            raise ValueError(f"{path}: unexpected header")
        rows = list(rows)
    keys = [(r[1], r[2]) for r in rows]
    mated = np.array([r[5] == "1" for r in rows], dtype=bool)
    scores = np.array([float(r[9]) for r in rows], dtype=np.float64)
    return keys, mated, scores


def rank_auc_pct(scores: np.ndarray, mated: np.ndarray) -> float:
    """100 * (P(mated > non-mated) + 1/2 P(tie)), from exact integer counts."""
    pos = np.sort(scores[mated])
    neg = np.sort(scores[~mated])
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    twice_wins = int(below.sum()) + int(at_or_below.sum())  # 2 * wins + ties
    return 100.0 * (twice_wins / (2.0 * len(pos) * len(neg)))


def min_half_total_error(scores: np.ndarray, mated: np.ndarray) -> float:
    """min over thresholds of (FMR + FNMR) / 2, a lower bound on the EER."""
    thresholds = np.unique(scores)
    pos = np.sort(scores[mated])
    neg = np.sort(scores[~mated])
    fnmr = np.searchsorted(pos, thresholds, side="left") / len(pos)
    fmr = 1.0 - np.searchsorted(neg, thresholds, side="left") / len(neg)
    return float(((fmr + fnmr) / 2.0).min())


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def run_checks(outputs, check_fns) -> list[str]:
    """Run each check; a check that cannot read what it needs fails too."""
    errors = []
    for fn in check_fns:
        try:
            found = fn(outputs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"could not check: {type(exc).__name__}: {exc}"]
        errors += [f"{fn.__name__}: {e}" for e in found]
    return errors


# ---------------------------------------------------------------- grids


class GridOutputs:
    """A grid config, its score files and the ``results/`` of one run."""

    def __init__(self, config_path: Path, expected_cells: int):
        self.root = config_path.parent
        self.config = json.loads(config_path.read_text(encoding="utf-8"))
        self.expected_cells = expected_cells
        out = self.root / self.config["output_dir"]
        self.results = [
            json.loads(p.read_text(encoding="utf-8")) for p in sorted(out.glob("result__*.json"))
        ]
        summary = out / "summary.json"
        self.summary = json.loads(summary.read_text(encoding="utf-8")) if summary.exists() else None
        self.methods = {m["method_id"]: m for m in self.config["methods"]}
        self._files: dict[Path, tuple] = {}

    def failed_cells(self) -> int:
        return max(self.expected_cells - len(self.results), 0)

    def _read(self, path: Path):
        if path not in self._files:
            self._files[path] = read_score_csv(path)
        return self._files[path]

    def columns(self, setting: dict, split: str, matchers) -> tuple[np.ndarray, np.ndarray]:
        """(mated, matrix) of the matchers' score files for one setting and split."""
        cols, mated, keys = [], None, None
        for matcher in matchers:
            (entry,) = [
                e
                for e in self.config["score_files"]
                if e["matcher_id"] == matcher
                and e["split"] == split
                and e["camera_id"] == setting["camera_id"]
                and e["distance_m"] == setting["distance_m"]
                and e["dataset_id"] == setting["dataset_id"]
            ]
            k, m, s = self._read(self.root / entry["path"])
            if keys is None:
                keys, mated = k, m
            elif k != keys:
                raise ValueError(f"{entry['path']}: rows not in the order of the other matchers")
            cols.append(s)
        return mated, np.column_stack(cols)

    def fused(self, result: dict) -> tuple[np.ndarray, np.ndarray]:
        """(mated, scores) of one cell, rebuilt from its test files and fitted parameters."""
        method = self.methods[result["method_id"]]
        mated, mat = self.columns(result["test_setting"], "test", method["matchers"])
        kind, fitted = method["kind"], result["fitted"]
        if kind == "single":
            return mated, mat[:, 0]
        if kind == "avg":
            return mated, mat.mean(axis=1)
        if kind == "bayes":
            c = np.clip(mat, 1e-6, 1.0 - 1e-6)
            return mated, _sigmoid((np.log(c) - np.log(1.0 - c)).sum(axis=1))
        if kind in ("pcc_avg", "weighted"):
            w = np.array(fitted["weights"], dtype=np.float64)
            return mated, (mat @ w) / w.sum()
        if kind == "perceptron":
            coef = np.array(fitted["coefficients"], dtype=np.float64)
            return mated, _sigmoid(mat @ coef + fitted["bias"])
        raise ValueError(f"no rebuild rule for method kind {kind!r}")

    def of_kind(self, *kinds):
        return [r for r in self.results if self.methods[r["method_id"]]["kind"] in kinds]


def cell_counts(grid: GridOutputs) -> list[str]:
    """0 failed cells, every expected cell present, class counts as in the test files."""
    errors = []
    if grid.summary is None:
        return ["summary.json missing"]
    if grid.summary["failures"]:
        errors.append(f"{len(grid.summary['failures'])} failed cell(s) in summary.json")
    if len(grid.results) != grid.expected_cells:
        errors.append(f"{len(grid.results)} result files, expected {grid.expected_cells}")
    for r in grid.results:
        method = grid.methods[r["method_id"]]
        mated, _ = grid.columns(r["test_setting"], "test", method["matchers"][:1])
        counts = (int(mated.sum()), int((~mated).sum()))
        if (r["metrics"]["n_mated"], r["metrics"]["n_nonmated"]) != counts:
            errors.append(f"{r['kind']} {r['method_id']}: class counts differ from {counts}")
    return errors


def auc_rank_statistic(grid: GridOutputs) -> list[str]:
    """Every cell's auc_pct equals the rank statistic of its rebuilt scores."""
    errors = []
    for r in grid.results:
        expected = rank_auc_pct(*reversed(grid.fused(r)))
        if abs(r["metrics"]["auc_pct"] - expected) > AUC_TOL_PCT:
            errors.append(
                f"{r['kind']} {r['method_id']} {r['test_setting']}: auc_pct "
                f"{r['metrics']['auc_pct']!r} != rank statistic {expected!r}"
            )
    return errors


def pcc_weights(grid: GridOutputs) -> list[str]:
    """pcc_avg weights are the Pearson r of each validation column with the labels."""
    errors = []
    for r in grid.of_kind("pcc_avg"):
        method = grid.methods[r["method_id"]]
        mated, mat = grid.columns(r["train_setting"], "validation", method["matchers"])
        raw = [pearson(mat[:, j], mated.astype(np.float64)) for j in range(mat.shape[1])]
        weights = [max(0.0, x) for x in raw] if max(raw) > 0.0 else [1.0] * len(raw)
        fitted = r["fitted"]
        if not (
            np.allclose(fitted["raw_pcc"], raw, rtol=0.0, atol=FLOAT_TOL)
            and np.allclose(fitted["weights"], weights, rtol=0.0, atol=FLOAT_TOL)
        ):
            errors.append(f"{r['kind']} {r['train_setting']}: weights {fitted['weights']} != r {raw}")
    return errors


def perceptron_loss(grid: GridOutputs) -> list[str]:
    """No perceptron fit ends with a higher loss than it started from."""
    return [
        f"{r['kind']} {r['train_setting']}: final_loss {log['final_loss']} > initial {log['initial_loss']}"
        for r in grid.of_kind("perceptron")
        if (log := r["fitted"]["training_log"])["final_loss"] > log["initial_loss"]
    ]


GRID_CHECKS = [cell_counts, auc_rank_statistic, pcc_weights, perceptron_loss]


def fusion_gain(grid: GridOutputs) -> list[str]:
    """Every fused method's mean AUC over the cells beats every single matcher's."""
    by_method: dict[str, list[float]] = {}
    for r in grid.results:
        by_method.setdefault(r["method_id"], []).append(rank_auc_pct(*reversed(grid.fused(r))))
    means = {m: float(np.mean(v)) for m, v in by_method.items()}
    single = {m: v for m, v in means.items() if grid.methods[m]["kind"] == "single"}
    fused = {m: v for m, v in means.items() if grid.methods[m]["kind"] != "single"}
    if not single or not fused:
        return ["need single and fused methods"]
    best = max(single, key=single.get)
    return [
        f"fused {m} mean AUC {v:.4f} does not beat single {best} {single[best]:.4f}"
        for m, v in fused.items()
        if not v > single[best]
    ]


def gaussian_closed_form(grid: GridOutputs, model) -> list[str]:
    """Single and avg AUC/EER within a few standard errors of the generating model.

    ``model(matchers, distance)`` gives the (mean separation, per-class sigma)
    of the plain average of the matchers' scores, which is Gaussian with
    equal class variances, so AUC = Phi(delta / (sigma sqrt 2)) and
    EER = Phi(-delta / (2 sigma)). The AUC error is Hanley & McNeil's; the
    EER error sqrt(e (1 - e) (1/n1 + 1/n0)) bounds that of the crossing.
    """
    errors = []
    for r in grid.of_kind("single", "avg"):
        delta, sigma = model(grid.methods[r["method_id"]]["matchers"], r["test_setting"]["distance_m"])
        n1, n0 = r["metrics"]["n_mated"], r["metrics"]["n_nonmated"]
        a = _PHI(delta / (sigma * 2**0.5))
        q1, q2 = a / (2 - a), 2 * a * a / (1 + a)
        se_auc = ((a * (1 - a) + (n1 - 1) * (q1 - a * a) + (n0 - 1) * (q2 - a * a)) / (n1 * n0)) ** 0.5
        e = _PHI(-delta / (2 * sigma))
        se_eer = (e * (1 - e) * (1 / n1 + 1 / n0)) ** 0.5
        for name, got, want, se in (
            ("auc", r["metrics"]["auc_pct"] / 100, a, se_auc),
            ("eer", r["metrics"]["eer_pct"] / 100, e, se_eer),
        ):
            if abs(got - want) > CLOSED_FORM_SES * se:
                errors.append(
                    f"{r['method_id']} at {r['test_setting']['distance_m']} m: {name} {got:.5f} "
                    f"vs closed form {want:.5f} (se {se:.5f})"
                )
    return errors


# ---------------------------------------------------------------- pipeline


class PipelineOutputs:
    """Inputs and outputs of one score -> correlate -> fuse -> eval round."""

    def __init__(self, work: Path, workload):
        self.work = work
        self.workload = workload
        self._files: dict[str, tuple] = {}

    def read(self, rel: str):
        if rel not in self._files:
            self._files[rel] = read_score_csv(self.work / rel)
        return self._files[rel]

    def matrix(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        cols = [self.read(self.workload.score_csv(m, split)) for m in self.workload.matchers]
        if any(c[0] != cols[0][0] for c in cols):
            raise ValueError(f"{split} score files disagree on row order")
        return cols[0][1], np.column_stack([c[2] for c in cols])


def _vectors(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    return {d["entity_id"]: np.array(d["vector"], dtype=np.float64) for d in docs}


def cosine_scores(out: PipelineOutputs) -> list[str]:
    """Each score is (cos + 1) / 2 of the written vectors, pairs in file order."""
    errors = []
    for split in out.workload.splits:
        with open(out.work / "in" / f"pairs_{split}.csv", newline="", encoding="utf-8") as fh:
            pairs = list(csv.reader(fh))[1:]
        keys = [(p[0], p[1]) for p in pairs]
        mated = np.array([p[4] == "1" for p in pairs], dtype=bool)
        for m in out.workload.matchers:
            refs = _vectors(out.work / "in" / f"references_{m}_{split}.jsonl")
            probes = _vectors(out.work / "in" / f"probes_{m}_{split}.jsonl")
            a = np.array([probes[p] for p, _ in keys])
            b = np.array([refs[r] for _, r in keys])
            cos = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            got_keys, got_mated, got = out.read(out.workload.score_csv(m, split))
            if got_keys != keys or not np.array_equal(got_mated, mated):
                errors.append(f"{m} {split}: pairs or labels differ from the pairs file")
            elif not np.allclose(got, (cos + 1.0) / 2.0, rtol=0.0, atol=FLOAT_TOL):
                errors.append(f"{m} {split}: scores differ from (cos + 1) / 2")
    return errors


def correlation(out: PipelineOutputs) -> list[str]:
    """``correlate`` output equals numpy.corrcoef of the test columns."""
    with open(out.work / "out" / "correlation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0][1:] != list(out.workload.matchers) or [r[0] for r in rows[1:]] != rows[0][1:]:
        return [f"unexpected matcher order {rows[0][1:]}"]
    got = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    _, mat = out.matrix("test")
    if not np.allclose(got, np.corrcoef(mat, rowvar=False), rtol=0.0, atol=FLOAT_TOL):
        return ["correlation matrix differs from numpy.corrcoef"]
    return []


def fused_pcc(out: PipelineOutputs) -> list[str]:
    """pcc_avg weights are Pearson r with the labels; fused scores are the weighted mean."""
    errors = []
    fuser = json.loads((out.work / "out/fused/fuser_pcc_avg.json").read_text(encoding="utf-8"))
    mated, val = out.matrix("validation")
    raw = [pearson(val[:, j], mated.astype(np.float64)) for j in range(val.shape[1])]
    w = np.array(fuser["weights"], dtype=np.float64)
    if not (
        np.allclose(fuser["raw_pcc"], raw, rtol=0.0, atol=FLOAT_TOL)
        and np.allclose(w, np.maximum(raw, 0.0), rtol=0.0, atol=FLOAT_TOL)
    ):
        errors.append(f"weights {fuser['weights']} != r {raw}")
    _, test = out.matrix("test")
    _, _, fused = out.read("out/fused/fused_pcc_avg.csv")
    if not np.allclose(fused, (test @ w) / w.sum(), rtol=0.0, atol=FLOAT_TOL):
        errors.append("fused scores differ from the weighted mean of the test scores")
    return errors


def eval_report(out: PipelineOutputs) -> list[str]:
    """report.json: AUC is the rank statistic of the fused CSV; class counts match."""
    report = json.loads((out.work / "out/eval/report.json").read_text(encoding="utf-8"))["metrics"]
    _, mated, fused = out.read("out/fused/fused_pcc_avg.csv")
    errors = []
    if (report["n_mated"], report["n_nonmated"]) != (int(mated.sum()), int((~mated).sum())):
        errors.append("class counts differ from the fused CSV")
    expected = rank_auc_pct(fused, mated)
    if abs(report["auc_pct"] - expected) > AUC_TOL_PCT:
        errors.append(f"auc_pct {report['auc_pct']!r} != rank statistic {expected!r}")
    return errors


def curves(out: PipelineOutputs) -> list[str]:
    """curves.csv has one row per distinct fused score plus two sentinels; FMR never rises."""
    _, _, fused = out.read("out/fused/fused_pcc_avg.csv")
    with open(out.work / "out/eval/curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    with open(out.work / "out/eval/roc.csv", newline="", encoding="utf-8") as fh:
        roc_rows = len(fh.readlines()) - 1
    errors = []
    expected = len(np.unique(fused)) + 2
    if len(rows) != expected or roc_rows != expected:
        errors.append(f"{len(rows)} curve and {roc_rows} ROC rows, expected {expected}")
    fmr = np.array([float(r[1]) for r in rows])
    if np.any(np.diff(fmr) > 0):
        errors.append("FMR increases with the threshold")
    return errors


def difficulty(out: PipelineOutputs) -> list[str]:
    """Every single matcher keeps an EER well above 0 on the test split."""
    mated, mat = out.matrix("test")
    return [
        f"{m}: min (FMR + FNMR) / 2 = {h:.4f} < {MIN_SINGLE_HTER}"
        for j, m in enumerate(out.workload.matchers)
        if (h := min_half_total_error(mat[:, j], mated)) < MIN_SINGLE_HTER
    ]


PIPELINE_CHECKS = [cosine_scores, correlation, fused_pcc, eval_report, curves, difficulty]
