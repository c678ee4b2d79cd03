"""Verification metrics from labeled score tables.

Everything derives from one exact threshold sweep: candidate thresholds are
the sorted distinct scores plus one sentinel below the minimum and one above
the maximum, the decision rule is "match iff score >= threshold", and

    FMR(t)  = fraction of non-mated pairs with score >= t
    FNMR(t) = fraction of mated pairs with score < t

so FMR falls and FNMR rises as t grows. The ROC, AUC (trapezoid over the
sweep, which equals the tie-corrected rank statistic), interpolated EER and
fixed-rate operating points are all read off these curves; AUC, EER and the
operating points therefore depend on score ranks only.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UndefinedEffectError
from .tables import AlignedScores, ScoreTable


@dataclass(frozen=True, eq=False)
class ThresholdCurves:
    """FMR and FNMR sampled at every candidate threshold."""

    thresholds: np.ndarray
    fmr: np.ndarray
    fnmr: np.ndarray
    n_mated: int
    n_nonmated: int

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        a = np.asarray(self.fmr, dtype=np.float64)
        b = np.asarray(self.fnmr, dtype=np.float64)
        if not (len(t) == len(a) == len(b) >= 2):
            raise ContractError("curves need matching arrays of length >= 2")
        if np.any(np.diff(t) <= 0):
            raise ContractError("thresholds must be strictly increasing")
        if np.any(np.diff(a) > 0) or np.any(np.diff(b) < 0):
            raise ContractError("FMR must be non-increasing and FNMR non-decreasing")
        if (a[0], b[0]) != (1.0, 0.0) or (a[-1], b[-1]) != (0.0, 1.0):
            raise ContractError("curves must span from (FMR=1, FNMR=0) to (FMR=0, FNMR=1)")
        for name, arr in (("thresholds", t), ("fmr", a), ("fnmr", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RocCurve:
    """(FMR, 1 - FNMR) points, sorted by ascending FMR."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ContractError("ROC needs at least one point")
        xs = [p[0] for p in self.points]
        if any(not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0) for x, y in self.points):
            raise ContractError("ROC coordinates must lie in [0, 1]")
        if xs != sorted(xs) or xs[0] != 0.0 or xs[-1] != 1.0:
            raise ContractError("ROC points must run from FMR 0 to FMR 1, ascending")


@dataclass(frozen=True)
class MetricsReport:
    """The five headline numbers plus class counts, percentages in [0, 100]."""

    auc_pct: float
    eer_pct: float
    cohens_d: float
    fmr_at_fnmr1_pct: float
    fnmr_at_fmr1_pct: float
    n_mated: int
    n_nonmated: int

    def __post_init__(self):
        for name in ("auc_pct", "eer_pct", "fmr_at_fnmr1_pct", "fnmr_at_fmr1_pct"):
            value = getattr(self, name)
            if not (0.0 <= value <= 100.0):
                raise ContractError(f"{name} must lie in [0, 100], got {value}")
        if self.n_mated < 1 or self.n_nonmated < 1:
            raise ContractError("class counts must be positive")

    def as_dict(self) -> dict:
        return {
            "auc_pct": self.auc_pct,
            "eer_pct": self.eer_pct,
            "cohens_d": self.cohens_d,
            "fmr_at_fnmr1_pct": self.fmr_at_fnmr1_pct,
            "fnmr_at_fmr1_pct": self.fnmr_at_fmr1_pct,
            "n_mated": self.n_mated,
            "n_nonmated": self.n_nonmated,
        }


@dataclass(frozen=True)
class CorrelationMatrix:
    matcher_ids: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


def class_scores(table) -> tuple[np.ndarray, np.ndarray]:
    """(mated, non-mated) score arrays from a ScoreTable."""
    if not isinstance(table, ScoreTable):
        raise ContractError(f"expected a score table, got {type(table).__name__}")
    mask = table.mated_mask
    return table.scores[mask], table.scores[~mask]


def curves_from_scores(mated: np.ndarray, nonmated: np.ndarray) -> ThresholdCurves:
    if len(mated) == 0 or len(nonmated) == 0:
        raise ContractError("curves need at least one mated and one non-mated score")
    mated = np.sort(np.asarray(mated, dtype=np.float64))
    nonmated = np.sort(np.asarray(nonmated, dtype=np.float64))
    scores = np.unique(np.concatenate([mated, nonmated]))
    thresholds = np.concatenate([[scores[0] - 1.0], scores, [scores[-1] + 1.0]])
    # counts via binary search on the sorted class scores
    fmr = 1.0 - np.searchsorted(nonmated, thresholds, side="left") / len(nonmated)
    fnmr = np.searchsorted(mated, thresholds, side="left") / len(mated)
    return ThresholdCurves(thresholds, fmr, fnmr, len(mated), len(nonmated))


def build_curves(table) -> ThresholdCurves:
    """Exact (ungridded) threshold curves for a labeled table."""
    mated, nonmated = class_scores(table)
    return curves_from_scores(mated, nonmated)


def roc_from_curves(curves: ThresholdCurves) -> RocCurve:
    pts = [
        (float(a), float(1.0 - b))
        for a, b in zip(curves.fmr[::-1], curves.fnmr[::-1])
    ]
    return RocCurve(tuple(pts))


def auc(curves: ThresholdCurves) -> float:
    """Trapezoidal area under the ROC assembled from the sweep.

    The accumulation runs on integer error counts, so the result is the
    exact rank statistic P(mated > non-mated) + 0.5 * P(tie) up to a single
    final rounding.
    """
    n1, n0 = curves.n_mated, curves.n_nonmated
    fm = np.rint(curves.fmr * n0).astype(np.int64)  # false matches, descending
    tm = np.rint((1.0 - curves.fnmr) * n1).astype(np.int64)  # true matches
    total = int(np.sum((fm[:-1] - fm[1:]) * (tm[:-1] + tm[1:])))
    return total / (2.0 * n1 * n0)


def eer(curves: ThresholdCurves) -> float:
    """Equal error rate by linear interpolation at the FMR/FNMR crossing.

    If some threshold has FMR == FNMR exactly, that common value is
    returned; otherwise the two rates are interpolated linearly across the
    single sign change of FMR - FNMR (the difference is non-increasing, so
    the bracket is unique).
    """
    d = curves.fmr - curves.fnmr
    zeros = np.flatnonzero(d == 0.0)
    if len(zeros):
        return float(curves.fmr[zeros[0]])
    i = int(np.flatnonzero((d[:-1] > 0.0) & (d[1:] < 0.0))[0])
    alpha = d[i] / (d[i] - d[i + 1])
    return float(curves.fmr[i] + alpha * (curves.fmr[i + 1] - curves.fmr[i]))


def rate_at_operating_point(
    curves: ThresholdCurves, *, fmr: float | None = None, fnmr: float | None = None
) -> float:
    """Complementary error rate with one rate pinned at ``q``.

    Exactly one of ``fmr``/``fnmr`` must be given, with 0 < q < 1. The
    threshold is moved just far enough that the pinned rate reaches q
    (ties broken toward the stricter threshold), interpolating linearly
    between adjacent sweep points, and the other rate at that operating
    point is returned.
    """
    if (fmr is None) == (fnmr is None):
        raise ContractError("fix exactly one of fmr or fnmr")
    q = fmr if fmr is not None else fnmr
    if not (0.0 < q < 1.0):
        raise ContractError(f"operating point must be in (0, 1), got {q}")
    if fmr is not None:
        # first threshold (smallest movement from the permissive end) with FMR <= q
        j = int(np.argmax(curves.fmr <= q))
        if curves.fmr[j] == q:
            return float(curves.fnmr[j])
        alpha = (curves.fmr[j - 1] - q) / (curves.fmr[j - 1] - curves.fmr[j])
        return float(curves.fnmr[j - 1] + alpha * (curves.fnmr[j] - curves.fnmr[j - 1]))
    # last threshold with FNMR <= q
    below = np.flatnonzero(curves.fnmr <= q)
    j = int(below[-1])
    if curves.fnmr[j] == q:
        return float(curves.fmr[j])
    alpha = (q - curves.fnmr[j]) / (curves.fnmr[j + 1] - curves.fnmr[j])
    return float(curves.fmr[j] + alpha * (curves.fmr[j + 1] - curves.fmr[j]))


def cohens_d(table) -> float:
    """Standardized mean difference with the pooled unbiased variance."""
    mated, nonmated = class_scores(table)
    n1, n0 = len(mated), len(nonmated)
    if n1 < 2 or n0 < 2:
        raise ContractError("cohens_d needs at least 2 samples per class")
    v1 = float(np.var(mated, ddof=1))
    v0 = float(np.var(nonmated, ddof=1))
    pooled = ((n1 - 1) * v1 + (n0 - 1) * v0) / (n1 + n0 - 2)
    if pooled == 0.0:
        raise UndefinedEffectError("zero pooled variance: effect size undefined")
    return (float(mated.mean()) - float(nonmated.mean())) / math.sqrt(pooled)


def pcc(a, b) -> float:
    """Pearson product-moment correlation of two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ContractError("pcc needs two equal-length series of length >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        raise ContractError("pcc undefined for zero-variance series")
    return min(1.0, max(-1.0, float(ac @ bc) / denom))


def correlation_matrix(aligned: AlignedScores) -> CorrelationMatrix:
    """Pairwise score correlations across matchers (unit diagonal)."""
    n = len(aligned.matcher_ids)
    for j, mid in enumerate(aligned.matcher_ids):
        if float(np.var(aligned.matrix[:, j])) == 0.0:
            raise ContractError(f"matcher {mid!r} has zero score variance")
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = pcc(aligned.matrix[:, i], aligned.matrix[:, j])
            values[i][j] = values[j][i] = r
    return CorrelationMatrix(aligned.matcher_ids, tuple(tuple(row) for row in values))


def evaluate_table(table) -> MetricsReport:
    """All five headline metrics for one labeled score column."""
    curves = build_curves(table)
    return MetricsReport(
        auc_pct=100.0 * auc(curves),
        eer_pct=100.0 * eer(curves),
        cohens_d=cohens_d(table),
        fmr_at_fnmr1_pct=100.0 * rate_at_operating_point(curves, fnmr=0.01),
        fnmr_at_fmr1_pct=100.0 * rate_at_operating_point(curves, fmr=0.01),
        n_mated=curves.n_mated,
        n_nonmated=curves.n_nonmated,
    )


def format_report(report: MetricsReport, precision: int = 2) -> str:
    """Human-readable block with percentages at fixed precision."""
    rows = [
        ("AUC [%]", report.auc_pct),
        ("EER [%]", report.eer_pct),
        ("Cohen's d", report.cohens_d),
        ("%FMR @ FNMR=1%", report.fmr_at_fnmr1_pct),
        ("%FNMR @ FMR=1%", report.fnmr_at_fmr1_pct),
    ]
    lines = [f"{label:<16} {value:.{precision}f}" for label, value in rows]
    lines.append(f"{'mated/non-mated':<16} {report.n_mated}/{report.n_nonmated}")
    return "\n".join(lines)


def curves_csv_text(curves: ThresholdCurves) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("threshold", "fmr", "fnmr"))
    for t, a, b in zip(curves.thresholds, curves.fmr, curves.fnmr):
        writer.writerow((repr(float(t)), repr(float(a)), repr(float(b))))
    return buf.getvalue()


def roc_csv_text(roc: RocCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("fmr", "one_minus_fnmr"))
    for x, y in roc.points:
        writer.writerow((repr(x), repr(y)))
    return buf.getvalue()
