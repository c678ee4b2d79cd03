"""Experiment grids over acquisition settings.

A plan item pairs a train setting with a test setting; its kind records
which setting fields differ (``intra`` = none, ``cross_distance`` /
``cross_camera`` / ``cross_both`` within one dataset, ``cross_dataset``
across datasets). Running an item fits any parametric fuser on the train
setting's validation scores only, evaluates on the test setting's scores,
and refuses to run if validation and test share comparison pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, LeakageError
from .fusion import (
    FusionWeights,
    PerceptronFuser,
    PerceptronHyper,
    apply_fusion,
    estimate_pcc_weights,
    fuser_to_dict,
    train_perceptron,
)
from .metrics import MetricsReport, evaluate_table
from .tables import AlignedScores, ScoreTable, SettingDescriptor

PLAN_KINDS = ("intra", "cross_distance", "cross_camera", "cross_both", "cross_dataset")
METHOD_KINDS = ("single", "avg", "bayes", "pcc_avg", "weighted", "perceptron")
PARAMETRIC_KINDS = ("pcc_avg", "weighted", "perceptron")


def classify_pair(train: SettingDescriptor, test: SettingDescriptor) -> str:
    """Which plan kind a (train, test) setting pair belongs to."""
    if train.dataset_id != test.dataset_id:
        return "cross_dataset"
    if train == test:
        return "intra"
    camera_differs = train.camera_id != test.camera_id
    distance_differs = train.distance_m != test.distance_m
    if camera_differs and distance_differs:
        return "cross_both"
    return "cross_camera" if camera_differs else "cross_distance"


@dataclass(frozen=True)
class PlanItem:
    train_setting: SettingDescriptor
    test_setting: SettingDescriptor
    kind: str

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ContractError(f"kind must be one of {PLAN_KINDS}, got {self.kind!r}")
        actual = classify_pair(self.train_setting, self.test_setting)
        if actual != self.kind:
            raise ContractError(
                f"kind {self.kind!r} inconsistent with settings "
                f"({self.train_setting} -> {self.test_setting}, which is {actual!r})"
            )

    def key(self) -> str:
        return f"{self.kind}__{self.train_setting.key()}__{self.test_setting.key()}"


@dataclass(frozen=True)
class ExperimentPlan:
    items: tuple[PlanItem, ...]


@dataclass(frozen=True)
class MethodSpec:
    """One evaluated method: a single matcher or a fusion over several."""

    method_id: str
    kind: str
    matcher_ids: tuple[str, ...]
    weights: FusionWeights | None = None
    hyper: PerceptronHyper | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ContractError(f"method kind must be one of {METHOD_KINDS}")
        if not self.matcher_ids:
            raise ContractError(f"method {self.method_id!r} names no matchers")
        if self.kind == "single" and len(self.matcher_ids) != 1:
            raise ContractError(f"single method {self.method_id!r} needs exactly one matcher")
        if self.kind == "weighted":
            if self.weights is None:
                raise ContractError(f"weighted method {self.method_id!r} needs weights")
            if self.weights.matcher_ids != self.matcher_ids:
                raise ContractError(
                    f"weights of {self.method_id!r} cover {self.weights.matcher_ids}, "
                    f"method names {self.matcher_ids}"
                )


@dataclass(frozen=True)
class ExperimentResult:
    item: PlanItem
    method_id: str
    report: MetricsReport
    seed: int
    provenance: Mapping[str, str]
    fitted: dict | None = None


def _setting_sort_key(s: SettingDescriptor):
    return (s.dataset_id, s.camera_id, s.distance_m)


def plan_experiments(settings: list[SettingDescriptor], kinds) -> ExperimentPlan:
    """Enumerate plan items for the requested kinds, in a fixed order.

    Intra yields one item per setting; each cross kind yields every ordered
    (train, test) pair whose differing fields match that kind. Items are
    ordered by kind (as listed in PLAN_KINDS), then lexicographically by
    setting fields.
    """
    if not settings:
        raise ContractError("plan_experiments needs at least one setting")
    if len(set(settings)) != len(settings):
        raise ContractError("settings must be distinct")
    kinds = set(kinds)
    unknown = kinds - set(PLAN_KINDS)
    if unknown:
        raise ContractError(f"unknown plan kinds: {sorted(unknown)}")
    ordered = sorted(settings, key=_setting_sort_key)
    items = []
    for kind in PLAN_KINDS:
        if kind not in kinds:
            continue
        if kind == "intra":
            items.extend(PlanItem(s, s, "intra") for s in ordered)
            continue
        for train in ordered:
            for test in ordered:
                if train != test and classify_pair(train, test) == kind:
                    items.append(PlanItem(train, test, kind))
    return ExperimentPlan(tuple(items))


def _check_settings(aligned: AlignedScores, expected: SettingDescriptor, role: str) -> None:
    c = aligned.columns
    wrong = [code for code, setting in enumerate(c.settings) if setting != expected]
    if not wrong:
        return
    row = int(np.flatnonzero(np.isin(c.setting_codes, wrong))[0])
    setting = c.settings[c.setting_codes[row]]
    raise ContractError(
        f"{role} scores contain pair {c.key(row)} from setting "
        f"{setting.key()}, expected {expected.key()}"
    )


def fit_method(method: MethodSpec, val_scores: AlignedScores) -> FusionWeights | PerceptronFuser:
    """Fit a ``pcc_avg`` or ``perceptron`` method on its matchers' validation scores."""
    val_sub = val_scores.select(method.matcher_ids)
    if method.kind == "pcc_avg":
        return estimate_pcc_weights(val_sub)
    return train_perceptron(val_sub, method.hyper)


def fuse_method(
    method: MethodSpec,
    val_scores: AlignedScores | None,
    test_scores: AlignedScores,
    fit: Callable[[MethodSpec, AlignedScores], FusionWeights | PerceptronFuser] = fit_method,
) -> tuple[ScoreTable, FusionWeights | PerceptronFuser | None]:
    """Fuse the test scores of ``method``'s matchers by its rule.

    ``pcc_avg`` and ``perceptron`` are first fitted by ``fit(method,
    val_scores)``; a comparison pair shared between the validation and test
    scores raises :class:`LeakageError`. Returns the fused table and the
    fuser it ran (fitted, or the method's weights), or None for a fixed rule.
    """
    if val_scores is not None:
        overlap = val_scores.keys() & test_scores.keys()
        if overlap:
            shown = ", ".join(map(str, sorted(overlap)[:5]))
            raise LeakageError(
                f"{len(overlap)} comparison pair(s) appear in both validation and "
                f"test partitions: {shown}"
            )
    # a single matcher goes through the average, the identity for one column
    fuser = {"single": "avg", "avg": "avg", "bayes": "bayes", "weighted": method.weights}.get(method.kind)
    if fuser is None:
        if val_scores is None:
            raise ContractError(f"method {method.method_id!r}: validation scores required")
        fuser = fit(method, val_scores)
    fused = apply_fusion(fuser, test_scores.select(method.matcher_ids))
    return fused, None if isinstance(fuser, str) else fuser


def run_experiment(
    item: PlanItem,
    method: MethodSpec,
    val_scores: AlignedScores | None,
    test_scores: AlignedScores,
    *,
    seed: int,
    provenance: Mapping[str, str] | None = None,
    enforce_validation_setting: bool = True,
    fit: Callable[[MethodSpec, AlignedScores], FusionWeights | PerceptronFuser] = fit_method,
) -> ExperimentResult:
    """Fit (if parametric), evaluate on the test scores, package the result.

    Parametric methods are fitted on ``val_scores`` only, which must come
    from the train setting (checked unless ``enforce_validation_setting``
    is off), through :func:`fuse_method`; a grid passes a ``fit`` that
    fits each (train setting, method) once.
    """
    missing = [m for m in method.matcher_ids if m not in test_scores.matcher_ids]
    if missing:
        raise ContractError(
            f"test scores lack matchers {missing} required by {method.method_id!r}"
        )
    _check_settings(test_scores, item.test_setting, "test")
    if val_scores is not None and enforce_validation_setting:
        _check_settings(val_scores, item.train_setting, "validation")
    fused, fuser = fuse_method(method, val_scores, test_scores, fit)

    prov = {"test_scores_sha256": test_scores.sha256}
    if val_scores is not None:
        prov["validation_scores_sha256"] = val_scores.sha256
    if provenance:
        prov.update(provenance)
    report = evaluate_table(fused)
    fitted = None if fuser is None else fuser_to_dict(fuser)
    return ExperimentResult(item, method.method_id, report, seed, prov, fitted)


METRIC_FIELDS = (
    "auc_pct",
    "eer_pct",
    "cohens_d",
    "fmr_at_fnmr1_pct",
    "fnmr_at_fmr1_pct",
)

GROUP_BYS = ("method", "method_kind", "method_distance")


def _group_key(result: ExperimentResult, group_by: str) -> tuple:
    if group_by == "method":
        return (result.method_id,)
    if group_by == "method_kind":
        return (result.method_id, result.item.kind)
    if group_by == "method_distance":
        return (result.method_id, result.item.test_setting.distance_m)
    raise ContractError(f"group_by must be one of {GROUP_BYS}, got {group_by!r}")


def aggregate_results(results: list[ExperimentResult], group_by: str = "method") -> list[dict]:
    """Mean and sample standard deviation per metric per group.

    Groups keep first-appearance order of the (deterministically ordered)
    result list; a single-result group reports SD 0.0 by convention.
    """
    if not results:
        raise ContractError("aggregate_results needs at least one result")
    groups: dict[tuple, list[ExperimentResult]] = {}
    for res in results:
        groups.setdefault(_group_key(res, group_by), []).append(res)
    label_fields = {
        "method": ("method",),
        "method_kind": ("method", "kind"),
        "method_distance": ("method", "test_distance_m"),
    }[group_by]
    rows = []
    for key, members in groups.items():
        row: dict = dict(zip(label_fields, key))
        row["n_results"] = len(members)
        for field in METRIC_FIELDS:
            values = np.array([getattr(m.report, field) for m in members], dtype=np.float64)
            row[f"{field}_mean"] = float(values.mean())
            row[f"{field}_sd"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        rows.append(row)
    return rows


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-ready form of one grid cell result."""
    return {
        "kind": result.item.kind,
        "train_setting": {
            "camera_id": result.item.train_setting.camera_id,
            "distance_m": result.item.train_setting.distance_m,
            "dataset_id": result.item.train_setting.dataset_id,
        },
        "test_setting": {
            "camera_id": result.item.test_setting.camera_id,
            "distance_m": result.item.test_setting.distance_m,
            "dataset_id": result.item.test_setting.dataset_id,
        },
        "method_id": result.method_id,
        "metrics": result.report.as_dict(),
        "seed": result.seed,
        "provenance": dict(sorted(result.provenance.items())),
        "fitted": result.fitted,
    }
