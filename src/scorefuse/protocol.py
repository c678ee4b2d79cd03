"""Experiment grids over acquisition settings.

A plan item pairs a train setting with a test setting; its kind, derived
from the two, says which setting fields differ (``intra`` = none,
``cross_distance`` / ``cross_camera`` / ``cross_both`` within one dataset,
``cross_dataset`` across datasets). Running an item fits any parametric
fuser on the train setting's validation scores only, evaluates on the test
setting's scores, and refuses to run if validation and test share
comparison pairs (:func:`check_leakage`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable

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
from .kinds import FITTED_KINDS, METHOD_KINDS, PLAN_KINDS
from .metrics import MetricsReport, evaluate_table
from .tables import AlignedScores, ScoreTable, SettingDescriptor, shared_pairs


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

    @property
    def kind(self) -> str:
        return classify_pair(self.train_setting, self.test_setting)

    def key(self) -> str:
        return f"{self.kind}__{self.train_setting.key()}__{self.test_setting.key()}"


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
    fitted: dict | None = None


def plan_experiments(settings: list[SettingDescriptor], kinds) -> tuple[PlanItem, ...]:
    """The plan items of the requested kinds, in a fixed order.

    Every ordered (train, test) pair of settings whose kind is requested is
    an item, intra pairs included. Items are ordered by kind (as listed in
    PLAN_KINDS), then lexicographically by setting fields.
    """
    if not settings:
        raise ContractError("plan_experiments needs at least one setting")
    if len(set(settings)) != len(settings):
        raise ContractError("settings must be distinct")
    unknown = set(kinds) - set(PLAN_KINDS)
    if unknown:
        raise ContractError(f"unknown plan kinds: {sorted(unknown)}")
    ordered = sorted(settings, key=lambda s: (s.dataset_id, s.camera_id, s.distance_m))
    items = [item for train in ordered for test in ordered if (item := PlanItem(train, test)).kind in kinds]
    return tuple(sorted(items, key=lambda item: PLAN_KINDS.index(item.kind)))


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


def check_leakage(val_scores: AlignedScores, test_scores: AlignedScores) -> None:
    """Raise :class:`LeakageError` if the validation and test scores share a comparison pair."""
    overlap = shared_pairs(val_scores.columns, test_scores.columns)
    if overlap:
        shown = ", ".join(map(str, overlap[:5]))
        raise LeakageError(
            f"{len(overlap)} comparison pair(s) appear in both validation and "
            f"test partitions: {shown}"
        )


def fuse_method(
    method: MethodSpec,
    val_scores: AlignedScores | None,
    test_scores: AlignedScores,
    fit: Callable[[MethodSpec, AlignedScores], FusionWeights | PerceptronFuser] = fit_method,
    leakage: Callable[[AlignedScores, AlignedScores], None] = check_leakage,
) -> tuple[ScoreTable, FusionWeights | PerceptronFuser | None]:
    """Fuse the test scores of ``method``'s matchers by its rule.

    With validation scores, ``leakage(val_scores, test_scores)`` runs first.
    ``pcc_avg`` and ``perceptron`` are then fitted by ``fit(method,
    val_scores)``. Returns the fused table, named after the method's kind,
    and the fuser it ran (fitted, or the method's weights), or None for a
    fixed rule.
    """
    if val_scores is not None:
        leakage(val_scores, test_scores)
    if method.kind in FITTED_KINDS:
        if val_scores is None:
            raise ContractError(f"method {method.method_id!r}: validation scores required")
        fuser = fit(method, val_scores)
    else:  # a single matcher goes through the average, the identity for one column
        fuser = {"single": "avg", "avg": "avg", "bayes": "bayes", "weighted": method.weights}[method.kind]
    fused = apply_fusion(fuser, test_scores.select(method.matcher_ids))
    fused.matcher_id = method.kind
    return fused, None if isinstance(fuser, str) else fuser


def run_experiment(
    item: PlanItem,
    method: MethodSpec,
    val_scores: AlignedScores | None,
    test_scores: AlignedScores,
    *,
    fit: Callable[[MethodSpec, AlignedScores], FusionWeights | PerceptronFuser] = fit_method,
    leakage: Callable[[AlignedScores, AlignedScores], None] = check_leakage,
) -> ExperimentResult:
    """Fit (if parametric), evaluate on the test scores, package the result.

    Parametric methods are fitted on ``val_scores`` only, which must come
    from the train setting, through :func:`fuse_method`; a grid passes a
    ``fit`` that fits each (train setting, method) once, and a ``leakage``
    check that runs once per (train setting, test setting).
    """
    missing = [m for m in method.matcher_ids if m not in test_scores.matcher_ids]
    if missing:
        raise ContractError(
            f"test scores lack matchers {missing} required by {method.method_id!r}"
        )
    _check_settings(test_scores, item.test_setting, "test")
    if val_scores is not None:
        _check_settings(val_scores, item.train_setting, "validation")
    fused, fuser = fuse_method(method, val_scores, test_scores, fit, leakage)
    fitted = None if fuser is None else fuser_to_dict(fuser)
    return ExperimentResult(item, method.method_id, evaluate_table(fused), fitted)


METRIC_FIELDS = tuple(f.name for f in fields(MetricsReport) if f.name not in ("n_mated", "n_nonmated"))

# group_by -> {summary label: its value in a result}; a group is the results
# that share every label's value
GROUP_LABELS: dict[str, dict[str, Callable[[ExperimentResult], object]]] = {
    "method": {"method": lambda r: r.method_id},
    "method_kind": {"method": lambda r: r.method_id, "kind": lambda r: r.item.kind},
    "method_distance": {
        "method": lambda r: r.method_id,
        "test_distance_m": lambda r: r.item.test_setting.distance_m,
    },
}
GROUP_BYS = tuple(GROUP_LABELS)


def aggregate_results(results: list[ExperimentResult], group_by: str = "method") -> list[dict]:
    """Mean and sample standard deviation per metric per group.

    Groups keep first-appearance order of the (deterministically ordered)
    result list; a single-result group reports SD 0.0 by convention.
    """
    if not results:
        raise ContractError("aggregate_results needs at least one result")
    labels = GROUP_LABELS.get(group_by)
    if labels is None:
        raise ContractError(f"group_by must be one of {GROUP_BYS}, got {group_by!r}")
    groups: dict[tuple, list[ExperimentResult]] = {}
    for res in results:
        groups.setdefault(tuple(label(res) for label in labels.values()), []).append(res)
    rows = []
    for key, members in groups.items():
        row: dict = dict(zip(labels, key))
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
        "train_setting": asdict(result.item.train_setting),
        "test_setting": asdict(result.item.test_setting),
        "method_id": result.method_id,
        "metrics": asdict(result.report),
        "fitted": result.fitted,
    }
