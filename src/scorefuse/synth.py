"""Synthetic labeled score tables with closed-form and brute-force oracles.

Mated and non-mated scores are drawn from class-conditional Gaussians via
the deterministic SplitMix64 / inverse-CDF machinery in :mod:`.rng`, one
substream per (matcher, class), so a (model, seed) pair reproduces the same
table on any platform. For unclamped models the headline metrics have
closed forms in the standard normal CDF, and small tables can be checked
against exhaustive pair counting / threshold sweeping, which makes the
whole metric and fusion stack testable without any real dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UnsupportedOracleError
from .metrics import class_scores
from .provenance import finite
from .rng import SplitMix64, normal_cdf, normal_quantile, substream_seed
from .tables import DEFAULT_SETTING, AlignedScores, PairColumns, ScoreTable, SettingDescriptor


@dataclass(frozen=True)
class GaussianScoreModel:
    """Class-conditional Gaussian score model."""

    mu_nonmated: float
    sigma_nonmated: float
    mu_mated: float
    sigma_mated: float
    n_mated: int
    n_nonmated: int
    seed: int
    clamp: bool = False

    def __post_init__(self):
        for name in ("mu_nonmated", "sigma_nonmated", "mu_mated", "sigma_mated"):
            if not finite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma_nonmated <= 0 or self.sigma_mated <= 0:
            raise ContractError("sigmas must be strictly positive")
        if self.n_mated < 1 or self.n_nonmated < 1:
            raise ContractError("class sizes must be positive")
        if 8 * (self.n_mated + self.n_nonmated) > 2**48:  # the most x86-64 or arm64 user space maps
            raise ContractError(f"{self.sizes}: their scores alone exceed the 2**48 bytes a process maps")

    @property
    def sizes(self) -> str:
        """The class sizes as errors name them, each above 10**15 in short form such as 1e+300."""
        from decimal import Context

        shown = [n if n <= 10**15 else f"{Context(prec=6).create_decimal(n).normalize():g}" for n in
                 (self.n_mated, self.n_nonmated)]
        return "class sizes n_mated={} and n_nonmated={}".format(*shown)


def synthetic_pairs(n_mated: int, n: int, tag: str, setting: SettingDescriptor) -> PairColumns:
    """``n`` pairs in one setting, the first ``n_mated`` of them mated.

    Row i has probe ``{tag}p{i:06d}``, reference ``{tag}r{i:06d}`` and probe
    subject ``{tag}s{i:06d}``; a non-mated row's reference subject is
    ``{tag}t{i:06d}``.
    """
    digits = [f"{i:06d}" for i in range(n)]
    subjects = [f"{tag}s{d}" for d in digits]
    return PairColumns(
        [f"{tag}p{d}" for d in digits],
        [f"{tag}r{d}" for d in digits],
        subjects,
        subjects[:n_mated] + [f"{tag}t{d}" for d in digits[n_mated:]],
        np.zeros(n, dtype=np.intp),
        (setting,),
    )


def generate_scores(
    model: GaussianScoreModel,
    *,
    matcher_id: str = "synthetic",
    setting: SettingDescriptor = DEFAULT_SETTING,
    id_tag: str = "",
) -> ScoreTable:
    """Sample one matcher's labeled table from the model.

    Mated rows come first. Scores use one substream per (matcher, class);
    ids are a pure function of the row index and ``id_tag``, so tables for
    different matchers of the same ``id_tag`` align on identical pairs.
    Give distinct tags to tables meant for different settings or splits,
    otherwise the protocol leakage guard will (correctly) fire.
    """
    mated_stream = SplitMix64(substream_seed(model.seed, "scores", matcher_id, "mated"))
    non_stream = SplitMix64(substream_seed(model.seed, "scores", matcher_id, "nonmated"))
    mated = model.mu_mated + model.sigma_mated * mated_stream.normals(model.n_mated)
    non = model.mu_nonmated + model.sigma_nonmated * non_stream.normals(model.n_nonmated)
    if model.clamp:
        mated = np.clip(mated, 0.0, 1.0)
        non = np.clip(non, 0.0, 1.0)
        declared = (0.0, 1.0)
    else:
        # inverse-CDF draws stay within ~8.3 sigma, so 9 sigma always covers
        sig = max(model.sigma_mated, model.sigma_nonmated)
        declared = (
            min(model.mu_mated, model.mu_nonmated) - 9.0 * sig,
            max(model.mu_mated, model.mu_nonmated) + 9.0 * sig,
        )
    n = model.n_mated + model.n_nonmated
    pairs = synthetic_pairs(model.n_mated, n, id_tag, setting)
    return ScoreTable(matcher_id, declared, pairs, np.concatenate([mated, non]))


def analytic_auc(model: GaussianScoreModel) -> float:
    """Phi((mu1 - mu0) / sqrt(sigma1^2 + sigma0^2)); needs clamp=False."""
    if model.clamp:
        raise UnsupportedOracleError("closed-form AUC assumes unclamped normals")
    delta = model.mu_mated - model.mu_nonmated
    return normal_cdf(delta / math.hypot(model.sigma_mated, model.sigma_nonmated))


def analytic_eer(model: GaussianScoreModel) -> float:
    """Phi(-(mu1 - mu0) / (2 sigma)) for equal class sigmas."""
    if model.clamp:
        raise UnsupportedOracleError("closed-form EER assumes unclamped normals")
    if model.sigma_mated != model.sigma_nonmated:
        raise UnsupportedOracleError("closed-form EER needs equal sigmas")
    delta = model.mu_mated - model.mu_nonmated
    return normal_cdf(-delta / (2.0 * model.sigma_mated))


def analytic_cohens_d(model: GaussianScoreModel) -> float:
    """(mu1 - mu0) / sqrt((sigma1^2 + sigma0^2) / 2)."""
    delta = model.mu_mated - model.mu_nonmated
    return delta / math.sqrt((model.sigma_mated**2 + model.sigma_nonmated**2) / 2.0)


def analytic_fnmr_at_fmr(model: GaussianScoreModel, q: float) -> float:
    """FNMR at the threshold where FMR = q, for unclamped normals."""
    if model.clamp:
        raise UnsupportedOracleError("closed form assumes unclamped normals")
    t = model.mu_nonmated + model.sigma_nonmated * normal_quantile(1.0 - q)
    return normal_cdf((t - model.mu_mated) / model.sigma_mated)


def analytic_fmr_at_fnmr(model: GaussianScoreModel, q: float) -> float:
    """FMR at the threshold where FNMR = q, for unclamped normals."""
    if model.clamp:
        raise UnsupportedOracleError("closed form assumes unclamped normals")
    t = model.mu_mated + model.sigma_mated * normal_quantile(q)
    return 1.0 - normal_cdf((t - model.mu_nonmated) / model.sigma_nonmated)


def _both_classes(table) -> tuple[np.ndarray, np.ndarray]:
    mated, non = class_scores(table)
    if len(mated) == 0 or len(non) == 0:
        raise ContractError("need at least one score per class")
    return mated, non


def brute_force_auc(table) -> float:
    """AUC by exhaustive pair counting, 1/2 credit for ties.

    Independent of the threshold-sweep implementation; intended as an
    oracle for modest table sizes (the comparison matrix is chunked, so
    memory stays bounded).
    """
    mated, non = _both_classes(table)
    wins = 0.0
    chunk = max(1, int(5e6) // max(1, len(non)))
    for start in range(0, len(mated), chunk):
        block = mated[start : start + chunk, None]
        wins += float((block > non[None, :]).sum())
        wins += 0.5 * float((block == non[None, :]).sum())
    return wins / (len(mated) * len(non))


def brute_force_eer(table) -> float:
    """EER by definitional re-count at every candidate threshold.

    Rates are recomputed from raw comparisons (no sorting shortcuts), then
    the same zero-or-bracket interpolation rule as :func:`metrics.eer` is
    applied.
    """
    mated, non = _both_classes(table)
    scores = np.unique(np.concatenate([mated, non]))
    thresholds = np.concatenate([[scores[0] - 1.0], scores, [scores[-1] + 1.0]])
    fmr = np.array([(non >= t).mean() for t in thresholds])
    fnmr = np.array([(mated < t).mean() for t in thresholds])
    d = fmr - fnmr
    for i in range(len(d)):
        if d[i] == 0.0:
            return float(fmr[i])
        if i + 1 < len(d) and d[i] > 0.0 and d[i + 1] < 0.0:
            alpha = d[i] / (d[i] - d[i + 1])
            return float(fmr[i] + alpha * (fmr[i + 1] - fmr[i]))
    raise ContractError("no crossing found; curves are malformed")


def make_complementary_matchers(
    separation: float, n_per_class: int, seed: int
) -> AlignedScores:
    """Two matchers seeing the same pairs through independent unit noise.

    Matcher scores are ``class_mean + noise`` with class means 0 / d and
    independent N(0, 1) noise per matcher, mapped into (0, 1) by the fixed
    affine map (x + 10) / (d + 20) (inverse-CDF draws cannot leave it).
    Affine maps commute with averaging and preserve ranks, so each matcher
    alone has analytic AUC Phi(d / sqrt(2)) and the average-fused scores
    have analytic AUC Phi(d).
    """
    if separation < 0:
        raise ContractError(f"separation must be >= 0, got {separation}")
    if n_per_class < 1:
        raise ContractError("n_per_class must be positive")
    d = float(separation)
    n = 2 * n_per_class
    lo, hi = -10.0, d + 10.0
    matcher_ids = ("matcher_1", "matcher_2")
    matrix = np.empty((n, 2), dtype=np.float64)
    means = np.concatenate([np.full(n_per_class, d), np.zeros(n_per_class)])
    for j, mid in enumerate(matcher_ids):
        stream = SplitMix64(substream_seed(seed, "complementary", mid))
        matrix[:, j] = (means + stream.normals(n) - lo) / (hi - lo)
    return AlignedScores(matcher_ids, synthetic_pairs(n_per_class, n, "c", DEFAULT_SETTING), matrix)
