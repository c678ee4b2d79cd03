"""Score-level fusion rules: plain and Bayesian averages, weighted
combinations with correlation-estimated weights, and a logistic (logit
perceptron) stacker trained on validation scores.

All fusers consume per-matcher scores already normalized into [0, 1] and
emit a fused score in [0, 1], so the evaluation stack treats fused output
like any single matcher's.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, TrainingError
from .metrics import pcc
from .provenance import atomic_write_text, read_json
from .tables import AlignedScores, ScoreTable

WEIGHT_PROVENANCES = ("uniform", "pcc", "manual")

DEFAULT_CLAMP_EPSILON = 1e-6

_TINY = 2.2250738585072014e-308  # smallest positive normal double
_BELOW_ONE = 1.0 - 2.0**-53  # largest double below 1.0


@dataclass(frozen=True)
class FusionWeights:
    """Non-negative per-matcher weights for the weighted-average rule."""

    matcher_ids: tuple[str, ...]
    weights: tuple[float, ...]
    provenance: str
    raw_pcc: tuple[float, ...] | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.weights) != len(self.matcher_ids):
            raise ContractError("weights and matcher_ids must have equal length")
        if self.provenance not in WEIGHT_PROVENANCES:
            raise ContractError(f"provenance must be one of {WEIGHT_PROVENANCES}")
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise ContractError(f"weights must be finite and >= 0, got {self.weights}")
        if not any(w > 0 for w in self.weights):
            raise ContractError("weight sum must be positive")


@dataclass(frozen=True)
class TrainingLog:
    """How a perceptron fit went. ``epochs_run`` counts Newton iterations;
    ``stop_reason`` is ``"converged"`` or ``"max_iter"``, or ``None`` when
    read from a document written before the field existed."""

    initial_loss: float
    final_loss: float
    epochs_run: int
    seed: int
    stop_reason: str | None = None


@dataclass(frozen=True)
class PerceptronFuser:
    """A single logistic unit sigma(w . s + b) over matcher scores."""

    matcher_ids: tuple[str, ...]
    coefficients: tuple[float, ...]
    bias: float
    training_log: TrainingLog

    def __post_init__(self):
        if len(self.coefficients) != len(self.matcher_ids):
            raise ContractError("coefficients and matcher_ids must have equal length")
        if not all(math.isfinite(c) for c in self.coefficients) or not math.isfinite(self.bias):
            raise ContractError("perceptron parameters must be finite")

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """sigma of each row's ``w . s + b``, its exact terms summed as in the weighted mean."""
        products = _two_product(matrix, np.asarray(self.coefficients, dtype=np.float64))
        z, _ = _row_sums(np.hstack([*products, np.full((len(matrix), 1), self.bias)]))
        return _sigmoid(z)


def _scores_row(scores, fuser: str) -> np.ndarray:
    row = np.array([list(scores)], dtype=np.float64)
    if not row.size:
        raise ContractError(f"{fuser} needs at least one score")
    return row


def fuse_average(scores) -> float:
    """Arithmetic mean, correctly rounded: the ``avg`` kernel on one row.

    E.g. the mean of {0.2, 0.4, 0.6} is exactly 0.4, in any order.
    """
    return float(_weighted_mean(_scores_row(scores, "fuse_average"))[0])


def fuse_bayesian(scores, clamp_epsilon: float = DEFAULT_CLAMP_EPSILON) -> float:
    """Product-odds combination prod(s) / (prod(s) + prod(1-s)): the
    ``bayes`` kernel on one row.

    Scores are clamped to [eps, 1-eps] first, which removes the 0/0
    singularity at unanimous extreme scores. The quotient is evaluated as a
    sigmoid of summed log-odds, which is the same quantity but cannot
    underflow however many scores are fused.
    """
    row = _scores_row(scores, "fuse_bayesian")
    if not (0.0 < clamp_epsilon < 0.5):
        raise ContractError(f"clamp_epsilon must be in (0, 0.5), got {clamp_epsilon}")
    return float(_bayes(row, clamp_epsilon)[0])


def fuse_weighted(scores, weights: FusionWeights) -> float:
    """Weighted mean sum(w*s) / sum(w), correctly rounded: the weighted kernel on one row."""
    row = _scores_row(scores, "fuse_weighted")
    if row.shape[1] != len(weights.weights):
        raise ContractError(f"got {row.shape[1]} scores for {len(weights.weights)} weights")
    return float(_weighted_mean(row, weights.weights)[0])


# Row kernels. Each works on an (n, k) matrix elementwise and row by row, so
# no reordering of a row's entries and no memory layout can change a bit; the
# scalar fusers above are one-row calls into them.

_BLOCK_ROWS = 8192  # rows apply_fusion hands a kernel at once
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's constant, halves a double's mantissa


def _two_sum(a, b):
    """Knuth's TwoSum: ``fl(a + b)`` and its exact rounding error."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_product(a, b):
    """Dekker's TwoProduct: ``fl(a * b)`` and its exact rounding error
    (for factors below 2**996 and products clear of underflow)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(x):
    """Veltkamp's split of ``x`` into a high and a low half, ``hi + lo == x``."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


def _row_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sum as a double-double ``hi + lo`` (``hi = fl(hi + lo)``).

    The row is sorted, then added column by column with TwoSum while the
    rounding errors are summed alongside: Sum2 of Ogita, Rump & Oishi
    (2005), as accurate as summing in twice the precision.
    """
    cols = np.sort(terms, axis=1).T
    hi, lo = cols[0], np.zeros(len(terms))
    for col in cols[1:]:
        hi, err = _two_sum(hi, col)
        lo = lo + err
    return _two_sum(hi, lo)


def _dd_divide(num, den) -> np.ndarray:
    """Double-double quotient ``num / den`` rounded to double: a first
    quotient, plus its correction from the remainder, whose leading part
    TwoProduct makes exact."""
    (a, b), (c, d) = num, den
    q = a / c
    p, e = _two_product(q, c)
    return q + ((((a - p) - e) + b) - q * d) / c


def _weighted_mean(mat: np.ndarray, weights=None) -> np.ndarray:
    """Each row's ``sum(w * s) / sum(w)``, unit weights if ``weights`` is None.

    Products split exactly into two terms and both sums are double-doubles,
    so the mean is correctly rounded unless it lies within about 2**-100
    (relative) of a rounding boundary; a tie still rounds correctly when the
    weights sum to a double.
    """
    if weights is None:  # unit weights: the products are the scores themselves
        return _dd_divide(_row_sums(mat), (float(mat.shape[1]), 0.0))
    w = np.asarray(weights, dtype=np.float64)
    w = np.ldexp(w, -np.frexp(w.max())[1])  # max into [0.5, 1): splits stay finite, the mean is unchanged
    return _dd_divide(_row_sums(np.hstack(_two_product(mat, w))), _row_sums(w[None, :]))


def _bayes(mat: np.ndarray, clamp_epsilon: float) -> np.ndarray:
    """Each row's sigmoid of its summed log-odds, clamped into (0, 1)."""
    clamped = np.clip(mat, clamp_epsilon, 1.0 - clamp_epsilon)
    log_odds, _ = _row_sums(np.log(clamped) - np.log(1.0 - clamped))
    # sigma rounds to 0.0 / 1.0 beyond ~37 units of log-odds; keep (0, 1) open
    return np.clip(_sigmoid(log_odds), _TINY, _BELOW_ONE)


def estimate_pcc_weights(validation: AlignedScores) -> FusionWeights:
    """Weight each matcher by the correlation of its validation scores with
    the mated labels (0/1); negative correlations clamp to weight 0.

    Raw correlations are kept for diagnostics. A zero-variance column gets
    weight 0 with a recorded note; if everything clamps to 0 the fall-back
    is uniform weights (provenance ``uniform``).
    """
    labels = validation.mated_mask.astype(np.float64)
    n_mated = int(labels.sum())
    if n_mated == 0 or n_mated == len(labels):
        raise ContractError("validation scores must contain both classes")
    raw: list[float] = []
    notes: list[str] = []
    for j, mid in enumerate(validation.matcher_ids):
        col = validation.matrix[:, j]
        if float(np.var(col)) == 0.0:
            raw.append(0.0)
            notes.append(f"matcher {mid!r} has zero score variance; weight forced to 0")
            continue
        raw.append(pcc(col, labels))
    clamped = [max(0.0, r) for r in raw]
    if any(w > 0.0 for w in clamped):
        return FusionWeights(
            validation.matcher_ids, tuple(clamped), "pcc", tuple(raw), tuple(notes)
        )
    notes.append("all correlations clamped to 0; falling back to uniform weights")
    uniform = tuple(1.0 for _ in validation.matcher_ids)
    return FusionWeights(validation.matcher_ids, uniform, "uniform", tuple(raw), tuple(notes))


RIDGE = 1e-4  # lambda of the (lambda / 2) * ||w||^2 penalty; the bias is not penalised

STOP_REASONS = ("converged", "max_iter")

_MAX_HALVINGS = 60  # a step shrunk 2**60-fold moves no parameter


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class PerceptronHyper:
    """Fit settings. ``max_epochs`` caps the Newton iterations; the fit stops
    earlier once an iteration lowers the objective by less than
    ``tolerance``. ``learning_rate`` is accepted for compatibility and
    ignored: Newton steps need no step size."""

    learning_rate: float = 0.05
    max_epochs: int = 10000
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        problems = []
        if not (_is_real(self.learning_rate) and self.learning_rate > 0):
            problems.append("learning_rate must be a finite number > 0")
        if not (_is_int(self.max_epochs) and self.max_epochs >= 1):
            problems.append("max_epochs must be an integer >= 1")
        if not (_is_real(self.tolerance) and self.tolerance >= 0):
            problems.append("tolerance must be a finite number >= 0")
        if not _is_int(self.seed):
            problems.append("seed must be an integer")
        if problems:
            raise ContractError(f"invalid perceptron hyperparameters: {'; '.join(problems)}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def train_perceptron(
    validation: AlignedScores, hyper: PerceptronHyper | None = None
) -> PerceptronFuser:
    """Fit the logistic unit by damped Newton steps (iteratively reweighted
    least squares) on mean cross-entropy plus ``RIDGE / 2 * ||w||^2`` over
    the validation rows.

    The ridge keeps the optimum finite on separable data. Weights and bias
    start at zero, so the fit is deterministic; the seed is recorded in the
    training log for provenance only. Each iteration solves one
    (N+1)x(N+1) Newton system and halves the step until the objective does
    not increase, so the loss never ends above where it began. The fit stops
    once an iteration lowers the objective by less than ``tolerance``
    (``converged``) or after ``max_epochs`` iterations (``max_iter``).
    """
    hyper = hyper or PerceptronHyper()
    y = validation.mated_mask.astype(np.float64)
    n_mated = int(y.sum())
    if n_mated == 0 or n_mated == len(y):
        raise ContractError("validation scores must contain both classes")
    n, n_feat = validation.matrix.shape
    x = np.column_stack([validation.matrix, np.ones(n)])  # last column fits the bias
    penalty = np.full(n_feat + 1, RIDGE)
    penalty[-1] = 0.0

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        p = _sigmoid(x @ theta)
        return _cross_entropy(p, y) + 0.5 * float(penalty @ theta**2), p

    theta = np.zeros(n_feat + 1)
    value, p = objective(theta)
    initial_loss = _cross_entropy(p, y)
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, hyper.max_epochs + 1):
        grad = x.T @ (p - y) / n + penalty * theta
        hessian = (x.T * (p * (1.0 - p))) @ x / n + np.diag(penalty)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            raise TrainingError(f"singular Newton system at iteration {iterations}") from None
        for _ in range(_MAX_HALVINGS):
            trial = theta - step
            trial_value, trial_p = objective(trial)
            if trial_value <= value:
                break
            step = step / 2.0
        else:
            stop_reason = "converged"  # no step lowers the objective: at its minimum
            break
        decrease = value - trial_value
        theta, value, p = trial, trial_value, trial_p
        if decrease < hyper.tolerance:
            stop_reason = "converged"
            break
    log = TrainingLog(initial_loss, _cross_entropy(p, y), iterations, hyper.seed, stop_reason)
    w = theta[:-1]
    return PerceptronFuser(validation.matcher_ids, tuple(float(c) for c in w), float(theta[-1]), log)


def apply_fusion(method, test: AlignedScores) -> ScoreTable:
    """Fuse every row of ``test`` with the given method.

    ``method`` is ``"avg"``, ``"bayes"``, a :class:`FusionWeights`, or a
    :class:`PerceptronFuser`; parametric methods must carry exactly the
    test matcher ids, in order. The result is a [0, 1] score table named
    after the method (``avg``, ``bayes``, ``pcc_avg``, ``weighted`` or
    ``perceptron``) over ``test``'s pair columns, so row order is preserved.
    """
    if isinstance(method, FusionWeights):
        method_id = "pcc_avg" if method.provenance == "pcc" else "weighted"
        kernel = functools.partial(_weighted_mean, weights=method.weights)
    elif isinstance(method, PerceptronFuser):
        method_id, kernel = "perceptron", method.predict
    elif method == "avg":
        method_id, kernel = "avg", _weighted_mean
    elif method == "bayes":
        method_id, kernel = "bayes", functools.partial(_bayes, clamp_epsilon=DEFAULT_CLAMP_EPSILON)
    else:
        raise ContractError(f"unknown fusion method {method!r}")
    if not isinstance(method, str) and method.matcher_ids != test.matcher_ids:
        raise ContractError(f"method matchers {method.matcher_ids} do not match test matchers {test.matcher_ids}")
    # blocks of rows keep the kernels' temporaries in cache; no row sees another
    blocks = range(0, len(test), _BLOCK_ROWS)
    fused = np.concatenate([kernel(test.matrix[i : i + _BLOCK_ROWS]) for i in blocks])
    return ScoreTable(method_id, (0.0, 1.0), test.columns, np.clip(fused, 0.0, 1.0))


def fuser_to_dict(fuser: FusionWeights | PerceptronFuser) -> dict:
    """JSON-ready form of a fitted fuser, for reuse across runs."""
    if isinstance(fuser, FusionWeights):
        return {
            "kind": "weights",
            "matcher_ids": list(fuser.matcher_ids),
            "weights": list(fuser.weights),
            "provenance": fuser.provenance,
            "raw_pcc": None if fuser.raw_pcc is None else list(fuser.raw_pcc),
            "notes": list(fuser.notes),
        }
    if isinstance(fuser, PerceptronFuser):
        return {
            "kind": "perceptron",
            "matcher_ids": list(fuser.matcher_ids),
            "coefficients": list(fuser.coefficients),
            "bias": fuser.bias,
            "training_log": {
                "initial_loss": fuser.training_log.initial_loss,
                "final_loss": fuser.training_log.final_loss,
                "epochs_run": fuser.training_log.epochs_run,
                "seed": fuser.training_log.seed,
                "stop_reason": fuser.training_log.stop_reason,
            },
        }
    raise ContractError(f"cannot serialize {fuser!r}")


def fuser_from_dict(doc: dict) -> FusionWeights | PerceptronFuser:
    try:
        kind = doc["kind"]
        ids = tuple(str(m) for m in doc["matcher_ids"])
        if kind == "weights":
            raw = doc.get("raw_pcc")
            return FusionWeights(
                ids,
                tuple(float(w) for w in doc["weights"]),
                str(doc["provenance"]),
                None if raw is None else tuple(float(r) for r in raw),
                tuple(str(n) for n in doc.get("notes", ())),
            )
        if kind == "perceptron":
            log = doc["training_log"]
            return PerceptronFuser(
                ids,
                tuple(float(c) for c in doc["coefficients"]),
                float(doc["bias"]),
                TrainingLog(
                    float(log["initial_loss"]),
                    float(log["final_loss"]),
                    int(log["epochs_run"]),
                    int(log["seed"]),
                    _stop_reason(log.get("stop_reason")),
                ),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed fuser document: {exc}") from None
    raise ParseError(f"unknown fuser kind {doc.get('kind')!r}")


def _stop_reason(value) -> str | None:
    if value is not None and value not in STOP_REASONS:
        raise ValueError(f"stop_reason must be one of {STOP_REASONS}, got {value!r}")
    return value


def save_fuser(fuser: FusionWeights | PerceptronFuser, path) -> None:
    atomic_write_text(path, json.dumps(fuser_to_dict(fuser), indent=2, sort_keys=True) + "\n")


def load_fuser(path) -> FusionWeights | PerceptronFuser:
    return fuser_from_dict(read_json(path))
