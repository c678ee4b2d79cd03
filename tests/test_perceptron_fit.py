"""The perceptron fitter: damped Newton steps on ridge-penalised mean
cross-entropy, checked against a general-purpose optimiser, on separable
data, at the iteration cap and over the demo grid."""

import json

import numpy as np
import pytest

from scorefuse import fusion
from scorefuse.cli import main
from scorefuse.errors import ContractError, ParseError
from scorefuse.fusion import (
    RIDGE,
    PerceptronHyper,
    _cross_entropy,
    _sigmoid,
    fuser_from_dict,
    fuser_to_dict,
    train_perceptron,
)

from helpers import aligned


def _noisy(n: int, n_matchers: int, seed: int):
    """Overlapping classes: every matcher sees a mated shift under wide noise."""
    rng = np.random.default_rng(seed)
    mated = rng.random(n) < 0.3
    shift = rng.uniform(0.05, 0.3, n_matchers)
    scores = np.clip(0.4 + mated[:, None] * shift + rng.normal(0.0, 0.15, (n, n_matchers)), 0.0, 1.0)
    return aligned({f"m{j}": scores[:, j] for j in range(n_matchers)}, mated)


def _objective(val, theta):
    """Mean cross-entropy plus (RIDGE / 2) ||w||^2 and its gradient; theta = (w, b)."""
    x = np.column_stack([val.matrix, np.ones(len(val.matrix))])
    y = val.mated_mask.astype(np.float64)
    p = _sigmoid(x @ theta)
    w = np.append(theta[:-1], 0.0)
    return _cross_entropy(p, y) + 0.5 * RIDGE * float(w @ w), x.T @ (p - y) / len(y) + RIDGE * w


@pytest.mark.parametrize("n, n_matchers, seed", [(60, 1, 1), (500, 3, 2), (4000, 5, 3)])
def test_fit_matches_a_general_optimiser(n, n_matchers, seed):
    optimize = pytest.importorskip("scipy.optimize")
    val = _noisy(n, n_matchers, seed)
    fuser = train_perceptron(val)
    assert fuser.training_log.stop_reason == "converged"
    theta = np.array([*fuser.coefficients, fuser.bias])
    ref = optimize.minimize(
        lambda t: _objective(val, t), np.zeros(n_matchers + 1), jac=True, method="BFGS",
        options={"gtol": 1e-10},
    )
    np.testing.assert_allclose(theta, ref.x, rtol=0, atol=1e-6)
    assert _objective(val, theta)[0] <= ref.fun + 1e-12
    assert fuser.training_log.final_loss == pytest.approx(
        _cross_entropy(fuser.predict(val.matrix), val.mated_mask.astype(np.float64)), abs=1e-15
    )


@pytest.mark.parametrize(
    "columns",
    [
        {"m": [1.0, 0.0]},
        {"a": [0.9, 0.1], "b": [0.6, 0.5]},
    ],
)
def test_separable_data_converges_to_finite_parameters(columns):
    labels = [i % 2 == 0 for i in range(200)]
    val = aligned({m: [hi if f else lo for f in labels] for m, (hi, lo) in columns.items()}, labels)
    fuser = train_perceptron(val)
    log = fuser.training_log
    assert log.stop_reason == "converged"
    assert log.epochs_run < 50
    assert log.final_loss < log.initial_loss
    preds = fuser.predict(val.matrix)
    assert np.all(preds[val.mated_mask] > 0.5) and np.all(preds[~val.mated_mask] < 0.5)


def test_iteration_cap_reports_max_iter():
    val = _noisy(300, 2, 4)
    log = train_perceptron(val, PerceptronHyper(max_epochs=1)).training_log
    assert (log.epochs_run, log.stop_reason) == (1, "max_iter")
    assert log.final_loss < log.initial_loss


def test_zero_tolerance_stops_once_the_objective_stops_falling():
    val = _noisy(500, 3, 2)
    log = train_perceptron(val, PerceptronHyper(tolerance=0.0)).training_log
    assert log.stop_reason == "converged" and log.epochs_run < 100
    assert log.final_loss == pytest.approx(train_perceptron(val).training_log.final_loss, abs=1e-9)


@pytest.mark.parametrize(
    "mated, non_mated, halved",
    [([0.0, 0.999], [0.5, 0.5], True), ([0.9, 0.8], [0.1, 0.2], False)],
    ids=["overshooting-step", "full-steps"],
)
def test_a_step_that_raises_the_objective_is_halved(monkeypatch, mated, non_mated, halved):
    """The objective is evaluated once before the fit, once per step tried and
    twice for the losses, so a fit that halves no step makes ``epochs_run + 3``
    calls. On the first table the full Newton step overshoots."""
    calls = []
    monkeypatch.setattr(fusion, "_cross_entropy", lambda p, y: calls.append(1) or _cross_entropy(p, y))
    val = aligned({"m": mated + non_mated}, [True] * len(mated) + [False] * len(non_mated))
    log = train_perceptron(val).training_log
    assert log.stop_reason == "converged" and log.final_loss <= log.initial_loss
    extra = len(calls) - (log.epochs_run + 3)  # one per halving
    assert extra > 0 if halved else extra == 0


@pytest.mark.parametrize(
    "bad",
    [
        {"max_epochs": 2.5},
        {"max_epochs": True},
        {"max_epochs": 0},
        {"tolerance": float("nan")},
        {"tolerance": -1e-9},
        {"tolerance": float("inf")},
        {"max_epochs": -2},
        {"tolerance": float("-inf")},
    ],
)
def test_hyperparameters_out_of_schema_are_rejected(bad):
    with pytest.raises(ContractError, match=next(iter(bad))):
        PerceptronHyper(**bad)


def test_stop_reason_round_trips_and_may_be_absent():
    fuser = train_perceptron(_noisy(200, 2, 6))
    doc = fuser_to_dict(fuser)
    assert doc["training_log"]["stop_reason"] == "converged"
    assert fuser_from_dict(doc) == fuser
    del doc["training_log"]["stop_reason"]
    assert fuser_from_dict(doc).training_log.stop_reason is None
    doc["training_log"]["stop_reason"] = "bored"
    with pytest.raises(ParseError, match="stop_reason"):
        fuser_from_dict(doc)


def test_every_demo_grid_perceptron_converges(tmp_path):
    demo = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo), "--seed", "1"]) == 0
    config_path = demo / "config.json"
    config = json.loads(config_path.read_text())
    config["kinds"] = ["intra", "cross_distance", "cross_camera", "cross_both"]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["grid", "--config", str(config_path)]) == 0
    logs = [
        json.loads(path.read_text())["fitted"]["training_log"]
        for path in (demo / "results").glob("result__*__perceptron.json")
    ]
    assert len(logs) == 16
    assert all(log["stop_reason"] == "converged" for log in logs)
    assert all(log["epochs_run"] < 20 and log["final_loss"] < log["initial_loss"] for log in logs)
