"""Fig. 8 — qualitative prediction showcase on ETTm1.

The paper plots input-96-predict-192 target curves for Conformer vs
baselines.  We regenerate the quantitative backbone: the per-window
target-variable MSE of each model's forecast on shared test windows, and
assert Conformer's curve tracks the ground truth best-or-competitively.
"""

import numpy as np
import pytest

from _common import format_table, save_and_print
from repro.data import load_dataset
from repro.tensor import Tensor, no_grad
from repro.tensor.random import seed_everything
from repro.training import Trainer, active_profile, build_model, make_loaders

MODELS = ["conformer", "informer", "gru", "autoformer"]
PAPER_HORIZON = 192


def compute_showcase():
    # the figure must not depend on what earlier modules drew from the
    # global generator, which the models' dropout and flow seeds come from
    seed_everything(0)
    settings = active_profile()
    pred_len = settings.scaled_pred_len(PAPER_HORIZON)
    dataset = load_dataset("ettm1", n_points=settings.n_points)
    target_idx = dataset.target_index
    train, val, test = make_loaders(dataset, settings, pred_len)
    batch = next(iter(test))
    x_enc, x_mark, x_dec, y_mark, y = batch

    curves = {}
    scores = {}
    for name in MODELS:
        model = build_model(name, dataset.n_dims, dataset.n_dims, pred_len, settings)
        Trainer(model, learning_rate=settings.learning_rate, max_epochs=settings.max_epochs).fit(train, val)
        model.eval()
        with no_grad():
            outputs = model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
        forecast = model.point_forecast(outputs)
        curves[name] = forecast[0, :, target_idx]
        scores[name] = float(np.mean((forecast[:, :, target_idx] - y[:, :, target_idx]) ** 2))
    truth = y[0, :, target_idx]
    return curves, scores, truth


@pytest.fixture(scope="module")
def showcase():
    return compute_showcase()


def test_fig8_prediction_showcase(benchmark, showcase):
    benchmark.pedantic(lambda: showcase, rounds=1, iterations=1)
    curves, scores, truth = showcase
    rows = [[name, f"{scores[name]:.4f}", f"{curves[name][:4].round(3)}"] for name in MODELS]
    rows.append(["ground truth", "-", f"{truth[:4].round(3)}"])
    save_and_print(
        "fig8_showcase",
        format_table("Fig. 8 — ETTm1 showcase (target-variable MSE + first steps)", rows, ["model", "MSE", "first 4 steps"]),
    )


def test_conformer_tracks_truth_best(benchmark, showcase):
    """Paper: 'our model obviously achieves the best performance'."""
    benchmark.pedantic(lambda: showcase, rounds=1, iterations=1)
    _, scores, _ = showcase
    rank = 1 + sum(v < scores["conformer"] for v in scores.values())
    assert rank <= 2, f"Conformer rank {rank}: {scores}"


def test_forecasts_in_sane_range(benchmark, showcase):
    benchmark.pedantic(lambda: showcase, rounds=1, iterations=1)
    curves, _, truth = showcase
    spread = truth.max() - truth.min() + 1.0
    for name, curve in curves.items():
        assert np.all(np.abs(curve - truth.mean()) < 10 * spread), f"{name} forecast diverged"
