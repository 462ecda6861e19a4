"""Tests for the extension modules: gradcheck, dataset IO, grid search,
DeepAR, and DLinear."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import DeepAR, DLinear
from repro.data import load_dataset
from repro.data.io import export_csv, load_csv, load_saved_dataset, save_dataset
from repro.tensor import Tensor
from repro.tensor.gradcheck import gradcheck, numerical_gradient
from repro.training import ExperimentSettings, run_experiment
from repro.training.tuning import grid_search

RNG = np.random.default_rng(150)

FAST = ExperimentSettings(
    input_len=16,
    label_len=8,
    d_model=8,
    n_heads=2,
    e_layers=1,
    d_layers=1,
    d_ff=16,
    n_points=400,
    max_epochs=1,
    batch_size=8,
    window_stride=16,
    eval_stride=16,
    max_train_windows=16,
    max_eval_windows=8,
    moving_avg=5,
)


class TestGradcheck:
    def test_passes_on_correct_gradients(self):
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        assert gradcheck(lambda: (x * x).sum(), [x])

    def test_detects_missing_gradient(self):
        x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        y = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        with pytest.raises(AssertionError):
            gradcheck(lambda: (x * 2).sum(), [x, y])  # y unused -> no grad

    def test_raise_on_fail_false(self):
        x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        y = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        assert gradcheck(lambda: (x * 2).sum(), [x, y], raise_on_fail=False) is False

    def test_rejects_nonscalar(self):
        x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ValueError):
            gradcheck(lambda: x * 2, [x])

    def test_numerical_gradient_linear(self):
        x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        w = np.array([1.0, -2.0, 3.0, 0.5])
        grad = numerical_gradient(lambda: (x * Tensor(w)).sum(), x)
        np.testing.assert_allclose(grad, w, atol=1e-6)


class TestDatasetIO:
    def test_npz_roundtrip(self, tmp_path):
        ds = load_dataset("etth1", n_points=200)
        path = str(tmp_path / "etth1.npz")
        save_dataset(ds, path)
        loaded = load_saved_dataset(path)
        np.testing.assert_allclose(loaded.values, ds.values)
        assert loaded.name == ds.name
        assert loaded.target_index == ds.target_index
        np.testing.assert_array_equal(
            loaded.timestamps.astype("datetime64[s]"), ds.timestamps.astype("datetime64[s]")
        )

    def test_csv_roundtrip(self, tmp_path):
        ds = load_dataset("exchange", n_points=100)
        path = str(tmp_path / "exchange.csv")
        export_csv(ds, path)
        loaded = load_csv(path, freq="d", split_ratios=ds.split_ratios)
        np.testing.assert_allclose(loaded.values, ds.values, rtol=1e-9)
        assert loaded.n_dims == ds.n_dims
        assert loaded.target_index == ds.n_dims - 1  # default: last column

    def test_csv_named_target(self, tmp_path):
        ds = load_dataset("etth1", n_points=50)
        path = str(tmp_path / "ett.csv")
        export_csv(ds, path, column_names=["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"])
        loaded = load_csv(path, target="OT")
        assert loaded.target_index == 6

    def test_csv_unknown_target(self, tmp_path):
        ds = load_dataset("etth1", n_points=50)
        path = str(tmp_path / "ett.csv")
        export_csv(ds, path)
        with pytest.raises(ValueError):
            load_csv(path, target="OT")

    def test_csv_missing_date_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_csv(str(path))

    def test_csv_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("date,a,b\n2020-01-01 00:00:00,1.0\n")
        with pytest.raises(ValueError):
            load_csv(str(path))

    def test_csv_wrong_column_count(self, tmp_path):
        ds = load_dataset("etth1", n_points=50)
        with pytest.raises(ValueError):
            export_csv(ds, str(tmp_path / "x.csv"), column_names=["only-one"])

    def test_loaded_csv_usable_in_experiment(self, tmp_path):
        """A CSV round-tripped dataset slots into the windowing pipeline."""
        from repro.training import make_loaders

        ds = load_dataset("etth1", n_points=300)
        path = str(tmp_path / "ett.csv")
        export_csv(ds, path)
        loaded = load_csv(path, freq="h")
        train, val, test = make_loaders(loaded, FAST, pred_len=4)
        batch = next(iter(train))
        assert batch[0].shape[1:] == (FAST.input_len, ds.n_dims)


class TestGridSearch:
    def test_selects_by_validation(self):
        result = grid_search(
            "etth1", "gru", pred_len=4,
            param_grid={"hidden_size": [4, 8]},
            settings=FAST,
        )
        assert len(result.trials) == 2
        best = result.best
        assert best.val_loss == min(t.val_loss for t in result.trials)
        assert best.test_metrics is not None and best.test_metrics["mse"] > 0
        # non-winners were not test-evaluated (no leakage)
        losers = [t for t in result.trials if t is not best]
        assert all(t.test_metrics is None for t in losers)

    def test_settings_level_keys(self):
        result = grid_search(
            "etth1", "gru", pred_len=4,
            param_grid={"learning_rate": [1e-3, 1e-2]},
            settings=FAST,
        )
        assert len(result.trials) == 2
        assert {t.params["learning_rate"] for t in result.trials} == {1e-3, 1e-2}

    def test_cartesian_product(self):
        result = grid_search(
            "etth1", "gru", pred_len=4,
            param_grid={"hidden_size": [4, 8], "num_layers": [1, 2]},
            settings=FAST, evaluate_all_on_test=True,
        )
        assert len(result.trials) == 4
        assert all(t.test_metrics is not None for t in result.trials)

    def test_table_rendering(self):
        result = grid_search("etth1", "gru", pred_len=4, param_grid={"hidden_size": [4]}, settings=FAST)
        text = result.table()
        assert "val" in text and "hidden_size" in text

    def test_empty_search_best_raises(self):
        from repro.training.tuning import SearchResult

        with pytest.raises(RuntimeError):
            SearchResult().best


class TestDeepAR:
    def _inputs(self, batch=2, enc_in=3, input_len=12, label_len=6, pred_len=4, d_time=2):
        return (
            Tensor(RNG.normal(size=(batch, input_len, enc_in))),
            Tensor(RNG.normal(size=(batch, input_len, d_time))),
            Tensor(RNG.normal(size=(batch, label_len + pred_len, enc_in))),
            Tensor(RNG.normal(size=(batch, label_len + pred_len, d_time))),
        )

    def make(self):
        return DeepAR(enc_in=3, c_out=3, pred_len=4, hidden_size=8, d_time=2, seed=0)

    def test_forward_shape(self):
        model = self.make()
        mu, sigma = model(*self._inputs())
        assert mu.shape == sigma.shape == (2, 4, 3)
        assert (sigma.data > 0).all()

    def test_nll_loss_finite_and_trains(self):
        from repro.optim import Adam

        model = self.make()
        inputs = self._inputs()
        target = Tensor(RNG.normal(size=(2, 4, 3)))
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(6):
            opt.zero_grad()
            out = model(*inputs)
            loss = model.compute_loss(out, target)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert np.isfinite(loss.item()) and loss.item() < first

    def test_sampling_paths(self):
        model = self.make()
        paths = model.sample_paths(*self._inputs(), n_samples=9)
        assert paths.shape == (9, 2, 4, 3)
        assert paths.std(axis=0).mean() > 0

    def test_registered_in_experiment_runner(self):
        result = run_experiment("etth1", "deepar", pred_len=4, settings=FAST)
        assert np.isfinite(result.mse)


class TestDLinear:
    def _inputs(self, batch=2, enc_in=3, input_len=16, pred_len=4):
        return (
            Tensor(RNG.normal(size=(batch, input_len, enc_in))),
            Tensor(RNG.normal(size=(batch, input_len, 2))),
            Tensor(RNG.normal(size=(batch, 8 + pred_len, enc_in))),
            Tensor(RNG.normal(size=(batch, 8 + pred_len, 2))),
        )

    def test_shape(self):
        model = DLinear(enc_in=3, c_out=3, input_len=16, pred_len=4, moving_avg=5)
        assert model(*self._inputs()).shape == (2, 4, 3)

    def test_individual_mode(self):
        model = DLinear(enc_in=3, c_out=3, input_len=16, pred_len=4, moving_avg=5, individual=True)
        assert model(*self._inputs()).shape == (2, 4, 3)

    def test_learns_linear_trend_fast(self):
        """DLinear should nail a pure linear trend in a few steps."""
        from repro.optim import Adam

        t = np.arange(200, dtype=float)
        series = (0.05 * t)[:, None]
        x = np.stack([series[i : i + 16] for i in range(100)])
        y = np.stack([series[i + 16 : i + 20] for i in range(100)])
        model = DLinear(enc_in=1, c_out=1, input_len=16, pred_len=4, moving_avg=5)
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(200):
            opt.zero_grad()
            out = model(Tensor(x), None, None, None)
            loss = model.compute_loss(out, Tensor(y))
            loss.backward()
            opt.step()
        assert loss.item() < 0.01

    def test_registered_in_experiment_runner(self):
        result = run_experiment("etth1", "dlinear", pred_len=4, settings=FAST)
        assert np.isfinite(result.mse)
