"""Edge-case hardening across the library surface."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, WindowedDataset, load_dataset
from repro.eval import band_chart, sparkline
from repro.tensor import Tensor, functional as F
from repro.training import metrics as M
from tests.helpers import check_gradients

RNG = np.random.default_rng(190)


class TestTensorEdgeCases:
    def test_huber_both_branches(self):
        pred = Tensor(np.array([0.1, 5.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 0.0]))
        loss = F.huber_loss(pred, target, delta=1.0)
        # 0.5*0.01 quadratic + (5 - 0.5) linear, averaged
        assert loss.item() == pytest.approx((0.5 * 0.01 + 4.5) / 2)
        check_gradients(lambda: F.huber_loss(pred, target, delta=1.0), [pred])

    def test_where_broadcast_condition(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        cond = np.array([True, False, True, False])  # broadcasts over rows
        out = F.where(np.broadcast_to(cond, (3, 4)), a, b)
        assert out.shape == (3, 4)

    def test_split_uneven_rejected(self):
        x = Tensor(RNG.normal(size=(2, 7)))
        with pytest.raises(ValueError):
            F.split(x, 3, axis=1)

    def test_conv1d_no_padding_shrinks(self):
        x = Tensor(RNG.normal(size=(1, 10, 2)), requires_grad=True)
        w = Tensor(RNG.normal(size=(3, 2, 4)), requires_grad=True)
        out = F.conv1d(x, w, padding=0)
        assert out.shape == (1, 8, 4)
        check_gradients(lambda: (F.conv1d(x, w, padding=0) ** 2).sum(), [x, w], atol=1e-4)

    def test_log_softmax_extreme_values(self):
        x = Tensor(np.array([[1e4, 0.0, -1e4]]))
        out = F.log_softmax(x, axis=-1)
        assert np.all(np.isfinite(out.data))
        assert np.all(out.data <= 0)

    def test_scalar_tensor_item_and_repr(self):
        t = Tensor(3.5, requires_grad=True)
        assert t.item() == 3.5
        assert "requires_grad" in repr(t)

    def test_matmul_vector_cases(self):
        m = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: (m @ v).sum(), [m, v])

    def test_pow_gradient(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (x**2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])
        with pytest.raises(TypeError):
            x ** Tensor(np.array([2.0]))


class TestNNEdgeCases:
    def test_token_embedding_circular_shift_equivariance(self):
        """Circular conv: cyclically shifting the input shifts the output."""
        emb = nn.TokenEmbedding(c_in=2, d_model=4)
        emb.eval()
        x = RNG.normal(size=(1, 12, 2))
        out = emb(Tensor(x)).data
        shifted = emb(Tensor(np.roll(x, 3, axis=1))).data
        np.testing.assert_allclose(shifted, np.roll(out, 3, axis=1), atol=1e-10)

    def test_time_feature_embedding_linear(self):
        emb = nn.TimeFeatureEmbedding(d_time=3, d_model=8)
        marks = RNG.normal(size=(2, 5, 3))
        out1 = emb(Tensor(marks)).data
        out2 = emb(Tensor(2 * marks)).data
        np.testing.assert_allclose(out2, 2 * out1, atol=1e-10)

    def test_layernorm_single_feature(self):
        ln = nn.LayerNorm(1)
        out = ln(Tensor(RNG.normal(size=(2, 3, 1))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)  # (x - x)/std -> 0

    def test_sequential_indexing(self):
        model = nn.Sequential(nn.Linear(2, 3), nn.ReLU())
        assert isinstance(model[0], nn.Linear)
        assert len(model) == 2

    def test_module_repr(self):
        model = nn.Sequential(nn.Linear(2, 3))
        assert "Sequential" in repr(model)

    def test_modulelist_iteration(self):
        ml = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(list(ml)) == 3
        assert ml[1] is list(ml)[1]

    def test_load_state_dict_shape_mismatch(self):
        model = nn.Linear(3, 4)
        bad = {name: np.zeros((1, 1)) for name, _ in model.named_parameters()}
        with pytest.raises(ValueError):
            model.load_state_dict(bad)


class TestDataEdgeCases:
    def test_window_label_len_zero(self):
        values = np.arange(30, dtype=float)[:, None]
        ws = WindowedDataset(values, np.zeros((30, 1)), input_len=8, pred_len=4, label_len=0)
        s = ws[0]
        assert s.x_dec.shape == (4, 1)
        np.testing.assert_array_equal(s.x_dec, 0.0)

    def test_loader_on_minimal_dataset(self):
        values = np.arange(13, dtype=float)[:, None]
        ws = WindowedDataset(values, np.zeros((13, 1)), input_len=8, pred_len=4)
        assert len(ws) == 2
        loader = DataLoader(ws, batch_size=10)
        batches = list(loader)
        assert len(batches) == 1 and batches[0][0].shape[0] == 2

    def test_dataset_marks_match_split(self):
        ds = load_dataset("etth1", n_points=300)
        values, stamps = ds.split("val")
        marks = ds.marks(stamps)
        assert len(marks) == len(values)
        assert marks.shape[1] == 4  # hourly resolution set

    def test_airdelay_marks_on_irregular_stamps(self):
        ds = load_dataset("airdelay", n_points=200)
        _, stamps = ds.split("train")
        marks = ds.marks(stamps)
        assert np.all(np.isfinite(marks))
        assert marks.min() >= -0.5 - 1e-9 and marks.max() <= 0.5 + 1e-9


class TestMetricsEdgeCases:
    def test_coverage_shape_mismatch(self):
        with pytest.raises(ValueError):
            M.coverage(np.zeros(3), np.zeros(3), np.zeros(4))

    def test_mape_with_zero_targets(self):
        value = M.mape(np.ones(3), np.zeros(3))
        assert np.isfinite(value)  # epsilon guard

    def test_perfect_forecast_metrics(self):
        x = RNG.normal(size=(4, 5))
        out = M.evaluate(x, x.copy())
        assert out["mse"] == 0.0 and out["mae"] == 0.0 and out["rmse"] == 0.0


class TestPlotsEdgeCases:
    def test_sparkline_with_nan_free_bounds(self):
        line = sparkline([1.0, 2.0], lo=0.0, hi=4.0)
        assert len(line) == 2

    def test_band_chart_single_step(self):
        chart = band_chart(np.array([1.0]), np.array([0.5]), np.array([1.5]))
        assert "*" in chart

    def test_band_chart_degenerate_band(self):
        point = np.zeros(5)
        chart = band_chart(point, point, point)
        assert "*" in chart


class TestConformerEdgeCases:
    def test_batch_size_one(self):
        from repro.core import Conformer, ConformerConfig

        cfg = ConformerConfig(enc_in=2, dec_in=2, c_out=2, input_len=12, label_len=6, pred_len=4,
                              d_model=8, n_heads=2, moving_avg=5, d_time=2, dropout=0.0)
        model = Conformer(cfg)
        out = model.predict(
            RNG.normal(size=(1, 12, 2)), RNG.normal(size=(1, 12, 2)),
            RNG.normal(size=(1, 10, 2)), RNG.normal(size=(1, 10, 2)),
        )
        assert out.shape == (1, 4, 2)

    def test_pred_len_one(self):
        from repro.core import Conformer, ConformerConfig

        cfg = ConformerConfig(enc_in=2, dec_in=2, c_out=2, input_len=12, label_len=6, pred_len=1,
                              d_model=8, n_heads=2, moving_avg=5, d_time=2, dropout=0.0)
        model = Conformer(cfg)
        y_out, z_out, _ = model(
            Tensor(RNG.normal(size=(2, 12, 2))), Tensor(RNG.normal(size=(2, 12, 2))),
            Tensor(RNG.normal(size=(2, 7, 2))), Tensor(RNG.normal(size=(2, 7, 2))),
        )
        assert y_out.shape == (2, 1, 2) and z_out.shape == (2, 1, 2)

    def test_univariate_config(self):
        from repro.core import Conformer, ConformerConfig

        cfg = ConformerConfig(enc_in=1, dec_in=1, c_out=1, input_len=12, label_len=6, pred_len=4,
                              d_model=8, n_heads=2, moving_avg=5, d_time=2, dropout=0.0)
        model = Conformer(cfg)
        out = model.predict(
            RNG.normal(size=(2, 12, 1)), RNG.normal(size=(2, 12, 2)),
            RNG.normal(size=(2, 10, 1)), RNG.normal(size=(2, 10, 2)),
        )
        assert out.shape == (2, 4, 1)
