"""Tests for all baseline forecasters: shapes, training, special behaviour."""

import numpy as np
import pytest

from repro import baselines
from repro.optim import Adam
from repro.tensor import Tensor

RNG = np.random.default_rng(44)

ENC_IN, C_OUT, INPUT_LEN, LABEL_LEN, PRED_LEN, D_TIME = 4, 4, 16, 8, 8, 4


def batch_inputs(batch=2):
    x_enc = Tensor(RNG.normal(size=(batch, INPUT_LEN, ENC_IN)))
    x_mark = Tensor(RNG.normal(size=(batch, INPUT_LEN, D_TIME)))
    x_dec = Tensor(RNG.normal(size=(batch, LABEL_LEN + PRED_LEN, ENC_IN)))
    y_mark = Tensor(RNG.normal(size=(batch, LABEL_LEN + PRED_LEN, D_TIME)))
    return x_enc, x_mark, x_dec, y_mark


def make_model(cls, **kwargs):
    defaults = dict(
        enc_in=ENC_IN,
        dec_in=ENC_IN,
        c_out=C_OUT,
        pred_len=PRED_LEN,
        d_model=8,
        n_heads=2,
        e_layers=2,
        d_layers=1,
        d_ff=16,
        dropout=0.0,
        d_time=D_TIME,
        seed=0,
    )
    defaults.update(kwargs)
    return cls(**defaults)


TRANSFORMER_CLASSES = [
    baselines.VanillaTransformer,
    baselines.Informer,
    baselines.Reformer,
    baselines.Longformer,
    baselines.LogTrans,
]


class TestTransformerBaselines:
    @pytest.mark.parametrize("cls", TRANSFORMER_CLASSES)
    def test_output_shape(self, cls):
        model = make_model(cls)
        out = model(*batch_inputs())
        assert out.shape == (2, PRED_LEN, C_OUT)

    @pytest.mark.parametrize("cls", TRANSFORMER_CLASSES)
    def test_gradients_flow(self, cls):
        model = make_model(cls)
        out = model(*batch_inputs())
        target = Tensor(RNG.normal(size=(2, PRED_LEN, C_OUT)))
        model.compute_loss(out, target).backward()
        grads = [p.grad for p in model.parameters()]
        assert sum(g is not None for g in grads) > len(grads) // 2

    def test_informer_distils(self):
        model = make_model(baselines.Informer)
        assert model.distil_layers is not None
        out = model(*batch_inputs())
        assert out.shape == (2, PRED_LEN, C_OUT)

    def test_one_training_step_reduces_loss(self):
        model = make_model(baselines.VanillaTransformer)
        inputs = batch_inputs()
        target = Tensor(RNG.normal(scale=0.3, size=(2, PRED_LEN, C_OUT)))
        opt = Adam(model.parameters(), lr=5e-3)
        losses = []
        for _ in range(6):
            opt.zero_grad()
            out = model(*inputs)
            loss = model.compute_loss(out, target)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]


class TestAutoformer:
    def make(self, **kwargs):
        return baselines.Autoformer(
            enc_in=ENC_IN,
            dec_in=ENC_IN,
            c_out=C_OUT,
            pred_len=PRED_LEN,
            d_model=8,
            n_heads=2,
            e_layers=1,
            d_layers=1,
            d_ff=16,
            moving_avg=5,
            dropout=0.0,
            d_time=D_TIME,
            **kwargs,
        )

    def test_output_shape(self):
        out = self.make()(*batch_inputs())
        assert out.shape == (2, PRED_LEN, C_OUT)

    def test_trend_accumulation_used(self):
        """Shifting the input mean should shift the forecast (trend init)."""
        model = self.make()
        model.eval()
        x_enc, x_mark, x_dec, y_mark = batch_inputs()
        out1 = model(x_enc, x_mark, x_dec, y_mark).data
        shifted = Tensor(x_enc.data + 5.0)
        out2 = model(shifted, x_mark, x_dec, y_mark).data
        assert out2.mean() > out1.mean() + 1.0

    def test_gradients(self):
        model = self.make()
        out = model(*batch_inputs())
        model.compute_loss(out, Tensor(RNG.normal(size=(2, PRED_LEN, C_OUT)))).backward()
        assert model.projection.weight.grad is not None


class TestRNNBaselines:
    def test_gru_shape(self):
        model = baselines.GRUForecaster(enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, hidden_size=8, d_time=D_TIME)
        assert model(*batch_inputs()).shape == (2, PRED_LEN, C_OUT)

    def test_gru_two_layers_default(self):
        model = baselines.GRUForecaster(enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, d_time=D_TIME)
        assert model.rnn.num_layers == 2

    def test_lstnet_shape(self):
        model = baselines.LSTNet(enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, hidden_size=8, d_time=D_TIME)
        assert model(*batch_inputs()).shape == (2, PRED_LEN, C_OUT)

    def test_lstnet_even_kernel_fixed(self):
        model = baselines.LSTNet(enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, kernel_size=4, d_time=D_TIME)
        assert model(*batch_inputs()).shape == (2, PRED_LEN, C_OUT)

    def test_gru_trains(self):
        model = baselines.GRUForecaster(
            enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, hidden_size=8, d_time=D_TIME, dropout=0.0
        )
        inputs = batch_inputs()
        target = Tensor(RNG.normal(scale=0.3, size=(2, PRED_LEN, C_OUT)))
        opt = Adam(model.parameters(), lr=1e-2)
        first = None
        for _ in range(10):
            opt.zero_grad()
            loss = model.compute_loss(model(*inputs), target)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first


class TestNBeats:
    def test_shape(self):
        model = baselines.NBeats(enc_in=ENC_IN, c_out=C_OUT, input_len=INPUT_LEN, pred_len=PRED_LEN, hidden_size=16)
        assert model(*batch_inputs()).shape == (2, PRED_LEN, C_OUT)

    def test_channel_independent(self):
        """Changing channel 0 must not change the forecast of channel 1."""
        model = baselines.NBeats(enc_in=ENC_IN, c_out=C_OUT, input_len=INPUT_LEN, pred_len=PRED_LEN, hidden_size=16)
        model.eval()
        x_enc, x_mark, x_dec, y_mark = batch_inputs()
        out1 = model(x_enc, x_mark, x_dec, y_mark).data
        perturbed = Tensor(x_enc.data.copy())
        perturbed.data[:, :, 0] += 3.0
        out2 = model(perturbed, x_mark, x_dec, y_mark).data
        np.testing.assert_allclose(out1[:, :, 1:], out2[:, :, 1:], atol=1e-10)
        assert not np.allclose(out1[:, :, 0], out2[:, :, 0])

    def test_residual_stacking(self):
        model = baselines.NBeats(
            enc_in=1, c_out=1, input_len=INPUT_LEN, pred_len=PRED_LEN, hidden_size=16, n_blocks=1
        )
        assert len(model.blocks) == 1


class TestTS2Vec:
    def make(self):
        return baselines.TS2Vec(
            enc_in=ENC_IN, c_out=C_OUT, pred_len=PRED_LEN, d_repr=8, depth=2, d_time=D_TIME, seed=0
        )

    def test_shape(self):
        model = self.make()
        forecast, _ = model(*batch_inputs())
        assert forecast.shape == (2, PRED_LEN, C_OUT)

    def test_contrastive_loss_added_in_training(self):
        model = self.make()
        inputs = batch_inputs()
        target = Tensor(RNG.normal(size=(2, PRED_LEN, C_OUT)))
        out = model(*inputs)
        train_loss = model.compute_loss(out, target).item()
        model.eval()
        out_eval = model(*inputs)
        eval_loss = model.compute_loss(out_eval, target).item()
        assert out[1] is not None and out_eval[1] is None
        assert train_loss != pytest.approx(eval_loss)

    def test_encode_shape(self):
        model = self.make()
        x_enc, x_mark, _, _ = batch_inputs()
        assert model.encode(x_enc, x_mark).shape == (2, INPUT_LEN, 8)

    def test_contrastive_loss_positive(self):
        a = Tensor(RNG.normal(size=(2, 8, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 8, 4)), requires_grad=True)
        loss = baselines.hierarchical_contrastive_loss(a, b)
        assert loss.item() > 0
        loss.backward()
        assert a.grad is not None

    def test_contrastive_identical_views_low_loss(self):
        a = Tensor(RNG.normal(size=(2, 8, 16)) * 5)
        different = Tensor(RNG.normal(size=(2, 8, 16)) * 5)
        same = baselines.hierarchical_contrastive_loss(a, a).item()
        cross = baselines.hierarchical_contrastive_loss(a, different).item()
        assert same < cross


class TestStatistical:
    def test_persistence(self):
        model = baselines.NaivePersistence(pred_len=5)
        x = RNG.normal(size=(3, 10, 2))
        out = model.predict(x)
        assert out.shape == (3, 5, 2)
        np.testing.assert_array_equal(out[:, 0, :], x[:, -1, :])
        np.testing.assert_array_equal(out[:, 4, :], x[:, -1, :])

    def test_seasonal_naive(self):
        model = baselines.SeasonalNaive(pred_len=6, period=4)
        x = RNG.normal(size=(2, 12, 1))
        out = model.predict(x)
        np.testing.assert_array_equal(out[:, :4, :], x[:, -4:, :])
        np.testing.assert_array_equal(out[:, 4:6, :], x[:, -4:-2, :])

    def test_seasonal_naive_perfect_on_periodic(self):
        t = np.arange(40)
        series = np.sin(2 * np.pi * t / 8)[None, :, None]
        model = baselines.SeasonalNaive(pred_len=8, period=8)
        out = model.predict(series[:, :32, :])
        np.testing.assert_allclose(out[0, :, 0], series[0, 32:40, 0], atol=1e-10)

    def test_seasonal_naive_window_too_short(self):
        model = baselines.SeasonalNaive(pred_len=4, period=24)
        with pytest.raises(ValueError):
            model.predict(RNG.normal(size=(1, 10, 1)))

    def test_ar_recovers_ar_process(self):
        """AR(2) fit should forecast an AR(2) process well."""
        rng = np.random.default_rng(0)
        n = 2000
        series = np.zeros(n)
        for i in range(2, n):
            series[i] = 0.6 * series[i - 1] - 0.3 * series[i - 2] + rng.normal(0, 0.1)
        model = baselines.ARForecaster(pred_len=5, order=2).fit(series[:, None])
        np.testing.assert_allclose(model.coef_[0], [0.6, -0.3], atol=0.05)

    def test_ar_predict_shape(self):
        model = baselines.ARForecaster(pred_len=7, order=3).fit(RNG.normal(size=(200, 2)))
        assert model.predict(RNG.normal(size=(4, 20, 2))).shape == (4, 7, 2)

    def test_ar_unfit_raises(self):
        with pytest.raises(RuntimeError):
            baselines.ARForecaster(pred_len=3).predict(RNG.normal(size=(1, 20, 1)))

    def test_var_uses_cross_channel_info(self):
        """Channel 1 = lagged channel 0: VAR should exploit it, AR cannot."""
        rng = np.random.default_rng(1)
        n = 3000
        driver = rng.normal(size=n).cumsum() * 0.01 + np.sin(np.arange(n) / 5.0)
        follower = np.roll(driver, 1) + rng.normal(0, 0.01, n)
        data = np.column_stack([driver, follower])
        var = baselines.VARForecaster(pred_len=1, order=3).fit(data[:2500])
        windows = np.stack([data[i : i + 20] for i in range(2500, 2900, 10)])
        targets = np.stack([data[i + 20] for i in range(2500, 2900, 10)])
        pred = var.predict(windows)[:, 0, :]
        mse_var = np.mean((pred[:, 1] - targets[:, 1]) ** 2)
        assert mse_var < 0.05

    def test_var_predict_shape(self):
        model = baselines.VARForecaster(pred_len=6, order=2).fit(RNG.normal(size=(300, 3)))
        assert model.predict(RNG.normal(size=(2, 15, 3))).shape == (2, 6, 3)

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            baselines.ARForecaster(pred_len=1, order=0)
        with pytest.raises(ValueError):
            baselines.VARForecaster(pred_len=1, order=0)
        with pytest.raises(ValueError):
            baselines.SeasonalNaive(pred_len=1, period=0)
