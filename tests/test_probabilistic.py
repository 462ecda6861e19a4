"""Tests for probabilistic metrics (CRPS, pinball) and rolling forecasts."""

import numpy as np
import pytest

from repro.training import (
    calibration_error,
    crps_from_samples,
    pinball_loss,
    quantile_scores,
    rolling_forecast,
)

RNG = np.random.default_rng(88)


class TestCRPS:
    def test_perfect_deterministic_forecast(self):
        """All samples equal to the target -> CRPS 0."""
        target = RNG.normal(size=(3, 4))
        samples = np.repeat(target[None], 10, axis=0)
        assert crps_from_samples(samples, target) == pytest.approx(0.0, abs=1e-12)

    def test_crps_penalizes_bias(self):
        target = np.zeros((100,))
        good = RNG.normal(0.0, 1.0, size=(500, 100))
        biased = RNG.normal(3.0, 1.0, size=(500, 100))
        assert crps_from_samples(good, target) < crps_from_samples(biased, target)

    def test_crps_rewards_sharpness_when_centered(self):
        target = np.zeros((200,))
        sharp = RNG.normal(0.0, 0.2, size=(500, 200))
        diffuse = RNG.normal(0.0, 3.0, size=(500, 200))
        assert crps_from_samples(sharp, target) < crps_from_samples(diffuse, target)

    def test_crps_matches_gaussian_closed_form(self):
        """CRPS of N(0,1) vs y=0 is sigma*(2/sqrt(2pi) - 1/sqrt(pi)) ~ 0.2337."""
        samples = RNG.normal(0.0, 1.0, size=(20000, 50))
        value = crps_from_samples(samples, np.zeros(50))
        expected = 2 / np.sqrt(2 * np.pi) - 1 / np.sqrt(np.pi)
        assert value == pytest.approx(expected, rel=0.05)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            crps_from_samples(np.zeros((10, 3)), np.zeros(4))
        with pytest.raises(ValueError):
            crps_from_samples(np.zeros((1, 3)), np.zeros(3))


class TestPinball:
    def test_median_pinball_is_half_mae(self):
        pred, target = RNG.normal(size=50), RNG.normal(size=50)
        assert pinball_loss(pred, target, 0.5) == pytest.approx(0.5 * np.mean(np.abs(pred - target)))

    def test_asymmetry(self):
        target = np.ones(100)
        under = np.zeros(100)  # prediction below target
        # q=0.9 punishes under-prediction harder than q=0.1
        assert pinball_loss(under, target, 0.9) > pinball_loss(under, target, 0.1)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            pinball_loss(np.zeros(3), np.zeros(3), 1.0)

    def test_quantile_scores_keys(self):
        samples = RNG.normal(size=(200, 6, 2))
        target = RNG.normal(size=(6, 2))
        scores = quantile_scores(samples, target, quantiles=(0.1, 0.9))
        assert set(scores) == {0.1, 0.9}
        assert all(v >= 0 for v in scores.values())


class TestCalibrationError:
    def test_well_calibrated_near_zero(self):
        samples = RNG.normal(size=(4000, 30, 5))
        target = RNG.normal(size=(30, 5))
        assert calibration_error(samples, target) < 0.08

    def test_overconfident_large_error(self):
        samples = RNG.normal(0, 0.05, size=(2000, 30, 5))
        target = RNG.normal(size=(30, 5))
        assert calibration_error(samples, target) > 0.4


class TestRollingForecast:
    class _ConstantModel:
        """Predicts the last input value repeated pred_len times."""

        pred_len = 4

        def eval(self):
            return self

        def __call__(self, x_enc, x_mark, x_dec, y_mark):
            last = x_enc.data[:, -1:, :]
            return np.repeat(last, self.pred_len, axis=1)

        def point_forecast(self, outputs):
            return outputs

    def test_extends_beyond_pred_len(self):
        model = self._ConstantModel()
        x = RNG.normal(size=(2, 8, 3))
        marks = np.zeros((2, 8, 2))
        future = np.zeros((2, 12, 2))
        out = rolling_forecast(model, x, marks, future, horizon=12, label_len=4)
        assert out.shape == (2, 12, 3)
        # persistence model: everything equals the last seed value
        np.testing.assert_allclose(out, np.repeat(x[:, -1:, :], 12, axis=1))

    def test_partial_last_block(self):
        model = self._ConstantModel()
        x = RNG.normal(size=(1, 8, 2))
        out = rolling_forecast(model, x, np.zeros((1, 8, 1)), np.zeros((1, 10, 1)), horizon=10, label_len=2)
        assert out.shape == (1, 10, 2)

    def test_insufficient_marks_rejected(self):
        model = self._ConstantModel()
        with pytest.raises(ValueError):
            rolling_forecast(model, RNG.normal(size=(1, 8, 2)), np.zeros((1, 8, 1)), np.zeros((1, 3, 1)), 10, 2)

    def test_with_real_conformer(self):
        from repro.core import Conformer, ConformerConfig

        cfg = ConformerConfig(
            enc_in=3, dec_in=3, c_out=3, input_len=16, label_len=8, pred_len=4,
            d_model=8, n_heads=2, moving_avg=5, d_time=3, dropout=0.0,
        )
        model = Conformer(cfg)
        x = RNG.normal(size=(2, 16, 3))
        marks = RNG.normal(size=(2, 16, 3))
        future = RNG.normal(size=(2, 10, 3))
        out = rolling_forecast(model, x, marks, future, horizon=10, label_len=cfg.label_len)
        assert out.shape == (2, 10, 3)
        assert np.all(np.isfinite(out))
