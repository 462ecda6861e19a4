"""Tests for loess smoothing and the STL decomposition alternative."""

import numpy as np
import pytest

from repro.core import Conformer, ConformerConfig
from repro.core.loess import LoessSmoother, STLDecomposition, loess_matrix
from repro.tensor import Tensor
from tests.helpers import check_gradients

RNG = np.random.default_rng(170)


class TestLoessMatrix:
    def test_rows_sum_to_one(self):
        """Local linear regression reproduces constants exactly."""
        matrix = loess_matrix(24, span=0.4)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-8)

    def test_reproduces_linear_functions(self):
        """Local *linear* loess is exact on straight lines."""
        matrix = loess_matrix(30, span=0.3)
        line = 2.0 * np.arange(30) + 5.0
        np.testing.assert_allclose(matrix @ line, line, atol=1e-6)

    def test_smooths_noise(self):
        matrix = loess_matrix(100, span=0.5)
        noise = RNG.normal(size=100)
        smoothed = matrix @ noise
        assert smoothed.var() < 0.5 * noise.var()

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            loess_matrix(10, span=0.0)
        with pytest.raises(ValueError):
            loess_matrix(10, span=1.5)


class TestLoessSmoother:
    def test_shapes_and_cache(self):
        from repro.tensor import plan_cache

        smoother = LoessSmoother(span=0.4)
        x = Tensor(RNG.normal(size=(2, 20, 3)))
        out = smoother(x)
        assert out.shape == (2, 20, 3)
        hits_before = plan_cache().hits
        smoother(Tensor(RNG.normal(size=(1, 20, 3))))  # same geometry: plan-cache hit
        assert plan_cache().hits == hits_before + 1

    def test_differentiable(self):
        smoother = LoessSmoother(span=0.5)
        x = Tensor(RNG.normal(size=(1, 10, 2)), requires_grad=True)
        check_gradients(lambda: (smoother(x) ** 2).sum(), [x], atol=1e-4)

    def test_trend_extraction(self):
        t = np.arange(120, dtype=float)
        series = 0.05 * t + np.sin(2 * np.pi * t / 12)
        x = Tensor(series.reshape(1, -1, 1))
        trend = LoessSmoother(span=0.3)(x).data.ravel()
        # trend should track the slope, with the oscillation attenuated
        assert np.corrcoef(trend, 0.05 * t)[0, 1] > 0.99
        assert (series - trend).std() < series.std()


class TestSTLDecomposition:
    def test_reconstruction_identity(self):
        stl = STLDecomposition(span=0.4)
        x = Tensor(RNG.normal(size=(2, 24, 3)))
        trend, seasonal = stl(x)
        np.testing.assert_allclose(trend.data + seasonal.data, x.data, atol=1e-9)

    def test_components_split(self):
        t = np.arange(96, dtype=float)
        series = 0.02 * t + np.sin(2 * np.pi * t / 24) + RNG.normal(0, 0.05, 96)
        stl = STLDecomposition(span=0.5, period=24)
        trend, seasonal, remainder = stl.components(Tensor(series.reshape(1, -1, 1)))
        np.testing.assert_allclose(
            (trend + seasonal + remainder).data.ravel(), series, atol=1e-9
        )
        # seasonal component should carry most of the sine's energy
        assert seasonal.data.std() > 2 * remainder.data.std()

    def test_components_requires_period(self):
        stl = STLDecomposition(span=0.4)
        with pytest.raises(ValueError):
            stl.components(Tensor(RNG.normal(size=(1, 24, 1))))


class TestConformerWithSTL:
    def test_forward_and_training(self):
        from repro.optim import Adam

        cfg = ConformerConfig(
            enc_in=3, dec_in=3, c_out=3, input_len=16, label_len=8, pred_len=4,
            d_model=8, n_heads=2, d_time=2, dropout=0.0,
            decomp_kind="stl", stl_span=0.5,
        )
        model = Conformer(cfg)
        x_enc = Tensor(RNG.normal(size=(2, 16, 3)))
        x_mark = Tensor(RNG.normal(size=(2, 16, 2)))
        x_dec = Tensor(RNG.normal(size=(2, 12, 3)))
        y_mark = Tensor(RNG.normal(size=(2, 12, 2)))
        target = Tensor(RNG.normal(scale=0.3, size=(2, 4, 3)))
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(5):
            opt.zero_grad()
            outputs = model(x_enc, x_mark, x_dec, y_mark, deterministic=True)
            loss = model.compute_loss(outputs, target)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first

    def test_invalid_decomp_kind(self):
        with pytest.raises(ValueError):
            ConformerConfig(
                enc_in=3, dec_in=3, c_out=3, input_len=16, label_len=8, pred_len=4,
                decomp_kind="wavelet",
            )
