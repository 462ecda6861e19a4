"""Tests for the NLL flow-training extension (Gaussian output head)."""

import copy

import numpy as np
import pytest

from repro.core import Conformer, ConformerConfig, NormalizingFlow
from repro.optim import Adam
from repro.tensor import Tensor, compute_dtype

RNG = np.random.default_rng(77)


def nll_config(**overrides):
    defaults = dict(
        enc_in=3,
        dec_in=3,
        c_out=3,
        input_len=16,
        label_len=8,
        pred_len=6,
        d_model=8,
        n_heads=2,
        moving_avg=5,
        d_time=3,
        dropout=0.0,
        flow_loss="nll",
        seed=0,
    )
    defaults.update(overrides)
    return ConformerConfig(**defaults)


def sequential_distribution_samples(flow, h_e, h_d, n_samples):
    """Reference for ``sample_distribution``: per draw, a stochastic latent
    chain, then an output eps of the forecast's shape."""
    draws = []
    for _ in range(n_samples):
        mu, sigma = flow.output_distribution(h_e, h_d, deterministic=False)
        draw = np.empty(mu.shape, dtype=mu.data.dtype)
        np.multiply(sigma.data, flow._rng.normal(size=mu.shape), out=draw)
        draw += mu.data
        draws.append(draw)
    return np.stack(draws)


def model_inputs(cfg, batch=2):
    return (
        Tensor(RNG.normal(size=(batch, cfg.input_len, cfg.enc_in))),
        Tensor(RNG.normal(size=(batch, cfg.input_len, cfg.d_time))),
        Tensor(RNG.normal(size=(batch, cfg.dec_len, cfg.dec_in))),
        Tensor(RNG.normal(size=(batch, cfg.dec_len, cfg.d_time))),
    )


class TestFlowDistributionHead:
    def _flow(self):
        return NormalizingFlow(d_hidden=8, latent_dim=6, pred_len=5, c_out=2, n_flows=2, seed=0)

    def test_output_distribution_shapes(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(3, 8))), Tensor(RNG.normal(size=(3, 8)))
        mu, sigma = flow.output_distribution(h_e, h_d)
        assert mu.shape == (3, 5, 2) and sigma.shape == (3, 5, 2)
        assert np.all(sigma.data > 0)

    def test_nll_finite_and_differentiable(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        target = Tensor(RNG.normal(size=(2, 5, 2)))
        loss = flow.nll(h_e, h_d, target, deterministic=True)
        assert np.isfinite(loss.item())
        loss.backward()
        assert flow.scale_projection.weight.grad is not None

    def test_nll_lower_for_better_mean(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        mu, _ = flow.output_distribution(h_e, h_d, deterministic=True)
        near = Tensor(mu.data + 0.01)
        far = Tensor(mu.data + 10.0)
        assert flow.nll(h_e, h_d, near, deterministic=True).item() < flow.nll(h_e, h_d, far, deterministic=True).item()

    @pytest.mark.parametrize("n_samples, preallocate", [(1, False), (1, True), (9, False), (9, True)])
    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_tiled_draws_match_sequential_draws(self, dtype, atol, n_samples, preallocate):
        """One tiled pass gives the sequential draws and leaves the generator
        exactly where the sequential draws leave it."""
        with compute_dtype(dtype):
            flow = self._flow().to_dtype(dtype)
            reference = copy.deepcopy(flow)
            h_e, h_d = Tensor(RNG.normal(size=(3, 8))), Tensor(RNG.normal(size=(3, 8)))
            out = np.full((n_samples, 3, 5, 2), np.nan, dtype=dtype) if preallocate else None
            samples = flow.sample_distribution(h_e, h_d, n_samples=n_samples, out=out)
            expected = sequential_distribution_samples(reference, h_e, h_d, n_samples)
        if preallocate:
            assert samples is out
        assert samples.dtype == dtype and samples.shape == expected.shape
        np.testing.assert_allclose(samples, expected, rtol=0, atol=atol)
        assert flow._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_sample_distribution_spread_matches_sigma(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(1, 8))), Tensor(RNG.normal(size=(1, 8)))
        samples = flow.sample_distribution(h_e, h_d, n_samples=400)
        assert samples.shape == (400, 1, 5, 2)
        _, sigma = flow.output_distribution(h_e, h_d, deterministic=True)
        # empirical std should be at least the deterministic sigma (chain adds noise)
        assert np.all(samples.std(axis=0) > 0.5 * sigma.data)


class TestConformerNLLMode:
    def test_forward_returns_mu(self):
        cfg = nll_config()
        model = Conformer(cfg)
        y_out, z_out, _ = model(*model_inputs(cfg), deterministic=True)
        assert z_out.shape == (2, cfg.pred_len, cfg.c_out)

    def test_invalid_flow_loss(self):
        with pytest.raises(ValueError):
            nll_config(flow_loss="elbo")

    def test_nll_training_learns_variance(self):
        """Train on noisy targets: NLL mode should keep sigma well above the
        near-zero values MSE training collapses to."""
        cfg = nll_config()
        model = Conformer(cfg)
        inputs = model_inputs(cfg)
        opt = Adam(model.parameters(), lr=5e-3)
        for step in range(12):
            target = Tensor(RNG.normal(scale=1.0, size=(2, cfg.pred_len, cfg.c_out)))
            opt.zero_grad()
            outputs = model(*inputs, deterministic=True)
            loss = model.compute_loss(outputs, target)
            loss.backward()
            opt.step()
        h_enc, h_dec = outputs[2]
        _, sigma = model.flow.output_distribution(h_enc, h_dec, deterministic=True)
        assert sigma.data.mean() > 0.1  # variance not collapsed

    def test_predict_with_uncertainty_uses_distribution(self):
        cfg = nll_config()
        model = Conformer(cfg)
        result = model.predict_with_uncertainty(*model_inputs(cfg), n_samples=30)
        assert result["samples"].shape[0] == 30
        assert np.all(result["q0.95"] >= result["q0.05"] - 1e-12)

    def test_mse_mode_unchanged(self):
        cfg = nll_config(flow_loss="mse")
        model = Conformer(cfg)
        outputs = model(*model_inputs(cfg), deterministic=True)
        target = Tensor(RNG.normal(size=(2, cfg.pred_len, cfg.c_out)))
        loss = model.compute_loss(outputs, target)
        assert np.isfinite(loss.item())
