"""Tests for the Conformer core: decomposition, input repr, SIRN, flow, model."""

import copy

import numpy as np
import pytest

from repro.core import (
    Conformer,
    ConformerConfig,
    InputRepresentation,
    MultiscaleDynamics,
    NormalizingFlow,
    SeriesDecomposition,
    SIRNEncoder,
    SIRNDecoder,
    SIRNLayer,
    multivariate_correlation_weights,
)
from repro.core.flow import FLOW_MODES, _GaussianHead
from repro.core.model import quantile_bands
from repro.tensor import Tensor, compute_dtype

RNG = np.random.default_rng(33)


def tiny_config(**overrides):
    defaults = dict(
        enc_in=4,
        dec_in=4,
        c_out=4,
        input_len=16,
        label_len=8,
        pred_len=8,
        d_model=8,
        n_heads=2,
        e_layers=2,
        d_layers=1,
        moving_avg=5,
        d_time=3,
        dropout=0.0,
        n_flows=2,
        seed=0,
    )
    defaults.update(overrides)
    return ConformerConfig(**defaults)


#: tiled Monte-Carlo draws against the per-draw loop: float64 differs only
#: by BLAS kernel shape, float32 within the float32 fast-path tolerance
SAMPLE_ATOL = {np.float64: 1e-12, np.float32: 1e-4}


def sequential_samples(flow, h_e, h_d, n_samples):
    """Reference for ``NormalizingFlow.sample``: one stochastic forward per draw."""
    return np.stack([flow(h_e, h_d, deterministic=False).data for _ in range(n_samples)])


def model_inputs(cfg, batch=2):
    x_enc = RNG.normal(size=(batch, cfg.input_len, cfg.enc_in))
    x_mark = RNG.normal(size=(batch, cfg.input_len, cfg.d_time))
    x_dec = RNG.normal(size=(batch, cfg.dec_len, cfg.dec_in))
    x_dec[:, -cfg.pred_len :, :] = 0.0
    y_mark = RNG.normal(size=(batch, cfg.dec_len, cfg.d_time))
    return Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark)


class TestSeriesDecomposition:
    def test_reconstruction_identity(self):
        decomp = SeriesDecomposition(kernel_size=7)
        x = Tensor(RNG.normal(size=(2, 30, 3)))
        trend, seasonal = decomp(x)
        np.testing.assert_allclose(trend.data + seasonal.data, x.data, atol=1e-12)

    def test_trend_is_smooth(self):
        decomp = SeriesDecomposition(kernel_size=15)
        t = np.arange(100)
        noisy = t * 0.1 + np.sin(t) + RNG.normal(0, 0.5, 100)
        trend, _ = decomp(Tensor(noisy.reshape(1, -1, 1)))
        assert np.var(np.diff(trend.data.ravel())) < np.var(np.diff(noisy))

    def test_constant_series_all_trend(self):
        decomp = SeriesDecomposition(kernel_size=5)
        x = Tensor(np.full((1, 20, 2), 3.0))
        trend, seasonal = decomp(x)
        np.testing.assert_allclose(trend.data, 3.0)
        np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-12)


class TestMultivariateCorrelation:
    def test_weights_simplex(self):
        x = RNG.normal(size=(3, 32, 5))
        w = multivariate_correlation_weights(x)
        assert w.shape == x.shape
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-10)
        assert np.all(w >= 0)

    def test_periodic_variable_gets_weight(self):
        """A strongly periodic variable has higher auto-correlation energy."""
        length = 64
        t = np.arange(length)
        periodic = 3.0 * np.sin(2 * np.pi * t / 8)
        noise = RNG.normal(0, 0.3, length)
        x = np.stack([periodic, noise], axis=-1)[None]
        w = multivariate_correlation_weights(x)
        assert w[0, :, 0].mean() > w[0, :, 1].mean()


class TestMultiscaleDynamics:
    def test_output_shape(self):
        block = MultiscaleDynamics(n_scales=3, seq_len=12, d_model=8)
        marks = Tensor(RNG.normal(size=(2, 12, 3)))
        assert block(marks).shape == (2, 12, 8)

    def test_wrong_length_rejected(self):
        block = MultiscaleDynamics(n_scales=2, seq_len=12, d_model=8)
        with pytest.raises(ValueError):
            block(Tensor(RNG.normal(size=(2, 10, 2))))

    def test_too_few_marks_rejected(self):
        block = MultiscaleDynamics(n_scales=4, seq_len=8, d_model=8)
        with pytest.raises(ValueError):
            block(Tensor(RNG.normal(size=(1, 8, 2))))

    def test_parameters_registered(self):
        block = MultiscaleDynamics(n_scales=3, seq_len=6, d_model=4)
        names = [n for n, _ in block.named_parameters()]
        assert sum("mixer" in n for n in names) == 3


class TestInputRepresentation:
    @pytest.mark.parametrize("variant", ["full", "-gamma", "-r", "-r-gamma", "-x", "-x-gamma"])
    def test_variants_shape(self, variant):
        block = InputRepresentation(d_x=4, d_model=8, seq_len=10, n_scales=3, variant=variant)
        x = Tensor(RNG.normal(size=(2, 10, 4)))
        marks = Tensor(RNG.normal(size=(2, 10, 3)))
        assert block(x, marks).shape == (2, 10, 8)

    @pytest.mark.parametrize("method", [1, 2, 3, 4])
    def test_fusion_methods_shape(self, method):
        block = InputRepresentation(d_x=4, d_model=8, seq_len=10, n_scales=3, fusion_method=method)
        x = Tensor(RNG.normal(size=(2, 10, 4)))
        marks = Tensor(RNG.normal(size=(2, 10, 3)))
        assert block(x, marks).shape == (2, 10, 8)

    def test_variant_changes_output(self):
        x = Tensor(RNG.normal(size=(1, 10, 4)))
        marks = Tensor(RNG.normal(size=(1, 10, 3)))
        from repro.tensor.random import seed_everything

        seed_everything(0)
        full = InputRepresentation(4, 8, 10, 3, variant="full")
        seed_everything(0)
        no_gamma = InputRepresentation(4, 8, 10, 3, variant="-gamma")
        assert not np.allclose(full(x, marks).data, no_gamma(x, marks).data)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            InputRepresentation(4, 8, 10, variant="nope")

    def test_gradients_flow_to_conv(self):
        block = InputRepresentation(d_x=3, d_model=4, seq_len=8, n_scales=2)
        x = Tensor(RNG.normal(size=(1, 8, 3)))
        marks = Tensor(RNG.normal(size=(1, 8, 2)))
        (block(x, marks) ** 2).sum().backward()
        assert block.conv.weight.grad is not None
        assert block.multiscale.embeddings[0].weight.grad is not None


class TestSIRN:
    def test_layer_shape_preserved(self):
        layer = SIRNLayer(d_model=8, n_heads=2, moving_avg=5, dropout=0.0)
        x = Tensor(RNG.normal(size=(2, 12, 8)))
        assert layer(x)[0].shape == (2, 12, 8)

    def test_hidden_state_exposed(self):
        layer = SIRNLayer(d_model=8, n_heads=2, moving_avg=5)
        _, hidden = layer(Tensor(RNG.normal(size=(3, 12, 8))))
        assert hidden.shape == (3, 8)

    def test_eta_iterations(self):
        layer = SIRNLayer(d_model=8, n_heads=2, moving_avg=5, decomp_iterations=3, dropout=0.0)
        x = Tensor(RNG.normal(size=(1, 12, 8)))
        assert layer(x)[0].shape == (1, 12, 8)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            SIRNLayer(d_model=8, n_heads=2, decomp_iterations=0)

    def test_encoder_stack(self):
        encoder = SIRNEncoder(2, d_model=8, n_heads=2, moving_avg=5, dropout=0.0)
        out, states = encoder(Tensor(RNG.normal(size=(2, 12, 8))))
        assert out.shape == (2, 12, 8)
        assert len(states) == 2 and states[0].shape == (2, 8)

    def test_decoder_cross_attends(self):
        decoder = SIRNDecoder(1, d_model=8, c_out=4, n_heads=2, moving_avg=5, dropout=0.0)
        x = Tensor(RNG.normal(size=(2, 10, 8)))
        memory1 = Tensor(RNG.normal(size=(2, 16, 8)))
        memory2 = Tensor(RNG.normal(size=(2, 16, 8)))
        out1, _ = decoder(x, memory1)
        out2, _ = decoder(x, memory2)
        assert out1.shape == (2, 10, 4)
        assert not np.allclose(out1.data, out2.data)

    @pytest.mark.parametrize("attn", ["full", "prob_sparse", "lsh", "log_sparse", "auto_correlation"])
    def test_attention_swaps(self, attn):
        """Table VI: SIRN must accept every competitor attention."""
        layer = SIRNLayer(d_model=8, n_heads=2, moving_avg=5, attention_type=attn, dropout=0.0)
        x = Tensor(RNG.normal(size=(1, 16, 8)))
        assert layer(x)[0].shape == (1, 16, 8)


class TestNormalizingFlow:
    def _flow(self, mode="flow", n_flows=2):
        return NormalizingFlow(d_hidden=8, latent_dim=6, pred_len=5, c_out=3, n_flows=n_flows, mode=mode, seed=0)

    def test_output_shape(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(4, 8))), Tensor(RNG.normal(size=(4, 8)))
        assert flow(h_e, h_d).shape == (4, 5, 3)

    def test_latent_chain_length(self):
        flow = self._flow(n_flows=3)
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        chain = flow.latent_chain(h_e, h_d)
        assert len(chain) == 2 + 3  # z_e, z_0, z_1..z_3

    def test_deterministic_repeatable(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        out1 = flow(h_e, h_d, deterministic=True)
        out2 = flow(h_e, h_d, deterministic=True)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_stochastic_varies(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        out1 = flow(h_e, h_d)
        out2 = flow(h_e, h_d)
        assert not np.allclose(out1.data, out2.data)

    @pytest.mark.parametrize("mode", ["flow", "z_e", "z_d", "z_0"])
    def test_ablation_modes(self, mode):
        flow = self._flow(mode=mode)
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        assert flow(h_e, h_d).shape == (2, 5, 3)

    def test_sampling(self):
        flow = self._flow()
        h_e, h_d = Tensor(RNG.normal(size=(2, 8))), Tensor(RNG.normal(size=(2, 8)))
        samples = flow.sample(h_e, h_d, n_samples=7)
        assert samples.shape == (7, 2, 5, 3)
        assert samples.std(axis=0).mean() > 0  # genuine spread

    @pytest.mark.parametrize("n_samples, preallocate", [(1, False), (1, True), (7, False), (7, True)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", FLOW_MODES)
    def test_tiled_sample_matches_sequential_forwards(self, mode, dtype, n_samples, preallocate):
        """One tiled pass gives the draws of S stochastic forwards and leaves
        the generator exactly where those S forwards leave it."""
        with compute_dtype(dtype):
            flow = self._flow(mode=mode).to_dtype(dtype)
            reference = copy.deepcopy(flow)
            h_e, h_d = Tensor(RNG.normal(size=(3, 8))), Tensor(RNG.normal(size=(3, 8)))
            out = np.full((n_samples, 3, 5, 3), np.nan, dtype=dtype) if preallocate else None
            samples = flow.sample(h_e, h_d, n_samples=n_samples, out=out)
            expected = sequential_samples(reference, h_e, h_d, n_samples)
        if preallocate:
            assert samples is out
        assert samples.dtype == dtype and samples.shape == expected.shape
        np.testing.assert_allclose(samples, expected, rtol=0, atol=SAMPLE_ATOL[dtype])
        assert flow._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            self._flow(mode="vae")

    def test_invalid_n_flows(self):
        with pytest.raises(ValueError):
            self._flow(n_flows=0)

    def test_gradients_reach_heads(self):
        flow = self._flow()
        h_e = Tensor(RNG.normal(size=(2, 8)), requires_grad=True)
        h_d = Tensor(RNG.normal(size=(2, 8)), requires_grad=True)
        (flow(h_e, h_d, deterministic=True) ** 2).sum().backward()
        assert flow.encoder_head.mu.weight.grad is not None
        assert flow.transforms[0].mu.weight.grad is not None
        assert h_e.grad is not None and h_d.grad is not None


class TestConformerModel:
    def test_forward_shapes(self):
        cfg = tiny_config()
        model = Conformer(cfg)
        y_out, z_out, (h_enc, h_dec) = model(*model_inputs(cfg))
        assert y_out.shape == (2, cfg.pred_len, cfg.c_out)
        assert z_out.shape == (2, cfg.pred_len, cfg.c_out)
        assert h_enc.shape == h_dec.shape == (2, cfg.d_model)

    def test_flow_none_mode(self):
        cfg = tiny_config(flow_mode="none")
        model = Conformer(cfg)
        y_out, z_out, flow_in = model(*model_inputs(cfg))
        assert z_out is None and flow_in is None
        assert y_out.shape == (2, cfg.pred_len, cfg.c_out)

    def test_loss_combines_heads(self):
        cfg = tiny_config(lambda_weight=0.8)
        model = Conformer(cfg)
        inputs = model_inputs(cfg)
        y_out, z_out, flow_in = model(*inputs, deterministic=True)
        target = Tensor(RNG.normal(size=(2, cfg.pred_len, cfg.c_out)))
        combined = model.compute_loss((y_out, z_out, flow_in), target).item()
        y_only = model.compute_loss((y_out, None, None), target).item()
        from repro.tensor import functional as F

        z_mse = F.mse_loss(z_out, target).item()
        assert combined == pytest.approx(0.8 * y_only + 0.2 * z_mse)

    def test_training_step_reduces_loss(self):
        from repro.optim import Adam

        cfg = tiny_config()
        model = Conformer(cfg)
        inputs = model_inputs(cfg)
        target = Tensor(RNG.normal(scale=0.3, size=(2, cfg.pred_len, cfg.c_out)))
        opt = Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(8):
            opt.zero_grad()
            loss = model.compute_loss(model(*inputs, deterministic=True), target)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first

    def test_predict_blends(self):
        cfg = tiny_config()
        model = Conformer(cfg)
        out = model.predict(*model_inputs(cfg))
        assert out.shape == (2, cfg.pred_len, cfg.c_out)
        assert model.training  # mode restored

    def test_predict_with_uncertainty(self):
        cfg = tiny_config()
        model = Conformer(cfg)
        result = model.predict_with_uncertainty(*model_inputs(cfg), n_samples=11)
        assert result["mean"].shape == (2, cfg.pred_len, cfg.c_out)
        assert result["samples"].shape == (11, 2, cfg.pred_len, cfg.c_out)
        assert np.all(result["q0.05"] <= result["q0.95"] + 1e-12)

    @pytest.mark.parametrize("flow_loss", ["mse", "nll"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_point_is_the_deterministic_predict(self, dtype, flow_loss):
        cfg = tiny_config(flow_loss=flow_loss)
        model = Conformer(cfg).to_dtype(dtype)
        inputs = [x.data.astype(dtype) for x in model_inputs(cfg)]
        with compute_dtype(dtype):
            point = model.predict_with_uncertainty(*inputs, n_samples=5)["point"]
            expected = model.predict(*inputs)
        assert point.dtype == expected.dtype == dtype
        np.testing.assert_array_equal(point, expected)

    @pytest.mark.parametrize("n_samples", [1, 2, 11, 50])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bands_equal_np_quantile(self, dtype, n_samples):
        quantiles = (0.0, 0.05, 0.5, 0.95, 1.0)
        cfg = tiny_config()
        model = Conformer(cfg).to_dtype(dtype)
        inputs = [x.data.astype(dtype) for x in model_inputs(cfg)]
        with compute_dtype(dtype):
            result = model.predict_with_uncertainty(*inputs, n_samples=n_samples, quantiles=quantiles)
        for q in quantiles:
            expected = np.quantile(result["samples"], q, axis=0)
            assert result[f"q{q}"].dtype == expected.dtype == dtype
            np.testing.assert_array_equal(result[f"q{q}"], expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_quantile_bands_handle_ties_and_nan_like_np_quantile(self, dtype):
        quantiles = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
        samples = RNG.integers(-2, 3, size=(13, 4, 5)).astype(dtype)  # many ties
        samples[RNG.integers(0, 13), 1, 2] = np.nan
        samples[:, 3, :] = -0.0
        bands = quantile_bands(samples, quantiles)
        for q in quantiles:
            expected = np.quantile(samples, q, axis=0)
            assert bands[f"q{q}"].dtype == expected.dtype
            np.testing.assert_array_equal(bands[f"q{q}"], expected)
            np.testing.assert_array_equal(np.signbit(bands[f"q{q}"]), np.signbit(expected))
        with pytest.raises(ValueError):
            quantile_bands(samples, (1.5,))

    @pytest.mark.parametrize("flow_loss", ["mse", "nll"])
    def test_flow_head_passes_do_not_grow_with_n_samples(self, monkeypatch, flow_loss):
        """Monte-Carlo draws share one tiled flow pass: the number of head
        calls per prediction is the same for 4 draws as for 40."""
        calls = []
        head_forward = _GaussianHead.forward

        def counting_forward(self, h):
            calls.append(h.shape[0])
            return head_forward(self, h)

        monkeypatch.setattr(_GaussianHead, "forward", counting_forward)
        cfg = tiny_config(flow_loss=flow_loss)
        model = Conformer(cfg)
        inputs = model_inputs(cfg)
        counts = []
        for n_samples in (4, 40):
            calls.clear()
            model.predict_with_uncertainty(*inputs, n_samples=n_samples)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_uncertainty_requires_flow(self):
        cfg = tiny_config(flow_mode="none")
        model = Conformer(cfg)
        with pytest.raises(RuntimeError):
            model.predict_with_uncertainty(*model_inputs(cfg))

    @pytest.mark.parametrize("source", [("first", "first"), ("last", "last"), ("first", "last")])
    def test_hidden_source_options(self, source):
        cfg = tiny_config(flow_hidden_source=source)
        model = Conformer(cfg)
        y_out, z_out, (h_enc, h_dec) = model(*model_inputs(cfg))
        assert z_out is not None
        assert h_enc.shape == h_dec.shape == (2, cfg.d_model)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(lambda_weight=1.5)
        with pytest.raises(ValueError):
            tiny_config(label_len=99)
        with pytest.raises(ValueError):
            tiny_config(flow_mode="diffusion")
        with pytest.raises(ValueError):
            tiny_config(input_variant="-q")
        with pytest.raises(ValueError):
            tiny_config(flow_hidden_source=("middle", "first"))

    def test_state_roundtrip(self, tmp_path):
        cfg = tiny_config()
        model = Conformer(cfg)
        inputs = model_inputs(cfg)
        expected = model.predict(*inputs)
        path = str(tmp_path / "conformer.npz")
        model.save(path)
        clone = Conformer(tiny_config())
        clone.load(path)
        np.testing.assert_allclose(clone.predict(*inputs), expected)
