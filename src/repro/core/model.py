"""The Conformer model (Fig. 1): input representation -> SIRN
encoder/decoder with sliding-window attention -> normalizing flow.

``forward`` returns the decoder prediction ``y_out``, the flow
prediction ``z_out`` (Eq. 18 trains both against the target) and the
flow's input pair ``(h_e, h_d)``.  ``predict`` blends the predictions
with the lambda trade-off, and ``predict_with_uncertainty`` draws flow
samples for the quantile bands of Figs. 6-7.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import ConformerConfig
from repro.core.flow import NormalizingFlow
from repro.core.input_repr import InputRepresentation
from repro.core.sirn import SIRNDecoder, SIRNEncoder
from repro.markers import shape_contract
from repro.nn import Module
from repro.tensor import Tensor, functional as F, get_arena, inference_mode
from repro.tensor.random import spawn_rng


class Conformer(Module):
    """End-to-end Conformer for long-term time-series forecasting."""

    def __init__(self, config: ConformerConfig) -> None:
        super().__init__()
        self.config = config
        rng = spawn_rng(config.seed)

        self.enc_repr = InputRepresentation(
            d_x=config.enc_in,
            d_model=config.d_model,
            seq_len=config.input_len,
            n_scales=config.d_time,
            variant=config.input_variant,
            fusion_method=config.fusion_method,
            rng=rng,
        )
        self.dec_repr = InputRepresentation(
            d_x=config.dec_in,
            d_model=config.d_model,
            seq_len=config.dec_len,
            n_scales=config.d_time,
            variant=config.input_variant,
            fusion_method=config.fusion_method,
            rng=rng,
        )
        sirn_kwargs = dict(
            d_model=config.d_model,
            n_heads=config.n_heads,
            window=config.window,
            moving_avg=config.moving_avg,
            decomp_iterations=config.decomp_iterations,
            dropout=config.dropout,
            attention_type=config.attention_type,
            decomp_kind=config.decomp_kind,
            stl_span=config.stl_span,
            rng=rng,
        )
        self.encoder = SIRNEncoder(config.e_layers, rnn_layers=config.enc_rnn_layers, **sirn_kwargs)
        self.decoder = SIRNDecoder(
            config.d_layers,
            c_out=config.c_out,
            rnn_layers=config.dec_rnn_layers,
            **sirn_kwargs,
        )
        self.flow: Optional[NormalizingFlow] = None
        if config.flow_mode != "none":
            self.flow = NormalizingFlow(
                d_hidden=config.d_model,
                latent_dim=config.flow_latent,
                pred_len=config.pred_len,
                c_out=config.c_out,
                n_flows=config.n_flows,
                mode=config.flow_mode,
                seed=config.seed + 1,
                rng=rng,
            )

    # ------------------------------------------------------------------
    @shape_contract(
        inputs={
            "x_enc": "B L D",
            "x_mark_enc": "B L M",
            "x_dec": "B Ldec D",
            "y_mark_dec": "B Ldec M",
        },
        output=("B H C", None, None),  # z_out and the flow pair are absent without a flow
    )
    def forward(
        self,
        x_enc: Tensor,
        x_mark_enc: Tensor,
        x_dec: Tensor,
        y_mark_dec: Tensor,
        deterministic: bool = False,
    ) -> Tuple[Tensor, Optional[Tensor], Optional[Tuple[Tensor, Tensor]]]:
        """Return (y_out (B, pred_len, c_out), z_out, (h_enc, h_dec)); the last two are None without a flow."""
        enc_in = self.enc_repr(x_enc, x_mark_enc)
        memory, enc_hiddens = self.encoder(enc_in)
        dec_in = self.dec_repr(x_dec, y_mark_dec)
        dec_out, dec_hiddens = self.decoder(dec_in, memory)
        y_out = dec_out[:, -self.config.pred_len :, :]
        if self.flow is None:
            return y_out, None, None

        enc_source, dec_source = self.config.flow_hidden_source  # Table IX
        h_enc = enc_hiddens[0 if enc_source == "first" else -1]
        h_dec = dec_hiddens[0 if dec_source == "first" else -1]
        if self.config.flow_loss == "nll":
            z_out, _ = self.flow.output_distribution(h_enc, h_dec, deterministic=deterministic)
        else:
            z_out = self.flow(h_enc, h_dec, deterministic=deterministic)
        return y_out, z_out, (h_enc, h_dec)

    # ------------------------------------------------------------------
    def compute_loss(self, outputs, target: Tensor) -> Tensor:
        """Eq. (18): lambda * MSE(y_out, Y) + (1 - lambda) * MSE(z_out, Y).

        With ``flow_loss='nll'`` the flow term is the Gaussian negative
        log-likelihood instead — the objective the paper *substituted away*
        (§IV-D); keeping it available preserves calibrated variances.
        """
        y_out, z_out, flow_in = outputs
        lam = self.config.lambda_weight
        base = F.mse_loss(y_out, target)
        if z_out is None:
            return base
        if self.config.flow_loss == "nll":
            return lam * base + (1.0 - lam) * self.flow.nll(*flow_in, target)
        return lam * base + (1.0 - lam) * F.mse_loss(z_out, target)

    def point_forecast(self, outputs) -> np.ndarray:
        """Trainer protocol: lambda-weighted blend of the two heads."""
        y_out, z_out, _ = outputs
        if z_out is None:
            return y_out.data
        lam = self.config.lambda_weight
        return lam * y_out.data + (1.0 - lam) * z_out.data

    def predict(self, x_enc, x_mark_enc, x_dec, y_mark_dec) -> np.ndarray:
        """Point forecast: lambda-weighted blend of decoder and flow heads."""
        was_training = self.training
        self.eval()
        try:
            with inference_mode():
                outputs = self.forward(_t(x_enc), _t(x_mark_enc), _t(x_dec), _t(y_mark_dec), deterministic=True)
            return self.point_forecast(outputs)
        finally:
            self.train(was_training)

    def predict_with_uncertainty(
        self,
        x_enc,
        x_mark_enc,
        x_dec,
        y_mark_dec,
        n_samples: int = 100,
        quantiles: Tuple[float, ...] = (0.05, 0.25, 0.75, 0.95),
    ) -> Dict[str, np.ndarray]:
        """Sample the flow head for uncertainty bands (Figs. 6-7).

        Returns a dict with the deterministic 'point' forecast (what
        :meth:`predict` returns), the sample 'mean', the blended 'samples'
        and one array per requested quantile keyed ``"q0.05"`` etc.
        Samples blend decoder and flow heads with the lambda trade-off.
        Every quantile comes from one sort of the samples and equals
        ``np.quantile(samples, q, axis=0)``.
        """
        if self.flow is None:
            raise RuntimeError("uncertainty requires flow_mode != 'none'")
        was_training = self.training
        self.eval()
        try:
            with inference_mode():
                outputs = self.forward(_t(x_enc), _t(x_mark_enc), _t(x_dec), _t(y_mark_dec), deterministic=True)
                y_out, _, (h_enc, h_dec) = outputs
                # one recycled (S, B, L, C) buffer receives every Monte-Carlo
                # draw; only the blended result below is freshly allocated
                # (it escapes via result["samples"])
                shape = (n_samples,) + tuple(y_out.shape)
                z_samples = get_arena().get("model.mc_samples", shape, y_out.data.dtype)
                if self.config.flow_loss == "nll":
                    self.flow.sample_distribution(h_enc, h_dec, n_samples=n_samples, out=z_samples)
                else:
                    self.flow.sample(h_enc, h_dec, n_samples=n_samples, out=z_samples)
                # blend INSIDE the inference block: exiting inference_mode
                # releases the arena checkout, so reading z_samples after
                # the block would be a use-after-release (the exact hazard
                # a concurrent request reusing the slot turns into corrupt
                # forecasts — the alias sanitizer flags it)
                point = self.point_forecast(outputs)
                lam = self.config.lambda_weight
                blended = np.empty_like(z_samples)
                np.multiply(z_samples, 1.0 - lam, out=blended)
                blended += lam * y_out.data[None]
            result = {"point": point, "mean": blended.mean(axis=0), "samples": blended}
            result.update(quantile_bands(blended, quantiles))
            return result
        finally:
            self.train(was_training)


def quantile_bands(samples: np.ndarray, quantiles: Tuple[float, ...]) -> Dict[str, np.ndarray]:
    """``{"q<q>": np.quantile(samples, q, axis=0)}`` for every q, from one sort.

    Bit for bit what ``np.quantile`` (method "linear") returns for a
    Python-float q, in the samples' dtype: numpy's own virtual index, its
    clamp of the last index to -1, its two-sided lerp, and NaN for a slice
    that holds a NaN sample.
    """
    ordered = np.sort(samples, axis=0)
    poisoned = np.isnan(ordered[-1])
    last = ordered.shape[0] - 1
    bands = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        virtual = last * float(q)
        inside = virtual < last
        lower = float(np.floor(virtual)) if inside else -1.0
        a = ordered[int(lower)]
        b = ordered[int(lower) + 1] if inside else a
        t = virtual - lower
        diff = b - a
        band = b - diff * (1 - t) if t >= 0.5 else a + diff * t
        band[poisoned] = np.nan
        bands[f"q{q}"] = band
    return bands


def _t(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)
