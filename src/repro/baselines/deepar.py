"""DeepAR baseline (Salinas et al. 2020) — extension beyond the paper's
comparison set, cited in its related work (§II-A, [9]).

An autoregressive GRU consumes the previous value plus calendar marks
and emits a Gaussian (mu, sigma) per step.  Training uses teacher
forcing with negative log-likelihood; prediction unrolls ancestrally and
supports Monte-Carlo sampling for probabilistic forecasts — the natural
likelihood-based counterpart to Conformer's normalizing-flow head.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.base import FORECASTER_CONTRACT, ForecastModel
from repro.markers import shape_contract
from repro.nn import GRU, Linear
from repro.tensor import Tensor, functional as F, inference_mode
from repro.tensor.random import spawn_rng


class DeepAR(ForecastModel):
    """Autoregressive GRU with a Gaussian output head."""

    def __init__(
        self,
        enc_in: int,
        c_out: int,
        pred_len: int,
        hidden_size: int = 32,
        num_layers: int = 2,
        d_time: int = 4,
        seed: int = 0,
        **_unused,
    ) -> None:
        super().__init__()
        rng = spawn_rng(seed)
        self.pred_len = pred_len
        self.c_out = c_out
        self.enc_in = enc_in
        self.rnn = GRU(enc_in + d_time, hidden_size, num_layers=num_layers, rng=rng)
        self.mu_head = Linear(hidden_size, c_out, rng=rng)
        self.sigma_head = Linear(hidden_size, c_out, rng=rng)
        self._rng = spawn_rng(seed + 1)

    # -- internals ---------------------------------------------------------
    def _distribution(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        mu = self.mu_head(features)
        sigma = F.softplus(self.sigma_head(features)) + 1e-4
        return mu, sigma

    def _teacher_forced(self, x_enc: Tensor, x_mark_enc: Tensor, x_dec: Tensor, y_mark_dec: Tensor):
        """Condition on the encoder window, then predict each future step
        from the *previous ground-truth-free* path (training uses the
        zero-padded decoder input's label section as context)."""
        label_len = x_dec.shape[1] - self.pred_len
        # context: full encoder window
        context = F.concat([x_enc, x_mark_enc], axis=-1)
        _, states = self.rnn(context)
        # future: feed back our own mean predictions (no ground truth leaks)
        batch = x_enc.shape[0]
        prev = x_enc[:, -1:, :]
        mus: List[Tensor] = []
        sigmas: List[Tensor] = []
        future_marks = y_mark_dec[:, label_len:, :]
        for step in range(self.pred_len):
            step_in = F.concat([prev, future_marks[:, step : step + 1, :]], axis=-1)
            out, states = self.rnn(step_in, states)
            mu, sigma = self._distribution(out[:, 0, :])
            mus.append(mu)
            sigmas.append(sigma)
            prev = mu.reshape(batch, 1, self.c_out)
        return F.stack(mus, axis=1), F.stack(sigmas, axis=1)

    # -- forecaster protocol -------------------------------------------------
    @shape_contract(inputs=FORECASTER_CONTRACT["inputs"], output=("B H C", "B H C"))
    def forward(self, x_enc: Tensor, x_mark_enc: Tensor, x_dec: Tensor, y_mark_dec: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (mu, sigma), each (B, pred_len, c_out)."""
        return self._teacher_forced(x_enc, x_mark_enc, x_dec, y_mark_dec)

    def compute_loss(self, outputs, target: Tensor) -> Tensor:
        """Gaussian NLL (DeepAR's objective)."""
        mu, sigma = outputs
        return F.gaussian_nll(mu, sigma, target)

    def sample_paths(self, x_enc, x_mark_enc, x_dec, y_mark_dec, n_samples: int = 100) -> np.ndarray:
        """Ancestral sampling: (S, B, pred_len, c_out) Monte-Carlo paths."""
        x_enc, x_mark_enc = _t(x_enc), _t(x_mark_enc)
        x_dec, y_mark_dec = _t(x_dec), _t(y_mark_dec)
        label_len = x_dec.shape[1] - self.pred_len
        batch = x_enc.shape[0]
        was_training = self.training
        self.eval()
        paths = []
        try:
            with inference_mode():
                context = F.concat([x_enc, x_mark_enc], axis=-1)
                _, base_states = self.rnn(context)
                future_marks = y_mark_dec[:, label_len:, :]
                for _ in range(n_samples):
                    states = [Tensor(s.data.copy()) for s in base_states]
                    prev = x_enc[:, -1:, :]
                    steps = []
                    for step in range(self.pred_len):
                        step_in = F.concat([prev, future_marks[:, step : step + 1, :]], axis=-1)
                        out, states = self.rnn(step_in, states)
                        mu, sigma = self._distribution(out[:, 0, :])
                        draw = mu.data + sigma.data * self._rng.normal(size=mu.shape)
                        steps.append(draw)
                        prev = Tensor(draw.reshape(batch, 1, self.c_out))
                    paths.append(np.stack(steps, axis=1))
        finally:
            self.train(was_training)
        return np.stack(paths, axis=0)


def _t(value):
    return value if isinstance(value, Tensor) else Tensor(value)
