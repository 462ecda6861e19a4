"""Normalizing-flow block for LTTF (§IV-C, Fig. 3b, Eqs. 15-17).

The flow absorbs the encoder's and decoder's GRU hidden states:

- Eq. (15):  z_e = mu_e(h_e) + sigma_e(h_e) * eps,     eps ~ N(0, I)
- Eq. (16):  z_0 = mu_d(h_d) + sigma_d(h_d) * z_e
- Eq. (17):  z_t = mu_t([h_d, z_{t-1}]) + sigma_t([h_d, z_{t-1}]) * z_{t-1}

The final latent z_T is projected to the target series, so the future is
generated *directly* from latent states (the paper trains this with MSE,
Eq. 18, instead of log-likelihood).  Drawing several eps produces the
uncertainty bands of Figs. 6-7; sigma networks use softplus so scales
stay positive.

``mode`` implements the Table VII ablations: ``z_e``/``z_d``/``z_0``
short-circuit the chain at the corresponding latent; ``none`` is handled
by the caller (flow skipped entirely).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.nn import Linear, Module, ModuleList
from repro.tensor import Tensor, functional as F
from repro.tensor.random import spawn_rng

FLOW_MODES = ("flow", "z_e", "z_d", "z_0")

# Observability hook: called with (anomaly_kind, payload_dict) when the
# flow loss goes non-finite.  None (the default) costs nothing — the
# telemetry layer (repro.obs) installs a callback during instrumented
# runs; core never imports obs, the dependency points one way.
_ANOMALY_HOOK: Optional[Callable[[str, dict], None]] = None


def set_flow_anomaly_hook(
    hook: Optional[Callable[[str, dict], None]],
) -> Optional[Callable[[str, dict], None]]:
    """Install (or clear, with None) the flow anomaly hook; returns the
    previous hook so callers can restore it."""
    global _ANOMALY_HOOK
    previous = _ANOMALY_HOOK
    _ANOMALY_HOOK = hook
    return previous


class _GaussianHead(Module):
    """mu/sigma networks over a hidden state: FCN_mu(h), softplus FCN_sigma(h)."""

    def __init__(self, in_dim: int, latent_dim: int, rng=None) -> None:
        super().__init__()
        self.mu = Linear(in_dim, latent_dim, rng=rng)
        self.sigma = Linear(in_dim, latent_dim, rng=rng)

    def forward(self, h: Tensor) -> Tuple[Tensor, Tensor]:
        return self.mu(h), F.softplus(self.sigma(h)) + 1e-6


class NormalizingFlow(Module):
    """The conditioned affine flow chain of Eqs. (15)-(17).

    Parameters
    ----------
    d_hidden:
        Dimension of the encoder/decoder hidden states h_e, h_d.
    latent_dim:
        Dimension of the latent variables z.
    pred_len, c_out:
        Output series shape; z_T is projected to (pred_len, c_out).
    n_flows:
        T — the number of chained transformations (paper default 2).
    mode:
        'flow' (full chain) or a Table VII ablation ('z_e'/'z_d'/'z_0').
    """

    def __init__(
        self,
        d_hidden: int,
        latent_dim: int,
        pred_len: int,
        c_out: int,
        n_flows: int = 2,
        mode: str = "flow",
        seed: Optional[int] = None,
        rng=None,
    ) -> None:
        super().__init__()
        if mode not in FLOW_MODES:
            raise ValueError(f"mode must be one of {FLOW_MODES}, got {mode!r}")
        if n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        self.mode = mode
        self.latent_dim = latent_dim
        self.pred_len = pred_len
        self.c_out = c_out
        self.n_flows = n_flows
        self.encoder_head = _GaussianHead(d_hidden, latent_dim, rng=rng)  # Eq. (15)
        self.decoder_head = _GaussianHead(d_hidden, latent_dim, rng=rng)  # Eq. (16)
        self.transforms = ModuleList(  # Eq. (17), conditioned on h_d
            [_GaussianHead(d_hidden + latent_dim, latent_dim, rng=rng) for _ in range(n_flows)]
        )
        self.projection = Linear(latent_dim, pred_len * c_out, rng=rng)
        # scale head for the optional NLL objective (library extension: the
        # paper substitutes MSE for the log-likelihood, §IV-D)
        self.scale_projection = Linear(latent_dim, pred_len * c_out, rng=rng)
        self._rng = spawn_rng(seed)

    # ------------------------------------------------------------------
    @property
    def _draws(self) -> int:
        """eps draws one forward takes: 'z_d' draws again for its own head."""
        return 2 if self.mode == "z_d" else 1

    def _eps(self, shape: Tuple[int, ...], deterministic: bool) -> np.ndarray:
        return np.zeros(shape) if deterministic else self._rng.normal(size=shape)

    def _chain(self, h_enc: Tensor, h_dec: Tensor, eps: np.ndarray) -> List[Tensor]:
        mu_e, sigma_e = self.encoder_head(h_enc)
        z_e = mu_e + sigma_e * Tensor(eps)  # Eq. (15)
        mu_d, sigma_d = self.decoder_head(h_dec)
        z = mu_d + sigma_d * z_e  # Eq. (16)
        chain = [z_e, z]
        for transform in self.transforms:  # Eq. (17)
            conditioned = F.concat([h_dec, z], axis=-1)
            mu_t, sigma_t = transform(conditioned)
            z = mu_t + sigma_t * z
            chain.append(z)
        return chain

    def latent_chain(self, h_enc: Tensor, h_dec: Tensor, deterministic: bool = False) -> List[Tensor]:
        """Return [z_e, z_0, z_1, ..., z_T] for inspection/ablation."""
        return self._chain(h_enc, h_dec, self._eps((h_enc.shape[0], self.latent_dim), deterministic))

    def _generate(self, h_enc: Tensor, h_dec: Tensor, eps: np.ndarray) -> Tensor:
        """The mode's forecast (N, pred_len, c_out) for explicit noise
        ``eps`` of shape (draws, N, latent_dim)."""
        chain = self._chain(h_enc, h_dec, eps[0])
        if self.mode == "flow":
            z = chain[-1]
        elif self.mode == "z_e":
            z = chain[0]
        elif self.mode == "z_0":
            z = chain[1]
        else:  # 'z_d': Gaussian re-parameterization of the decoder state alone
            mu_d, sigma_d = self.decoder_head(h_dec)
            z = mu_d + sigma_d * Tensor(eps[1])
        return self.projection(z).reshape(z.shape[0], self.pred_len, self.c_out)

    def forward(self, h_enc: Tensor, h_dec: Tensor, deterministic: bool = False) -> Tensor:
        """Generate the target series (B, pred_len, c_out) from hidden states."""
        eps = self._eps((self._draws, h_enc.shape[0], self.latent_dim), deterministic)
        return self._generate(h_enc, h_dec, eps)

    def sample(
        self, h_enc: Tensor, h_dec: Tensor, n_samples: int = 100, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw ``n_samples`` stochastic forecasts: (S, B, pred_len, c_out).

        Only eps differs between draws, so h_e and h_d are tiled to
        (S*B, d) and all draws run through the heads in one pass.  eps is
        one (S, draws, B, k) block: the same stream, in the same order, as
        S calls of ``forward(deterministic=False)`` would take.

        ``out`` (same shape) receives the draws in place — callers doing
        repeated Monte-Carlo passes preallocate once instead of paying a
        fresh (S, B, L, C) stack per call.
        """
        batch = h_enc.shape[0]
        eps = self._rng.normal(size=(n_samples, self._draws, batch, self.latent_dim))
        eps = eps.swapaxes(0, 1).reshape(self._draws, n_samples * batch, self.latent_dim)
        draws = self._generate(_tile(h_enc, n_samples), _tile(h_dec, n_samples), eps).data
        draws = draws.reshape((n_samples, batch, self.pred_len, self.c_out))
        if out is None:
            return draws
        out[...] = draws
        return out

    # ------------------------------------------------------------------
    # NLL extension: an explicit Gaussian output distribution
    # ------------------------------------------------------------------
    def _distribution(self, z: Tensor) -> Tuple[Tensor, Tensor]:
        batch = z.shape[0]
        mu = self.projection(z).reshape(batch, self.pred_len, self.c_out)
        sigma = F.softplus(self.scale_projection(z)).reshape(batch, self.pred_len, self.c_out) + 1e-4
        return mu, sigma

    def output_distribution(
        self, h_enc: Tensor, h_dec: Tensor, deterministic: bool = True
    ) -> Tuple[Tensor, Tensor]:
        """(mu, sigma) of the target series, each (B, pred_len, c_out).

        MSE training (Eq. 18) provably shrinks the sampled variance; this
        head lets the flow be trained by maximum likelihood instead, so the
        predicted sigma stays meaningful for uncertainty bands.
        """
        return self._distribution(self.latent_chain(h_enc, h_dec, deterministic=deterministic)[-1])

    def nll(self, h_enc: Tensor, h_dec: Tensor, target: Tensor, deterministic: bool = False) -> Tensor:
        """Gaussian negative log-likelihood of the target series."""
        mu, sigma = self.output_distribution(h_enc, h_dec, deterministic=deterministic)
        loss = F.gaussian_nll(mu, sigma, target)
        if _ANOMALY_HOOK is not None and not np.isfinite(loss.data).all():
            _ANOMALY_HOOK(
                "flow_nll_nonfinite",
                {
                    "loss": float(np.asarray(loss.data).reshape(-1)[0]),
                    "sigma_min": float(sigma.data.min()),
                    "mu_nonfinite": int((~np.isfinite(mu.data)).sum()),
                },
            )
        return loss

    def sample_distribution(
        self, h_enc: Tensor, h_dec: Tensor, n_samples: int = 100, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draws from the explicit output distribution (S, B, pred_len, c_out).

        One tiled pass, as in :meth:`sample`.  Each draw takes a (B, k)
        latent eps and then a (B, L, C) output eps; one flat normal block,
        split per draw, keeps that interleaved stream.  ``out`` works as in
        :meth:`sample`.
        """
        batch = h_enc.shape[0]
        shape = (n_samples, batch, self.pred_len, self.c_out)
        latent = batch * self.latent_dim
        noise = self._rng.normal(size=(n_samples, latent + batch * self.pred_len * self.c_out))
        eps = noise[:, :latent].reshape(n_samples * batch, self.latent_dim)
        z = self._chain(_tile(h_enc, n_samples), _tile(h_dec, n_samples), eps)[-1]
        mu, sigma = self._distribution(z)
        if out is None:
            out = np.empty(shape, dtype=mu.data.dtype)
        np.multiply(sigma.data.reshape(shape), noise[:, latent:].reshape(shape), out=out)
        out += mu.data.reshape(shape)
        return out


def _tile(h: Tensor, n_samples: int) -> Tensor:
    """(B, d) -> (S*B, d): row s*B + b is h[b]."""
    batch, width = h.shape
    return h.broadcast_to((n_samples, batch, width)).reshape(n_samples * batch, width)
