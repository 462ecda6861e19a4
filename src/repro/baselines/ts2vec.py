"""TS2Vec baseline (Yue et al., AAAI 2022), adapted for forecasting.

A dilated-convolution encoder produces per-timestep representations.
Training combines (a) a hierarchical temporal contrastive loss between
two randomly-cropped overlapping views and (b) a linear forecasting head
on the final representation — so the model fits the standard trainer
protocol while keeping TS2Vec's representation-learning character.
The paper uses TS2Vec in the *univariate* comparison (Table IV).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.base import FORECASTER_CONTRACT, ForecastModel
from repro.markers import shape_contract
from repro.nn import Conv1d, GELU, LayerNorm, Linear, Module, ModuleList
from repro.tensor import Tensor, functional as F
from repro.tensor.random import spawn_rng


class DilatedConvBlock(Module):
    """Residual GELU conv block with exponentially growing dilation.

    Dilation is realized by subsampled kernels: a dilation-d kernel-3
    convolution equals a kernel (2d+1) conv whose interior taps are zero;
    we emulate it with stride-free Conv1d over a dilated index gather.
    """

    def __init__(self, channels: int, dilation: int, rng=None) -> None:
        super().__init__()
        self.dilation = dilation
        self.conv = Conv1d(channels, channels, kernel_size=3, padding="same", rng=rng)
        self.activation = GELU()
        self.norm = LayerNorm(channels)

    def forward(self, x: Tensor) -> Tensor:
        if self.dilation == 1:
            out = self.conv(x)
        else:
            # gather every d-th step, convolve, scatter back (per phase)
            batch, length, channels = x.shape
            d = self.dilation
            pieces: List[Tensor] = []
            for phase in range(d):
                idx = np.arange(phase, length, d)
                strided = x[:, idx, :]
                pieces.append((idx, self.conv(strided)))
            # interleave the phases back in order
            order = np.argsort(np.concatenate([idx for idx, _ in pieces]))
            stacked = F.concat([piece for _, piece in pieces], axis=1)
            out = stacked[:, order, :]
        return self.norm(x + self.activation(out))


class TS2VecEncoder(Module):
    """Input projection + stacked dilated conv blocks."""

    def __init__(self, c_in: int, d_repr: int, depth: int = 3, rng=None) -> None:
        super().__init__()
        self.input_proj = Linear(c_in, d_repr, rng=rng)
        self.blocks = ModuleList([DilatedConvBlock(d_repr, dilation=2**i, rng=rng) for i in range(depth)])

    def forward(self, x: Tensor) -> Tensor:
        out = self.input_proj(x)
        for block in self.blocks:
            out = block(out)
        return out


def hierarchical_contrastive_loss(repr_a: Tensor, repr_b: Tensor, levels: int = 2) -> Tensor:
    """Temporal contrastive loss pooled over a hierarchy of scales.

    At each level, matching timesteps across the two views are positives
    and all other timesteps in the batch are negatives; representations
    are max-pooled by 2 between levels (TS2Vec's hierarchy).
    """
    loss = None
    a, b = repr_a, repr_b
    for level in range(levels):
        batch, length, dim = a.shape
        flat_a = a.reshape(batch * length, dim)
        flat_b = b.reshape(batch * length, dim)
        logits = flat_a @ flat_b.swapaxes(-1, -2) / np.sqrt(dim)  # (BL, BL)
        labels = np.arange(batch * length)
        log_probs = F.log_softmax(logits, axis=-1)
        level_loss = -log_probs[labels, labels].mean()
        loss = level_loss if loss is None else loss + level_loss
        if a.shape[1] >= 2 and level < levels - 1:
            a = F.max_pool1d(a, kernel=2, stride=2)
            b = F.max_pool1d(b, kernel=2, stride=2)
    return loss * (1.0 / levels)


class TS2Vec(ForecastModel):
    """TS2Vec encoder + linear forecasting head, jointly trained."""

    def __init__(
        self,
        enc_in: int,
        c_out: int,
        pred_len: int,
        d_repr: int = 32,
        depth: int = 3,
        contrastive_weight: float = 0.5,
        d_time: int = 4,
        seed: int = 0,
        **_unused,
    ) -> None:
        super().__init__()
        rng = spawn_rng(seed)
        self.pred_len = pred_len
        self.c_out = c_out
        self.contrastive_weight = contrastive_weight
        self.encoder = TS2VecEncoder(enc_in + d_time, d_repr, depth=depth, rng=rng)
        self.head = Linear(d_repr, pred_len * c_out, rng=rng)
        self._rng = spawn_rng(seed + 1)

    def encode(self, x_enc: Tensor, x_mark_enc: Tensor) -> Tensor:
        """Per-timestep representations (B, L, d_repr)."""
        return self.encoder(F.concat([x_enc, x_mark_enc], axis=-1))

    @shape_contract(inputs=FORECASTER_CONTRACT["inputs"], output=("B H C", None))
    def forward(
        self, x_enc: Tensor, x_mark_enc: Tensor, x_dec: Tensor, y_mark_dec: Tensor
    ) -> Tuple[Tensor, Optional[Tensor]]:
        """Return (forecast (B, pred_len, c_out), contrastive loss or None outside training)."""
        representation = self.encode(x_enc, x_mark_enc)
        contrastive = None
        if self.training and x_enc.shape[1] >= 8:
            contrastive = self._contrastive(x_enc, x_mark_enc)
        final = representation[:, -1, :]
        return self.head(final).reshape(x_enc.shape[0], self.pred_len, self.c_out), contrastive

    def _contrastive(self, x_enc: Tensor, x_mark_enc: Tensor) -> Tensor:
        """Two overlapping random crops -> hierarchical contrastive loss."""
        length = x_enc.shape[1]
        crop = max(4, length // 2)
        max_start = length - crop
        start_a = int(self._rng.integers(0, max(1, max_start // 2)))
        start_b = int(self._rng.integers(start_a, max_start + 1))
        overlap_lo = start_b
        overlap_hi = min(start_a + crop, start_b + crop)
        if overlap_hi - overlap_lo < 2:
            overlap_lo, overlap_hi = 0, crop
            start_a = start_b = 0
        view_a = self.encode(x_enc[:, start_a : start_a + crop, :], x_mark_enc[:, start_a : start_a + crop, :])
        view_b = self.encode(x_enc[:, start_b : start_b + crop, :], x_mark_enc[:, start_b : start_b + crop, :])
        a_seg = view_a[:, overlap_lo - start_a : overlap_hi - start_a, :]
        b_seg = view_b[:, overlap_lo - start_b : overlap_hi - start_b, :]
        return hierarchical_contrastive_loss(a_seg, b_seg)

    def compute_loss(self, outputs, target: Tensor) -> Tensor:
        forecast, contrastive = outputs
        loss = F.mse_loss(forecast, target)
        if contrastive is not None:
            loss = loss + self.contrastive_weight * contrastive
        return loss
