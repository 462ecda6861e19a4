"""Stationary and Instant Recurrent Network (SIRN, §IV-B2, Fig. 3a).

One SIRN layer does three things:

1. **Global + local mixing** (Eq. 8): a GRU scans the whole sequence and
   its softmaxed output gates the input (global stationary signal), a
   sliding-window MHA adds the local signal, and a residual keeps the
   original representation.
2. **Recurrent decomposition distillation** (Eqs. 9-10): the seasonal part
   is repeatedly refined by Conv + windowed-attention injections through
   ``eta`` decomposition rounds; trends from every round are accumulated.
3. **Fusion** (Eq. 11): the final seasonal part plus a second GRU run over
   the summed trends, linearly projected.

Every layer returns the final hidden state of its *first* GRU next to its
output; the encoder and decoder return one per layer, in layer order.
These are the h_e / h_d the normalizing-flow block absorbs (Fig. 3b).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.decomp import SeriesDecomposition
from repro.nn import (
    GRU,
    Conv1d,
    Dropout,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    get_attention,
)
from repro.tensor import Tensor, functional as F


def _make_decomposition(decomp_kind: str, moving_avg: int, stl_span: float):
    """Eq. 9 moving-average decomposition, or the STL/loess alternative."""
    if decomp_kind == "stl":
        from repro.core.loess import STLDecomposition

        return STLDecomposition(span=stl_span)
    return SeriesDecomposition(moving_avg)


def _make_windowed_mha(d_model: int, n_heads: int, attention_type: str, window: int, dropout: float, rng=None):
    """Build the MHA_W block; ``attention_type`` supports the Table VI swaps."""
    kwargs = {}
    if attention_type == "sliding_window":
        kwargs["window"] = window
    mechanism = get_attention(attention_type, dropout=dropout, **kwargs)
    return MultiHeadAttention(d_model, n_heads, mechanism=mechanism, dropout=dropout, rng=rng)


class SIRNLayer(Module):
    """One SIRN block operating on (B, L, d_model)."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        window: int = 2,
        moving_avg: int = 25,
        decomp_iterations: int = 1,
        rnn_layers: int = 1,
        dropout: float = 0.05,
        attention_type: str = "sliding_window",
        decomp_kind: str = "ma",
        stl_span: float = 0.3,
        rng=None,
    ) -> None:
        super().__init__()
        if decomp_iterations < 1:
            raise ValueError("decomp_iterations (eta) must be >= 1")
        self.decomp_iterations = decomp_iterations
        self.global_rnn = GRU(d_model, d_model, num_layers=rnn_layers, rng=rng)
        self.local_attention = _make_windowed_mha(d_model, n_heads, attention_type, window, dropout, rng=rng)
        self.initial_decomp = _make_decomposition(decomp_kind, moving_avg, stl_span)
        self.decomps = ModuleList(
            [_make_decomposition(decomp_kind, moving_avg, stl_span) for _ in range(decomp_iterations)]
        )
        self.convs = ModuleList(
            [Conv1d(d_model, d_model, kernel_size=3, padding="same", rng=rng) for _ in range(decomp_iterations)]
        )
        self.trend_rnn = GRU(d_model, d_model, num_layers=rnn_layers, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.norm = LayerNorm(d_model)
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (output (B, L, d_model), first-GRU hidden state (B, d_model))."""
        # ---- Eq. (8): global gate + local attention + residual ----
        rnn_out, rnn_states = self.global_rnn(x)
        gate = F.softmax(rnn_out, axis=-1)
        local = self.local_attention(x)
        mixed = gate * x + local + x

        # ---- Eqs. (9)-(10): recurrent decomposition distillation ----
        trend, seasonal = self.initial_decomp(mixed)
        trend_sum = trend
        for conv, decomp in zip(self.convs, self.decomps):
            refined = conv(seasonal) + self.local_attention(mixed)
            trend, seasonal = decomp(refined)
            trend_sum = trend_sum + trend

        # ---- Eq. (11): fuse instant + stationary ----
        trend_feat, _ = self.trend_rnn(trend_sum)
        out = self.out_proj(seasonal + trend_feat)
        return self.norm(self.dropout(out) + x), rnn_states[-1]


class SIRNEncoder(Module):
    """Stack of SIRN layers; collects per-layer hidden states for the flow."""

    def __init__(self, n_layers: int, **layer_kwargs) -> None:
        super().__init__()
        self.layers = ModuleList([SIRNLayer(**layer_kwargs) for _ in range(n_layers)])

    def forward(self, x: Tensor) -> Tuple[Tensor, List[Tensor]]:
        """Return (output, first-GRU hidden state of each layer in layer order)."""
        hiddens = []
        for layer in self.layers:
            x, h = layer(x)
            hiddens.append(h)
        return x, hiddens


class SIRNDecoderLayer(Module):
    """SIRN layer plus cross-attention to the encoder memory."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        window: int = 2,
        moving_avg: int = 25,
        decomp_iterations: int = 1,
        rnn_layers: int = 2,
        dropout: float = 0.05,
        attention_type: str = "sliding_window",
        decomp_kind: str = "ma",
        stl_span: float = 0.3,
        rng=None,
    ) -> None:
        super().__init__()
        self.sirn = SIRNLayer(
            d_model,
            n_heads,
            window=window,
            moving_avg=moving_avg,
            decomp_iterations=decomp_iterations,
            rnn_layers=rnn_layers,
            dropout=dropout,
            attention_type=attention_type,
            decomp_kind=decomp_kind,
            stl_span=stl_span,
            rng=rng,
        )
        self.cross_attention = MultiHeadAttention(d_model, n_heads, dropout=dropout, rng=rng)
        self.norm = LayerNorm(d_model)
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor, memory: Tensor) -> Tuple[Tensor, Tensor]:
        """Return (output, the SIRN layer's first-GRU hidden state)."""
        x, h = self.sirn(x)
        attended = self.cross_attention(x, memory, memory)
        return self.norm(x + self.dropout(attended)), h


class SIRNDecoder(Module):
    """Stack of decoder layers followed by the output projection."""

    def __init__(self, n_layers: int, d_model: int, c_out: int, rng=None, **layer_kwargs) -> None:
        super().__init__()
        self.layers = ModuleList(
            [SIRNDecoderLayer(d_model=d_model, rng=rng, **layer_kwargs) for _ in range(n_layers)]
        )
        self.projection = Linear(d_model, c_out, rng=rng)

    def forward(self, x: Tensor, memory: Tensor) -> Tuple[Tensor, List[Tensor]]:
        """Return (projected output (B, L_dec, c_out), per-layer hidden states)."""
        hiddens = []
        for layer in self.layers:
            x, h = layer(x, memory)
            hiddens.append(h)
        return self.projection(x), hiddens
