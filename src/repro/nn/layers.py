"""Core layers: Linear, Conv1d, LayerNorm, BatchNorm1d, Dropout,
activations, and pooling wrappers.

Layout convention throughout the library: time-series batches are
``(B, L, C)`` — batch, length, channels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F
from repro.tensor.random import spawn_rng


class Linear(Module):
    """Affine map on the last axis: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(in_features, out_features, rng=rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv1d(Module):
    """1-D convolution over (B, L, C_in) producing (B, L_out, C_out).

    ``padding="same"`` keeps the length; ``padding_mode="circular"``
    matches the token embedding used by Informer-family models.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int | str = 0,
        padding_mode: str = "zeros",
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        if padding == "same":
            if kernel_size % 2 == 0:
                raise ValueError("'same' padding requires odd kernel_size")
            padding = (kernel_size - 1) // 2
        self.kernel_size = kernel_size
        self.padding = int(padding)
        self.padding_mode = {"zeros": "constant", "circular": "wrap", "replicate": "edge"}[padding_mode]
        self.weight = Parameter(init.kaiming_uniform(kernel_size, in_channels, out_channels, rng=rng))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, padding=self.padding, padding_mode=self.padding_mode)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones(normalized_shape))
        self.bias = Parameter(init.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        variance = x.var(axis=-1, keepdims=True)
        normalized = (x - mu) / F.sqrt(variance + self.eps)
        return normalized * self.weight + self.bias


class BatchNorm1d(Module):
    """Batch normalization over (B, L, C): normalizes each channel."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - 1))
        if self.training:
            mu = x.mean(axis=axes, keepdims=True)
            variance = x.var(axis=axes, keepdims=True)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu.data.ravel()
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * variance.data.ravel()
        else:
            mu = Tensor(self.running_mean)
            variance = Tensor(self.running_var)
        normalized = (x - mu) / F.sqrt(variance + self.eps)
        return normalized * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout, identity in eval mode. Seeded per-layer."""

    def __init__(self, p: float = 0.1, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = spawn_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class ELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.elu(x)


def get_activation(name: str) -> Module:
    """Look up an activation module by name ('relu'/'gelu'/'tanh'/'elu')."""
    table = {"relu": ReLU, "gelu": GELU, "tanh": Tanh, "sigmoid": Sigmoid, "elu": ELU}
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(table)}") from None


class MovingAverage(Module):
    """Edge-padded moving average over time — the trend extractor (Eq. 9)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        if self.kernel_size == 1:
            return x
        return F.avg_pool1d(x, self.kernel_size, pad_edges=True)


class FeedForward(Module):
    """Position-wise feed-forward block used inside encoder/decoder layers."""

    def __init__(self, d_model: int, d_ff: int, dropout: float = 0.1, activation: str = "gelu", rng=None) -> None:
        super().__init__()
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)
        self.activation = get_activation(activation)
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.dropout(self.activation(self.fc1(x))))
