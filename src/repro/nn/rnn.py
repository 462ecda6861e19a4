"""Recurrent networks: GRU and LSTM (batch-first, multi-layer).

The paper's SIRN and the RNN baselines are built on GRUs ("All of the
RNN blocks in Conformer are implemented with GRU", §V-A3).  Input
projections are computed for the whole sequence up-front so the Python
time loop only performs the recurrent matmul.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor import Tensor, functional as F


class GRUCell(Module):
    """Single GRU layer scanning a (B, L, C) sequence."""

    def __init__(self, input_size: int, hidden_size: int, rng=None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform(input_size, 3 * hidden_size, rng=rng))
        self.weight_hh = Parameter(init.orthogonal(hidden_size, 3 * hidden_size, rng=rng))
        self.bias_ih = Parameter(init.zeros(3 * hidden_size))
        self.bias_hh = Parameter(init.zeros(3 * hidden_size))

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        """Return (outputs (B, L, H), final hidden (B, H))."""
        batch, length, _ = x.shape
        hidden = self.hidden_size
        # zeros follow the input dtype so a float32 pass stays float32
        h = h0 if h0 is not None else Tensor(np.zeros((batch, hidden), dtype=x.data.dtype))
        x_proj = F.linear(x, self.weight_ih, self.bias_ih)  # (B, L, 3H)
        if F.fused_ops_enabled():
            # whole scan = one tape node with a hand-written BPTT backward
            outputs = F.gru_sequence(x_proj, h, self.weight_hh, self.bias_hh)
            return outputs, outputs[:, length - 1, :]
        return self._forward_unfused(x_proj, h, length, hidden)

    def _forward_unfused(self, x_proj: Tensor, h: Tensor, length: int, hidden: int) -> Tuple[Tensor, Tensor]:
        """Original op-by-op scan (~12 tape nodes per timestep).

        Kept as the numerical reference and as the baseline that
        ``python -m repro.perf`` measures the fused kernels against.
        """
        outputs: List[Tensor] = []
        for t in range(length):
            gates_x = x_proj[:, t, :]
            gates_h = h @ self.weight_hh + self.bias_hh
            rx, zx, nx = gates_x[:, :hidden], gates_x[:, hidden : 2 * hidden], gates_x[:, 2 * hidden :]
            rh, zh, nh = gates_h[:, :hidden], gates_h[:, hidden : 2 * hidden], gates_h[:, 2 * hidden :]
            reset = F.sigmoid(rx + rh)
            update = F.sigmoid(zx + zh)
            candidate = F.tanh(nx + reset * nh)
            h = (1.0 - update) * candidate + update * h
            outputs.append(h)
        return F.stack(outputs, axis=1), h

    def step(self, x_t: Tensor, h: Tensor) -> Tensor:
        """Advance one timestep (B, C) -> (B, H) via the fused kernel."""
        x_gates = F.linear(x_t, self.weight_ih, self.bias_ih)
        return F.gru_step(x_gates, h, self.weight_hh, self.bias_hh)


class GRU(Module):
    """Multi-layer GRU; returns stacked outputs and per-layer final states."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1, dropout: float = 0.0, rng=None) -> None:
        super().__init__()
        from repro.nn.layers import Dropout

        self.num_layers = num_layers
        self.hidden_size = hidden_size
        cells = []
        for layer in range(num_layers):
            cells.append(GRUCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng))
        self.cells = ModuleList(cells)
        self.dropout = Dropout(dropout) if dropout > 0 else None

    def forward(self, x: Tensor, h0: Optional[List[Tensor]] = None) -> Tuple[Tensor, List[Tensor]]:
        """Return (last layer outputs (B, L, H), final hiddens per layer)."""
        states: List[Tensor] = []
        out = x
        for layer, cell in enumerate(self.cells):
            initial = h0[layer] if h0 is not None else None
            out, h_final = cell(out, initial)
            if self.dropout is not None and layer < self.num_layers - 1:
                out = self.dropout(out)
            states.append(h_final)
        return out, states


class LSTMCell(Module):
    """Single LSTM layer scanning a (B, L, C) sequence."""

    def __init__(self, input_size: int, hidden_size: int, rng=None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform(input_size, 4 * hidden_size, rng=rng))
        self.weight_hh = Parameter(init.orthogonal(hidden_size, 4 * hidden_size, rng=rng))
        self.bias_ih = Parameter(init.zeros(4 * hidden_size))
        self.bias_hh = Parameter(init.zeros(4 * hidden_size))

    def forward(
        self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        batch, length, _ = x.shape
        hidden = self.hidden_size
        if state is None:
            h = Tensor(np.zeros((batch, hidden), dtype=x.data.dtype))
            c = Tensor(np.zeros((batch, hidden), dtype=x.data.dtype))
        else:
            h, c = state
        x_proj = F.linear(x, self.weight_ih, self.bias_ih)
        if F.fused_ops_enabled():
            hc = F.lstm_sequence(x_proj, h, c, self.weight_hh, self.bias_hh)  # (B, L, 2H)
            outputs = hc[:, :, :hidden]
            h_final = hc[:, length - 1, :hidden]
            c_final = hc[:, length - 1, hidden:]
            return outputs, (h_final, c_final)
        return self._forward_unfused(x_proj, h, c, length, hidden)

    def _forward_unfused(
        self, x_proj: Tensor, h: Tensor, c: Tensor, length: int, hidden: int
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Original op-by-op scan (benchmark baseline / numerical reference)."""
        outputs: List[Tensor] = []
        for t in range(length):
            gates = x_proj[:, t, :] + h @ self.weight_hh + self.bias_hh
            i = F.sigmoid(gates[:, :hidden])
            f = F.sigmoid(gates[:, hidden : 2 * hidden])
            g = F.tanh(gates[:, 2 * hidden : 3 * hidden])
            o = F.sigmoid(gates[:, 3 * hidden :])
            c = f * c + i * g
            h = o * F.tanh(c)
            outputs.append(h)
        return F.stack(outputs, axis=1), (h, c)

    def step(self, x_t: Tensor, h: Tensor, c: Tensor) -> Tuple[Tensor, Tensor]:
        """Advance one timestep; returns (h_new, c_new) via the fused kernel."""
        hidden = self.hidden_size
        x_gates = F.linear(x_t, self.weight_ih, self.bias_ih)
        hc = F.lstm_step(x_gates, h, c, self.weight_hh, self.bias_hh)
        return hc[:, :hidden], hc[:, hidden:]


class LSTM(Module):
    """Multi-layer LSTM (batch-first)."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1, rng=None) -> None:
        super().__init__()
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        cells = []
        for layer in range(num_layers):
            cells.append(LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng=rng))
        self.cells = ModuleList(cells)

    def forward(self, x: Tensor) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        states: List[Tuple[Tensor, Tensor]] = []
        out = x
        for cell in self.cells:
            out, state = cell(out)
            states.append(state)
        return out, states
