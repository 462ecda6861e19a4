"""Configuration for the Conformer model.

Defaults follow §V-A3 of the paper: 2-layer encoder, 1-layer decoder,
2-step normalizing flow, sliding-window size 2, lambda = 0.8, Adam with
lr 1e-4, batch 32.  The paper uses d_model = 512 on an A100; the default
here is CPU-sized and every experiment config can scale it back up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class ConformerConfig:
    """Hyper-parameters of Conformer and its ablation switches."""

    # data dimensions
    enc_in: int = 7  # input variables d_x
    dec_in: int = 7
    c_out: int = 7  # predicted variables
    input_len: int = 96  # L_x
    label_len: int = 48  # decoder context length
    pred_len: int = 96  # L_y
    d_time: int = 4  # number of calendar-feature resolutions K

    # architecture
    d_model: int = 32
    n_heads: int = 8
    e_layers: int = 2
    d_layers: int = 1
    window: int = 2  # sliding-window attention size w
    moving_avg: int = 25  # series-decomposition kernel
    decomp_kind: str = "ma"  # "ma" (Eq. 9 moving average) | "stl" (loess trend)
    stl_span: float = 0.3  # loess span when decomp_kind == "stl"
    decomp_iterations: int = 1  # eta in Eq. (10)
    enc_rnn_layers: int = 1  # GRU depth (paper: 1-layer enc, 2-layer dec)
    dec_rnn_layers: int = 2
    dropout: float = 0.05

    # normalizing flow
    n_flows: int = 2  # T, number of transformations
    flow_latent: Optional[int] = None  # defaults to d_model
    lambda_weight: float = 0.8  # lambda in Eq. (18)

    # ablation switches (papers' Tables V, VII, VIII, IX)
    input_variant: str = "full"  # full|-gamma|-r|-r-gamma|-x|-x-gamma
    fusion_method: int = 0  # 0 = Eq. (6); 1..4 = Table VIII methods
    attention_type: str = "sliding_window"  # Table VI swaps
    flow_mode: str = "flow"  # flow|z_e|z_d|z_0|none (Table VII)
    flow_loss: str = "mse"  # mse (paper, Eq. 18) | nll (likelihood extension)
    flow_hidden_source: Tuple[str, str] = ("first", "first")  # Table IX: (enc, dec) in {first,last}

    # training
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.flow_latent is None:
            self.flow_latent = self.d_model
        if self.label_len > self.input_len:
            raise ValueError("label_len cannot exceed input_len")
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda_weight must be in [0, 1]")
        if self.input_variant not in {"full", "-gamma", "-r", "-r-gamma", "-x", "-x-gamma"}:
            raise ValueError(f"unknown input_variant {self.input_variant!r}")
        if self.fusion_method not in {0, 1, 2, 3, 4}:
            raise ValueError("fusion_method must be 0..4")
        if self.flow_mode not in {"flow", "z_e", "z_d", "z_0", "none"}:
            raise ValueError(f"unknown flow_mode {self.flow_mode!r}")
        if self.flow_loss not in {"mse", "nll"}:
            raise ValueError(f"flow_loss must be 'mse' or 'nll', got {self.flow_loss!r}")
        if self.decomp_kind not in {"ma", "stl"}:
            raise ValueError(f"decomp_kind must be 'ma' or 'stl', got {self.decomp_kind!r}")
        for src in self.flow_hidden_source:
            if src not in {"first", "last"}:
                raise ValueError("flow_hidden_source entries must be 'first' or 'last'")

    @property
    def dec_len(self) -> int:
        """Decoder sequence length (label context + prediction horizon)."""
        return self.label_len + self.pred_len
