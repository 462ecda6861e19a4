"""Common forecaster protocol shared by Conformer and all baselines.

The trainer only relies on three methods:

- ``forward(x_enc, x_mark_enc, x_dec, y_mark_dec)`` -> model outputs
- ``compute_loss(outputs, target)`` -> scalar Tensor
- ``point_forecast(outputs)`` -> numpy array (B, pred_len, c_out)

``outputs`` carry all the helpers need; a forward writes no module state.
Plain forecasters return the forecast Tensor.  DeepAR returns ``(mu,
sigma)`` and TS2Vec ``(forecast, contrastive or None)``, overriding
``compute_loss``; Conformer returns ``(y_out, z_out, (h_e, h_d))``.
"""

from __future__ import annotations

import numpy as np

from repro.markers import shape_contract
from repro.nn import Module
from repro.tensor import Tensor, functional as F

#: The forecaster-protocol shape contract every baseline forward declares:
#: encoder window (B, L, D) + time marks (B, L, M), decoder window
#: (B, label_len+pred_len, D) + marks, horizon output (B, H, C).
#: Verified by ``repro.cli check`` (see docs/static-analysis.md).
FORECASTER_CONTRACT = dict(
    inputs={
        "x_enc": "B L D",
        "x_mark_enc": "B L M",
        "x_dec": "B Ldec D",
        "y_mark_dec": "B Ldec M",
    },
    output="B H C",
)


def forecaster_contract(fn):
    """Attach the shared forecaster-protocol contract to a forward method."""
    return shape_contract(**FORECASTER_CONTRACT)(fn)


class ForecastModel(Module):
    """Base class for single-head forecasters."""

    def compute_loss(self, outputs, target: Tensor) -> Tensor:
        return F.mse_loss(outputs, target)

    def point_forecast(self, outputs) -> np.ndarray:
        """The forecast: ``outputs``, or their first element for a tuple."""
        return (outputs[0] if isinstance(outputs, tuple) else outputs).data
