"""Numpy kernels for the two special functions the engine uses.

``expit`` (the logistic sigmoid) and ``erf`` are all the engine needs
from ``scipy.special``.  Computing them here keeps scipy, and the
modules it loads, off the ``import repro`` path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# erf(x) / x for |x| < 1, in powers of t = 2x^2 - 1 (highest first)
_ERF_SMALL = (
    1.0576698586946241e-14, -4.174558259666689e-13, 9.183974974672969e-12,
    -2.0341457652427248e-10, 4.115770908291139e-09, -7.511581012790704e-08,
    1.2233827642431215e-06, -1.7537169384942753e-05, 0.00021751715603184966,
    -0.002285485561155244, 0.01985249668898468, -0.14053608902271655,
    0.9654687386698674,
)
# erfc(x) exp(x^2) for lo <= x <= hi, in powers of
# t = (2x - lo - hi) / (hi - lo) (highest first): [lo, hi] = [1, 2.5] ...
_ERFCX_MID = (
    -8.531248045320932e-12, 4.912668951132039e-11, -2.1513855889063873e-10,
    1.074852527056913e-09, -5.40838515126252e-09, 2.6218197701735232e-08,
    -1.2366568341959225e-07, 5.680052411866473e-07, -2.5345076425069734e-06,
    1.096289791117839e-05, -4.58561681818475e-05, 0.00018495607744246952,
    -0.000716891445431987, 0.0026591791242835416, -0.009390935492473261,
    0.03136704192398359, -0.09823225913586368, 0.28497223473743644,
)
# ... and [2.5, 6]
_ERFCX_TAIL = (
    6.831092776193136e-09, -2.2023207145990186e-08, 4.27739796471989e-08,
    -1.3757042785742522e-07, 4.810062496318056e-07, -1.490618852935937e-06,
    4.517601353934485e-06, -1.3624609930542435e-05, 4.048732415128663e-05,
    -0.00011835636019061504, 0.00034031140773835045, -0.0009617326299217153,
    0.002669003737306755, -0.0072669543426913666, 0.019391340462970932,
    -0.05065257997504774, 0.12934527478599267,
)
# as 0-d arrays: numpy converts a Python float operand on every call
_ERF_SMALL, _ERFCX_MID, _ERFCX_TAIL = (tuple(map(np.array, c)) for c in (_ERF_SMALL, _ERFCX_MID, _ERFCX_TAIL))


def expit(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))``, in the input's float dtype.

    ``out`` may be ``x`` itself: every element is read before its slot
    is written.  Where ``exp(-x)`` overflows the result is 0, which is
    within ``finfo.tiny`` of the exact value; the overflow is silenced.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    if out is None:
        out = np.empty_like(x)
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


def _poly(coef: Sequence[float], t: np.ndarray) -> np.ndarray:
    """Horner's rule, coefficients highest power first."""
    y = t * coef[0]
    for c in coef[1:-1]:
        y += c
        y *= t
    y += coef[-1]
    return y


def erf(x: np.ndarray) -> np.ndarray:
    """Error function, within 2 ulp of the exact value in float64.

    Float32 (and other float) input is computed in float64 and rounded
    back; integer input gives float64.  On ``a = |x|``: ``x P(2x^2 - 1)``
    below 1, ``sign(x) (1 - exp(-a^2) Q(t))`` up to 6 with ``Q`` one of
    two fits of ``erfc(a) exp(a^2)``, and ``sign(x)`` beyond, where
    ``erfc`` is below half an ulp of 1.  The fits are least-squares
    Chebyshev fits to a 70-digit series of erf, written out in powers of
    ``t``.  The first piece runs on every element (NaN passes through
    it), the others only on the elements with ``a >= 1``.  Each piece
    runs on the argument clipped to its own interval, so nothing
    overflows.
    """
    x = np.asarray(x)
    dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float64)
    flat = x.astype(np.float64, copy=False).reshape(-1)
    xs = np.minimum(np.maximum(flat, -1.0), 1.0)
    out = xs * _poly(_ERF_SMALL, 2.0 * xs * xs - 1.0)
    big = np.flatnonzero(np.abs(flat) >= 1.0)
    if big.size:
        xb = flat[big]
        a = np.abs(xb)
        mid = _erfc_piece(a, 1.0, 2.5, _ERFCX_MID)
        tail = _erfc_piece(a, 2.5, 6.0, _ERFCX_TAIL)
        erfc = np.where(a < 2.5, mid, np.where(a >= 6.0, 0.0, tail))
        out[big] = np.copysign(1.0 - erfc, xb)
    return out.reshape(x.shape).astype(dtype, copy=False)


def _erfc_piece(a: np.ndarray, lo: float, hi: float, coef: Sequence[float]) -> np.ndarray:
    """``erfc`` from the fit on [lo, hi], at ``a`` clipped to that interval."""
    a = np.minimum(np.maximum(a, lo), hi)
    return np.exp(-a * a) * _poly(coef, (2.0 * a - (lo + hi)) / (hi - lo))
