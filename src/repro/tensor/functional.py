"""Functional operations on :class:`~repro.tensor.Tensor`.

Everything the model zoo needs that is not a dunder on ``Tensor`` lives
here: reductions, activations, softmax, concatenation, padding, 1-D
convolution/pooling, and losses.  Each op wires its own backward closure.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import special
from repro.tensor import tensor as _engine
from repro.tensor.arena import get_arena
from repro.tensor.tensor import Tensor, ensure_tensor

Axis = Union[None, int, Tuple[int, ...]]

# ----------------------------------------------------------------------
# fused-kernel switch
# ----------------------------------------------------------------------
# The recurrent/attention hot paths dispatch on this flag: True routes
# through the fused ops below (one tape node for whole subgraphs), False
# falls back to the original op-by-op composition.  The fallback is kept
# both as a numerical reference and as the baseline the perf benchmark
# (`python -m repro.perf`) measures speedups against.
_FUSED_ENABLED = True


def fused_ops_enabled() -> bool:
    """Whether the model zoo routes hot paths through the fused kernels."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def fused_ops(enabled: bool = True):
    """Context manager toggling the fused-kernel dispatch (for benchmarks/tests)."""
    global _FUSED_ENABLED
    previous, _FUSED_ENABLED = _FUSED_ENABLED, bool(enabled)
    try:
        yield
    finally:
        _FUSED_ENABLED = previous


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def _restore_reduced(grad: np.ndarray, shape: Tuple[int, ...], axis: Axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape)


def sum(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_restore_reduced(grad, x.data.shape, axis, keepdims))

    return Tensor._make(np.asarray(out_data), (x,), "sum", backward)


def mean(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size / np.asarray(out_data).size

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(_restore_reduced(grad, x.data.shape, axis, keepdims) / count)

    return Tensor._make(np.asarray(out_data), (x,), "mean", backward)


def var(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance, differentiable."""
    mu = mean(x, axis=axis, keepdims=True)
    centered = x - mu
    return mean(centered * centered, axis=axis, keepdims=keepdims)


def _extreme(x: Tensor, axis: Axis, keepdims: bool, fn, name: str) -> Tensor:
    expanded = fn(x.data, axis=axis, keepdims=True)
    out_data = expanded if keepdims else np.squeeze(expanded, axis=axis)
    mask = (x.data == expanded).astype(x.data.dtype)
    mask = mask / mask.sum(axis=axis, keepdims=True)  # split ties evenly

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = _restore_reduced(grad, x.data.shape, axis, keepdims)
            x._accumulate(g * mask)

    return Tensor._make(np.asarray(out_data), (x,), name, backward)


def max(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _extreme(x, axis, keepdims, np.max, "max")


def min(x: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return _extreme(x, axis, keepdims, np.min, "min")


# ----------------------------------------------------------------------
# elementwise
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), "exp", backward)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), "log", backward)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * 0.5 / out_data)

    return Tensor._make(out_data, (x,), "sqrt", backward)


def abs(x: Tensor) -> Tensor:  # noqa: A001
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.sign(x.data))

    return Tensor._make(out_data, (x,), "abs", backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    out_data = np.clip(x.data, low, high)
    mask = ((x.data >= low) & (x.data <= high)).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), "clip", backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._make(out_data, (x,), "tanh", backward)


def sigmoid(x: Tensor) -> Tensor:
    out_data = special.expit(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), "sigmoid", backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)
    mask = (x.data > 0).astype(x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), "relu", backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    slope = np.where(x.data > 0, 1.0, negative_slope)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * slope)

    return Tensor._make(x.data * slope, (x,), "leaky_relu", backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, neg)
    deriv = np.where(x.data > 0, 1.0, neg + alpha)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * deriv)

    return Tensor._make(out_data, (x,), "elu", backward)


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x) without overflow: max(x, 0) + log1p(e^-|x|)
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * special.expit(x.data))

    return Tensor._make(out_data, (x,), "softplus", backward)


def erf(x: Tensor) -> Tensor:
    out_data = special.erf(x.data)
    deriv = 2.0 / math.sqrt(math.pi) * np.exp(-x.data ** 2)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * deriv)

    return Tensor._make(out_data, (x,), "erf", backward)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF."""
    phi = 0.5 * (1.0 + special.erf(x.data / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x.data ** 2) / math.sqrt(2.0 * math.pi)
    out_data = x.data * phi
    deriv = phi + x.data * pdf

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * deriv)

    return Tensor._make(out_data, (x,), "gelu", backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = np.maximum(a.data, b.data)
    a_wins = (a.data >= b.data).astype(out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * a_wins)
        if b.requires_grad:
            b._accumulate(grad * (1.0 - a_wins))

    return Tensor._make(out_data, (a, b), "maximum", backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(cond, grad, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(cond, 0.0, grad))

    return Tensor._make(out_data, (a, b), "where", backward)


# ----------------------------------------------------------------------
# softmax family
# ----------------------------------------------------------------------
def row_max(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.max(a, axis=axis, keepdims=True)`` on an array, bit for bit.

    numpy reduces an axis that is outermost in memory with one
    ``np.maximum`` pass per slab, but a short innermost axis one row at a
    time, at several times the cost of a sum over the same rows.  An axis
    that is not yet outermost (the softmax axis of a C-ordered score
    array) is moved there with one contiguous copy first; one that is
    (the slot axis of slot-major window scores) is reduced in place.
    """
    axis %= a.ndim
    if a.shape[axis] == 1 or a.strides[axis] * a.shape[axis] >= a.nbytes:
        return a.max(axis=axis, keepdims=True)
    order = (axis,) + tuple(range(axis)) + tuple(range(axis + 1, a.ndim))
    slabs = np.ascontiguousarray(a.transpose(order)).max(axis=0, keepdims=True)
    return slabs.transpose(tuple(range(1, axis + 1)) + (0,) + tuple(range(axis + 1, a.ndim)))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - row_max(x.data, axis)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (x,), "softmax", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - row_max(x.data, axis)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), "log_softmax", backward)


def softmax_masked(x: Tensor, mask: Optional[np.ndarray] = None, axis: int = -1) -> Tensor:
    """Fused mask + softmax: one tape node, no full ``-1e9`` constant tensor.

    ``mask`` is a boolean array broadcastable to ``x`` where True marks
    *disallowed* positions; those entries receive exactly zero weight and
    zero gradient.  Rows where everything is masked yield a uniform
    distribution with zero gradient, matching the behaviour of masking
    scores with a large negative constant and then calling :func:`softmax`
    (the previous, three-node composition).
    """
    if mask is None:
        return softmax(x, axis=axis)
    mask = np.asarray(mask, dtype=bool)
    # -inf at masked entries keeps the max-shift stable and makes exp() give
    # exact zeros without overflow; the temp is short-lived and never taped.
    neg = np.where(mask, -np.inf, x.data)
    shift = row_max(neg, axis)
    shift = np.where(np.isfinite(shift), shift, 0.0)  # all-masked rows
    exps = np.exp(neg - shift)
    denom = exps.sum(axis=axis, keepdims=True)
    dead = denom == 0.0
    soft = exps / np.where(dead, 1.0, denom)
    out_data = np.where(dead, 1.0 / x.data.shape[axis], soft) if np.any(dead) else soft

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * soft).sum(axis=axis, keepdims=True)
            x._accumulate(soft * (grad - inner))

    return Tensor._make(out_data, (x,), "softmax_masked", backward)


# ----------------------------------------------------------------------
# sliding-window kernels
# ----------------------------------------------------------------------
# Windowed attention pairs query position l with key/value position
# l + o for each offset o in [-half, half]; slot j = o + half of the
# (..., L, w+1) score/weight layout.  The kernels walk the w+1 offsets
# with shifted slices of the time axis instead of gathering
# (..., L, w+1, d) neighbourhoods.  They work on *time-major* arrays,
# (c, L, ...) with the channel or slot axis c outermost in memory, so
# the only reduction (over c) adds whole slabs in order: elementwise
# work that computes every output row the same way whatever the batch
# size.  Outputs go back as (..., L, c) views of that memory, so scores
# reach softmax_masked laid out slot-major (like the cached window
# mask) and its reductions over the w+1 slots are slab passes too.
# Out-of-range slots (l + o outside [0, L)) hold 0 and receive no
# gradient; callers mask them.
def _window_offsets(length: int, half: int):
    """Yield (slot, offset, lo, hi): rows lo:hi pair with rows lo+o:hi+o."""
    for slot, offset in enumerate(range(-half, half + 1)):
        lo, hi = (-offset, length) if offset < 0 else (0, length - offset)
        if lo < hi:
            yield slot, offset, lo, hi


def _time_major(x: np.ndarray, like: Optional[np.ndarray] = None) -> np.ndarray:
    """(..., L, c) -> (c, L, ...) with the channel axis outermost in memory.

    The other axes keep the memory order of ``x`` (or of the time-major
    array ``like``, so that two operands line up), which keeps the copy
    cheap; it is skipped when ``x`` is already laid out so.
    """
    n = x.ndim
    moved = x.transpose((n - 1, n - 2) + tuple(range(n - 2)))
    strides = (moved if like is None else like).strides
    order = (0,) + tuple(sorted(range(1, n), key=lambda i: -strides[i]))
    return np.ascontiguousarray(moved.transpose(order)).transpose(np.argsort(order))


def _batch_major(x: np.ndarray) -> np.ndarray:
    """(c, L, ...) -> (..., L, c) view (inverse of :func:`_time_major`)."""
    n = x.ndim
    return x.transpose(tuple(range(2, n)) + (1, 0))


def _window_dot(a: np.ndarray, b: np.ndarray, half: int) -> np.ndarray:
    """(w+1, L, ...) with ``out[j, l] = sum_c a[c, l] * b[c, l + o_j]`` (time-major)."""
    out = np.zeros_like(a, dtype=np.result_type(a, b), shape=(2 * half + 1,) + a.shape[1:])  # laid out like a
    prod = np.empty_like(a)
    for slot, offset, lo, hi in _window_offsets(a.shape[1], half):
        tmp = prod[:, : hi - lo]
        np.multiply(a[:, lo:hi], b[:, lo + offset : hi + offset], out=tmp)
        np.sum(tmp, axis=0, out=out[slot, lo:hi])
    return out


def _window_gather(w: np.ndarray, x: np.ndarray, half: int) -> np.ndarray:
    """(c, L, ...) with ``out[:, l] = sum_j w[j, l] * x[:, l + o_j]`` (time-major)."""
    out = w[half] * x  # the centre slot covers every row
    prod = np.empty_like(out)
    for slot, offset, lo, hi in _window_offsets(x.shape[1], half):
        if offset:
            tmp = prod[:, : hi - lo]
            np.multiply(w[slot, lo:hi], x[:, lo + offset : hi + offset], out=tmp)
            out[:, lo:hi] += tmp
    return out


def _window_scatter(w: np.ndarray, x: np.ndarray, half: int) -> np.ndarray:
    """(c, L, ...) with ``out[:, l + o_j] += w[j, l] * x[:, l]`` (adjoint of the gather)."""
    out = w[half] * x
    prod = np.empty_like(out)
    for slot, offset, lo, hi in _window_offsets(x.shape[1], half):
        if offset:
            tmp = prod[:, : hi - lo]
            np.multiply(w[slot, lo:hi], x[:, lo:hi], out=tmp)
            out[:, lo + offset : hi + offset] += tmp
    return out


def window_scores(q: Tensor, k: Tensor, half: int) -> Tensor:
    """Scaled windowed attention scores, (B, H, L, d) x2 -> (B, H, L, 2*half+1).

    ``out[..., l, half + o] = q[..., l, :] . k[..., l + o, :] / sqrt(d)``;
    slots whose key lies outside the sequence hold 0.  One tape node.
    """
    q, k = ensure_tensor(q), ensure_tensor(k)
    inv_scale = 1.0 / math.sqrt(q.shape[-1])
    q_t = _time_major(q.data) * inv_scale
    k_t = _time_major(k.data, like=q_t)
    out_data = _batch_major(_window_dot(q_t, k_t, half))

    def backward(grad: np.ndarray) -> None:
        grad_t = _time_major(grad, like=q_t)
        if q.requires_grad:
            q._accumulate(_batch_major(_window_gather(grad_t, k_t, half) * inv_scale))
        if k.requires_grad:
            k._accumulate(_batch_major(_window_scatter(grad_t, q_t, half)))

    return Tensor._make(out_data, (q, k), "window_scores", backward)


def window_mix(weights: Tensor, v: Tensor, half: int) -> Tensor:
    """Windowed weighted sum of values, (B, H, L, 2*half+1) x (B, H, L, d) -> (B, H, L, d).

    ``out[..., l, :] = sum_o weights[..., l, half + o] * v[..., l + o, :]``
    over in-range ``l + o``.  One tape node.
    """
    weights, v = ensure_tensor(weights), ensure_tensor(v)
    v_t = _time_major(v.data)
    w_t = _time_major(weights.data, like=v_t)
    out_data = _batch_major(_window_gather(w_t, v_t, half))

    def backward(grad: np.ndarray) -> None:
        grad_t = _time_major(grad, like=v_t)
        if weights.requires_grad:
            weights._accumulate(_batch_major(_window_dot(grad_t, v_t, half)))
        if v.requires_grad:
            v._accumulate(_batch_major(_window_scatter(w_t, grad_t, half)))

    return Tensor._make(out_data, (weights, v), "window_mix", backward)


# ----------------------------------------------------------------------
# einsum
# ----------------------------------------------------------------------
def _einsum_parse(subscripts: str, n_operands: int) -> Tuple[list, str]:
    if "..." in subscripts:
        raise NotImplementedError("einsum: ellipsis subscripts are not supported")
    if "->" in subscripts:
        inputs, output = subscripts.split("->")
    else:
        inputs = subscripts
        counts: dict = {}
        for ch in inputs.replace(",", ""):
            counts[ch] = counts.get(ch, 0) + 1
        output = "".join(sorted(ch for ch, n in counts.items() if n == 1))
    specs = inputs.split(",")
    if len(specs) != n_operands:
        raise ValueError(f"einsum: {len(specs)} subscript groups for {n_operands} operands")
    for spec in specs:
        if len(set(spec)) != len(spec):
            raise NotImplementedError("einsum: repeated labels within one operand (traces) are not supported")
    return specs, output


def einsum(subscripts: str, *operands: Tensor, optimize=True) -> Tensor:
    """Differentiable ``np.einsum`` (contracted matmuls as one tape node).

    Supports any number of operands with explicit or implicit output
    subscripts; ellipsis and per-operand repeated labels are not.  The
    gradient of each operand is itself an einsum of the output gradient
    with the remaining operands, with labels missing from those terms
    restored by broadcasting against ones.
    """
    tensors = [ensure_tensor(t) for t in operands]
    specs, out_spec = _einsum_parse(subscripts, len(tensors))
    out_data = np.einsum(f"{','.join(specs)}->{out_spec}", *[t.data for t in tensors], optimize=optimize)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            terms_specs = [out_spec] + [specs[j] for j in range(len(tensors)) if j != i]
            terms_data = [grad] + [tensors[j].data for j in range(len(tensors)) if j != i]
            available = set("".join(terms_specs))
            for pos, label in enumerate(specs[i]):
                if label not in available:  # summed over this operand alone
                    terms_specs.append(label)
                    terms_data.append(np.ones(t.data.shape[pos], dtype=grad.dtype))
            sub = ",".join(terms_specs) + "->" + specs[i]
            t._accumulate(np.einsum(sub, *terms_data, optimize=optimize))

    return Tensor._make(np.asarray(out_data), tuple(tensors), "einsum", backward)


# ----------------------------------------------------------------------
# affine map
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` on the last axis as ONE tape node.

    The leading axes are flattened to (N, in) rows, so the forward is one
    2-D GEMM with the bias added in place, and the backward is two 2-D
    GEMMs plus a row sum.  Unlike ``x @ weight + bias`` (a matmul node and
    an add node), nothing is saved beyond the references to the operands:
    the ``x @ weight`` intermediate is never kept.
    """
    w = weight.data
    n_in, n_out = w.shape
    out_data = np.dot(x.data.reshape(-1, n_in), w)
    if bias is not None:
        b = bias.data
        if np.result_type(out_data, b) == out_data.dtype:
            out_data += b
        else:
            out_data = out_data + b  # keep the promotion visible to dtype checks
    out_data = out_data.reshape(x.data.shape[:-1] + (n_out,))

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(-1, n_out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate(np.dot(x.data.reshape(-1, n_in).T, g))
        if x.requires_grad:
            x._accumulate(np.dot(g, w.T).reshape(x.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, "linear", backward)


# ----------------------------------------------------------------------
# fused recurrent kernels
# ----------------------------------------------------------------------
# One tape node per GRU/LSTM timestep (``*_step``) or per whole scan
# (``*_sequence``) with hand-written backwards, replacing the ~12-node
# per-timestep chains previously recorded by GRUCell/LSTMCell.  Gate
# layout follows the cells: [reset | update | candidate] for GRU and
# [input | forget | cell | output] for LSTM.
def gru_step(x_gates: Tensor, h: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """One fused GRU timestep.

    ``x_gates`` is the precomputed input projection ``x_t @ W_ih + b_ih``
    of shape (B, 3H); ``h`` is the previous hidden state (B, H).  Returns
    the next hidden state (B, H) as a single tape node.
    """
    hidden = h.shape[-1]
    gh = h.data @ weight_hh.data + bias_hh.data
    gx = x_gates.data
    r = special.expit(gx[:, :hidden] + gh[:, :hidden])
    z = special.expit(gx[:, hidden : 2 * hidden] + gh[:, hidden : 2 * hidden])
    nh = gh[:, 2 * hidden :]
    n = np.tanh(gx[:, 2 * hidden :] + r * nh)
    out_data = (1.0 - z) * n + z * h.data

    def backward(grad: np.ndarray) -> None:
        dn = grad * (1.0 - z)
        dz = grad * (h.data - n)
        dpre_n = dn * (1.0 - n * n)
        dnh = dpre_n * r
        dpre_r = dpre_n * nh * r * (1.0 - r)
        dpre_z = dz * z * (1.0 - z)
        dgh = np.concatenate([dpre_r, dpre_z, dnh], axis=-1)
        if x_gates.requires_grad:
            x_gates._accumulate(np.concatenate([dpre_r, dpre_z, dpre_n], axis=-1))
        if h.requires_grad:
            h._accumulate(grad * z + dgh @ weight_hh.data.T)
        if weight_hh.requires_grad:
            weight_hh._accumulate(h.data.T @ dgh)
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgh.sum(axis=0))

    return Tensor._make(out_data, (x_gates, h, weight_hh, bias_hh), "gru_step", backward)


def lstm_step(x_gates: Tensor, h: Tensor, c: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """One fused LSTM timestep.

    ``x_gates`` is ``x_t @ W_ih + b_ih`` of shape (B, 4H); ``h``/``c`` are
    the previous states (B, H).  Returns (B, 2H) with the new hidden state
    in ``[..., :H]`` and the new cell state in ``[..., H:]`` so the whole
    step stays a single tape node.
    """
    hidden = h.shape[-1]
    gates = x_gates.data + h.data @ weight_hh.data + bias_hh.data
    i = special.expit(gates[:, :hidden])
    f = special.expit(gates[:, hidden : 2 * hidden])
    g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
    o = special.expit(gates[:, 3 * hidden :])
    c_new = f * c.data + i * g
    tc = np.tanh(c_new)
    out_data = np.concatenate([o * tc, c_new], axis=-1)

    def backward(grad: np.ndarray) -> None:
        dh = grad[:, :hidden]
        dc_new = dh * o * (1.0 - tc * tc) + grad[:, hidden:]
        do = dh * tc
        dgates = np.concatenate(
            [
                dc_new * g * i * (1.0 - i),
                dc_new * c.data * f * (1.0 - f),
                dc_new * i * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=-1,
        )
        if x_gates.requires_grad:
            x_gates._accumulate(dgates)
        if h.requires_grad:
            h._accumulate(dgates @ weight_hh.data.T)
        if c.requires_grad:
            c._accumulate(dc_new * f)
        if weight_hh.requires_grad:
            weight_hh._accumulate(h.data.T @ dgates)
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgates.sum(axis=0))

    return Tensor._make(out_data, (x_gates, h, c, weight_hh, bias_hh), "lstm_step", backward)


# Both GRU scans run gate-major and batch-minor.  The input projection is
# transposed once to (L, 3H, B), and the hidden states live in one
# (L+1, H+1, B) array whose last row is all ones, so a step's recurrent
# pre-activations, bias included, are ONE np.dot of the augmented
# (3H, H+1) weight [W_hh; b_hh]^T with the previous state.  Every
# per-step ufunc then runs on whole contiguous row blocks, where a
# column slice of a (B, 3H) array would cost several times as much.
def _gru_scan(
    x_proj: Tensor,
    h0: Tensor,
    weight_hh: Tensor,
    bias_hh: Tensor,
    xt: np.ndarray,
    w_aug: np.ndarray,
    hs: np.ndarray,
    gh: np.ndarray,
    rz: np.ndarray,
    n: np.ndarray,
) -> None:
    """Lay the inputs out gate-major in ``xt``, ``w_aug`` and ``hs[0]``,
    then run the recurrence, writing every hidden state into ``hs[1:]``.

    The gate buffers ``gh`` (recurrent pre-activations, the reset and
    update rows negated), ``rz`` (reset and update gates) and ``n``
    (candidate) have a leading axis of L, to keep every step for the
    backward, or of 1, to reuse one slot.
    """
    hidden = n.shape[1]
    x_data = x_proj.data.transpose(1, 2, 0)
    # The reset and update rows of xt and w_aug are stored negated.
    # Negation is exact, so a step's dot and add give -(pre-activation)
    # bit for bit, and the gates are 1 / (1 + exp(that)) in three ufuncs
    # in place.  Only rz and gh's candidate rows are read back.
    np.negative(x_data[:, : 2 * hidden], out=xt[:, : 2 * hidden])
    xt[:, 2 * hidden :] = x_data[:, 2 * hidden :]
    w_aug[:, :hidden] = weight_hh.data.T
    w_aug[:, hidden] = bias_hh.data
    np.negative(w_aug[: 2 * hidden], out=w_aug[: 2 * hidden])
    hs[0, :hidden] = h0.data.T
    hs[:, hidden] = 1
    h = hs[:, :hidden]
    # a 0-d operand: a Python 1 would be converted on every call
    one = np.ones((), dtype=rz.dtype)
    # every view a step touches is made here: indexing inside the loop
    # would cost a large share of a step on blocks this small
    gates = list(zip(gh, gh[:, : 2 * hidden], gh[:, 2 * hidden :], rz, rz[:, :hidden], rz[:, hidden:], n))
    steps = zip(xt[:, : 2 * hidden], xt[:, 2 * hidden :], hs, h, h[1:], itertools.cycle(gates))
    # exp overflows to inf where a gate's exact value rounds to 0
    with np.errstate(over="ignore"):
        for x_rz, x_n, h_aug, h_prev, h_next, (g, g_rz, g_n, rz_t, r, z, c) in steps:
            np.dot(w_aug, h_aug, out=g)
            np.add(x_rz, g_rz, out=rz_t)
            np.exp(rz_t, out=rz_t)
            np.add(rz_t, one, out=rz_t)
            np.reciprocal(rz_t, out=rz_t)
            np.multiply(r, g_n, out=c)
            c += x_n
            np.tanh(c, out=c)
            # h_new = n + z * (h - n), written straight into the next state
            np.subtract(h_prev, c, out=h_next)
            h_next *= z
            h_next += c


def _gru_sequence_inference(x_proj: Tensor, h0: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """Tape-free GRU scan for ``inference_mode()``.

    Runs the same steps as the taped scan, bit for bit, but keeps one slot
    of gate scratch instead of every step's activations (nothing will
    ever read them), all of it in arena scratch.  Only the (B, L, H)
    output, which escapes, is freshly allocated.
    """
    batch, length, three_h = x_proj.shape
    hidden = three_h // 3
    dt = np.result_type(x_proj.data.dtype, weight_hh.data.dtype, bias_hh.data.dtype, h0.data.dtype)
    arena = get_arena()
    hs = arena.get("gru.h", (length + 1, hidden + 1, batch), dt)
    _gru_scan(
        x_proj,
        h0,
        weight_hh,
        bias_hh,
        arena.get("gru.x", (length, three_h, batch), dt),
        arena.get("gru.w", (three_h, hidden + 1), dt),
        hs,
        arena.get("gru.gh", (1, three_h, batch), dt),
        arena.get("gru.rz", (1, 2 * hidden, batch), dt),
        arena.get("gru.n", (1, hidden, batch), dt),
    )
    out = np.empty((batch, length, hidden), dtype=dt)
    out[...] = hs[1:, :hidden].transpose(2, 0, 1)
    # the work buffers die here: releasing the scope lets the alias
    # sanitizer flag any handle that leaked out of the kernel (no-op when
    # no sanitizer is attached)
    arena.release("gru.")
    return Tensor._make(out, (x_proj, h0, weight_hh, bias_hh), "gru_sequence", None)


def gru_sequence(x_proj: Tensor, h0: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """Scan a whole GRU layer as ONE tape node.

    ``x_proj`` is the input projection for every timestep, (B, L, 3H);
    ``h0`` the initial hidden state (B, H).  Returns all hidden states
    (B, L, H).  The backward is a hand-written truncated-free BPTT over
    saved gate activations.  Inside ``inference_mode()`` a tape-free
    branch that retains no intermediates is taken instead.
    """
    if _engine._INFERENCE_MODE:
        return _gru_sequence_inference(x_proj, h0, weight_hh, bias_hh)
    batch, length, three_h = x_proj.shape
    hidden = three_h // 3
    w_hh = weight_hh.data
    dt = np.result_type(x_proj.data.dtype, w_hh.dtype, bias_hh.data.dtype, h0.data.dtype)
    # saved for the backward: every step's state, recurrent
    # pre-activations and gates
    hs = np.empty((length + 1, hidden + 1, batch), dtype=dt)
    gh = np.empty((length, three_h, batch), dtype=dt)
    rz = np.empty((length, 2 * hidden, batch), dtype=dt)
    n = np.empty((length, hidden, batch), dtype=dt)
    _gru_scan(
        x_proj,
        h0,
        weight_hh,
        bias_hh,
        np.empty((length, three_h, batch), dtype=dt),
        np.empty((three_h, hidden + 1), dtype=dt),
        hs,
        gh,
        rz,
        n,
    )
    out = np.empty((batch, length, hidden), dtype=dt)
    out[...] = hs[1:, :hidden].transpose(2, 0, 1)

    def backward(grad: np.ndarray) -> None:
        # Each step's gradients are linear in dh, the gradient reaching
        # h_t, so their coefficients are computed for all steps at once:
        #   dgh = [dh*a*nh*r*(1-r), dh*(h_prev-n)*z*(1-z), dh*a*r]
        # with a = (1-z)*(1-n^2), and d(x_proj) = dgh with its candidate
        # block dh*a.  The loop is then dh = grad_t + dh_next,
        # dgh_t = coeff_t * dh, dh_next = dh*z + W_hh @ dgh_t.
        r, z, nh = rz[:, :hidden], rz[:, hidden:], gh[:, 2 * hidden :]
        a = (1.0 - z) * (1.0 - n * n)
        coeff = np.empty((length, 3, hidden, batch), dtype=dt)
        coeff[:, 0] = a * nh * r * (1.0 - r)
        coeff[:, 1] = (hs[:length, :hidden] - n) * z * (1.0 - z)
        coeff[:, 2] = a * r
        grad_t = np.empty((length, hidden, batch), dtype=grad.dtype)
        grad_t[...] = grad.transpose(1, 2, 0)
        dh_all = np.empty((length, hidden, batch), dtype=dt)
        dgh_split = np.empty((length, 3, hidden, batch), dtype=dt)
        dgh = dgh_split.reshape(length, three_h, batch)
        dh_next = np.zeros((hidden, batch), dtype=dt)
        carry = np.empty((hidden, batch), dtype=dt)
        steps = zip(dh_all[::-1], grad_t[::-1], coeff[::-1], dgh_split[::-1], dgh[::-1], z[::-1])
        for dh, grad_step, coeff_step, dgh_step, dgh_flat, z_step in steps:
            np.add(grad_step, dh_next, out=dh)
            np.multiply(coeff_step, dh, out=dgh_step)
            np.multiply(dh, z_step, out=carry)
            np.dot(w_hh, dgh_flat, out=dh_next)
            dh_next += carry
        if x_proj.requires_grad:
            dxp = np.empty((batch, length, three_h), dtype=dt)
            dxp[:, :, : 2 * hidden] = dgh[:, : 2 * hidden].transpose(2, 0, 1)
            dxp[:, :, 2 * hidden :] = (dh_all * a).transpose(2, 0, 1)
            x_proj._accumulate(dxp)
        if h0.requires_grad:
            h0._accumulate(dh_next.T)
        if weight_hh.requires_grad or bias_hh.requires_grad:
            # rows 0..H-1 of the augmented weight's gradient are W_hh's,
            # row H (the ones row) is b_hh's
            dw_aug = np.tensordot(hs[:length], dgh, axes=([0, 2], [0, 2]))
            if weight_hh.requires_grad:
                weight_hh._accumulate(dw_aug[:hidden])
            if bias_hh.requires_grad:
                bias_hh._accumulate(dw_aug[hidden])

    return Tensor._make(out, (x_proj, h0, weight_hh, bias_hh), "gru_sequence", backward)


def _lstm_sequence_inference(x_proj: Tensor, h0: Tensor, c0: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """Tape-free LSTM scan for ``inference_mode()`` (see GRU counterpart)."""
    batch, length, four_h = x_proj.shape
    hidden = four_h // 4
    w_hh = weight_hh.data
    b_hh = bias_hh.data
    xp = x_proj.data
    dt = np.result_type(xp.dtype, w_hh.dtype, b_hh.dtype, h0.data.dtype, c0.data.dtype)
    out = np.empty((batch, length, 2 * hidden), dtype=dt)
    arena = get_arena()
    gates = arena.get("lstm.gates", (batch, four_h), dt)
    tmp = arena.get("lstm.tmp", (batch, hidden), dt)
    h = arena.get("lstm.h", (batch, hidden), dt)
    c = arena.get("lstm.c", (batch, hidden), dt)
    h[...] = h0.data
    c[...] = c0.data
    i, f = gates[:, :hidden], gates[:, hidden : 2 * hidden]
    g, o = gates[:, 2 * hidden : 3 * hidden], gates[:, 3 * hidden :]
    for t in range(length):
        np.dot(h, w_hh, out=gates)
        gates += b_hh
        gates += xp[:, t]
        special.expit(gates[:, : 2 * hidden], out=gates[:, : 2 * hidden])
        np.tanh(g, out=g)
        special.expit(o, out=o)
        # c = f * c + i * g;  h = o * tanh(c)
        c *= f
        np.multiply(i, g, out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(o, tmp, out=h)
        out[:, t, :hidden] = h
        out[:, t, hidden:] = c
    arena.release("lstm.")
    return Tensor._make(out, (x_proj, h0, c0, weight_hh, bias_hh), "lstm_sequence", None)


def lstm_sequence(x_proj: Tensor, h0: Tensor, c0: Tensor, weight_hh: Tensor, bias_hh: Tensor) -> Tensor:
    """Scan a whole LSTM layer as ONE tape node.

    ``x_proj`` is (B, L, 4H); returns (B, L, 2H) with hidden states in
    ``[..., :H]`` and cell states in ``[..., H:]`` (both needed so the
    final ``(h, c)`` tuple stays differentiable).  Inside
    ``inference_mode()`` a tape-free branch that retains no intermediates
    is taken instead.
    """
    if _engine._INFERENCE_MODE:
        return _lstm_sequence_inference(x_proj, h0, c0, weight_hh, bias_hh)
    batch, length, four_h = x_proj.shape
    hidden = four_h // 4
    w_hh = weight_hh.data
    b_hh = bias_hh.data
    xp = x_proj.data
    out = np.empty((batch, length, 2 * hidden), dtype=xp.dtype)
    i_all = np.empty((length, batch, hidden), dtype=xp.dtype)
    f_all = np.empty_like(i_all)
    g_all = np.empty_like(i_all)
    o_all = np.empty_like(i_all)
    tc_all = np.empty_like(i_all)
    h_all = np.empty((length + 1, batch, hidden), dtype=xp.dtype)
    c_all = np.empty((length + 1, batch, hidden), dtype=xp.dtype)
    h_all[0] = h0.data
    c_all[0] = c0.data
    h, c = h_all[0], c_all[0]
    for t in range(length):
        gates = xp[:, t] + h @ w_hh + b_hh
        i = special.expit(gates[:, :hidden])
        f = special.expit(gates[:, hidden : 2 * hidden])
        g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o = special.expit(gates[:, 3 * hidden :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        i_all[t], f_all[t], g_all[t], o_all[t], tc_all[t] = i, f, g, o, tc
        h_all[t + 1], c_all[t + 1] = h, c
        out[:, t, :hidden] = h
        out[:, t, hidden:] = c

    def backward(grad: np.ndarray) -> None:
        w_hh_t = w_hh.T
        dgates_all = np.empty((length, batch, 4 * hidden), dtype=grad.dtype)
        dh_next = np.zeros((batch, hidden), dtype=grad.dtype)
        dc_next = np.zeros((batch, hidden), dtype=grad.dtype)
        for t in range(length - 1, -1, -1):
            i, f, g, o, tc = i_all[t], f_all[t], g_all[t], o_all[t], tc_all[t]
            dh = grad[:, t, :hidden] + dh_next
            dc_new = dh * o * (1.0 - tc * tc) + grad[:, t, hidden:] + dc_next
            dgates = dgates_all[t]
            dgates[:, :hidden] = dc_new * g * i * (1.0 - i)
            dgates[:, hidden : 2 * hidden] = dc_new * c_all[t] * f * (1.0 - f)
            dgates[:, 2 * hidden : 3 * hidden] = dc_new * i * (1.0 - g * g)
            dgates[:, 3 * hidden :] = dh * tc * o * (1.0 - o)
            dc_next = dc_new * f
            dh_next = dgates @ w_hh_t
        if x_proj.requires_grad:
            x_proj._accumulate(np.ascontiguousarray(dgates_all.transpose(1, 0, 2)))
        if h0.requires_grad:
            h0._accumulate(dh_next)
        if c0.requires_grad:
            c0._accumulate(dc_next)
        if weight_hh.requires_grad:
            weight_hh._accumulate(
                np.einsum("tbh,tbk->hk", h_all[:length], dgates_all, optimize=True)
            )
        if bias_hh.requires_grad:
            bias_hh._accumulate(dgates_all.sum(axis=(0, 1)))

    return Tensor._make(out, (x_proj, h0, c0, weight_hh, bias_hh), "lstm_sequence", backward)


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), "concat", backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), "stack", backward)


def _pad_axis(x: Tensor, axis: int, before: int, after: int, mode: str) -> Tensor:
    """Pad a single axis; backward folds padded gradients onto sources.

    The forward builds the output with slice copies (equal to ``np.pad``
    bit for bit for the constant, edge and wrap modes).
    """
    length = x.shape[axis]
    total = before + length + after

    def _sel(start, stop):
        index = [slice(None)] * x.ndim
        index[axis] = slice(start, stop)
        return tuple(index)

    shape = list(x.shape)
    shape[axis] = total
    out_data = np.empty(shape, dtype=x.data.dtype)
    out_data[_sel(before, before + length)] = x.data
    if mode == "constant":
        out_data[_sel(0, before)] = 0
        out_data[_sel(before + length, total)] = 0
    elif mode == "edge":
        out_data[_sel(0, before)] = x.data[_sel(0, 1)]
        out_data[_sel(before + length, total)] = x.data[_sel(length - 1, length)]
    elif mode == "wrap":
        # periodic extension, one period-long chunk at a time outwards
        for stop in range(before, 0, -length):
            start = stop - length if stop > length else 0
            out_data[_sel(start, stop)] = out_data[_sel(start + length, stop + length)]
        for start in range(before + length, total, length):
            stop = start + length if start + length < total else total
            out_data[_sel(start, stop)] = out_data[_sel(start - length, stop - length)]
    else:
        raise NotImplementedError(f"pad not implemented for mode={mode!r}")

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if mode == "wrap":
            # undo the forward's chunk copies outermost first, folding each
            # chunk's gradient onto the chunk it was copied from
            grad = grad.copy()
            for start in reversed(range(before + length, total, length)):
                stop = start + length if start + length < total else total
                grad[_sel(start - length, stop - length)] += grad[_sel(start, stop)]
            for stop in reversed(range(before, 0, -length)):
                start = stop - length if stop > length else 0
                grad[_sel(start + length, stop + length)] += grad[_sel(start, stop)]
        core = grad[_sel(before, before + length)].copy()
        if mode == "edge":
            if before:
                core[_sel(0, 1)] += grad[_sel(0, before)].sum(axis=axis, keepdims=True)
            if after:
                core[_sel(length - 1, length)] += grad[_sel(before + length, total)].sum(axis=axis, keepdims=True)
        x._accumulate(core)

    return Tensor._make(out_data, (x,), f"pad[{mode}]", backward)


def pad(x: Tensor, pad_width: Sequence[Tuple[int, int]], mode: str = "constant") -> Tensor:
    """Differentiable numpy-style pad. Supports constant/edge/wrap modes."""
    out = x
    for axis, (before, after) in enumerate(pad_width):
        if before or after:
            out = _pad_axis(out, axis, before, after, mode)
    return out


def split(x: Tensor, sections: int, axis: int = 0) -> list:
    """Split into equal sections along ``axis`` (np.split semantics)."""
    size = x.shape[axis]
    if size % sections:
        raise ValueError(f"cannot split axis of size {size} into {sections} equal parts")
    step = size // sections
    pieces = []
    for i in range(sections):
        index = [slice(None)] * x.ndim
        index[axis] = slice(i * step, (i + 1) * step)
        pieces.append(x[tuple(index)])
    return pieces


# ----------------------------------------------------------------------
# convolution & pooling (1-D, batch-first: (B, L, C) layout)
# ----------------------------------------------------------------------
def _sliding_windows(data: np.ndarray, kernel: int) -> np.ndarray:
    """Return a (B, L_out, kernel, C) view of (B, L, C) data."""
    return np.lib.stride_tricks.sliding_window_view(data, kernel, axis=1).transpose(0, 1, 3, 2)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    padding: int = 0,
    padding_mode: str = "constant",
) -> Tensor:
    """1-D convolution over (B, L, C_in) with weight (K, C_in, C_out).

    Computed tap by tap: tap k multiplies the rows k .. k + L_out - 1 of
    each series by ``weight[k]``.  With the batch and time axes flattened
    to (B * L_in, C_in) rows, every tap is ONE matmul over the shifted
    rows k .. k + N - 1 (N = B * L_in - K + 1).  Output rows whose window
    straddles two series fall past each series' L_out outputs and are
    dropped; in the backward they carry zero gradient.
    """
    kernel = weight.shape[0]
    if padding:
        x_padded = pad(x, ((0, 0), (padding, padding), (0, 0)), mode=padding_mode)
    else:
        x_padded = x
    batch, l_in, c_in = x_padded.shape
    l_out = l_in - kernel + 1
    if l_out < 1:
        raise ValueError(f"conv1d: kernel {kernel} is longer than the padded series ({l_in})")
    w = weight.data
    c_out = w.shape[2]
    rows = batch * l_in - kernel + 1
    flat = x_padded.data.reshape(batch * l_in, c_in)
    acc = np.empty((batch * l_in, c_out), dtype=np.result_type(flat.dtype, w.dtype))
    np.dot(flat[:rows], w[0], out=acc[:rows])
    for k in range(1, kernel):
        acc[:rows] += flat[k : k + rows] @ w[k]
    out_data = acc.reshape(batch, l_in, c_out)[:, :l_out]
    out_data = out_data + bias.data if bias is not None else np.ascontiguousarray(out_data)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 1)))
        if not (weight.requires_grad or x_padded.requires_grad):
            return
        spread = np.zeros((batch, l_in, c_out), dtype=grad.dtype)
        spread[:, :l_out] = grad
        g = spread.reshape(batch * l_in, c_out)[:rows]
        if weight.requires_grad:
            weight._accumulate(np.stack([flat[k : k + rows].T @ g for k in range(kernel)]))
        if x_padded.requires_grad:
            grad_x = np.zeros((batch * l_in, c_in), dtype=grad.dtype)
            for k in range(kernel):
                grad_x[k : k + rows] += g @ w[k].T
            x_padded._accumulate(grad_x.reshape(batch, l_in, c_in))

    return Tensor._make(out_data, (x_padded, weight) + ((bias,) if bias is not None else ()), "conv1d", backward)


def avg_pool1d(x: Tensor, kernel: int, stride: int = 1, pad_edges: bool = True) -> Tensor:
    """Moving-average pooling over the time axis of (B, L, C).

    With ``pad_edges`` the series is edge-padded so the output keeps length
    L — exactly the moving-average trend extractor of Autoformer/Conformer
    (Eq. 9 in the paper).
    """
    if pad_edges:
        left = (kernel - 1) // 2
        right = kernel - 1 - left
        x = pad(x, ((0, 0), (left, right), (0, 0)), mode="edge")
    l_in = x.shape[1]
    if l_in < kernel:
        raise ValueError(f"avg_pool1d: kernel {kernel} is longer than the series ({l_in})")
    # output j averages rows j*stride .. j*stride + kernel - 1, so tap k of
    # every window is the strided slice starting at row k
    span = ((l_in - kernel) // stride) * stride + 1

    def _tap(k: int):
        return slice(k, k + span, stride)

    out_data = x.data[:, _tap(0)].copy()
    for k in range(1, kernel):
        out_data += x.data[:, _tap(k)]
    out_data /= kernel

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_x = np.zeros((grad.shape[0], l_in, grad.shape[2]), dtype=grad.dtype)
            scaled = grad / kernel
            for k in range(kernel):
                grad_x[:, _tap(k)] += scaled
            x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), "avg_pool1d", backward)


def max_pool1d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pooling over the time axis of (B, L, C)."""
    windows = _sliding_windows(x.data, kernel)[:, ::stride]  # (B, L_out, K, C)
    out_data = windows.max(axis=2)
    argmax = windows.argmax(axis=2)  # (B, L_out, C)
    l_in = x.shape[1]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_x = np.zeros((grad.shape[0], l_in, grad.shape[2]), dtype=grad.dtype)
            b_idx, j_idx, c_idx = np.indices(argmax.shape)
            np.add.at(grad_x, (b_idx, j_idx * stride + argmax, c_idx), grad)
            x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), "max_pool1d", backward)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    target = ensure_tensor(target)
    diff = prediction - target.detach()
    return mean(diff * diff)


def gaussian_nll(mu: Tensor, sigma: Tensor, target: Tensor) -> Tensor:
    """Mean negative log-likelihood of ``target`` under N(mu, sigma^2)."""
    diff = ensure_tensor(target).detach() - mu
    return mean(log(sigma) + 0.5 * (diff * diff) / (sigma * sigma)) + 0.5 * float(np.log(2 * np.pi))


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    target = ensure_tensor(target)
    return mean(abs(prediction - target.detach()))


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    target = ensure_tensor(target)
    diff = prediction - target.detach()
    absdiff = abs(diff)
    quadratic = 0.5 * diff * diff
    linear = delta * absdiff - 0.5 * delta * delta
    return mean(where(absdiff.data <= delta, quadratic, linear))


# ----------------------------------------------------------------------
# dropout
# ----------------------------------------------------------------------
def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    # a bool mask (1 byte per element) and a 0-d scale: x * mask * scale is
    # bit-identical to scaling by a float mask of 0 or 1/keep
    mask = rng.random(x.shape) < keep
    scale = np.ones((), dtype=x.data.dtype) / keep
    out_data = x.data * mask
    out_data *= scale

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = grad * mask
            g *= scale
            x._accumulate(g)

    return Tensor._make(out_data, (x,), "dropout", backward)
