"""Reverse-mode autodiff engine on numpy.

This package is the substrate that replaces PyTorch for the Conformer
reproduction: a :class:`Tensor` wrapping a numpy array, a tape-based
``backward()``, and a functional namespace with the operations the model
zoo needs (matmul, softmax, convolution, FFT-based correlation, ...).

Inference runs through a dedicated fast path (see docs/performance.md):
:func:`inference_mode` disables tape bookkeeping entirely (stronger than
:func:`no_grad` — the fused kernels also stop saving activations and
recycle scratch via :mod:`repro.tensor.arena`), and
:func:`compute_dtype` switches the engine to float32 end-to-end.
"""

from repro.tensor.tensor import (
    Observer,
    Tensor,
    compute_dtype,
    get_default_dtype,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
    observe,
    tape_node_count,
)
from repro.tensor import functional
from repro.tensor.arena import BufferArena, get_arena
from repro.tensor.cache import PlanCache, plan_cache
from repro.tensor.functional import fused_ops, fused_ops_enabled
from repro.tensor.gradcheck import gradcheck
from repro.tensor.profiler import EngineProfiler

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_inference_mode",
    "is_grad_enabled",
    "compute_dtype",
    "get_default_dtype",
    "tape_node_count",
    "functional",
    "fused_ops",
    "fused_ops_enabled",
    "gradcheck",
    "Observer",
    "observe",
    "EngineProfiler",
    "BufferArena",
    "get_arena",
    "PlanCache",
    "plan_cache",
]
