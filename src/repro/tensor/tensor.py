"""The :class:`Tensor` class — a numpy array with reverse-mode autodiff.

Each differentiable operation records its parents and a closure that
propagates the output gradient back to them.  ``Tensor.backward()`` walks
the resulting DAG in reverse topological order and releases each op
output's closure and parents as it goes.  Gradients follow numpy
broadcasting semantics: a gradient flowing into a broadcasted operand is
summed over the broadcast axes (see :func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Arrayable = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True

# Inference mode is strictly stronger than no_grad(): gradients are disabled
# AND the fused kernels dispatch to tape-free branches that recycle scratch
# buffers and skip saving per-timestep activations (see functional.py).
_INFERENCE_MODE = False

# The dtype every Tensor is stored as.  float64 is the training contract
# (cheap gradient checks on a numpy engine); compute_dtype(np.float32)
# switches the whole engine to single precision for inference.
_DEFAULT_DTYPE = np.dtype(np.float64)

# Monotonic count of tape nodes ever recorded by Tensor._make.  Tests use
# deltas of tape_node_count() to assert that inference_mode() records
# exactly zero nodes; the profiler (an Observer) stays the tool for
# per-op attribution.
_TAPE_NODES = 0


class Observer:
    """An engine instrument: every method is a no-op hook to override.

    The engine holds at most one observer in a single slot (``None`` =
    the zero-overhead fast path: each hook site pays one ``is not None``
    test).  The profiler, both sanitizers and the contract tracer are
    observers; :func:`observe` installs one for a block.
    """

    def on_op(self, op: str, data, parents: tuple, taped: bool) -> None:
        """An op output, taped or not.  ``data`` is the raw result before
        the Tensor cast (an ndarray, or a numpy scalar from 0-d math)."""

    def on_grad(self, op: str, grad: np.ndarray) -> None:
        """A gradient about to accumulate into the output of ``op``."""

    def on_backward(self, op: str) -> None:
        """The backward closure of an ``op`` node is about to run."""

    def on_backward_done(self, op: str) -> None:
        """The backward closure of an ``op`` node returned."""

    def on_arena_checkout(self, key: tuple, buf: np.ndarray) -> None:
        """A :class:`~repro.tensor.arena.BufferArena` slot was checked out."""

    def on_arena_release(self, key: tuple, buf: np.ndarray) -> None:
        """An arena slot's checkout ended."""

    def on_plan_insert(self, key, value) -> None:
        """A :class:`~repro.tensor.cache.PlanCache` entry was built."""

    def on_plan_access(self, key, value) -> None:
        """A cached plan was served."""

    def on_plan_evict(self, key, value) -> None:
        """A cached plan was dropped."""


class _FanOut(Observer):
    """Two observers in the one slot; the newer one hears each event first."""

    def __init__(self, newer: Observer, older: Observer) -> None:
        self.observers = (newer, older)

    def on_op(self, op, data, parents, taped):
        for observer in self.observers:
            observer.on_op(op, data, parents, taped)

    def on_grad(self, op, grad):
        for observer in self.observers:
            observer.on_grad(op, grad)

    def on_backward(self, op):
        for observer in self.observers:
            observer.on_backward(op)

    def on_backward_done(self, op):
        for observer in self.observers:
            observer.on_backward_done(op)

    def on_arena_checkout(self, key, buf):
        for observer in self.observers:
            observer.on_arena_checkout(key, buf)

    def on_arena_release(self, key, buf):
        for observer in self.observers:
            observer.on_arena_release(key, buf)

    def on_plan_insert(self, key, value):
        for observer in self.observers:
            observer.on_plan_insert(key, value)

    def on_plan_access(self, key, value):
        for observer in self.observers:
            observer.on_plan_access(key, value)

    def on_plan_evict(self, key, value):
        for observer in self.observers:
            observer.on_plan_evict(key, value)


# The one instrumentation slot: None, an Observer, or a _FanOut of several.
_OBSERVER: Optional[Observer] = None


@contextlib.contextmanager
def observe(observer: Observer):
    """Subscribe ``observer`` to the engine for the enclosed block.

    Nests: an observer installed while another is active shares the slot
    with it (a fan-out, newest first).  The previous slot is restored on
    exit, also when the body raises.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer if previous is None else _FanOut(observer, previous)
    try:
        yield observer
    finally:
        _OBSERVER = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient tape entries."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_inference_mode() -> bool:
    """Whether the tape-free inference fast path is active."""
    return _INFERENCE_MODE


@contextlib.contextmanager
def inference_mode():
    """Context manager for the tape-free inference fast path.

    Strictly stronger than :func:`no_grad`: gradient recording is disabled
    (``Tensor._make`` records zero tape nodes — counter-asserted by
    :func:`tape_node_count`) *and* the fused GRU/LSTM/attention kernels take
    branches that neither save per-timestep activations nor allocate fresh
    scratch each step (see :mod:`repro.tensor.arena`).  Nests freely with
    itself and with :func:`no_grad`; the previous state is restored on exit.
    Tensors produced inside must never be used in a later ``backward()``.

    The *outermost* exit is an ownership boundary: every arena checkout is
    released, so an array that leaked out of the block is flagged as a
    use-after-release by the alias sanitizer on its next engine use
    (:mod:`repro.analysis.alias`).  With no observer installed the
    release is a single attribute test — the fast path stays free.
    """
    global _GRAD_ENABLED, _INFERENCE_MODE
    prev_grad, prev_inf = _GRAD_ENABLED, _INFERENCE_MODE
    _GRAD_ENABLED, _INFERENCE_MODE = False, True
    try:
        yield
    finally:
        _GRAD_ENABLED, _INFERENCE_MODE = prev_grad, prev_inf
        if not prev_inf:
            from repro.tensor.arena import get_arena

            get_arena().release()


def tape_node_count() -> int:
    """Monotonic count of tape nodes recorded since import.

    Take a delta around a block to count the nodes it taped; inside
    :func:`inference_mode` (or :func:`no_grad`) the delta must be zero.
    """
    return _TAPE_NODES


def get_default_dtype() -> np.dtype:
    """The dtype every new Tensor is stored as (the engine compute dtype)."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def compute_dtype(dtype):
    """Context manager switching the engine-wide compute dtype.

    Inside ``compute_dtype(np.float32)`` every Tensor construction — leaf
    or op output — stores float32, numpy's weak scalar promotion keeps
    Python-float constants from upcasting, and the runtime sanitizer's
    drift check enforces the *active* dtype instead of a hard-coded
    float64.  Cast module parameters with ``Module.to_dtype`` first so the
    per-op casts are no-ops.  Restores the previous dtype on exit.
    """
    global _DEFAULT_DTYPE
    previous, _DEFAULT_DTYPE = _DEFAULT_DTYPE, np.dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Sums over leading axes added by broadcasting and over axes where the
    original dimension was 1 but the broadcast result was larger.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy basic indexing (ints, slices, ``...``, ``None``).

    Bools count as advanced (numpy treats them as masks).
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, (slice, np.integer))
        or (isinstance(item, int) and not isinstance(item, bool))
        for item in items
    )


def _as_array(value: Arrayable, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)


def ensure_tensor(value: Arrayable) -> "Tensor":
    """Coerce a scalar/array/Tensor into a Tensor (non-differentiable leaf)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """A numpy-backed tensor that records an autodiff tape.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts. Stored as the engine compute dtype
        — float64 by default for accurate gradient checks, float32 inside
        ``compute_dtype(np.float32)`` (the inference fast path).
    requires_grad:
        Whether gradients should accumulate in ``self.grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_op", "_grad_owned")
    __array_priority__ = 100  # ensure ndarray + Tensor defers to Tensor

    def __init__(
        self,
        data: Arrayable,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._grad_owned = False
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents = _parents if _GRAD_ENABLED else ()
        self._op = _op

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data, cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # autodiff machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        op: str,
        backward: Optional[Callable[[np.ndarray], None]],
    ) -> "Tensor":
        """Build an op output, wiring the tape only when grad is enabled.

        A tape-free kernel, which runs only with grad disabled, passes
        ``backward=None``: its output still reaches the observer slot.
        """
        parents = tuple(parents)
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            global _TAPE_NODES
            _TAPE_NODES += 1
            out._parents = parents
            out._op = op
            out._backward = backward
        if _OBSERVER is not None:
            # the raw op output: Tensor.__init__ casts to the compute dtype,
            # which would hide dtype drift from the sanitizer
            _OBSERVER.on_op(op, data, parents, needs_grad)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad``.

        The buffer is reused in place (``np.add(..., out=)``) once this
        tensor owns it.  A freshly stored gradient is only *owned* when the
        dtype cast or unbroadcast reduction produced a new array here —
        otherwise the incoming array may be shared with another node (e.g.
        the child's own ``grad`` forwarded through an add), so the first
        re-accumulation allocates and every later one is in place.
        """
        incoming = np.asarray(grad)
        if _OBSERVER is not None:
            _OBSERVER.on_grad(self._op or "leaf", incoming)
        g = incoming if incoming.dtype == self.data.dtype else incoming.astype(self.data.dtype)
        g = unbroadcast(g, self.data.shape)
        if self.grad is None:
            self.grad = g
            self._grad_owned = g is not incoming and g.base is None
        elif self._grad_owned:
            np.add(self.grad, g, out=self.grad)
        else:
            self.grad = self.grad + g
            self._grad_owned = True

    def _released(self) -> bool:
        """Whether this is an op output whose tape entry a backward consumed."""
        return self._backward is None and self._op != ""

    def backward(self, grad: Optional[Arrayable] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        The walk consumes the graph: as soon as an op output's backward has
        run, its closure (and the activations it saved), its parent links
        and its ``.grad`` are dropped, so the tape's memory is returned
        while the walk proceeds.  Leaves keep their accumulated ``.grad``.
        A second ``backward()`` through any part of a consumed graph raises
        ``RuntimeError`` naming the op.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._released():
            raise RuntimeError(
                f"backward() through the '{self._op}' output a previous backward() already freed"
            )
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        seed = np.asarray(_as_array(grad), dtype=self.data.dtype)
        if seed.shape != self.data.shape:
            seed = np.broadcast_to(seed, self.data.shape)

        # Reverse-topological order over grad-requiring nodes only: a tensor
        # with requires_grad=False cannot lead to a grad-requiring leaf, so
        # whole constant subgraphs are never visited.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    if parent._released():
                        raise RuntimeError(
                            f"backward() reached the '{parent._op}' output a previous "
                            "backward() already freed"
                        )
                    stack.append((parent, False))

        self._accumulate(seed)
        observer = _OBSERVER
        # Popping (not iterating) leaves ``topo`` without a reference to a
        # node once it is processed; releasing its closure and parents then
        # frees every saved activation nothing else holds.
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:
                continue  # a leaf: its grad is the result
            if node.grad is not None:
                if observer is None:
                    backward(node.grad)
                else:
                    # brackets the closure: the profiler times it, the
                    # sanitizer names it as the producer of a bad gradient
                    observer.on_backward(node._op)
                    backward(node.grad)
                    observer.on_backward_done(node._op)
            node._backward = None
            node._parents = ()
            node.grad = None
            node._grad_owned = False

    # ------------------------------------------------------------------
    # arithmetic — implemented here, richer ops live in functional.py
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(out_data, (self, other), "add", backward)

    def __radd__(self, other: Arrayable) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), "sub", backward)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other).__sub__(self)

    def __mul__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), "mul", backward)

    def __rmul__(self, other: Arrayable) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), "neg", backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** exponent supports scalar exponents only")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), "pow", backward)

    def __matmul__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.expand_dims(grad, -1) * other.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.expand_dims(self.data, -1) * grad)
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._make(out_data, (self, other), "matmul", backward)

    # comparisons return plain numpy bool arrays (non-differentiable)
    def __gt__(self, other: Arrayable):
        return self.data > _as_array(other)

    def __lt__(self, other: Arrayable):
        return self.data < _as_array(other)

    def __ge__(self, other: Arrayable):
        return self.data >= _as_array(other)

    def __le__(self, other: Arrayable):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # indexing & shape ops
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if _is_basic_index(index):  # selects each element at most once
                    full[index] = grad
                else:  # advanced indices may repeat: scatter-add
                    np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), "getitem", backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), "reshape", backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = np.transpose(self.data, axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), "transpose", backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (self,), "swapaxes", backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), "expand_dims", backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), "squeeze", backward)

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(shape)
        out_data = np.broadcast_to(self.data, shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, original))

        return Tensor._make(np.ascontiguousarray(out_data), (self,), "broadcast", backward)

    # ------------------------------------------------------------------
    # reductions & elementwise ops routed through functional
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.var(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import functional as F

        return F.min(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.exp(self)

    def log(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.log(self)

    def sqrt(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.sqrt(self)

    def tanh(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.tanh(self)

    def sigmoid(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.sigmoid(self)

    def relu(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.relu(self)

    def abs(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.abs(self)

    def clip(self, low: float, high: float) -> "Tensor":
        from repro.tensor import functional as F

        return F.clip(self, low, high)
