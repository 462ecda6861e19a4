"""The abstract tensor and the tracing machinery.

An :class:`AbstractTensor` is a real :class:`~repro.tensor.tensor.Tensor`
(so every kernel, dunder and ``isinstance`` check works unchanged) whose
``.data`` holds a small concrete *probe* array and whose ``.sym`` — and
``.shape`` — hold the symbolic shape.  Tracing is hint-backed abstract
interpretation: the concrete execution is the ground truth (data-dependent
branches, masks, FFTs all run for real at probe size), and per-op transfer
rules propagate the symbolic form alongside.  Free dims get prime probe
sizes far from the model's pinned geometry, so a lost label is recoverable
from the concrete output shape (:func:`~.symbolic.resymbolize`) and the
checker's dual-probe pass guards against coincidences.

While a :class:`Trace` is active, three seams are instrumented:

- every public function in :mod:`repro.tensor.functional` is wrapped to
  re-symbolise its outputs (exact transfer rules where shape algebra is
  interesting — reductions, concat/stack/split, einsum, the windowed
  attention kernels, the fused RNN scans — generic probe-matching
  otherwise);
- ``Module.__call__`` pushes the dotted module path (for attribution),
  verifies any declared ``@shape_contract`` on the module's forward, and
  converts the first raising op into a finding that names the module and
  the symbolic operand shapes;
- the engine's sanitizer hook (``Tensor._make``) gets a shim that applies
  the runtime :class:`~repro.analysis.sanitizer.TensorSanitizer`'s exact
  dtype-drift and double-broadcast checks — *before* ``Tensor.__init__``
  silently casts the op output back to the engine dtype — and reports
  them in the sanitizer's vocabulary (``dtype_drift``,
  ``broadcast_surprise``) with module attribution the runtime checker
  cannot provide.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts.spec import Violation, contract_of
from repro.analysis.contracts.symbolic import (
    Dim,
    SymExpr,
    SymbolicError,
    as_sym_shape,
    broadcast_sym_shapes,
    entry_value,
    render_shape,
    resymbolize,
    sym,
)
from repro.analysis.sanitizer import _ELEMENTWISE_BINARY
from repro.tensor import functional as F
from repro.tensor.tensor import Observer, Tensor, ensure_tensor, observe

__all__ = ["AbstractTensor", "ContractTraceError", "Trace", "trace_module"]

_ACTIVE: Optional["Trace"] = None


def current_trace() -> Optional["Trace"]:
    return _ACTIVE


class ContractTraceError(RuntimeError):
    """An op failed (or was proven inconsistent) during a contract trace.

    Carries the op name, the symbolic shapes involved, and — once the
    exception unwinds through the module-call hook — the dotted path of
    the deepest module that was executing.
    """

    def __init__(self, op: str, message: str, shapes: Sequence = ()) -> None:
        super().__init__(message)
        self.op = op
        self.shapes = tuple(shapes)
        self.module: Optional[str] = None

    def render(self) -> str:
        where = self.module or "<top>"
        return f"{where} ({self.op}): {self.args[0]}"


class AbstractTensor(Tensor):
    """A Tensor carrying a symbolic shape next to its concrete probe data."""

    __slots__ = ("sym",)

    def __init__(self, data, sym_shape) -> None:
        # bypass Tensor.__init__: it would cast the probe data to the
        # engine dtype and we need the raw dtype observable
        self.data = np.asarray(data)  # repro: noqa[no-data-write] fresh leaf construction, no tape to detach
        self.requires_grad = False
        self.grad = None  # repro: noqa[no-data-write] fresh leaf construction, no tape to detach
        self._grad_owned = False
        self._backward = None
        self._parents = ()
        self._op = "abstract"
        self.sym = as_sym_shape(sym_shape)
        if tuple(entry_value(e) for e in self.sym) != self.data.shape:
            raise SymbolicError(
                f"symbolic shape {render_shape(self.sym)} does not evaluate to "
                f"probe shape {self.data.shape}"
            )

    @property
    def shape(self):  # type: ignore[override]
        return self.sym

    def __repr__(self) -> str:
        return f"AbstractTensor(shape={render_shape(self.sym)}, dtype={self.data.dtype})"

    # -- binary ops -----------------------------------------------------
    def _binary(self, other, op: str, orig: Callable, reflected: bool = False):
        trace = _ACTIVE
        lhs, rhs = (other, self) if reflected else (self, other)
        out = orig(ensure_tensor(lhs), rhs) if reflected else orig(self, other)
        if trace is None:
            return out
        lhs_sym = trace.sym_of(lhs)
        rhs_sym = trace.sym_of(rhs)
        out_sym = None
        if lhs_sym is not None and rhs_sym is not None:
            try:
                out_sym = broadcast_sym_shapes(lhs_sym, rhs_sym)
            except SymbolicError:
                out_sym = None
        return trace.wrap(out, out_sym)

    def __add__(self, other):
        return self._binary(other, "add", Tensor.__add__)

    def __radd__(self, other):
        return self._binary(other, "add", Tensor.__add__, reflected=True)

    def __sub__(self, other):
        return self._binary(other, "sub", Tensor.__sub__)

    def __rsub__(self, other):
        return self._binary(other, "sub", Tensor.__sub__, reflected=True)

    def __mul__(self, other):
        return self._binary(other, "mul", Tensor.__mul__)

    def __rmul__(self, other):
        return self._binary(other, "mul", Tensor.__mul__, reflected=True)

    def __truediv__(self, other):
        return self._binary(other, "div", Tensor.__truediv__)

    def __rtruediv__(self, other):
        return self._binary(other, "div", Tensor.__truediv__, reflected=True)

    def __neg__(self):
        out = Tensor.__neg__(self)
        return _ACTIVE.wrap(out, self.sym) if _ACTIVE else out

    def __pow__(self, exponent):
        out = Tensor.__pow__(self, exponent)
        return _ACTIVE.wrap(out, self.sym) if _ACTIVE else out

    def _matmul(self, other, reflected: bool) -> Tensor:
        trace = _ACTIVE
        lhs, rhs = (other, self) if reflected else (self, other)
        lhs_sym = trace.sym_of(lhs) if trace else None
        rhs_sym = trace.sym_of(rhs) if trace else None
        out_sym = None
        if lhs_sym is not None and rhs_sym is not None and len(lhs_sym) >= 2 and len(rhs_sym) >= 2:
            _check_inner_dims("matmul", lhs_sym, rhs_sym)
            try:
                batch = broadcast_sym_shapes(lhs_sym[:-2], rhs_sym[:-2])
                out_sym = batch + (lhs_sym[-2], rhs_sym[-1])
            except SymbolicError:
                out_sym = None
        out = Tensor.__matmul__(ensure_tensor(lhs), rhs)
        return trace.wrap(out, out_sym) if trace else out

    def __matmul__(self, other):
        return self._matmul(other, reflected=False)

    def __rmatmul__(self, other):
        return self._matmul(other, reflected=True)

    # -- indexing / shape ops --------------------------------------------
    def __getitem__(self, index):
        out = Tensor.__getitem__(self, index)
        trace = _ACTIVE
        if trace is None:
            return out
        return trace.wrap(out, _getitem_sym(self.sym, index, out.data.shape))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor.reshape(self, tuple(int(e) for e in shape))
        trace = _ACTIVE
        if trace is None:
            return out
        entries = []
        for i, entry in enumerate(shape):
            if isinstance(entry, (Dim, SymExpr)):
                entries.append(sym(entry))
            elif int(entry) == -1:
                entries.append(trace.resym(out.data.shape[i : i + 1])[0])
            else:
                entries.append(int(entry))
        return trace.wrap(out, tuple(entries))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = Tensor.transpose(self, axes)
        trace = _ACTIVE
        if trace is None:
            return out
        return trace.wrap(out, tuple(self.sym[a] for a in axes))

    def swapaxes(self, axis1: int, axis2: int):
        out = Tensor.swapaxes(self, axis1, axis2)
        trace = _ACTIVE
        if trace is None:
            return out
        entries = list(self.sym)
        entries[axis1], entries[axis2] = entries[axis2], entries[axis1]
        return trace.wrap(out, tuple(entries))

    def expand_dims(self, axis: int):
        out = Tensor.expand_dims(self, axis)
        trace = _ACTIVE
        if trace is None:
            return out
        entries = list(self.sym)
        entries.insert(axis if axis >= 0 else axis + len(entries) + 1, 1)
        return trace.wrap(out, tuple(entries))

    def squeeze(self, axis: Optional[int] = None):
        out = Tensor.squeeze(self, axis=axis)
        trace = _ACTIVE
        if trace is None:
            return out
        if axis is None:
            entries = tuple(e for e in self.sym if entry_value(e) != 1)
        else:
            entries = tuple(e for i, e in enumerate(self.sym) if i != axis % len(self.sym))
        return trace.wrap(out, entries)

    def broadcast_to(self, shape):
        out = Tensor.broadcast_to(self, tuple(int(e) for e in shape))
        trace = _ACTIVE
        if trace is None:
            return out
        return trace.wrap(out, as_sym_shape(shape))


def _check_inner_dims(op: str, lhs_sym: Tuple, rhs_sym: Tuple) -> None:
    """Raise the symbolic finding for ``lhs @ rhs`` with mismatched inner dims."""
    if entry_value(lhs_sym[-1]) != entry_value(rhs_sym[-2]):
        raise ContractTraceError(
            op,
            f"inner dimensions disagree: {render_shape(lhs_sym)} @ {render_shape(rhs_sym)} "
            f"({lhs_sym[-1]} vs {rhs_sym[-2]})",
            shapes=(lhs_sym, rhs_sym),
        )


def _getitem_sym(sym_shape, index, out_shape) -> Optional[Tuple]:
    """Symbolic result shape of basic indexing; None for advanced cases."""
    items = list(index) if isinstance(index, tuple) else [index]
    if any(isinstance(i, (np.ndarray, list, Tensor)) for i in items):
        return None  # advanced indexing: fall back to probe matching
    if any(i is Ellipsis for i in items):
        n_explicit = len([i for i in items if i is not None and i is not Ellipsis])
        pos = items.index(Ellipsis)
        items[pos : pos + 1] = [slice(None)] * max(len(sym_shape) - n_explicit, 0)
    entries: List = []
    axis = 0
    for item in items:
        if item is None:
            entries.append(1)
            continue
        if axis >= len(sym_shape):
            return None
        entry = sym_shape[axis]
        if isinstance(item, slice):
            if item == slice(None):
                entries.append(entry)
            else:
                start, stop, step = item.indices(entry_value(entry))
                entries.append(max(0, -(-(stop - start) // step)) if step > 0 else len(range(start, stop, step)))
            axis += 1
        else:
            try:
                int(item)  # integer index (possibly a SymExpr): drops the axis
            except (TypeError, ValueError):
                return None
            axis += 1
    entries.extend(sym_shape[axis:])
    if tuple(entry_value(e) for e in entries) != tuple(out_shape):
        return None
    return tuple(entries)


# ----------------------------------------------------------------------
# sanitizer shim — the runtime checks, statically attributed
# ----------------------------------------------------------------------
class _SanitizerShim(Observer):
    """Engine observer that routes findings into the active trace.

    Mirrors :class:`repro.analysis.sanitizer.TensorSanitizer`'s dtype and
    double-broadcast checks (same conditions, same finding kinds) but
    skips the non-finite checks: probe inputs are random, so value-level
    checks belong to the runtime sanitizer.
    """

    def __init__(self, trace: "Trace") -> None:
        self.trace = trace

    def on_op(self, op: str, data: np.ndarray, parents: Tuple, taped: bool) -> None:
        trace = self.trace
        if (
            trace.expected_dtype is not None
            and data.dtype.kind == "f"
            and data.dtype != trace.expected_dtype
        ):
            trace.record_dtype_drift(op, data.dtype)
        if (
            op in _ELEMENTWISE_BINARY
            and len(parents) == 2
            and parents[0].data.size > 1
            and parents[1].data.size > 1
            and data.shape != parents[0].data.shape
            and data.shape != parents[1].data.shape
        ):
            trace.record_broadcast_surprise(op, parents, data.shape)


# ----------------------------------------------------------------------
# the trace
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _patched_functional(trace: "Trace"):
    originals: Dict[str, Callable] = {}
    for name in dir(F):
        if name.startswith("_") or name in ("fused_ops", "fused_ops_enabled"):
            continue
        obj = getattr(F, name)
        if callable(obj) and getattr(obj, "__module__", None) == F.__name__:
            originals[name] = obj
            setattr(F, name, _wrap_functional(trace, name, obj))
    try:
        yield
    finally:
        for name, obj in originals.items():
            setattr(F, name, obj)


def _wrap_functional(trace: "Trace", name: str, orig: Callable) -> Callable:
    def wrapped(*args, **kwargs):
        if _ACTIVE is not trace or not _has_abstract(args, kwargs):
            return orig(*args, **kwargs)
        if name == "linear":
            # checked before the kernel runs: numpy's own error would name
            # the flattened probe rows instead of the symbolic operands
            _check_inner_dims(name, trace.sym_of(args[0]), trace.sym_of(_arg(args, kwargs, 1, "weight", None)))
        try:
            out = orig(*args, **kwargs)
        except ContractTraceError:
            raise
        except Exception as exc:
            shapes = _abstract_shapes(args, kwargs)
            raise ContractTraceError(
                name,
                f"{name} failed on {', '.join(render_shape(s) for s in shapes) or 'inputs'}: {exc}",
                shapes=shapes,
            ) from exc
        return trace.emit(name, args, kwargs, out)

    wrapped.__name__ = f"traced_{name}"
    return wrapped


def _has_abstract(args, kwargs) -> bool:
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, AbstractTensor):
            return True
        if isinstance(value, (tuple, list)) and any(isinstance(v, AbstractTensor) for v in value):
            return True
    return False


def _abstract_shapes(args, kwargs) -> List:
    return [v.sym for v in list(args) + list(kwargs.values()) if isinstance(v, AbstractTensor)]


def _traced_module_call(self, *args, **kwargs):
    trace = _ACTIVE
    if trace is None:
        return self.forward(*args, **kwargs)
    name = trace.module_name(self)
    trace.stack.append(name)
    try:
        out = self.forward(*args, **kwargs)
    except ContractTraceError as err:
        if err.module is None:
            err.module = name
        raise
    except Exception as exc:
        shapes = _abstract_shapes(args, kwargs)
        err = ContractTraceError(
            f"{type(self).__name__}.forward",
            f"forward failed on {', '.join(render_shape(s) for s in shapes) or 'inputs'}: {exc}",
            shapes=shapes,
        )
        err.module = name
        raise err from exc
    finally:
        trace.stack.pop()
    trace.record_module(name, self, args, out)
    forward = type(self).forward
    contract = contract_of(forward)
    if contract is not None:
        for violation in contract.verify(forward, (self,) + args, kwargs, out, trace.env, trace.sym_of):
            trace.add(
                Violation(violation.kind, name, violation.op, violation.message, violation.detail)
            )
    return out


class Trace:
    """One abstract-interpretation pass over a module tree.

    Usage::

        trace = Trace(model, env={"B": sym(B), ...}, free_dims=[B],
                      expected_dtype=np.float64)
        with trace.activate():
            out = model(x_enc, x_mark_enc, x_dec, y_mark_dec)
        trace.violations  # -> [Violation, ...]
    """

    def __init__(
        self,
        root,
        env: Optional[Mapping] = None,
        free_dims: Sequence[Dim] = (),
        expected_dtype=None,
    ) -> None:
        self.env: Dict[str, object] = {k: sym(v) if isinstance(v, (Dim, int)) else v for k, v in (env or {}).items()}
        self.free_dims = tuple(free_dims)
        self.expected_dtype = None if expected_dtype is None else np.dtype(expected_dtype)
        self.names: Dict[int, str] = {}
        if root is not None:
            self.names = {id(m): (n or "<root>") for n, m in root.named_modules()}
        self.stack: List[str] = []
        self.violations: List[Violation] = []
        self.module_records: List[Dict] = []
        self.ops_traced = 0
        self.output_sym = None
        self._drift_seen: set = set()
        self._surprise_seen: set = set()

    # -- bookkeeping ----------------------------------------------------
    def module_name(self, module) -> str:
        return self.names.get(id(module), type(module).__name__)

    def current_module(self) -> str:
        return self.stack[-1] if self.stack else "<top>"

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def record_module(self, name: str, module, args, out) -> None:
        self.module_records.append(
            {
                "module": name,
                "class": type(module).__name__,
                "inputs": [self.sym_of(a) for a in args if isinstance(a, Tensor)],
                "output": self.sym_of(out) if isinstance(out, Tensor) else None,
            }
        )

    def record_dtype_drift(self, op: str, dtype) -> None:
        key = str(dtype)
        if key in self._drift_seen:
            return  # one finding per leaked dtype: drift cascades through every later op
        self._drift_seen.add(key)
        self.add(
            Violation(
                "dtype_drift",
                self.current_module(),
                op,
                f"op produced {dtype} but the engine contract is {self.expected_dtype} "
                "(first occurrence; later casts inherit it)",
                {"dtype": key},
            )
        )

    def record_broadcast_surprise(self, op: str, parents: Tuple, out_shape) -> None:
        lhs, rhs = parents[0], parents[1]
        key = (self.current_module(), op, lhs.data.shape, rhs.data.shape)
        if key in self._surprise_seen:
            return
        self._surprise_seen.add(key)
        lhs_sym = self.sym_of(lhs) or lhs.data.shape
        rhs_sym = self.sym_of(rhs) or rhs.data.shape
        self.add(
            Violation(
                "broadcast_surprise",
                self.current_module(),
                op,
                f"both operands were broadcast: {render_shape(lhs_sym)} {op} "
                f"{render_shape(rhs_sym)} -> {out_shape}",
                {
                    "lhs_shape": [str(e) for e in lhs_sym],
                    "rhs_shape": [str(e) for e in rhs_sym],
                    "out_shape": list(out_shape),
                },
            )
        )

    # -- symbolic plumbing ----------------------------------------------
    def sym_of(self, value) -> Optional[Tuple]:
        """The symbolic shape of a traced value (None = not a tensor)."""
        if isinstance(value, AbstractTensor):
            return value.sym
        if isinstance(value, Tensor):
            return self.resym(value.data.shape)
        if isinstance(value, np.ndarray):
            return self.resym(value.shape)
        return None

    def resym(self, shape) -> Tuple:
        return resymbolize(shape, self.free_dims)

    def wrap(self, out, sym_shape) -> Tensor:
        """Re-wrap an op output as abstract, falling back to probe matching."""
        if not isinstance(out, Tensor):
            return out
        if sym_shape is None or tuple(entry_value(e) for e in sym_shape) != out.data.shape:
            sym_shape = self.resym(out.data.shape)
        wrapped = AbstractTensor(out.data, sym_shape)
        self.ops_traced += 1
        return wrapped

    def emit(self, op: str, args, kwargs, out):
        """Apply the transfer rule for ``op`` and wrap the output(s)."""
        if isinstance(out, (tuple, list)):
            syms = _rule_multi(self, op, args, kwargs, out)
            wrapped = [self.wrap(o, s) if isinstance(o, Tensor) else o for o, s in zip(out, syms)]
            return type(out)(wrapped)
        if not isinstance(out, Tensor):
            return out
        return self.wrap(out, _rule(self, op, args, kwargs, out.data))

    # -- activation ------------------------------------------------------
    @contextlib.contextmanager
    def activate(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("contract traces do not nest")
        from repro.nn.module import Module

        original_call = Module.__call__
        Module.__call__ = _traced_module_call
        _ACTIVE = self
        try:
            with observe(_SanitizerShim(self)), _patched_functional(self):
                yield self
        finally:
            _ACTIVE = None
            Module.__call__ = original_call


# ----------------------------------------------------------------------
# per-op transfer rules
# ----------------------------------------------------------------------
_UNARY_OPS = frozenset(
    {
        "exp", "log", "sqrt", "abs", "clip", "tanh", "sigmoid", "relu",
        "leaky_relu", "elu", "softplus", "erf", "gelu", "softmax",
        "log_softmax", "softmax_masked", "dropout",
    }
)
_REDUCTIONS = frozenset({"sum", "mean", "var", "max", "min"})


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return default


def _first_abstract(values) -> Optional[AbstractTensor]:
    for v in values:
        if isinstance(v, AbstractTensor):
            return v
    return None


def _rule(trace: Trace, op: str, args, kwargs, out_data) -> Optional[Tuple]:
    x = _first_abstract(list(args) + list(kwargs.values()))
    if op in _UNARY_OPS:
        if x is not None and x.data.shape == out_data.shape:
            return x.sym
        return None
    if op in _REDUCTIONS:
        if x is None or not isinstance(args[0] if args else None, AbstractTensor):
            return None
        axis = _arg(args, kwargs, 1, "axis", None)
        keepdims = _arg(args, kwargs, 2, "keepdims", False)
        return _reduce_sym(x.sym, axis, keepdims)
    if op in ("maximum", "where"):
        tensors = [a for a in list(args) + list(kwargs.values()) if isinstance(a, Tensor)]
        out_sym: Optional[Tuple] = None
        try:
            for t in tensors:
                s = trace.sym_of(t)
                out_sym = s if out_sym is None else broadcast_sym_shapes(out_sym, s)
        except SymbolicError:
            return None
        return out_sym
    if op == "einsum" and args and isinstance(args[0], str):
        return _einsum_sym(trace, args[0], args[1:])
    if op == "concat":
        return _concat_sym(trace, args, kwargs)
    if op == "stack":
        tensors = list(args[0])
        axis = _arg(args, kwargs, 1, "axis", 0)
        base = trace.sym_of(tensors[0])
        if base is None:
            return None
        entries = list(base)
        entries.insert(axis if axis >= 0 else axis + len(entries) + 1, len(tensors))
        return tuple(entries)
    if op == "pad":
        pad_width = _arg(args, kwargs, 1, "pad_width", ())
        if x is None or not isinstance(args[0], AbstractTensor):
            return None
        return tuple(
            e + int(before) + int(after) for e, (before, after) in zip(x.sym, pad_width)
        )
    if op == "window_scores":
        q = trace.sym_of(_arg(args, kwargs, 0, "q", None))
        half = _arg(args, kwargs, 2, "half", None)
        if q is None or half is None:
            return None
        return tuple(q[:-1]) + (2 * int(half) + 1,)  # (B, H, L, d) -> (B, H, L, w+1)
    if op == "window_mix":
        weights = trace.sym_of(_arg(args, kwargs, 0, "weights", None))
        v = trace.sym_of(_arg(args, kwargs, 1, "v", None))
        if weights is None or v is None:
            return None
        return tuple(weights[:-1]) + (v[-1],)  # (B, H, L, w+1), (B, H, L, d) -> (B, H, L, d)
    if op == "linear" and isinstance(args[0], AbstractTensor):
        return args[0].sym[:-1] + (trace.sym_of(_arg(args, kwargs, 1, "weight", None))[-1],)
    if op == "gru_sequence" and isinstance(args[0], AbstractTensor):
        s = args[0].sym
        return (s[0], s[1], sym(s[2]) // 3)
    if op == "lstm_sequence" and isinstance(args[0], AbstractTensor):
        s = args[0].sym
        return (s[0], s[1], sym(s[2]) // 2)  # 4H of gates -> 2H of (h, c)
    if op == "gru_step" and len(args) >= 2 and isinstance(args[1], AbstractTensor):
        return args[1].sym
    if op == "lstm_step" and len(args) >= 2 and isinstance(args[1], AbstractTensor):
        h = args[1].sym
        return (h[0], sym(h[1]) * 2)
    if op in ("mse_loss", "mae_loss", "huber_loss"):
        return ()
    return None  # generic probe matching in Trace.wrap


def _rule_multi(trace: Trace, op: str, args, kwargs, out) -> List[Optional[Tuple]]:
    if op == "split" and isinstance(args[0], AbstractTensor):
        sections = int(_arg(args, kwargs, 1, "sections", len(out)))
        axis = int(_arg(args, kwargs, 2, "axis", 0))
        base = args[0].sym
        entries = list(base)
        entries[axis] = sym(base[axis]) // sections
        return [tuple(entries)] * len(out)
    return [None] * len(out)


def _reduce_sym(sym_shape, axis, keepdims) -> Tuple:
    if axis is None:
        return tuple(1 for _ in sym_shape) if keepdims else ()
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = {a % len(sym_shape) for a in axes}
    if keepdims:
        return tuple(1 if i in axes else e for i, e in enumerate(sym_shape))
    return tuple(e for i, e in enumerate(sym_shape) if i not in axes)


def _concat_sym(trace: Trace, args, kwargs) -> Optional[Tuple]:
    tensors = list(args[0])
    axis = int(_arg(args, kwargs, 1, "axis", 0))
    syms = [trace.sym_of(t) for t in tensors]
    if any(s is None for s in syms) or len({len(s) for s in syms}) != 1:
        return None
    axis %= len(syms[0])
    entries: List = []
    for i in range(len(syms[0])):
        if i == axis:
            total = sym(0)
            for s in syms:
                total = total + s[i]
            entries.append(total)
        else:
            best = syms[0][i]
            for s in syms[1:]:
                from repro.analysis.contracts.symbolic import _richer

                best = _richer(best, s[i])
            entries.append(best)
    return tuple(entries)


def _einsum_sym(trace: Trace, subscripts: str, operands) -> Optional[Tuple]:
    if "." in subscripts or "->" not in subscripts:
        return None
    lhs, rhs = subscripts.replace(" ", "").split("->")
    specs = lhs.split(",")
    if len(specs) != len(operands):
        return None
    bound: Dict[str, object] = {}
    for spec, operand in zip(specs, operands):
        s = trace.sym_of(operand)
        if s is None or len(s) != len(spec):
            return None
        for label, entry in zip(spec, s):
            if label not in bound:
                bound[label] = entry
            else:
                from repro.analysis.contracts.symbolic import _richer

                bound[label] = _richer(bound[label], entry)
    try:
        return tuple(bound[label] for label in rhs)
    except KeyError:
        return None


# ----------------------------------------------------------------------
# convenience entry point
# ----------------------------------------------------------------------
def trace_module(
    module,
    inputs: Sequence,
    env: Optional[Mapping] = None,
    free_dims: Sequence[Dim] = (),
    expected_dtype=None,
) -> Trace:
    """Trace ``module(*inputs)`` once and return the populated Trace.

    ``inputs`` may contain AbstractTensors (symbolic), plain Tensors, or
    anything else the forward accepts.  A raising op is converted into a
    ``trace_error``/``shape_mismatch`` violation instead of propagating.
    """
    trace = Trace(module, env=env, free_dims=free_dims, expected_dtype=expected_dtype)
    try:
        with trace.activate():
            out = module(*inputs)
        trace.output_sym = _output_syms(trace, out)
    except ContractTraceError as err:
        kind = "shape_mismatch" if err.shapes else "trace_error"
        trace.add(Violation(kind, err.module or "<top>", err.op, str(err.args[0])))
        trace.output_sym = None
    return trace


def _output_syms(trace: Trace, out):
    if isinstance(out, (tuple, list)):
        return tuple(trace.sym_of(o) if isinstance(o, Tensor) else None for o in out)
    return trace.sym_of(out) if isinstance(out, Tensor) else None
