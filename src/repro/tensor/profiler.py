"""The engine's op profiler: wall time, call counts and bytes per op.

:class:`EngineProfiler` is the one op profiler, installed by
``repro.perf.op_profile()``.  It is an engine
:class:`~repro.tensor.tensor.Observer`, so it hears every
:meth:`Tensor._make` call, taped *or* tape-free (the fused GRU and LSTM
scans included), and brackets every backward closure.  It is strictly
zero-overhead when not installed: the observer slot is ``None`` and each
hook site skips it with a single identity check.

Attribution model
-----------------
The numpy engine is serial: an op's numpy work happens immediately before
its ``Tensor._make`` call.  ``on_op`` therefore attributes the wall-clock
interval since the *previous* op event (or the last explicit
:meth:`mark`, or the end of the last backward closure) to the op just
completed.  Pure-Python glue between ops is charged to the following op
— an approximation, but one that ranks ops correctly on any
numpy-dominated workload.  Backward closures are timed on their own, per
op, and never charged to a forward op.

Module attribution reuses ``Module.named_modules`` naming: ``op_profile``
pushes dotted module paths via :meth:`module_scope` while each
submodule's ``forward`` runs, and every op event is labelled with the
innermost open module.

Memory accounting
-----------------
- ``op_bytes`` / per-event ``nbytes`` — bytes allocated for each op
  output (``out.nbytes``).
- ``taped_nodes`` / ``taped_bytes`` — nodes and output bytes pinned by
  the autodiff tape; the inference fast path must show zero of both.
- ``live_bytes`` / ``peak_bytes`` — bytes of profiled op output arrays
  still reachable, tracked with ``weakref.finalize``.  A numpy scalar
  (what arithmetic on a 0-d tensor returns) cannot be weakly referenced
  and is left out.  Leaf tensors constructed directly from user data are
  not routed through ``_make`` and are out of scope by design.

This file reads the wall clock once per profiler (``time.time``) to
anchor the monotonic ``perf_counter`` timeline to calendar time for
Chrome-trace export; the ``no-wallclock`` lint rule allowlists exactly
this file (see pyproject.toml).
"""

from __future__ import annotations

import contextlib
import weakref
from collections import deque
from time import perf_counter, time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Observer

#: module label attached to ops recorded outside any ``module_scope``
ROOT_MODULE = "(root)"

#: schema version of :meth:`EngineProfiler.as_dict` / the ``op_profile``
#: run-log event (bump on breaking layout changes)
OP_PROFILE_SCHEMA = 3


class EngineProfiler(Observer):
    """Streaming per-(module, op) forward and per-op backward aggregates.

    Parameters
    ----------
    timeline_capacity:
        Bound on retained raw op events for timeline export (aggregates
        are unaffected; the ring forgets the oldest events and counts
        them in ``dropped_events``).
    """

    def __init__(self, timeline_capacity: int = 8192) -> None:
        # (module, op) -> [calls, seconds, nbytes, taped nodes]
        self._cells: Dict[Tuple[str, str], List] = {}
        # op -> [backward calls, backward seconds]
        self._backward: Dict[str, List] = {}
        self.taped_nodes = 0
        self.taped_bytes = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.dropped_events = 0
        self.events: deque = deque(maxlen=timeline_capacity)
        self._module_stack: List[str] = []
        self._mark: Optional[float] = None
        self._backward_start = 0.0
        #: wall-clock seconds at ``perf_counter() == 0`` — anchors the
        #: monotonic timeline to calendar time for trace export
        self.wall_anchor = time() - perf_counter()

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Reset the attribution clock at a scope boundary.

        Call when entering a profiled region so setup time before the
        first op is not charged to it.
        """
        self._mark = perf_counter()

    def on_op(self, op: str, data, parents: tuple, taped: bool) -> None:
        """Record one op output."""
        now = perf_counter()
        start = self._mark if self._mark is not None else now
        self._mark = now
        seconds = now - start if now > start else 0.0
        nbytes = int(data.nbytes)
        module = self._module_stack[-1] if self._module_stack else ROOT_MODULE

        cell = self._cells.get((module, op))
        if cell is None:
            cell = self._cells[(module, op)] = [0, 0.0, 0, 0]
        cell[0] += 1
        cell[1] += seconds
        cell[2] += nbytes
        if taped:
            cell[3] += 1
            self.taped_nodes += 1
            self.taped_bytes += nbytes
        if isinstance(data, np.ndarray):
            self.live_bytes += nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
            weakref.finalize(data, self._on_free, nbytes)
        if len(self.events) == self.events.maxlen:
            self.dropped_events += 1
        self.events.append((op, module, start, now, nbytes, taped))

    def _on_free(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    def on_backward(self, op: str) -> None:
        self._backward_start = perf_counter()

    def on_backward_done(self, op: str) -> None:
        now = perf_counter()
        cell = self._backward.get(op)
        if cell is None:
            cell = self._backward[op] = [0, 0.0]
        cell[0] += 1
        cell[1] += now - self._backward_start
        self._mark = now

    # ------------------------------------------------------------------
    # module attribution
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def module_scope(self, name: str) -> Iterator[None]:
        """Label ops recorded inside the block with module ``name``."""
        self._module_stack.append(name)
        try:
            yield
        finally:
            self._module_stack.pop()

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def total_calls(self) -> int:
        """Op outputs recorded while active."""
        return sum(cell[0] for cell in self._cells.values())

    @property
    def total_seconds(self) -> float:
        """Forward seconds attributed to ops."""
        return sum(cell[1] for cell in self._cells.values())

    @property
    def total_bytes(self) -> int:
        return sum(cell[2] for cell in self._cells.values())

    @property
    def total_backward_seconds(self) -> float:
        return sum(cell[1] for cell in self._backward.values())

    def rows(self) -> List[dict]:
        """Per-(module, op) forward rows, heaviest first."""
        out = [
            {
                "module": module,
                "op": op,
                "calls": cell[0],
                "seconds": cell[1],
                "nbytes": cell[2],
            }
            for (module, op), cell in self._cells.items()
        ]
        out.sort(key=lambda r: (-r["seconds"], -r["nbytes"], r["op"]))
        return out

    def top_ops(self, n: int = 10) -> List[dict]:
        """Heaviest (module, op) rows by attributed forward wall time."""
        return self.rows()[:n]

    def per_op(self) -> Dict[str, dict]:
        """Forward and backward aggregates folded over modules, by op."""
        folded: Dict[str, dict] = {}
        for (module, op), cell in self._cells.items():
            agg = folded.setdefault(op, _op_row())
            agg["calls"] += cell[0]
            agg["seconds"] += cell[1]
            agg["nbytes"] += cell[2]
            agg["tape_nodes"] += cell[3]
        for op, (calls, seconds) in self._backward.items():
            agg = folded.setdefault(op, _op_row())
            agg["backward_calls"] = calls
            agg["backward_seconds"] = seconds
        return folded

    def per_module(self) -> Dict[str, dict]:
        """Forward aggregates folded over ops, keyed by dotted module path."""
        folded: Dict[str, dict] = {}
        for (module, op), cell in self._cells.items():
            agg = folded.setdefault(module, {"calls": 0, "seconds": 0.0, "nbytes": 0})
            agg["calls"] += cell[0]
            agg["seconds"] += cell[1]
            agg["nbytes"] += cell[2]
        return folded

    def timeline(self) -> List[dict]:
        """Retained raw op events (oldest first) for trace export."""
        return [
            {
                "op": op,
                "module": module,
                "start": start,
                "end": end,
                "nbytes": nbytes,
                "taped": taped,
            }
            for op, module, start, end, nbytes, taped in self.events
        ]

    def memory_stats(self) -> Dict[str, int]:
        """Byte-level accounting snapshot (all integers, gauge-ready)."""
        return {
            "allocated_bytes": self.total_bytes,
            "live_bytes": self.live_bytes,
            "peak_bytes": self.peak_bytes,
            "taped_nodes": self.taped_nodes,
            "taped_bytes": self.taped_bytes,
        }

    # ------------------------------------------------------------------
    # serialisation / rendering
    # ------------------------------------------------------------------
    def as_dict(self, top: int = 20, timeline: bool = True) -> dict:
        """The ``op_profile`` run-log event body (JSON-serialisable)."""
        payload = {
            "schema": OP_PROFILE_SCHEMA,
            "total_calls": self.total_calls,
            "total_seconds": self.total_seconds,
            "total_tape_nodes": self.taped_nodes,
            "total_backward_seconds": self.total_backward_seconds,
            "memory": self.memory_stats(),
            "per_op": self.per_op(),
            "per_module": self.per_module(),
            "top": self.top_ops(top),
            "dropped_events": self.dropped_events,
            "wall_anchor": self.wall_anchor,
        }
        if timeline:
            payload["timeline"] = self.timeline()
        return payload

    def summary(self, n: int = 15) -> str:
        """Fixed-width per-op table: forward calls, seconds and bytes,
        then tape nodes and backward seconds, heaviest first."""
        lines = [
            f"{'op':<18} {'calls':>7} {'fwd s':>10} {'mean us':>9} {'MB':>8} "
            f"{'nodes':>7} {'bwd s':>10}",
            "-" * 75,
        ]
        ranked = sorted(
            self.per_op().items(),
            key=lambda kv: (-(kv[1]["seconds"] + kv[1]["backward_seconds"]), kv[0]),
        )
        for op, row in ranked[:n]:
            mean_us = (row["seconds"] / row["calls"]) * 1e6 if row["calls"] else 0.0
            lines.append(
                f"{op:<18} {row['calls']:>7d} {row['seconds']:>10.6f} {mean_us:>9.1f} "
                f"{row['nbytes'] / 1e6:>8.2f} {row['tape_nodes']:>7d} "
                f"{row['backward_seconds']:>10.6f}"
            )
        lines.append("-" * 75)
        lines.append(
            f"{'total':<18} {self.total_calls:>7d} {self.total_seconds:>10.6f} {'':>9} "
            f"{self.total_bytes / 1e6:>8.2f} {self.taped_nodes:>7d} "
            f"{self.total_backward_seconds:>10.6f}"
        )
        mem = self.memory_stats()
        lines.append(
            f"taped: {mem['taped_nodes']} nodes / {mem['taped_bytes'] / 1e6:.2f} MB, "
            f"peak live {mem['peak_bytes'] / 1e6:.2f} MB"
        )
        return "\n".join(lines)


def _op_row() -> dict:
    return {
        "calls": 0,
        "seconds": 0.0,
        "nbytes": 0,
        "tape_nodes": 0,
        "backward_calls": 0,
        "backward_seconds": 0.0,
    }
