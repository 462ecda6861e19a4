"""The traced run: spans around the public functions of each repro module.

:class:`Tracer` patches the functions :func:`_targets` lists, and a few more, with
wrappers that record a span (name, start, end, thread, parent, request
ids) per call.  Spans stay in memory; :meth:`Tracer.write_chrome_trace`
writes them when the run ends.  A span's self time is its duration minus
the time its child spans on the same thread cover.

The benchmark installs the wrappers for every other round only, so one
traced process also measures its own overhead against the untraced
rounds next to it.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "tid", "parent", "rids", "child_time", "value")

    def __init__(self, name: str, start: float, tid: int, parent: Optional["Span"], rids) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent
        self.rids = rids
        self.child_time = 0.0
        #: a per-call quantity recorded with the span (bytes written, batch size)
        self.value: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def within(self, name: str) -> bool:
        parent = self.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped public function."""
    from repro.baselines import GRUForecaster
    from repro.ckpt import CheckpointManager
    from repro.core import Conformer
    from repro.core.flow import NormalizingFlow
    from repro.core.input_repr import InputRepresentation
    from repro.core.sirn import SIRNDecoder, SIRNEncoder
    from repro.optim import Adam
    from repro.serve.cache import ForecastCache
    from repro.serve.registry import ModelVersion
    from repro.serve.server import ForecastServer
    from repro.serve.store import SeriesStore
    from repro.tensor import Tensor
    import repro.training.trainer as trainer_module

    return [
        (Conformer, "forward", "core.forward"),
        (GRUForecaster, "forward", "core.forward"),
        (InputRepresentation, "forward", "core.repr"),
        (SIRNEncoder, "forward", "core.encoder"),
        (SIRNDecoder, "forward", "core.decoder"),
        (NormalizingFlow, "forward", "core.flow"),
        (NormalizingFlow, "output_distribution", "core.flow"),
        (NormalizingFlow, "sample", "core.flow_sample"),
        (NormalizingFlow, "sample_distribution", "core.flow_sample"),
        (Conformer, "compute_loss", "core.loss"),
        (Tensor, "backward", "tensor.backward"),
        # the trainer binds clip_grad_norm at import, so wrap its binding
        (trainer_module, "clip_grad_norm", "optim.clip"),
        (Adam, "step", "optim.step"),
        (trainer_module.Trainer, "evaluate_loss", "training.validate"),
        (trainer_module.Trainer, "fit", "training.fit"),
        (CheckpointManager, "save", "ckpt.save"),
        (CheckpointManager, "load_latest", "ckpt.load"),
        (ForecastCache, "get", "serve.cache_get"),
        (ForecastCache, "put", "serve.cache_put"),
        (SeriesStore, "window", "serve.window"),
        (ModelVersion, "forecast_batch", "serve.forecast_batch"),
        (ForecastServer, "ingest", "serve.ingest"),
        (ForecastServer, "hot_swap", "serve.hot_swap"),
    ]


class Tracer:
    """In-memory span recorder over patched module functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (perf_counter seconds, value) samples that are not spans
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._tls = threading.local()
        #: counter increases over the traced rounds (set by the round loop)
        self.counter_deltas: Dict[str, float] = {}
        self._originals: List[Tuple[object, str, object]] = []
        self._targets = _targets()
        self._enc_repr = None

    # -- request ids ---------------------------------------------------
    def set_request_ids(self, rids: Optional[tuple]) -> None:
        """Request ids that spans opened on this thread belong to."""
        self._tls.rids = rids

    def _rids(self):
        return getattr(self._tls, "rids", None)

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> Span:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        span = Span(name, time.perf_counter(), threading.get_ident(), stack[-1] if stack else None, self._rids())
        stack.append(span)
        return span

    def _close(self, span: Span, keep: bool = True) -> None:
        span.end = time.perf_counter()
        self._tls.stack.pop()
        if keep:
            if span.parent is not None:
                span.parent.child_time += span.duration
            self.spans.append(span)

    def span(self, name: str, start: float, end: float, rids=None) -> None:
        """Record a span measured by the caller (e.g. a whole request)."""
        span = Span(name, start, threading.get_ident(), None, rids)
        span.end = end
        self.spans.append(span)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        if name == "core.repr":
            @functools.wraps(fn)
            def traced_repr(module, *args, **kwargs):
                which = "core.enc_repr" if module is tracer._enc_repr else "core.dec_repr"
                span = tracer._open(which)
                try:
                    return fn(module, *args, **kwargs)
                finally:
                    tracer._close(span)
            return traced_repr

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._note(span, args, result)
            return result

        return traced

    def _note(self, span: Span, args, result) -> None:
        """Per-call quantities of a few spans."""
        if span.name == "ckpt.save":
            span.value = float(Path(result).stat().st_size)
        elif span.name == "serve.forecast_batch":
            span.value = float(args[1].shape[0])

    # -- install / uninstall ---------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self, conformer=None) -> None:
        """Patch every target; ``conformer`` tells encoder from decoder
        input representation apart."""
        import repro.data.windows as windows
        import repro.serve.batcher as batcher
        import repro.serve.server as server

        if self.installed:
            return
        self._enc_repr = conformer.enc_repr if conformer is not None else None
        for owner, attr, name in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        for owner, attr, replacement in (
            (windows.DataLoader, "__iter__", self._traced_iter(windows.DataLoader.__iter__)),
            (batcher.MicroBatcher, "poll", self._traced_poll(batcher.MicroBatcher.poll)),
            (server, "PendingRequest", self._stamped_pending(server.PendingRequest)),
        ):
            self._originals.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _traced_iter(self, original):
        tracer = self

        def traced_iter(loader):
            batches = original(loader)
            while True:
                span = tracer._open("data.batch")
                try:
                    batch = next(batches)
                except StopIteration:
                    tracer._close(span, keep=False)
                    return
                tracer._close(span)
                yield batch

        return traced_iter

    def _traced_poll(self, original):
        """Queue wait of each request a worker takes, and the batch's
        request ids for the spans that worker opens next.  ``take`` calls
        ``poll`` on every wake-up, so a worker already blocked in ``take``
        when the wrappers go in is still seen."""
        tracer = self

        def traced_poll(batcher, *args, **kwargs):
            work = original(batcher, *args, **kwargs)
            if work.batch:
                now = time.monotonic()
                for pending in work.batch:
                    tracer.samples["serve.queue_wait"].append((time.perf_counter(), now - pending.enqueued_at))
                tracer.set_request_ids(tuple(getattr(p, "request_id", None) for p in work.batch))
            return work

        return traced_poll

    def _stamped_pending(self, original):
        tracer = self

        class StampedPending(original):
            """PendingRequest carrying the id of the request that made it."""

            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                rids = tracer._rids()
                self.request_id = rids[0] if rids else None

        return StampedPending

    # -- output ----------------------------------------------------------
    def write_chrome_trace(self, path: Path, origin: float) -> None:
        """Chrome trace-event JSON (open in Perfetto or chrome://tracing)."""
        events = []
        for span in self.spans:
            event = {
                "name": span.name, "ph": "X", "pid": 1, "tid": span.tid,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
            }
            if span.rids:
                event["args"] = {"request_ids": list(span.rids)}
            events.append(event)
        path.write_text(json.dumps({"traceEvents": events}))
