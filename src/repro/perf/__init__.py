"""Op-level profiling and benchmarks for the autodiff engine.

- :func:`op_profile` — installs the engine's one op profiler,
  :class:`~repro.tensor.profiler.EngineProfiler`, for a block: forward
  wall time, call counts and allocated bytes per op *and per module*,
  tape nodes and backward time per op, memory accounting, and the
  Chrome-trace timeline.  Zero overhead when inactive.
- :mod:`repro.perf.bench` — the canonical Conformer training-step
  benchmark behind ``python -m repro.perf`` and ``BENCH_autodiff.json``.
- :mod:`repro.perf.history` — the schema-versioned bench-history ledger
  behind ``python -m repro.cli bench diff``.

Example::

    from repro.perf import op_profile

    with op_profile(model) as prof:
        loss = model.compute_loss(model(x_enc, x_mark, x_dec, y_mark), y)
        loss.backward()
    print(prof.summary())           # per-op forward and backward table
    prof.as_dict()                  # the ``op_profile`` run-log event body
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.tensor.profiler import EngineProfiler
from repro.tensor.tensor import observe

__all__ = ["op_profile"]


@contextlib.contextmanager
def _instrument_modules(model, prof: EngineProfiler) -> Iterator[None]:
    """Wrap every submodule ``forward`` to push its dotted-path scope."""
    wrapped = []
    seen = set()
    try:
        for name, module in model.named_modules():
            if not name or id(module) in seen:
                continue  # root ops stay labelled "(root)"; shared modules once
            seen.add(id(module))
            original = module.forward

            def forward(*args, _original=original, _name=name, **kwargs):
                with prof.module_scope(_name):
                    return _original(*args, **kwargs)

            object.__setattr__(module, "forward", forward)
            wrapped.append(module)
        yield
    finally:
        for module in wrapped:
            object.__delattr__(module, "forward")


@contextlib.contextmanager
def op_profile(model=None, timeline_capacity: int = 8192) -> Iterator[EngineProfiler]:
    """Profile every op output and backward closure in the block.

    Passing a model labels ops with the dotted ``named_modules`` path of
    the innermost submodule that produced them (the same naming the
    contracts checker uses).
    """
    prof = EngineProfiler(timeline_capacity=timeline_capacity)
    with contextlib.ExitStack() as stack:
        if model is not None:
            stack.enter_context(_instrument_modules(model, prof))
        stack.enter_context(observe(prof))
        prof.mark()
        yield prof
