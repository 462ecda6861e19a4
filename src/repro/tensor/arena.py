"""Scratch-buffer arena for the tape-free inference fast path.

The fused scan kernels allocate a handful of per-timestep work buffers
(gate pre-activations, candidate states, the running hidden state).  In
training those must be fresh — the backward pass reads them — but inside
``inference_mode()`` nothing outlives the loop iteration, so the kernels
check buffers out of this arena instead and numpy's allocator drops out
of the hot path entirely.

Rules of engagement (enforced by convention, asserted by tests, and —
under :func:`repro.analysis.alias.alias_guard` — checked at runtime):

- Only *work* buffers that die inside the kernel may come from the arena.
  Anything that escapes — the scan output, a returned hidden state — must
  be freshly allocated, otherwise the next call corrupts it.
- A slot is keyed by (tag, shape, dtype), so an encoder and a decoder
  sharing a tag but not a geometry each keep their own buffer instead of
  evicting one another every call.  Stale geometries (an old batch size,
  the float64 buffers after switching to float32) are flushed with
  :meth:`clear`.
- Buffer contents are NOT zeroed on checkout.  Callers must fully
  overwrite (``out=`` kernels, full-slice assignment) before reading.
- A checkout is valid until the slot is *released* — by the owning kernel
  (:meth:`release` with its tag prefix), by the outermost
  ``inference_mode()`` exit, or by :meth:`clear`.  Holding an array past
  its release and reading it again is a use-after-release; the alias
  sanitizer stamps each checkout with a generation and reports exactly
  that, with a poison fill making even unchecked reads loud.

Checkouts and releases report to the engine's one observer slot
(:func:`repro.tensor.tensor.observe`), the same slot the profiler and the
sanitizers use.  It is ``None`` in production, so the hot path pays one
``is not None`` test per checkout and nothing else.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.tensor import tensor as _engine


class BufferArena:
    """Reusable scratch buffers keyed by (tag, shape, dtype)."""

    def __init__(self) -> None:
        self._slots: Dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        #: re-keys caused by a dtype change on an existing (tag, shape)
        #: geometry — e.g. the float32 re-key after ``compute_dtype``
        #: flips.  Tracked apart from ``misses`` (a collision is *not*
        #: counted as a miss) so hit-rate gauges aren't inflated by a
        #: compute-dtype switch masquerading as a cold cache.
        self.dtype_collisions = 0
        self._nbytes = 0
        #: dtypes ever seen per (tag, shape) — feeds dtype_collisions
        self._geometry_dtypes: Dict[tuple, Set[np.dtype]] = {}
        #: most bytes ever pinned at once (survives clear(); memory gauges
        #: report it as the arena's high-water mark)
        self.high_water_bytes = 0

    def get(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Check out an uninitialised (shape, dtype) buffer for ``tag``.

        The first request for a geometry allocates; every later request
        with the same (tag, shape, dtype) returns the same buffer.
        """
        dtype = np.dtype(dtype)
        key = (tag, tuple(shape), dtype)
        buf = self._slots.get(key)
        if buf is not None:
            self.hits += 1
            if _engine._OBSERVER is not None:
                _engine._OBSERVER.on_arena_checkout(key, buf)
            return buf
        geometry = key[:2]
        seen = self._geometry_dtypes.setdefault(geometry, set())
        if seen and dtype not in seen:
            # a dtype re-key on a known (tag, shape) geometry — e.g. the
            # float32 wave after ``compute_dtype`` flips.  Counted apart
            # from true cold misses so hit-rate gauges (hits / (hits +
            # misses)) aren't deflated by a mode switch.
            self.dtype_collisions += 1
        else:
            self.misses += 1
        seen.add(dtype)
        buf = np.empty(shape, dtype=dtype)
        self._slots[key] = buf
        self._nbytes += buf.nbytes
        if self._nbytes > self.high_water_bytes:
            self.high_water_bytes = self._nbytes
        if _engine._OBSERVER is not None:
            _engine._OBSERVER.on_arena_checkout(key, buf)
        return buf

    def release(self, prefix: Optional[str] = None) -> int:
        """End the current checkouts for every slot tagged ``prefix``.

        The buffers stay allocated (the next :meth:`get` re-checks them
        out — that *is* the designed reuse), but any array handle held
        from before the release is now stale.  With no observer attached
        this is free: ownership is a debug-mode contract, not a hot-path
        cost.  Under :func:`repro.analysis.alias.alias_guard` each
        released buffer is poison-filled and registered so a later read
        through the engine is reported as a use-after-release.

        Returns the number of slots released (0 when no observer is on).
        """
        observer = _engine._OBSERVER
        if observer is None:
            return 0
        count = 0
        for key, buf in self._slots.items():
            if prefix is None or key[0].startswith(prefix):
                observer.on_arena_release(key, buf)
                count += 1
        return count

    def clear(self) -> None:
        """Drop every slot (frees the memory; counters are kept)."""
        self.release()
        self._slots.clear()
        self._geometry_dtypes.clear()
        self._nbytes = 0

    def stats(self) -> Dict[str, int]:
        return {
            "slots": len(self._slots),
            "hits": self.hits,
            "misses": self.misses,
            "dtype_collisions": self.dtype_collisions,
            "bytes": self._nbytes,
            "high_water_bytes": self.high_water_bytes,
        }

    def nbytes(self) -> int:
        """Total bytes currently pinned by live slots."""
        return self._nbytes


#: process-wide arena used by the fused inference kernels (the engine is
#: single-threaded; a per-thread arena would be needed before that changes)
_ARENA = BufferArena()


def get_arena() -> BufferArena:
    """The process-wide scratch arena."""
    return _ARENA
