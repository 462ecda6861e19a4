"""Plan/table cache: memoized shape-derived constants for the model zoo.

Attention masks, neighbour-gather index maps, cumulative-average mixing
matrices, and positional-encoding table slices depend only on *geometry*
(sequence length, window, dtype) — yet the seed code rebuilt them on
every forward.  This cache keys each plan by its full geometry tuple so a
shape change can never reuse a stale plan (the new key simply misses and
the builder runs again), and keeps hit/miss counters so the perf suite
can assert reuse actually happens.

Unlike ``functools.lru_cache`` this layer is introspectable
(:meth:`PlanCache.stats`), explicitly invalidatable (:meth:`invalidate`),
and bounds memory with FIFO eviction rather than growing per-decorated
function.  numpy's pocketfft already memoizes FFT twiddle factors by
transform length internally; what this layer adds for the FFT-adjacent
paths is the surrounding geometry (index maps, scatter matrices) and one
place to flush everything between experiments.

Cached arrays are shared across calls, so the cache itself marks every
ndarray in a freshly built plan read-only (``setflags(write=False)``) at
insertion time — a builder cannot forget, and an in-place write anywhere
downstream raises immediately instead of silently corrupting every later
forward that shares the plan.  Writes that sneak past the flag (a
``setflags(write=True)`` re-arm, a mutation through a writeable base) are
caught by the ownership sanitizer's fingerprint check
(:mod:`repro.analysis.alias`), which verifies every cached array on each
access and again when the guard exits.  Inserts, accesses and evictions
report to the engine's one observer slot (``None`` in production: one
``is not None`` test each).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterator, Optional

import numpy as np

from repro.tensor import tensor as _engine


def iter_plan_arrays(value) -> Iterator[np.ndarray]:
    """Yield every ndarray reachable inside a cached plan value.

    Plans are arrays or (nested) tuples/lists/dicts of arrays — the same
    shapes builders actually return; anything else is left untouched.
    """
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from iter_plan_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_plan_arrays(item)


def _freeze_plan(value) -> None:
    """Mark every ndarray in ``value`` read-only (always allowed by numpy)."""
    for array in iter_plan_arrays(value):
        array.setflags(write=False)


class PlanCache:
    """Bounded memo from geometry keys to prebuilt plan objects."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, builder: Callable[[], object]):
        """Return the cached plan for ``key``, building it on first use.

        ``key`` must capture every input the builder reads (lengths,
        windows, flags, dtype): a changed shape therefore misses and
        rebuilds instead of serving a stale plan.  Every ndarray in the
        built plan is frozen read-only before it is shared.
        """
        try:
            value = self._entries[key]
        except KeyError:
            pass
        else:
            self.hits += 1
            if _engine._OBSERVER is not None:
                _engine._OBSERVER.on_plan_access(key, value)
            return value
        self.misses += 1
        value = builder()
        _freeze_plan(value)
        observer = _engine._OBSERVER
        if len(self._entries) >= self.maxsize:
            evicted_key, evicted = self._entries.popitem(last=False)  # FIFO
            if observer is not None:
                observer.on_plan_evict(evicted_key, evicted)
        self._entries[key] = value
        if observer is not None:
            observer.on_plan_insert(key, value)
        return value

    def invalidate(self, prefix: Optional[str] = None) -> int:
        """Drop all plans (or those whose key tuple starts with ``prefix``).

        Returns the number of entries removed.
        """
        if prefix is None:
            doomed = list(self._entries)
        else:
            doomed = [
                key for key in self._entries
                if isinstance(key, tuple) and key and key[0] == prefix
            ]
        observer = _engine._OBSERVER
        for key in doomed:
            value = self._entries.pop(key)
            if observer is not None:
                observer.on_plan_evict(key, value)
        return len(doomed)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        return len(self._entries)


#: process-wide plan cache used by nn/ and core/ geometry builders
_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan/table cache."""
    return _PLAN_CACHE
