"""Versioned model registry: checkpoint loading, pinning, atomic hot-swap.

A :class:`ModelVersion` is an immutable serving unit: a model restored
from a :mod:`repro.ckpt` checkpoint (or published directly), switched to
``eval()``, cast to the serving dtype, and only ever run through
:meth:`ModelVersion.forecast_batch` — which pins the engine's fast-path
configuration (:func:`repro.tensor.inference_mode` +
:func:`repro.tensor.compute_dtype`) around every forward.

Hot-swap protocol (see docs/serving.md): a new version is **built and
loaded cold** (`load(..., activate=False)`), optionally warmed with a
real forward to populate the plan cache, and then :meth:`activate`
flips one reference under the registry lock.  In-flight batches keep the
:class:`ModelVersion` they resolved at batch-assembly time, so a swap
never changes a forecast mid-forward; new requests atomically see the
new version.  Old versions stay addressable for rollback until
:meth:`retire`.

The autodiff engine's mode flags, scratch arena, and plan cache are
process-global and the numpy engine is single-threaded by design (see
:mod:`repro.tensor.arena`), so every forward in the process — batched
worker, degraded fallback, benchmark arm — serialises through one
:data:`ENGINE_LOCK`.  Workers still overlap window assembly, cache
traffic, and response delivery with the running forward; the lock only
covers kernel execution.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.ckpt.manager import CheckpointManager
from repro.markers import inference_entry
from repro.tensor import Tensor, compute_dtype, inference_mode

__all__ = ["ENGINE_LOCK", "ServingSpec", "ModelVersion", "ModelRegistry"]

#: process-wide forward serialisation (the engine's globals are shared)
ENGINE_LOCK = threading.RLock()


@dataclass(frozen=True)
class ServingSpec:
    """The request geometry every served model must satisfy."""

    input_len: int
    label_len: int
    pred_len: int
    n_dims: int
    d_time: int = 4


class ModelVersion:
    """One pinned, eval-mode, dtype-cast model plus its version name."""

    def __init__(self, version: str, model, spec: ServingSpec, dtype=np.float64) -> None:
        self.version = version
        self.model = model
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.forwards = 0
        model.eval()
        if hasattr(model, "to_dtype"):
            model.to_dtype(self.dtype)
        # pin the flow's Monte-Carlo eps to zero where supported, so a
        # forecast is a deterministic function of (weights, window)
        self._deterministic = "deterministic" in inspect.signature(model.forward).parameters

    @inference_entry
    def forecast_batch(self, x_enc, x_mark, x_dec, y_mark, pad_to: Optional[int] = None) -> np.ndarray:
        """One batched point-forecast forward under the fast path.

        Inputs are stacked ``(B, ...)`` arrays; returns ``(B, pred_len,
        n_dims)``.  The engine lock serialises kernel execution; the
        inference-mode/compute-dtype contexts are entered inside it so
        the process-global flags are never toggled concurrently.

        ``pad_to`` pins the kernel batch shape: BLAS picks different
        gemm/gemv micro-kernels for different row counts, so a batch of
        one and a batch of eight can disagree in the last ulp.  Padding
        every forward to one canonical size (the server passes its
        ``max_batch``) makes a row's result a function of that row
        alone — the batched, degraded, and serial paths become
        *bit-identical*, which tests/test_properties.py asserts.
        """
        batch = x_enc.shape[0]
        if pad_to is not None and batch < pad_to:
            x_enc, x_mark, x_dec, y_mark = (
                np.concatenate([block, np.repeat(block[-1:], pad_to - batch, axis=0)], axis=0)
                for block in (x_enc, x_mark, x_dec, y_mark)
            )
        with ENGINE_LOCK:
            with compute_dtype(self.dtype), inference_mode():
                args = (Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
                if self._deterministic:
                    outputs = self.model(*args, deterministic=True)
                else:
                    outputs = self.model(*args)
                forecast = self.model.point_forecast(outputs)
            self.forwards += 1
        return np.asarray(forecast)[:batch]


class ModelRegistry:
    """Named model versions with one atomically-swappable *current*."""

    def __init__(self, factory: Callable[[], object], spec: ServingSpec, dtype=np.float64) -> None:
        self.factory = factory
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self._versions: Dict[str, ModelVersion] = {}
        self._current: Optional[ModelVersion] = None
        self._lock = threading.RLock()
        self._listeners: List[Callable[[Optional[str], str], None]] = []
        self.swaps = 0

    # ------------------------------------------------------------------
    # loading / publishing
    # ------------------------------------------------------------------
    def publish(self, version: str, model, activate: bool = True) -> ModelVersion:
        """Register an already-built model under ``version``."""
        pinned = ModelVersion(version, model, self.spec, dtype=self.dtype)
        with self._lock:
            if version in self._versions:
                raise ValueError(f"version {version!r} already registered")
            self._versions[version] = pinned
        if activate:
            self.activate(version)
        return pinned

    def load(self, version: str, checkpoint_dir: Union[str, Path], activate: bool = True) -> ModelVersion:
        """Build a fresh model and restore it from the newest verified
        checkpoint in ``checkpoint_dir`` (corrupt files are skipped by
        the manager; no loadable checkpoint at all is an error)."""
        manager = CheckpointManager(Path(checkpoint_dir))
        loaded = manager.load_latest()
        if loaded is None:
            raise FileNotFoundError(f"no loadable checkpoint under {checkpoint_dir}")
        model = self.factory()
        model.load_state_dict(loaded.state["model"])
        return self.publish(version, model, activate=activate)

    # ------------------------------------------------------------------
    # swap / resolve
    # ------------------------------------------------------------------
    def activate(self, version: str) -> ModelVersion:
        """Atomically make ``version`` current; notifies swap listeners."""
        with self._lock:
            pinned = self._versions[version]
            previous = self._current
            self._current = pinned
            if previous is not pinned:
                self.swaps += 1
            listeners = list(self._listeners)
        old_name = previous.version if previous is not None and previous is not pinned else None
        if previous is not pinned:
            for listener in listeners:
                listener(old_name, version)
        return pinned

    def on_swap(self, listener: Callable[[Optional[str], str], None]) -> None:
        """Register ``listener(old_version_or_None, new_version)``."""
        with self._lock:
            self._listeners.append(listener)

    def current(self) -> ModelVersion:
        with self._lock:
            if self._current is None:
                raise RuntimeError("registry has no active model version")
            return self._current

    def get(self, version: str) -> ModelVersion:
        with self._lock:
            return self._versions[version]

    def retire(self, version: str) -> None:
        """Drop a non-current version (frees its weights)."""
        with self._lock:
            if self._current is not None and self._current.version == version:
                raise ValueError(f"cannot retire the active version {version!r}")
            del self._versions[version]

    def versions(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            current = self._current.version if self._current is not None else None
            return {
                "versions": sorted(self._versions),
                "current": current,
                "swaps": self.swaps,
                "forwards": {name: v.forwards for name, v in sorted(self._versions.items())},
            }
