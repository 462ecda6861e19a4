"""The in-run reference computation that scales every timing.

On a shared virtual machine the same code runs 20-40% slower for
seconds at a time, so a raw wall-clock rate does not repeat between
processes.  A small, fixed computation timed right next to each round
of the workload slows down with the machine; scaling the round's time by
``NOMINAL_REF_S / measured`` turns it into a time at nominal machine
speed, in ordinary units.

The reference is plain numpy and imports nothing from ``repro``: a
64-step GRU-style recurrence, an rFFT correlation and a softmax
attention, at the Conformer's tiny widths (batch 16, 7 variables,
hidden 16, two heads of width 8).  It is float64, which tracked both the
float64 training step and the float32 forecast better than a float32
copy did.  Changing this computation or ``NOMINAL_REF_S`` changes every
scaled number: it is a change to the benchmark itself.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal duration of one :func:`make_reference` call, in seconds
NOMINAL_REF_S = 0.005

_BATCH, _STEPS, _VARS, _HIDDEN, _HEADS, _HEAD_DIM = 16, 64, 7, 16, 2, 8


def make_reference():
    """A zero-argument callable running the reference once; its inputs
    are fixed (seed 0), so every call does identical work."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(_BATCH, _STEPS, _VARS))
    w_in = rng.normal(scale=0.3, size=(_VARS, 3 * _HIDDEN))
    w_rec = rng.normal(scale=0.3, size=(_HIDDEN, 3 * _HIDDEN))
    q, k, v = (rng.normal(size=(_BATCH, _HEADS, _STEPS, _HEAD_DIM)) for _ in range(3))
    h1, h2 = _HIDDEN, 2 * _HIDDEN

    def run() -> float:
        gates_x = x @ w_in
        h = np.zeros((_BATCH, _HIDDEN))
        for t in range(_STEPS):
            gates_h = h @ w_rec
            z = 1.0 / (1.0 + np.exp(-(gates_x[:, t, :h1] + gates_h[:, :h1])))
            r = 1.0 / (1.0 + np.exp(-(gates_x[:, t, h1:h2] + gates_h[:, h1:h2])))
            cand = np.tanh(gates_x[:, t, h2:] + r * gates_h[:, h2:])
            h = (1.0 - z) * h + z * cand
        spec = np.fft.rfft(x, axis=1)
        corr = np.fft.irfft(spec * np.conj(spec), n=_STEPS, axis=1)
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(_HEAD_DIM)
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        out = weights @ v
        return float(h.sum() + corr.sum() + out.sum())

    return run


def time_reference(run, calls: int = 3) -> float:
    """Seconds one reference call takes now: the median of ``calls``
    calls, so that one call caught by a stall does not skew a round."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return sorted(times)[calls // 2]
