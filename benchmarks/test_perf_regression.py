"""Perf regression guards for the fused autodiff kernels and the
tape-free inference fast path.

Runs the canonical GRU-heavy Conformer training-step benchmark
(:mod:`repro.perf.bench`) with fused kernels on and off, asserts the
fused path keeps its >= 2x wall-clock advantage and its tape-node
reduction, and writes ``BENCH_autodiff.json`` at the repo root so the
perf trajectory is a tracked artifact.  The inference benchmark
(:mod:`repro.perf.bench_inference`) does the same for the forward-only
prediction pass: ``inference_mode`` + float32 must stay >= 3x faster
than the seed eager float64 path, and ``BENCH_inference.json`` is the
tracked artifact.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.perf.bench import BENCH_FILENAME, run_autodiff_benchmark, write_bench_json
from repro.perf.bench_inference import (
    BENCH_INFERENCE_FILENAME,
    run_inference_benchmark,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.perf
def test_fused_training_step_speedup():
    result = run_autodiff_benchmark(repeats=5, warmup=1)
    path = write_bench_json(result, REPO_ROOT / BENCH_FILENAME)
    assert path.exists()

    fused, unfused = result["fused"], result["unfused"]
    # losses must agree: fusion is a perf change, not a numerics change
    assert fused["final_loss"] == pytest.approx(unfused["final_loss"], rel=1e-3)

    # the headline claims: >= 2x wall clock, far fewer tape nodes
    assert result["speedup"] >= 2.0, f"fused speedup regressed: {result['speedup']:.2f}x"
    assert result["tape_node_reduction"] >= 4.0
    assert fused["tape_nodes_per_step"] < unfused["tape_nodes_per_step"]

    # the fused kernels actually carry the recurrent path
    fused_ops_seen = {row["op"] for row in fused["top_ops"]}
    assert "gru_sequence" in fused_ops_seen


@pytest.mark.perf
@pytest.mark.inference
def test_inference_fast_path_speedup():
    from repro.perf.bench_inference import write_bench_json as write_inference_json

    result = run_inference_benchmark(repeats=10, warmup=2)
    path = write_inference_json(result, REPO_ROOT / BENCH_INFERENCE_FILENAME)
    assert path.exists()

    for name, entry in result["models"].items():
        # the headline claim (ISSUE 6): inference_mode + float32 at least
        # 3x cheaper than the seed eager float64 forward (target 5x)
        assert entry["speedup"] >= 3.0, f"{name} fast-path speedup regressed: {entry['speedup']:.2f}x"
        # tape-freedom is absolute, not approximate
        assert entry["fast_path"]["tape_nodes_per_forward"] == 0
        assert entry["no_grad"]["tape_nodes_per_forward"] == 0
        assert entry["eager"]["tape_nodes_per_forward"] > 0
        # float32 stays within the documented agreement envelope
        assert entry["fast_path"]["prediction_dtype"] == "float32"
        assert entry["float32_max_abs_diff"] < 1e-4
    # scratch actually got recycled: hits dominate misses across the run
    assert result["arena"]["hits"] > result["arena"]["misses"]
    assert result["plan_cache"]["hits"] > result["plan_cache"]["misses"]


@pytest.mark.perf
@pytest.mark.profile
@pytest.mark.alias
def test_instruments_cost_nothing_when_disabled():
    """An empty observer slot must not slow the taped or the tape-free path.

    ``Tensor._make``, the backward loop, every arena checkout and every
    plan-cache lookup pay one ``is not None`` test for the engine's one
    observer slot, so a run that installs no profiler or sanitizer must
    stay within noise of the pre-instrument engine.  Measured as a
    self-relative bound on two workloads: a taped matmul training step,
    and an inference step that exercises arena checkouts, plan-cache
    lookups and per-op dispatch.  Two interleaved timing arms of each,
    neither instrumented, must agree, with the slot confirmed empty
    throughout; a *profiled* arm is allowed (and expected) to cost more.
    """
    from time import perf_counter

    import numpy as np

    from repro.perf import op_profile
    from repro.tensor import Tensor, get_arena, inference_mode, plan_cache
    from repro.tensor import tensor as tensor_mod

    arena, cache = get_arena(), plan_cache()
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(32, 32)), requires_grad=True)
    y = Tensor(rng.normal(size=(16, 16)))

    def train_step():
        ((x @ x).relu().sum()).backward()
        x.zero_grad()

    def inference_step():
        with inference_mode():
            buf = arena.get("bench.observer_off", (16, 16), np.float64)
            np.matmul(y.data, y.data, out=buf)
            mask = cache.get(("bench.observer_off", 16), lambda: np.tril(np.ones((16, 16))))
            (Tensor(buf * mask).relu().sum()).item()

    def timed(step, n):
        start = perf_counter()
        for _ in range(n):
            step()
        return perf_counter() - start

    for step, n in ((train_step, 60), (inference_step, 80)):
        assert tensor_mod._OBSERVER is None
        timed(step, 10)  # warmup
        arm_a, arm_b = timed(step, n), timed(step, n)
        assert tensor_mod._OBSERVER is None
        # both arms ran the identical disabled-mode code path; agreement
        # within 2x bounds scheduler noise without a flaky absolute threshold
        ratio = max(arm_a, arm_b) / min(arm_a, arm_b)
        assert ratio < 2.0, f"{step.__name__}: disabled-mode timing unstable: {ratio:.2f}x"
    arena.clear()

    with op_profile() as prof:
        profiled = timed(train_step, 60)
    assert prof.total_calls > 0 and prof.total_backward_seconds > 0.0
    # sanity: the profiled arm records, and the slot is empty afterwards
    assert tensor_mod._OBSERVER is None
    assert profiled > 0.0


@pytest.mark.perf
@pytest.mark.serving
def test_serving_microbatch_throughput():
    """Micro-batching must stay >= 2x serial request throughput.

    Runs the serving load benchmark at the full batch window (8) and
    writes ``BENCH_serving.json`` at the repo root as the tracked
    artifact, same as the autodiff/inference guards.  The speedup comes
    from one batched forward amortizing the engine's per-forward Python
    overhead across ``max_batch`` requests — if it decays toward 1x, the
    batcher has stopped coalescing or the forward stopped being
    overhead-dominated, both worth a loud failure.
    """
    from repro.perf.bench import write_bench_json as write_serving_json
    from repro.serve.bench import BENCH_SERVING_FILENAME, run_serving_benchmark

    result = run_serving_benchmark(n_requests=96, n_series=8, max_batch=8)
    path = write_serving_json(result, REPO_ROOT / BENCH_SERVING_FILENAME)
    assert path.exists()

    assert result["throughput_speedup"] >= 2.0, (
        f"micro-batching speedup regressed: {result['throughput_speedup']:.2f}x"
    )
    # the batcher really coalesced: far fewer forwards than requests
    serial, batched = result["arms"]["serial"], result["arms"]["batched"]
    assert batched["forwards"] < serial["forwards"] / 2
    assert batched["mean_batch_size"] > 2.0
    # the cache converts repeat traffic into hits without losing requests
    cached = result["arms"]["cached"]
    assert cached["cached_responses"] > 0
    assert result["cache"]["hit_rate"] > 0.0
