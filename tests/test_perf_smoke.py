"""Tier-1 perf smoke: the fused kernels stay wired in, equivalent, and profiled.

Fast guards that run with the regular test suite (marked ``perf`` so the
heavier ``benchmarks/test_perf_regression.py`` can share a selector):

- fused kernels record an order of magnitude fewer tape nodes than the
  op-by-op composition they replaced,
- fused and unfused paths agree on forward values *and* gradients,
- the :mod:`repro.perf` profiler/benchmark machinery produces the
  ``BENCH_autodiff.json`` artifact structure end to end.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.nn import GRUCell, LSTMCell, SlidingWindowAttention
from repro.obs import Tracer
from repro.perf import op_profile
from repro.perf.bench import run_autodiff_benchmark, write_bench_json
from repro.tensor import EngineProfiler, Tensor, functional as F, tape_node_count
from repro.tensor import tensor as tensor_mod
from repro.training import PROFILES

RNG = np.random.default_rng(202)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tape_nodes(fn) -> int:
    before = tape_node_count()
    fn()
    return tape_node_count() - before


@pytest.mark.perf
class TestFusedTapeReduction:
    def test_gru_forward_records_one_node_per_scan(self):
        cell = GRUCell(6, 8, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(4, 12, 6)))
        with F.fused_ops(True):
            fused = _tape_nodes(lambda: cell(x))
        with F.fused_ops(False):
            unfused = _tape_nodes(lambda: cell(x))
        # one gru_sequence node replaces the ~12-node-per-timestep chain
        assert fused * 8 <= unfused, (fused, unfused)

    def test_lstm_forward_records_one_node_per_scan(self):
        cell = LSTMCell(6, 8, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(4, 12, 6)))
        with F.fused_ops(True):
            fused = _tape_nodes(lambda: cell(x))
        with F.fused_ops(False):
            unfused = _tape_nodes(lambda: cell(x))
        assert fused * 8 <= unfused, (fused, unfused)


@pytest.mark.perf
class TestFusedUnfusedParity:
    def _parity(self, run):
        results = {}
        for fused in (True, False):
            with F.fused_ops(fused):
                out, params = run()
                out.sum().backward()
                results[fused] = (out.data.copy(), [p.grad.copy() for p in params])
                for p in params:
                    p.zero_grad()
        np.testing.assert_allclose(results[True][0], results[False][0], atol=1e-8)
        for g_fused, g_unfused in zip(results[True][1], results[False][1]):
            np.testing.assert_allclose(g_fused, g_unfused, atol=1e-8)

    def test_gru_cell(self):
        cell = GRUCell(5, 7, rng=np.random.default_rng(1))

        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.normal(size=(3, 9, 5)), requires_grad=True)
            outputs, h_final = cell(x)
            return outputs * 1.0 + h_final.expand_dims(1), [x, *cell.parameters()]

        self._parity(run)

    def test_lstm_cell(self):
        cell = LSTMCell(5, 7, rng=np.random.default_rng(2))

        def run():
            rng = np.random.default_rng(12)
            x = Tensor(rng.normal(size=(3, 9, 5)), requires_grad=True)
            outputs, (h, c) = cell(x)
            return outputs * 1.0 + (h + c).expand_dims(1), [x, *cell.parameters()]

        self._parity(run)

    def test_sliding_window_attention(self):
        attn = SlidingWindowAttention(window=4)

        def run():
            rng = np.random.default_rng(13)
            q = Tensor(rng.normal(size=(2, 2, 10, 3)), requires_grad=True)
            k = Tensor(rng.normal(size=(2, 2, 10, 3)), requires_grad=True)
            v = Tensor(rng.normal(size=(2, 2, 10, 3)), requires_grad=True)
            return attn(q, k, v), [q, k, v]

        self._parity(run)
        attn.causal = True
        self._parity(run)


@pytest.mark.perf
class TestProfilerMachinery:
    def test_op_profiler_counts_and_times(self):
        with op_profile() as prof:
            a = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
            b = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
            ((a @ b).relu().sum()).backward()
        matmul = prof.per_op()["matmul"]
        assert matmul["tape_nodes"] == 1
        assert matmul["backward_calls"] == 1
        assert prof.taped_nodes >= 3
        assert prof.total_backward_seconds >= 0.0
        assert "matmul" in prof.summary()

    def test_profile_hooks_restore_cleanly(self):
        outer = EngineProfiler()
        with op_profile() as prof:
            Tensor(np.ones(3), requires_grad=True).sum().backward()
        # after the context, fresh graphs are not recorded anywhere
        before = prof.taped_nodes
        Tensor(np.ones(3), requires_grad=True).sum().backward()
        assert prof.taped_nodes == before
        assert outer.taped_nodes == 0

    def test_profile_hooks_uninstall_when_body_raises(self):
        assert tensor_mod._OBSERVER is None
        with pytest.raises(RuntimeError):
            with op_profile() as prof:
                Tensor(np.ones(3), requires_grad=True).sum().backward()
                raise RuntimeError("body failed")
        assert tensor_mod._OBSERVER is None, "observer slot leaked after exception"
        # the aborted profiler saw its block; new work is not recorded
        nodes_at_raise = prof.taped_nodes
        assert nodes_at_raise > 0
        Tensor(np.ones(3), requires_grad=True).sum().backward()
        assert prof.taped_nodes == nodes_at_raise

    def test_nested_profiles_restore_outer_hooks(self):
        with op_profile() as outer_prof:
            Tensor(np.ones(2), requires_grad=True).sum().backward()
            with pytest.raises(ValueError):
                with op_profile():
                    raise ValueError("inner failure")
            # inner teardown must restore the *outer* profiler, not None
            Tensor(np.ones(2), requires_grad=True).sum().backward()
        assert outer_prof.per_op()["sum"]["tape_nodes"] == 2
        assert outer_prof.per_op()["sum"]["backward_calls"] == 2

    def test_flat_tracer_times_named_stages(self):
        timer = Tracer(flat=True)
        with timer.span("alpha"):
            with timer.span("beta"):  # nested, but keyed by leaf name
                pass
        with timer.span("alpha"):
            pass
        stats = timer.as_dict()
        assert set(stats) == {"alpha", "beta"}
        assert stats["alpha"]["calls"] == 2
        assert stats["beta"]["calls"] == 1
        assert "alpha" in timer.summary()


@pytest.mark.perf
class TestSanitizerZeroOverheadWhenOff:
    """The repro.analysis sanitizer must cost nothing unless installed."""

    def _work(self):
        x = Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
        ((x @ x).relu().sum()).backward()

    def test_sanitizer_hook_is_none_by_default(self):
        assert tensor_mod._OBSERVER is None

    def test_disabled_mode_records_identical_tape(self):
        from repro.analysis import sanitize

        baseline = _tape_nodes(self._work)
        with sanitize():
            self._work()  # checked run — same graph, observer installed
        assert tensor_mod._OBSERVER is None, "sanitize() leaked its observer"
        assert _tape_nodes(self._work) == baseline

    def test_fused_step_graph_unchanged_after_sanitized_run(self):
        from repro.analysis import sanitize

        cell = GRUCell(6, 8, rng=np.random.default_rng(3))
        x = Tensor(RNG.normal(size=(4, 12, 6)))
        with F.fused_ops(True):
            before = _tape_nodes(lambda: cell(x))
            with sanitize():
                cell(x)
            after = _tape_nodes(lambda: cell(x))
        assert before == after


@pytest.mark.perf
def test_bench_smoke_produces_artifact(tmp_path):
    """End-to-end micro run of the canonical benchmark (small scan, one
    repeat) — checks the artifact schema, not wall-clock claims."""
    settings = replace(PROFILES["tiny"], input_len=24, label_len=12, batch_size=8, n_points=400)
    result = run_autodiff_benchmark(repeats=1, warmup=0, settings=settings)
    path = write_bench_json(result, tmp_path / "BENCH_autodiff.json")
    loaded = json.loads(path.read_text())
    assert loaded["benchmark"] == "conformer_training_step"
    for arm in ("fused", "unfused"):
        assert loaded[arm]["tape_nodes_per_step"] > 0
        assert loaded[arm]["seconds_per_step"] > 0
    assert loaded["tape_node_reduction"] >= 4.0
    assert np.isclose(loaded["fused"]["final_loss"], loaded["unfused"]["final_loss"], rtol=1e-3)
    # keep the repo-root artifact present for tier-1 runs on fresh clones,
    # without clobbering numbers from the full regression benchmark
    root_artifact = REPO_ROOT / "BENCH_autodiff.json"
    if not root_artifact.exists():
        write_bench_json(result, root_artifact)
