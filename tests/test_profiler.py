"""Op-level profiler, memory accounting, and Chrome-trace export.

Covers the ``repro.obs.profile`` surface end to end:

- :func:`repro.perf.op_profile` — per-op wall-time/call/byte attribution,
  dotted-``named_modules`` labelling, observer install/uninstall hygiene;
- memory accounting — live/peak bytes, tape-node pinning, and the
  inference fast path's zero-tape guarantee;
- the ``op_profile`` run-log event → ``obs report`` / ``obs trace``
  round-trip, including Chrome Trace Event Format schema validity;
- tolerant JSONL loading (truncated/corrupt lines skipped and counted);
- zero overhead when disabled, mirroring the sanitizer guard.
"""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.nn import Linear, Module
from repro.obs import chrome_trace, load_jsonl, load_run, render_report, run_logger
from repro.obs.trace import OP_TID, SPAN_TID, write_chrome_trace
from repro.perf import op_profile
from repro.tensor import Tensor, inference_mode
from repro.tensor import tensor as tensor_mod
from repro.tensor.profiler import OP_PROFILE_SCHEMA, ROOT_MODULE

RNG = np.random.default_rng(404)


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


def _forward(model=None):
    model = model if model is not None else TinyNet()
    return model(Tensor(RNG.normal(size=(3, 4)), requires_grad=True))


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
@pytest.mark.profile
class TestOpProfile:
    def test_counts_seconds_and_bytes_per_op(self):
        with op_profile() as prof:
            a = Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
            b = Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
            (a @ b).relu().sum()
        per_op = prof.per_op()
        assert per_op["matmul"]["calls"] == 1
        assert per_op["relu"]["calls"] == 1
        assert prof.total_calls >= 3
        assert prof.total_seconds >= 0.0
        # the matmul output is an 8x8 float64 array
        assert per_op["matmul"]["nbytes"] == 8 * 8 * 8
        assert "matmul" in prof.summary()

    def test_module_attribution_uses_named_modules_paths(self):
        model = TinyNet()
        with op_profile(model) as prof:
            _forward(model)
        modules = prof.per_module()
        # each Linear is one linear op; relu in the root forward
        assert "fc1" in modules and "fc2" in modules
        labelled = {(r["module"], r["op"]) for r in prof.rows()}
        assert ("fc1", "linear") in labelled
        assert ("fc2", "linear") in labelled
        assert (ROOT_MODULE, "relu") in labelled

    def test_module_forward_restored_after_context(self):
        model = TinyNet()
        with op_profile(model):
            _forward(model)
        # the instance-attribute shims are gone: class forward again
        assert "forward" not in vars(model.fc1)
        assert "forward" not in vars(model.fc2)
        # and unwrapped calls still work
        assert _forward(model).shape == (3, 2)

    def test_hook_uninstalls_cleanly_even_on_error(self):
        assert tensor_mod._OBSERVER is None
        with pytest.raises(RuntimeError):
            with op_profile():
                _forward()
                raise RuntimeError("body failed")
        assert tensor_mod._OBSERVER is None, "observer slot leaked after exception"

    def test_nested_profiles_restore_outer_hook(self):
        with op_profile() as outer:
            _forward()
            calls_before = outer.total_calls
            with op_profile() as inner:
                _forward()
            assert inner.total_calls > 0
            _forward()
        # outer kept recording after the inner context restored the slot
        assert outer.total_calls > calls_before
        assert tensor_mod._OBSERVER is None

    def test_timeline_capacity_bounds_events_not_aggregates(self):
        with op_profile(timeline_capacity=4) as prof:
            for _ in range(3):
                _forward()
        assert len(prof.timeline()) == 4
        assert prof.dropped_events == prof.total_calls - 4
        assert prof.total_calls > 4  # aggregates saw every op


# ----------------------------------------------------------------------
# memory accounting
# ----------------------------------------------------------------------
@pytest.mark.profile
class TestMemoryAccounting:
    def test_training_mode_pins_tape_nodes_and_bytes(self):
        with op_profile() as prof:
            out = _forward()
        mem = prof.memory_stats()
        assert mem["taped_nodes"] > 0
        assert mem["taped_bytes"] > 0
        assert mem["allocated_bytes"] >= mem["taped_bytes"]
        assert mem["peak_bytes"] >= mem["live_bytes"] >= 0
        del out

    def test_inference_mode_shows_zero_tape(self):
        model = TinyNet()
        with op_profile(model) as prof:
            with inference_mode():
                _forward(model)
        mem = prof.memory_stats()
        assert prof.total_calls > 0
        assert mem["taped_nodes"] == 0, "inference fast path must not tape"
        assert mem["taped_bytes"] == 0

    def test_live_bytes_drop_when_the_graph_is_freed(self):
        with op_profile() as prof:
            out = _forward()
        assert prof.live_bytes > 0
        del out
        gc.collect()
        assert prof.live_bytes == 0
        # cumulative counters are unaffected by frees
        assert prof.peak_bytes > 0
        assert prof.total_bytes > 0

    def test_scalar_outputs_are_profiled(self):
        """Math on a 0-d tensor returns a numpy scalar, which cannot be
        weakly referenced: it is counted, but not tracked as live."""
        with op_profile() as prof:
            (Tensor(np.ones(3), requires_grad=True).sum() * 2.0).backward()
        per_op = prof.per_op()
        assert per_op["mul"]["calls"] == 1
        assert per_op["mul"]["backward_calls"] == 1
        assert prof.taped_nodes == 2

    def test_conformer_training_step_is_profiled(self):
        from dataclasses import replace

        from repro.perf.bench import _model_and_batch, _training_step
        from repro.optim import Adam
        from repro.training import PROFILES

        settings = replace(PROFILES["tiny"], input_len=16, label_len=8, batch_size=4, n_points=300)
        model, batch = _model_and_batch(settings)
        optimizer = Adam(model.parameters(), lr=1e-3)
        with op_profile(model) as prof:
            _training_step(model, optimizer, batch)
        per_op = prof.per_op()
        assert per_op["gru_sequence"]["tape_nodes"] == per_op["gru_sequence"]["backward_calls"] > 0
        assert prof.total_backward_seconds > 0.0


# ----------------------------------------------------------------------
# zero overhead when disabled (mirrors the sanitizer guard)
# ----------------------------------------------------------------------
@pytest.mark.perf
@pytest.mark.profile
class TestProfilerZeroOverheadWhenOff:
    def _work(self):
        x = Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
        ((x @ x).relu().sum()).backward()

    def _tape_nodes(self) -> int:
        before = tensor_mod.tape_node_count()
        self._work()
        return tensor_mod.tape_node_count() - before

    def test_op_hook_is_none_by_default(self):
        assert tensor_mod._OBSERVER is None

    def test_disabled_mode_records_identical_tape(self):
        baseline = self._tape_nodes()
        with op_profile() as prof:
            self._work()  # profiled run — same graph, observer installed
        assert prof.total_calls > 0
        assert tensor_mod._OBSERVER is None, "op_profile() leaked its observer"
        assert self._tape_nodes() == baseline

    def test_profiler_does_not_perturb_op_outputs(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6))
        plain = (Tensor(x) @ Tensor(x)).data
        with op_profile():
            profiled = (Tensor(x) @ Tensor(x)).data
        np.testing.assert_array_equal(plain, profiled)


# ----------------------------------------------------------------------
# run-log integration: gauges, report, Chrome trace
# ----------------------------------------------------------------------
def _record_run(tmp_path, taped: bool = True):
    path = tmp_path / "run.jsonl"
    logger = run_logger(jsonl_path=path)
    model = TinyNet()
    with logger.span("fit"):
        with logger.span("forward"):
            with op_profile(model) as prof:
                if taped:
                    _forward(model)
                else:
                    with inference_mode():
                        _forward(model)
    logger.record_memory(prof)
    logger.record_op_profile(prof)
    logger.close()
    return path


@pytest.mark.profile
class TestRunLogIntegration:
    def test_op_profile_event_round_trips_through_report(self, tmp_path):
        path = _record_run(tmp_path)
        run = load_run(path)
        assert run.op_profile["schema"] == OP_PROFILE_SCHEMA
        assert run.op_profile["total_calls"] > 0
        report = render_report(run)
        assert "op profile" in report
        assert "linear" in report
        assert "memory:" in report

    def test_report_has_forward_and_backward_columns(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logger = run_logger(jsonl_path=path)
        with op_profile() as prof:
            _forward().sum().backward()
        logger.record_op_profile(prof)
        logger.close()
        report = render_report(load_run(path))
        header = next(line for line in report.splitlines() if "fwd s" in line)
        assert "bwd s" in header and "nodes" in header
        linear = next(line for line in report.splitlines() if line.strip().startswith("linear"))
        # two linear calls, two tape nodes, and a timed backward column
        assert linear.split()[1] == "2" and linear.split()[4] == "2"

    def test_old_layout_event_renders_without_op_table(self, tmp_path):
        path = tmp_path / "run.jsonl"
        legacy = {
            "ts": 0.0,
            "kind": "op_profile",
            "total_tape_nodes": 3,
            "total_backward_seconds": 0.1,
            "per_op": {"matmul": {"tape_nodes": 1, "backward_seconds": 0.1, "backward_calls": 1}},
        }
        path.write_text(json.dumps(legacy) + "\n", encoding="utf-8")
        report = render_report(load_run(path))
        assert "layout has no per-op table" in report
        assert "fwd s" not in report

    def test_memory_and_cache_gauges_reach_the_registry(self, tmp_path):
        path = _record_run(tmp_path, taped=False)
        run = load_run(path)
        # inference fast path: the mem.* gauges must show zero tape
        assert run.metrics["mem.taped_nodes"]["value"] == 0
        assert run.metrics["mem.taped_bytes"]["value"] == 0
        assert run.metrics["mem.allocated_bytes"]["value"] > 0
        # arena/plan-cache stats are gauged automatically on close()
        for name in ("arena.hits", "arena.misses", "arena.high_water_bytes",
                     "plan_cache.hits", "plan_cache.misses"):
            assert name in run.metrics, name

    def test_span_events_stream_alongside_aggregates(self, tmp_path):
        run = load_run(_record_run(tmp_path))
        spans = run.of_kind("span")
        assert {s["path"] for s in spans} == {"fit", "fit/forward"}
        assert all(s["end"] >= s["start"] for s in spans)
        assert "fit/forward" in run.spans  # the close() aggregate too


@pytest.mark.profile
class TestChromeTrace:
    def test_trace_schema_is_valid(self, tmp_path):
        trace = chrome_trace(_record_run(tmp_path))
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X"}
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        slices = [e for e in events if e["ph"] == "X"]
        for event in slices:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["tid"] in (SPAN_TID, OP_TID)
        assert trace["otherData"]["n_spans"] == 2
        assert trace["otherData"]["n_ops"] == 3  # linear, relu, linear

    def test_span_and_op_tracks_share_the_clock(self, tmp_path):
        trace = chrome_trace(_record_run(tmp_path))
        events = trace["traceEvents"]
        forward = next(
            e for e in events if e.get("cat") == "span" and e["name"] == "forward"
        )
        ops = [e for e in events if e.get("cat") == "op"]
        assert ops
        lo, hi = forward["ts"], forward["ts"] + forward["dur"]
        assert all(lo <= op["ts"] <= hi for op in ops)

    def test_write_chrome_trace_emits_loadable_json(self, tmp_path):
        out = write_chrome_trace(_record_run(tmp_path), tmp_path / "trace.json")
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"

    def test_include_ops_false_drops_the_op_track(self, tmp_path):
        trace = chrome_trace(_record_run(tmp_path), include_ops=False)
        assert trace["otherData"]["n_ops"] == 0
        assert all(e.get("cat") != "op" for e in trace["traceEvents"])

    def test_cli_obs_trace(self, tmp_path, capsys):
        from repro.cli import main

        run_path = _record_run(tmp_path)
        out = tmp_path / "t.json"
        assert main(["obs", "trace", str(run_path), "-o", str(out)]) == 0
        assert "perfetto" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# tolerant JSONL loading
# ----------------------------------------------------------------------
class TestTolerantJsonl:
    def test_load_run_skips_corrupt_lines_with_warning(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            json.dumps({"ts": 0.0, "kind": "manifest", "model": "m"}),
            '{"ts": 1.0, "kind": "epoch", "train_l',  # truncated mid-write
            "[1, 2, 3]",  # parses, but not an object
            json.dumps({"ts": 2.0, "kind": "epoch", "epoch": 0, "train_loss": 1.0}),
            "not json at all",
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run = load_run(path)
        assert run.skipped_lines == 3
        assert len(run.epochs) == 1
        assert run.manifest["model"] == "m"
        assert "skipped 3 malformed line(s)" in render_report(run)

    def test_load_jsonl_counts_and_keeps_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\nbroken\n{"a": 2}\n', encoding="utf-8")
        records, skipped = load_jsonl(path)
        assert [r["a"] for r in records] == [1, 2]
        assert skipped == 1

    def test_clean_file_reports_zero_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"kind": "epoch", "epoch": 0}\n', encoding="utf-8")
        assert load_run(path).skipped_lines == 0
