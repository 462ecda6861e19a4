"""Deterministic unit tests for the serving runtime.

Every timing-sensitive behaviour is driven through a
:class:`repro.serve.ManualClock` — the batcher's size/time triggers,
deadline expiry, and cache timing are all pure functions of the injected
clock, so there is not a single wall-clock sleep in this file.  Where
worker threads are involved, synchronization is via futures and the
size trigger (a ManualClock never advances, so the time trigger can
never race a test's expected batch shape).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import CheckpointManager
from repro.serve import (
    ForecastCache,
    ForecastServer,
    ManualClock,
    MicroBatcher,
    ModelRegistry,
    PendingRequest,
    SeriesStore,
    ServingSpec,
    cyclic_marks,
)
from repro.training.experiment import ExperimentSettings, build_model

pytestmark = pytest.mark.serving

SETTINGS = ExperimentSettings(input_len=16, label_len=8)
PRED_LEN = 4
N_DIMS = 2


def make_spec() -> ServingSpec:
    return ServingSpec(
        input_len=SETTINGS.input_len,
        label_len=SETTINGS.label_len,
        pred_len=PRED_LEN,
        n_dims=N_DIMS,
    )


def model_factory(seed: int = 0):
    return build_model("gru", N_DIMS, N_DIMS, PRED_LEN, SETTINGS, seed=seed)


def make_registry(dtype=np.float64) -> ModelRegistry:
    registry = ModelRegistry(model_factory, make_spec(), dtype=dtype)
    registry.publish("v1", model_factory())
    return registry


def make_store(n_series: int = 2, n_points: int = 48, seed: int = 0) -> SeriesStore:
    store = SeriesStore(n_dims=N_DIMS)
    rng = np.random.default_rng(seed)
    for i in range(n_series):
        store.ingest(f"s{i}", rng.normal(size=(n_points, N_DIMS)))
    return store


def request(series_id: str = "s0", now: float = 0.0, deadline=None) -> PendingRequest:
    return PendingRequest(series_id=series_id, horizon=PRED_LEN, enqueued_at=now, deadline=deadline)


# ----------------------------------------------------------------------
# micro-batcher (pure clock-driven logic, no threads)
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_size_trigger_fires_immediately(self):
        clock = ManualClock()
        batcher = MicroBatcher(clock, max_batch=3, max_delay=10.0)
        for _ in range(3):
            assert batcher.add(request(now=clock.now()))
        work = batcher.poll()
        assert len(work.batch) == 3 and not work.expired
        assert batcher.depth() == 0
        assert batcher.stats()["batches_formed"] == 1
        assert batcher.stats()["coalesced"] == 3

    def test_time_trigger_fires_after_max_delay(self):
        clock = ManualClock()
        batcher = MicroBatcher(clock, max_batch=8, max_delay=0.5)
        batcher.add(request(now=clock.now()))
        early = batcher.poll()
        assert early.batch == [] and early.wait == pytest.approx(0.5)
        clock.advance(0.25)
        assert batcher.poll().wait == pytest.approx(0.25)
        clock.advance(0.25)
        assert len(batcher.poll().batch) == 1

    def test_batch_is_oldest_first_and_capped(self):
        clock = ManualClock()
        batcher = MicroBatcher(clock, max_batch=3, max_delay=0.1)
        pendings = []
        for i in range(5):
            pending = request(series_id=f"s{i}", now=clock.now())
            pendings.append(pending)
            batcher.add(pending)
        work = batcher.poll()
        assert work.batch == pendings[:3], "oldest three first"
        assert batcher.depth() == 2

    def test_expired_requests_leave_the_batch_path(self):
        clock = ManualClock()
        batcher = MicroBatcher(clock, max_batch=8, max_delay=10.0)
        doomed = request(now=clock.now(), deadline=1.0)
        healthy = request(now=clock.now(), deadline=100.0)
        batcher.add(doomed)
        batcher.add(healthy)
        # the wait is bounded by the soonest deadline, not just max_delay
        assert batcher.poll().wait == pytest.approx(1.0)
        clock.advance(2.0)
        work = batcher.poll()
        assert work.expired == [doomed]
        assert batcher.depth() == 1 and healthy not in work.batch

    def test_closed_batcher_refuses_and_flushes(self):
        clock = ManualClock()
        batcher = MicroBatcher(clock, max_batch=8, max_delay=10.0)
        queued = request(now=clock.now())
        batcher.add(queued)
        batcher.close()
        assert not batcher.add(request(now=clock.now())), "closed refuses new work"
        work = batcher.poll()
        assert work.batch == [queued], "close flushes without waiting out the window"

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(ManualClock(), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(ManualClock(), max_delay=-1.0)
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


# ----------------------------------------------------------------------
# forecast cache
# ----------------------------------------------------------------------
class TestForecastCache:
    def test_lru_eviction_order_respects_recency(self):
        cache = ForecastCache(capacity=2)
        cache.put("v1", "a", 4, np.zeros(4))
        cache.put("v1", "b", 4, np.ones(4))
        assert cache.get("v1", "a", 4) is not None  # refresh "a"
        cache.put("v1", "c", 4, np.full(4, 2.0))  # evicts "b", the LRU
        assert cache.get("v1", "b", 4) is None
        assert cache.get("v1", "a", 4) is not None
        assert cache.get("v1", "c", 4) is not None
        assert cache.stats()["evictions"] == 1

    def test_invalidate_series_drops_every_horizon_and_version(self):
        cache = ForecastCache(capacity=8)
        cache.put("v1", "a", 4, np.zeros(4))
        cache.put("v1", "a", 2, np.zeros(2))
        cache.put("v2", "a", 4, np.zeros(4))
        cache.put("v1", "b", 4, np.zeros(4))
        assert cache.invalidate_series("a") == 3
        assert cache.get("v1", "a", 4) is None
        assert cache.get("v1", "b", 4) is not None

    def test_invalidate_version_drops_only_that_version(self):
        cache = ForecastCache(capacity=8)
        cache.put("v1", "a", 4, np.zeros(4))
        cache.put("v2", "a", 4, np.ones(4))
        assert cache.invalidate_version("v1") == 1
        assert cache.get("v1", "a", 4) is None
        np.testing.assert_array_equal(cache.get("v2", "a", 4), np.ones(4))

    def test_indexes_track_entries_through_every_change(self):
        """The series and version indexes name exactly the cached keys after
        puts, re-puts, LRU evictions, both invalidations and clear."""
        cache = ForecastCache(capacity=6)

        def assert_consistent():
            keys = set(cache._entries)
            for index, field in ((cache._by_series, 1), (cache._by_version, 0)):
                assert all(index.values()), "no empty index buckets"
                indexed = [key for bucket in index.values() for key in bucket]
                assert len(indexed) == len(cache)
                assert set(indexed) == keys
                assert all(key[field] == name for name, bucket in index.items() for key in bucket)

        for version in ("v1", "v2"):
            for series in ("a", "b", "c"):
                cache.put(version, series, 4, np.zeros(4))
                assert_consistent()
        cache.put("v1", "a", 4, np.ones(4))  # re-put refreshes, no new key
        assert_consistent()
        cache.put("v3", "d", 2, np.zeros(2))  # evicts the LRU ("v1", "b", 4)
        assert cache.stats()["evictions"] == 1 and cache.get("v1", "b", 4) is None
        assert_consistent()
        assert cache.invalidate_series("a") == 2
        assert_consistent()
        assert cache.invalidate_series("missing") == 0
        assert cache.invalidate_version("v2") == 2
        assert_consistent()
        assert len(cache) == 2
        assert cache.clear() == 2
        assert_consistent()
        assert len(cache) == 0 and not cache._by_series and not cache._by_version
        assert cache.stats()["invalidations"] == 6

    def test_entries_are_frozen_copies(self):
        cache = ForecastCache(capacity=2)
        source = np.zeros(4)
        stored = cache.put("v1", "a", 4, source)
        source[:] = 99.0
        np.testing.assert_array_equal(cache.get("v1", "a", 4), np.zeros(4))
        with pytest.raises(ValueError):
            stored[0] = 1.0  # read-only view: a client cannot poison the cache

    def test_hit_rate_accounting(self):
        cache = ForecastCache(capacity=4)
        assert cache.get("v1", "a", 4) is None
        cache.put("v1", "a", 4, np.zeros(4))
        assert cache.get("v1", "a", 4) is not None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# series store
# ----------------------------------------------------------------------
class TestSeriesStore:
    def test_window_geometry_and_decoder_seeding(self):
        store = make_store()
        spec = make_spec()
        window = store.window("s0", spec.input_len, spec.label_len, spec.pred_len)
        assert window.x_enc.shape == (spec.input_len, N_DIMS)
        assert window.x_mark.shape == (spec.input_len, 4)
        assert window.x_dec.shape == (spec.label_len + spec.pred_len, N_DIMS)
        assert window.y_mark.shape == (spec.label_len + spec.pred_len, 4)
        np.testing.assert_array_equal(window.x_dec[: spec.label_len], window.x_enc[-spec.label_len :])
        np.testing.assert_array_equal(window.x_dec[spec.label_len :], 0.0)

    def test_marks_are_a_pure_function_of_absolute_index(self):
        store = make_store(n_points=48)
        spec = make_spec()
        length = store.length("s0")
        window = store.window("s0", spec.input_len, spec.label_len, spec.pred_len)
        expected = cyclic_marks()(np.arange(length - spec.input_len, length))
        np.testing.assert_array_equal(window.x_mark, expected)
        assert np.all(np.abs(window.y_mark) <= 0.5)

    def test_ingest_appends_and_windows_advance(self):
        store = make_store(n_points=48)
        spec = make_spec()
        before = store.window("s0", spec.input_len, spec.label_len, spec.pred_len)
        new_point = np.full((1, N_DIMS), 7.0)
        assert store.ingest("s0", new_point) == 49
        after = store.window("s0", spec.input_len, spec.label_len, spec.pred_len)
        np.testing.assert_array_equal(after.x_enc[-1], new_point[0])
        np.testing.assert_array_equal(after.x_enc[:-1], before.x_enc[1:])

    def test_errors(self):
        store = make_store(n_points=8)
        with pytest.raises(KeyError):
            store.window("nope", 16, 8, 4)
        with pytest.raises(ValueError):
            store.window("s0", 16, 8, 4)  # only 8 points ingested
        with pytest.raises(ValueError):
            store.ingest("s0", np.zeros((3, N_DIMS + 1)))


# ----------------------------------------------------------------------
# registry + hot swap
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_activate_current(self):
        registry = make_registry()
        assert registry.current().version == "v1"
        with pytest.raises(ValueError):
            registry.publish("v1", model_factory())
        with pytest.raises(ValueError):
            registry.retire("v1")

    def test_activation_is_atomic_and_notifies(self):
        registry = make_registry()
        swaps = []
        registry.on_swap(lambda old, new: swaps.append((old, new)))
        registry.publish("v2", model_factory(seed=1), activate=False)
        assert registry.current().version == "v1", "cold publish must not swap"
        registry.activate("v2")
        assert registry.current().version == "v2"
        assert swaps == [("v1", "v2")]
        registry.activate("v2")  # re-activating current is a no-op
        assert swaps == [("v1", "v2")] and registry.stats()["swaps"] == 2

    def test_load_restores_checkpoint_weights(self, tmp_path):
        trained = model_factory(seed=3)
        manager = CheckpointManager(tmp_path)
        manager.save({"model": trained.state_dict()}, epoch=0, step=0)
        registry = ModelRegistry(model_factory, make_spec())
        loaded = registry.load("ckpt-v", tmp_path)
        for key, value in trained.state_dict().items():
            np.testing.assert_array_equal(value, loaded.model.state_dict()[key], err_msg=key)

    def test_load_empty_directory_is_an_error(self, tmp_path):
        registry = ModelRegistry(model_factory, make_spec())
        with pytest.raises(FileNotFoundError):
            registry.load("v1", tmp_path / "empty")


# ----------------------------------------------------------------------
# server request paths (ManualClock; threads synchronized by futures)
# ----------------------------------------------------------------------
class TestForecastServer:
    def make_server(self, **kwargs) -> ForecastServer:
        defaults = dict(clock=ManualClock(), batching=False)
        defaults.update(kwargs)
        return ForecastServer(make_registry(), make_store(), **defaults)

    def test_forecast_and_cache_hit(self):
        server = self.make_server()
        first = server.forecast("s0")
        assert first.ok and not first.cached and first.forecast.shape == (PRED_LEN, N_DIMS)
        second = server.forecast("s0")
        assert second.ok and second.cached
        np.testing.assert_array_equal(first.forecast, second.forecast)
        assert server.cache.stats()["hits"] == 1

    def test_horizon_slices_the_forecast(self):
        server = self.make_server()
        full = server.forecast("s0")
        short = server.forecast("s0", horizon=2)
        np.testing.assert_array_equal(short.forecast, full.forecast[:2])

    def test_error_paths_resolve_not_raise(self):
        server = self.make_server()
        assert server.forecast("missing").status == "error"
        assert "missing" in server.forecast("missing").error
        bad = server.forecast("s0", horizon=PRED_LEN + 1)
        assert bad.status == "error" and "horizon" in bad.error
        assert server.errors == 3

    def test_ingest_invalidates_only_that_series(self):
        server = self.make_server()
        server.forecast("s0")
        server.forecast("s1")
        server.ingest("s0", np.zeros((1, N_DIMS)))
        assert not server.forecast("s0").cached, "history changed -> recompute"
        assert server.forecast("s1").cached, "untouched series stays cached"

    def test_hot_swap_serves_new_version_and_invalidates_old(self):
        server = self.make_server()
        old = server.forecast("s0")
        server.hot_swap("v2", model=model_factory(seed=9))
        new = server.forecast("s0")
        assert old.model_version == "v1" and new.model_version == "v2"
        assert not new.cached, "v1's cache entries must not leak into v2"
        assert server.registry.current().version == "v2"

    def test_hot_swap_from_checkpoint_dir(self, tmp_path):
        trained = model_factory(seed=5)
        CheckpointManager(tmp_path).save({"model": trained.state_dict()}, epoch=0, step=0)
        server = self.make_server()
        server.hot_swap("v2", checkpoint_dir=tmp_path)
        assert server.forecast("s0").model_version == "v2"
        with pytest.raises(ValueError):
            server.hot_swap("v3")  # needs exactly one source

    def test_degraded_path_is_flagged(self):
        server = self.make_server()  # batching off: every forward is inline
        response = server.forecast("s0")
        assert response.ok and response.degraded and response.batch_size == 1
        assert server.degraded_requests == 1

    def test_expired_deadline_resolves_timeout(self):
        # batching on so the deadline is judged on the worker side; a
        # timeout of 0 is already expired when the worker polls it
        server = self.make_server(batching=True, max_batch=2)
        response = server.submit("s0", timeout=0.0).result(timeout=10)
        assert response.status == "timeout" and response.error == "deadline exceeded"
        assert server.timeouts == 1
        server.shutdown()

    def test_batched_coalescing_n_requests_one_forward(self):
        server = self.make_server(batching=True, n_workers=1, max_batch=4, cache_enabled=False)
        forwards_before = server.registry.current().forwards
        # a ManualClock never advances, so the time trigger cannot fire:
        # exactly the size trigger forms exactly one batch of 4
        futures = [server.submit("s0") for _ in range(4)]
        responses = [f.result(timeout=10) for f in futures]
        assert all(r.ok and r.batch_size == 4 for r in responses)
        assert server.registry.current().forwards - forwards_before == 1
        for other in responses[1:]:
            np.testing.assert_array_equal(responses[0].forecast, other.forecast)
        server.shutdown()

    def test_shutdown_refuses_new_requests(self):
        server = self.make_server(batching=True, max_batch=1)
        assert server.forecast("s0").ok
        server.shutdown()
        refused = server.forecast("s0")
        assert refused.status == "error" and "shut down" in refused.error

    def test_spec_store_dim_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            ForecastServer(make_registry(), SeriesStore(n_dims=N_DIMS + 1))

    def test_stats_snapshot_is_jsonable(self):
        server = self.make_server()
        server.forecast("s0")
        snapshot = server.stats()
        assert json.dumps(snapshot)  # no numpy leaks
        assert snapshot["requests"] == 1
        assert snapshot["latency"]["count"] == 1
        assert snapshot["cache"]["misses"] >= 1


# ----------------------------------------------------------------------
# bench suite registry + serve-bench CLI
# ----------------------------------------------------------------------
class TestBenchSuiteRegistry:
    def test_all_suites_registered_with_distinct_names(self):
        from repro.perf.suites import available_suites, get_suite

        names = available_suites()
        assert {"autodiff", "inference", "serving"} <= set(names)
        benchmarks = {get_suite(n).benchmark for n in names}
        artifacts = {get_suite(n).artifact for n in names}
        assert len(benchmarks) == len(names), "benchmark keys must be unique for bench diff"
        assert len(artifacts) == len(names)

    def test_serving_suite_names_are_the_single_source_of_truth(self):
        from repro.perf.suites import get_suite
        from repro.serve.bench import BENCH_SERVING_FILENAME

        suite = get_suite("serving")
        assert suite.benchmark == "forecast_serving"
        assert suite.artifact == BENCH_SERVING_FILENAME

    def test_unknown_suite_is_a_value_error(self):
        from repro.perf.suites import get_suite, register_suite

        with pytest.raises(ValueError, match="unknown benchmark suite"):
            get_suite("nope")
        with pytest.raises(ValueError, match="already registered"):
            register_suite(get_suite("serving"))


class TestServeBenchCli:
    def test_smoke_writes_schema_valid_artifact_and_history(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "BENCH_serving.json"
        history = tmp_path / "history.jsonl"
        assert main([
            "serve-bench", "--smoke",
            "--json", str(artifact), "--history", str(history),
        ]) == 0
        out = capsys.readouterr().out
        assert "micro-batching speedup" in out

        result = json.loads(artifact.read_text())
        assert result["benchmark"] == "forecast_serving"
        for key in ("machine", "config", "arms", "throughput_speedup", "cached_speedup"):
            assert key in result, key
        for arm in ("serial", "batched", "cached"):
            row = result["arms"][arm]
            for metric in ("requests_per_sec", "p50_seconds", "p95_seconds", "forwards"):
                assert metric in row, (arm, metric)
        assert result["arms"]["cached"]["cached_responses"] > 0

        from repro.perf.history import load_history

        records, skipped = load_history(history)
        assert skipped == 0 and len(records) == 1
        record = records[0]
        assert record["benchmark"] == "forecast_serving"
        assert "throughput_speedup" in record["metrics"]
        assert "arms.batched.p95_seconds" in record["metrics"]

    def test_bench_suite_flag_reaches_the_same_runner(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "bench", "--suite", "serving", "--smoke",
            "--no-json", "--history", str(tmp_path / "h.jsonl"),
        ]) == 0
        assert "forecast_serving" in capsys.readouterr().out
