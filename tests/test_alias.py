"""Ownership sanitizer gate: seeded aliasing bugs must be caught, named,
and attributed — and the clean inference paths must stay clean.

Each test plants one deliberate violation of the arena/plan-cache
ownership contracts (the "seeded mutations" of the aliasing PR) and
asserts the :mod:`repro.analysis.alias` guard reports it with the right
rule id, arena tag / plan key, and op attribution.  The interplay tests
then run the real ``predict`` / ``predict_with_uncertainty`` paths under
the strict guard to prove the shipped kernels honour the contracts the
seeded bugs break.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.alias import (
    RULE_ARENA_TAPED,
    RULE_PLAN_WRITE,
    RULE_USE_AFTER_RELEASE,
    AliasError,
    AliasSanitizer,
    alias_guard,
)
from repro.analysis.sanitizer import TensorSanitizerError, sanitize
from repro.tensor import Tensor, get_arena, inference_mode, plan_cache
from repro.tensor import tensor as tensor_mod
from repro.tensor.arena import BufferArena
from repro.tensor.cache import PlanCache
from repro.training import PROFILES

pytestmark = pytest.mark.alias


def _smoke_settings():
    return replace(PROFILES["tiny"], input_len=24, label_len=12, batch_size=8, n_points=400)


def _conformer_and_batch(seed: int = 0):
    from repro.perf.bench_inference import _model_and_batch

    return _model_and_batch("conformer", _smoke_settings(), seed=seed)


def _fresh_pair():
    """Private arena + cache so tests never pollute the process-wide ones.

    Every arena and cache reports to the engine's one observer slot, so
    the guard sees these as it sees the process-wide pair."""
    return BufferArena(), PlanCache()


# ----------------------------------------------------------------------
# seeded mutation #1: use-after-release
# ----------------------------------------------------------------------
class TestUseAfterRelease:
    def test_released_buffer_in_op_is_reported(self):
        arena, _ = _fresh_pair()
        with pytest.raises(AliasError) as exc_info:
            with alias_guard():
                buf = arena.get("test.uar", (4, 4), np.float64)
                buf[:] = 1.0
                arena.release("test.")
                # stale handle flows back through the engine
                Tensor(buf) + Tensor(np.ones((4, 4)))
        finding = exc_info.value.finding
        assert finding.rule_id == RULE_USE_AFTER_RELEASE
        assert finding.detail["arena_tag"] == "test.uar"
        assert finding.op == "add"

    def test_view_of_released_buffer_is_reported(self):
        arena, _ = _fresh_pair()
        with pytest.raises(AliasError) as exc_info:
            with alias_guard():
                buf = arena.get("test.view", (4, 4), np.float64)
                buf[:] = 1.0
                view = buf[1:, :]  # .base chain leads to the tracked buffer
                arena.release("test.")
                Tensor(view).relu()
        assert exc_info.value.finding.rule_id == RULE_USE_AFTER_RELEASE

    def test_release_poisons_float_buffers(self):
        arena, _ = _fresh_pair()
        with alias_guard():
            buf = arena.get("test.poison", (8,), np.float64)
            buf[:] = 3.0
            arena.release("test.")
            assert np.isnan(buf).all(), "released buffer must be NaN-poisoned"

    def test_checkout_after_release_is_clean(self):
        """Re-checking out a released slot is the designed reuse, not a bug."""
        arena, _ = _fresh_pair()
        with alias_guard() as guard:
            first = arena.get("test.reuse", (4,), np.float64)
            arena.release("test.")
            again = arena.get("test.reuse", (4,), np.float64)
            assert again is first
            again[:] = 2.0
            Tensor(again) * Tensor(np.ones(4))
        assert not guard.findings

    def test_release_without_guard_is_free_and_silent(self):
        arena, _ = _fresh_pair()
        buf = arena.get("test.off", (4,), np.float64)
        buf[:] = 5.0
        assert arena.release("test.") == 0
        assert (buf == 5.0).all(), "no poison without a guard"


# ----------------------------------------------------------------------
# seeded mutation #2: in-place write to a cached plan
# ----------------------------------------------------------------------
class TestPlanWriteTrap:
    def test_plans_are_frozen_at_insertion(self):
        _, cache = _fresh_pair()
        mask = cache.get(("mask", 8), lambda: np.triu(np.ones((8, 8))))
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 7.0

    def test_nested_plan_arrays_are_frozen(self):
        _, cache = _fresh_pair()
        plan = cache.get(
            ("pair", 4),
            lambda: {"idx": np.arange(4), "w": [np.ones(4), np.zeros(4)]},
        )
        for array in (plan["idx"], *plan["w"]):
            assert not array.flags.writeable

    def test_rearmed_write_is_caught_on_access(self):
        _, cache = _fresh_pair()
        with pytest.raises(AliasError) as exc_info:
            with alias_guard():
                mask = cache.get(("mask", 4), lambda: np.ones((4, 4)))
                mask.setflags(write=True)  # the seeded bug: dodge the freeze
                mask[0, 0] = 99.0
                cache.get(("mask", 4), lambda: np.ones((4, 4)))  # re-access
        finding = exc_info.value.finding
        assert finding.rule_id == RULE_PLAN_WRITE
        assert "('mask', 4)" in finding.detail["plan_key"]

    def test_mutation_after_last_access_is_caught_at_guard_exit(self):
        _, cache = _fresh_pair()
        with alias_guard(raise_on_error=False) as guard:
            table = cache.get(("tbl", 2), lambda: np.zeros(2))
            table.setflags(write=True)
            table[0] = 1.0  # never accessed again inside the block
        assert [f.rule_id for f in guard.findings] == [RULE_PLAN_WRITE]
        assert "at guard exit" in guard.findings[0].message

    def test_rearming_writeable_alone_is_reported(self):
        _, cache = _fresh_pair()
        with alias_guard(raise_on_error=False) as guard:
            mask = cache.get(("flag", 3), lambda: np.ones(3))
            mask.setflags(write=True)  # re-armed but not (yet) written
            cache.get(("flag", 3), lambda: np.ones(3))
        assert any(
            f.rule_id == RULE_PLAN_WRITE and "re-armed" in f.message
            for f in guard.findings
        )

    def test_evicted_plans_are_untracked(self):
        _, cache = _fresh_pair()
        with alias_guard(raise_on_error=False) as guard:
            doomed = cache.get(("gone", 1), lambda: np.ones(1))
            cache.invalidate()
            doomed.setflags(write=True)
            doomed[0] = -1.0  # mutating an evicted plan is not a violation
        assert not guard.findings


# ----------------------------------------------------------------------
# seeded mutation #3: arena buffer pinned by the tape
# ----------------------------------------------------------------------
class TestTapePinning:
    def test_taped_op_on_live_arena_buffer_is_reported(self):
        arena, _ = _fresh_pair()
        with pytest.raises(AliasError) as exc_info:
            with alias_guard():
                buf = arena.get("test.taped", (4,), np.float64)
                buf[:] = 1.0
                weight = Tensor(np.ones(4), requires_grad=True)
                Tensor(buf) * weight  # backward() would re-read the slot
        finding = exc_info.value.finding
        assert finding.rule_id == RULE_ARENA_TAPED
        assert finding.detail["arena_tag"] == "test.taped"

    def test_untaped_use_of_live_buffer_is_clean(self):
        arena, _ = _fresh_pair()
        with alias_guard() as guard:
            buf = arena.get("test.ok", (4,), np.float64)
            buf[:] = 1.0
            with inference_mode():
                Tensor(buf) * Tensor(np.ones(4))
        assert not guard.findings


# ----------------------------------------------------------------------
# reporting, layering, hygiene
# ----------------------------------------------------------------------
class _EventLogger:
    def __init__(self):
        self.events = []

    def anomaly(self, kind, **fields):
        self.events.append((kind, fields))


class TestReportingAndLayering:
    def test_findings_mirror_as_obs_anomalies(self):
        arena, _ = _fresh_pair()
        logger = _EventLogger()
        with alias_guard(logger=logger, raise_on_error=False):
            buf = arena.get("test.obs", (2,), np.float64)
            arena.release("test.")
            Tensor(buf).relu()
        kinds = [kind for kind, _ in logger.events]
        assert "alias_use_after_release" in kinds
        _, fields = logger.events[0]
        assert fields["rule_id"] == RULE_USE_AFTER_RELEASE
        assert fields["op"] == "relu"
        assert fields["arena_tag"] == "test.obs"

    def test_sanitize_alias_layers_over_numeric_checks(self):
        """``sanitize(alias=True)`` runs both sanitizers: numeric findings
        still raise with the alias guard sharing the observer slot."""
        with pytest.raises(TensorSanitizerError), np.errstate(divide="ignore"):
            with sanitize(alias=True) as sanitizer:
                # one slot, both sanitizers: the alias guard hears events first
                assert tensor_mod._OBSERVER.observers == (sanitizer.alias, sanitizer)
                assert isinstance(sanitizer.alias, AliasSanitizer)
                Tensor(np.array([1.0, 0.0])) / Tensor(np.array([0.0, 1.0]))

    def test_sanitize_alias_catches_ownership_bugs_too(self):
        arena = get_arena()
        with pytest.raises(AliasError):
            with sanitize(alias=True):
                buf = arena.get("test.layered", (2,), np.float64)
                buf[:] = 1.0
                arena.release("test.layered")
                Tensor(buf) + Tensor(np.ones(2))
        arena.clear()

    def test_guard_restores_all_hooks(self):
        assert tensor_mod._OBSERVER is None
        with alias_guard() as guard:
            assert tensor_mod._OBSERVER is guard
        assert tensor_mod._OBSERVER is None
        with pytest.raises(ValueError):
            with alias_guard():
                raise ValueError("body failed")
        assert tensor_mod._OBSERVER is None

    def test_collect_mode_summary(self):
        arena, _ = _fresh_pair()
        with alias_guard(raise_on_error=False) as guard:
            buf = arena.get("test.sum", (2,), np.float64)
            arena.release("test.")
            Tensor(buf).relu()
        assert "1 finding(s)" in guard.summary()
        assert RULE_USE_AFTER_RELEASE in guard.summary()

    def test_clean_summary(self):
        with alias_guard() as guard:
            Tensor(np.ones(3)).sum()
        assert "clean" in guard.summary()


# ----------------------------------------------------------------------
# arena stats: dtype re-keys are not cold misses
# ----------------------------------------------------------------------
class TestArenaDtypeCollisions:
    def test_dtype_rekey_counts_as_collision_not_miss(self):
        arena = BufferArena()
        arena.get("t.a", (4,), np.float64)
        stats = arena.stats()
        assert (stats["misses"], stats["dtype_collisions"]) == (1, 0)
        arena.get("t.a", (4,), np.float32)  # compute-dtype flip, same geometry
        stats = arena.stats()
        assert (stats["misses"], stats["dtype_collisions"]) == (1, 1)
        arena.get("t.a", (8,), np.float32)  # new geometry: true cold miss
        stats = arena.stats()
        assert (stats["misses"], stats["dtype_collisions"]) == (2, 1)

    def test_hits_unaffected_by_collision_accounting(self):
        arena = BufferArena()
        arena.get("t.b", (4,), np.float64)
        arena.get("t.b", (4,), np.float64)
        arena.get("t.b", (4,), np.float32)
        arena.get("t.b", (4,), np.float32)
        stats = arena.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["dtype_collisions"] == 1

    def test_stats_flow_into_obs_gauges(self):
        from repro.obs import RunLogger

        class _Sink:
            enabled = True

            def emit(self, payload):
                pass

            def close(self):
                pass

        logger = RunLogger(sinks=[_Sink()])
        logger.record_cache_stats()
        snapshot = logger.metrics.snapshot()
        assert "arena.dtype_collisions" in snapshot, (
            "arena dtype_collisions must surface as an obs gauge"
        )


# ----------------------------------------------------------------------
# interplay with the inference fast path
# ----------------------------------------------------------------------
@pytest.mark.inference
class TestInferenceInterplay:
    def test_predict_is_clean_under_strict_guard(self):
        model, batch = _conformer_and_batch(seed=3)
        x_enc, x_mark, x_dec, y_mark, _ = batch
        with alias_guard() as guard:
            y = model.predict(x_enc, x_mark, x_dec, y_mark)
        assert not guard.findings
        assert np.isfinite(y).all(), "poisoned scratch leaked into the forecast"
        get_arena().clear()

    def test_mc_draws_reuse_arena_cleanly_under_guard(self):
        """predict_with_uncertainty checks out the same (poisoned-on-release)
        slots on every call — the forward's scan scratch and the one
        Monte-Carlo sample buffer that the tiled flow pass fills — and
        must fully overwrite them: any read-before-write would surface as
        NaN in the forecast, any stale handle as an AliasError."""
        model, batch = _conformer_and_batch(seed=4)
        x_enc, x_mark, x_dec, y_mark, _ = batch
        get_arena().clear()
        with alias_guard() as guard:
            arena = get_arena()
            first = model.predict_with_uncertainty(x_enc, x_mark, x_dec, y_mark, n_samples=3)
            hits_first = arena.stats()["hits"]
            second = model.predict_with_uncertainty(x_enc, x_mark, x_dec, y_mark, n_samples=3)
            assert arena.stats()["hits"] > hits_first, "second call must reuse slots"
        assert not guard.findings
        for result in (first, second):
            assert np.isfinite(result["mean"]).all()
            assert np.isfinite(result["samples"]).all()
        get_arena().clear()

    def test_seeded_leak_across_inference_exit_is_caught(self):
        """The bug the guard exists for: a kernel 'saves' scratch across
        the inference_mode() boundary (which releases the whole arena)."""
        arena = get_arena()
        with pytest.raises(AliasError) as exc_info:
            with alias_guard():
                with inference_mode():
                    leaked = arena.get("test.leak", (4,), np.float64)
                    leaked[:] = 1.0
                # outermost exit released every slot, poisoning `leaked`
                Tensor(leaked) + Tensor(np.ones(4))
        assert exc_info.value.finding.rule_id == RULE_USE_AFTER_RELEASE
        assert exc_info.value.finding.detail["arena_tag"] == "test.leak"
        arena.clear()
