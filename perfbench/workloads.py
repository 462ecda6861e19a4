"""The three workloads: train, predict and serve.

Each drives repro only through public calls and runs in *rounds*: a
fixed group of operations that is the same in every round, so every run
attempts whole rounds.  ``setup`` builds everything before the first
timed round and returns its phase times; ``round`` runs one round and
returns the latency of each operation in it.  Output checks never run
inside a timed round: ``verify`` checks the last round's outputs between
rounds and then drops them, so memory does not grow with run length, and
``check`` runs the remaining checks after the timed loop.  Both return
the failed checks (empty when correct).
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

import numpy as np

#: forecast horizon of every workload
PRED_LEN = 12


@dataclass
class RoundResult:
    latencies: List[float]
    work: int
    failed: int = 0


class Workload:
    """What the round loop calls."""

    #: the Conformer whose encoder and decoder input representations the
    #: traced run tells apart (None: no Conformer in this workload)
    model = None

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def round(self) -> RoundResult:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Monotonic program counters the traced run reports deltas of."""
        return {}

    def verify(self) -> List[str]:
        return []

    def check(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


def canonical_settings():
    """Tiny widths, input 64, label 32, batch 16, 1200-point series."""
    from repro.training import PROFILES

    return replace(PROFILES["tiny"], input_len=64, label_len=32, batch_size=16, n_points=1200)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class _Phases:
    """Wall time of the named set-up phases, in seconds."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class StepTimedLoader:
    """A train loader that times each step: from handing a batch to the
    trainer until the trainer asks for the next one."""

    def __init__(self, loader) -> None:
        self.loader = loader
        self.rng = loader.rng  # the trainer checkpoints the shuffle stream
        self.steps: List[float] = []

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        for batch in self.loader:
            start = time.perf_counter()
            yield batch
            self.steps.append(time.perf_counter() - start)


class TrainWorkload(Workload):
    """One round is one ``Trainer.fit`` epoch: 4 steps of 16 windows,
    validation, and a checkpoint save.  An operation is a step."""


    def __init__(self, seed: int, out_dir: Path, tracer=None) -> None:
        self.seed = seed
        self.ckpt_dir = out_dir / "train-ckpt"
        self.skipped_steps = 0
        self.epoch_losses: List[float] = []

    def setup(self) -> Dict[str, float]:
        from repro.ckpt import CheckpointManager
        from repro.data import load_dataset
        from repro.tensor.random import seed_everything
        from repro.training import Trainer, build_model, make_loaders

        phases = _Phases()
        settings = canonical_settings()
        seed_everything(self.seed)
        dataset = load_dataset("etth1", n_points=settings.n_points, seed=self.seed)
        train, self.val_loader, _ = make_loaders(dataset, settings, PRED_LEN, seed=self.seed)
        self.train_loader = StepTimedLoader(train)
        self.windows_per_epoch = len(train.dataset)
        self.n_dims = dataset.n_dims
        phases.mark("data")
        self.build = lambda: build_model("conformer", self.n_dims, self.n_dims, PRED_LEN, settings, seed=self.seed)
        self.model = self.build()
        self.trainer = Trainer(
            self.model, learning_rate=settings.learning_rate, max_epochs=1, patience=settings.patience
        )
        self.manager = CheckpointManager(_fresh_dir(self.ckpt_dir), keep_last=1)
        phases.mark("build")
        self.round()
        self.train_loader.steps.clear()
        phases.mark("warm")
        return phases.seconds

    def round(self) -> RoundResult:
        done = len(self.train_loader.steps)
        history = self.trainer.fit(self.train_loader, self.val_loader, checkpoint=self.manager)
        self.skipped_steps += history.skipped_steps
        self.epoch_losses.extend(history.train_loss)
        return RoundResult(self.train_loader.steps[done:], self.windows_per_epoch, history.skipped_steps)

    def check(self) -> List[str]:
        from repro.optim import clip_grad_norm, global_grad_norm
        from repro.tensor import Tensor

        failures = []
        if self.skipped_steps:
            failures.append(f"train: {self.skipped_steps} steps skipped for a non-finite loss or gradient")
        if not all(math.isfinite(v) for v in self.epoch_losses):
            failures.append("train: non-finite epoch loss")

        # the last checkpoint restores the trained model bit for bit
        x_enc, x_mark, x_dec, y_mark, y = next(iter(self.val_loader))
        batch = (Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
        restored = self.build()
        restored.load_state_dict(self.manager.load_latest().state["model"])
        forecasts = []
        for model in (self.model, restored):
            model.eval()
            forecasts.append(model.point_forecast(model(*batch, deterministic=True)))
        if not np.array_equal(forecasts[0], forecasts[1]):
            failures.append("train: model restored from the last checkpoint forecasts differently")

        # one clipped step: the clipped norm is within the bound, and the
        # parameter update is Adam's, recomputed here in plain numpy
        model, optimizer = self.model, self.trainer.optimizer
        model.train()
        loss = model.compute_loss(model(*batch), Tensor(y))
        optimizer.zero_grad()
        loss.backward()
        params = model.parameters()
        bound = 0.5 * global_grad_norm(params)
        clip_grad_norm(params, bound)
        clipped = global_grad_norm(params)
        if not clipped <= bound * (1 + 1e-9):
            failures.append(f"train: clipped gradient norm {clipped} exceeds the bound {bound}")
        state = optimizer.state_dict()
        before = [(p.data.copy(), None if p.grad is None else p.grad.copy()) for p in params]
        optimizer.step()
        step = state["step"] + 1
        beta1, beta2, eps, lr = state["beta1"], state["beta2"], state["eps"], state["lr"]
        for index, (p, (data, grad)) in enumerate(zip(params, before)):
            if grad is None:
                expected = data
            else:
                m = beta1 * state["m"][index] + (1 - beta1) * grad
                v = beta2 * state["v"][index] + (1 - beta2) * grad**2
                m_hat, v_hat = m / (1 - beta1**step), v / (1 - beta2**step)
                expected = data - lr * m_hat / (np.sqrt(v_hat) + eps)
            if not np.allclose(p.data, expected, rtol=1e-10, atol=1e-14):
                failures.append(f"train: parameter {index} after optimizer.step is not the Adam update")
                break
        return failures


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------
class PredictWorkload(Workload):
    """One round is 4 ``predict_with_uncertainty`` calls (50 flow samples,
    four quantiles) on consecutive batches of 16 rolling test windows,
    float32.  An operation is one call."""

    calls_per_round = 4
    n_samples = 50
    quantiles = (0.05, 0.25, 0.75, 0.95)
    #: float32 fast path against the float64 unfused forward
    f32_tolerance = 1e-4
    #: a window forecast alone against its row in a batch
    row_tolerance = 1e-5

    def __init__(self, seed: int, out_dir: Path, tracer=None) -> None:
        self.seed = seed
        self.bands: List[List[np.ndarray]] = []
        self._next = 0

    def setup(self) -> Dict[str, float]:
        from repro.data import DataLoader, WindowedDataset, load_dataset
        from repro.tensor import tape_node_count
        from repro.tensor.random import seed_everything
        from repro.training import build_model

        phases = _Phases()
        settings = canonical_settings()
        seed_everything(self.seed)
        dataset = load_dataset("etth1", n_points=settings.n_points, seed=self.seed)
        values, stamps = dataset.split("test")
        windows = WindowedDataset(
            values, dataset.marks(stamps), settings.input_len, PRED_LEN, label_len=settings.label_len
        )
        loader = DataLoader(windows, batch_size=settings.batch_size, drop_last=True)
        self.batches64 = [batch[:4] for batch in loader]
        self.batches = [tuple(x.astype(np.float32) for x in batch) for batch in self.batches64]
        self.windows_per_call = settings.batch_size
        phases.mark("data")
        build = lambda: build_model("conformer", dataset.n_dims, dataset.n_dims, PRED_LEN, settings, seed=self.seed)
        self.model64 = build().eval()
        self.model = build().eval().to_dtype(np.float32)
        phases.mark("build")
        self.round()
        self.bands.clear()
        self.tape_nodes = tape_node_count()
        phases.mark("warm")
        return phases.seconds

    def round(self) -> RoundResult:
        from repro.tensor import compute_dtype

        latencies = []
        for _ in range(self.calls_per_round):
            batch = self.batches[self._next % len(self.batches)]
            self._next += 1
            start = time.perf_counter()
            with compute_dtype(np.float32):
                result = self.model.predict_with_uncertainty(
                    *batch, n_samples=self.n_samples, quantiles=self.quantiles
                )
            latencies.append(time.perf_counter() - start)
            self.bands.append([result[f"q{q}"] for q in self.quantiles])
        return RoundResult(latencies, self.calls_per_round * self.windows_per_call)

    def verify(self) -> List[str]:
        """Quantile bands are finite and ordered element-wise."""
        failures = []
        for bands in self.bands:
            if not all(np.isfinite(band).all() for band in bands):
                failures.append("predict: non-finite quantile")
            elif not all((lo <= hi).all() for lo, hi in zip(bands, bands[1:])):
                failures.append("predict: quantiles out of order")
        self.bands.clear()
        return failures

    def check(self) -> List[str]:
        from repro.tensor import compute_dtype, fused_ops, tape_node_count

        failures = []
        if tape_node_count() != self.tape_nodes:
            failures.append(f"predict: {tape_node_count() - self.tape_nodes} tape nodes recorded by forecasts")

        batch32, batch64 = self.batches[0], self.batches64[0]
        with compute_dtype(np.float32):
            point32 = self.model.predict(*batch32)
            alone = [self.model.predict(*(x[i : i + 1] for x in batch32))[0] for i in range(len(batch32[0]))]
        with fused_ops(False):
            point64 = self.model64.predict(*batch64)
        gap = float(np.abs(point32 - point64).max())
        if not gap <= self.f32_tolerance:
            failures.append(f"predict: float32 fast path is {gap:.3g} from the float64 unfused forward")
        if not np.allclose(np.stack(alone), point32, rtol=self.row_tolerance, atol=self.row_tolerance):
            failures.append("predict: a window forecast alone differs from its row in the batch")
        return failures


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclass
class Request:
    rid: int
    series: str
    length: int
    version: str
    expect_hit: bool
    start: float = 0.0
    future: object = None
    end: float = 0.0
    resolved: int = 0

    def done(self, _future) -> None:
        self.end = time.perf_counter()
        self.resolved += 1


@dataclass
class ServeSchedule:
    n_series: int = 64
    n_dims: int = 2
    history: int = 128
    burst: int = 16
    bursts_per_round: int = 8
    ingests_per_burst: int = 32
    workers: int = 2
    max_batch: int = 8
    max_delay: float = 0.002


class ServeWorkload(Workload):
    """One round is a ``hot_swap`` from a checkpoint, then 8 bursts of 16
    requests for distinct series, each burst followed by 32 ``ingest``
    writes.  One closed-loop client waits for every burst.  An operation
    is one request.

    The client predicts every cache hit from its own schedule: a request
    hits when its series was answered in an earlier burst of the round
    and has had no ``ingest`` since (the round's swap empties the cache).
    About a sixth of the answers are hits, far from one half, so the
    median latency stays in the miss population.
    """


    def __init__(self, seed: int, out_dir: Path, tracer=None) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.plan = ServeSchedule()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.round_requests: List[Request] = []
        self._next_rid = 0
        self.requests = 0
        self.expected_hits = 0
        self._rounds = 0

    def setup(self) -> Dict[str, float]:
        from repro.ckpt import CheckpointManager
        from repro.serve import ForecastServer, ModelRegistry, SeriesStore, ServingSpec
        from repro.training import build_model

        plan = self.plan
        phases = _Phases()
        settings = canonical_settings()
        self.series_ids = [f"series-{i:03d}" for i in range(plan.n_series)]
        #: the client's own copy of every series, to rebuild past windows
        self.values = {
            sid: np.cumsum(self.rng.normal(scale=0.1, size=(plan.history, plan.n_dims)), axis=0)
            for sid in self.series_ids
        }
        store = SeriesStore(n_dims=plan.n_dims)
        for sid in self.series_ids:
            store.ingest(sid, self.values[sid])
        phases.mark("data")
        self.spec = ServingSpec(
            input_len=settings.input_len, label_len=settings.label_len, pred_len=PRED_LEN, n_dims=plan.n_dims
        )
        gru = lambda seed: build_model("gru", plan.n_dims, plan.n_dims, PRED_LEN, settings, seed=seed)
        self.ckpt_dirs = []
        for k in range(2):
            directory = _fresh_dir(self.out_dir / f"serve-ckpt-{k}")
            CheckpointManager(directory).save({"model": gru(self.seed + 1 + k).state_dict()}, epoch=0, step=0)
            self.ckpt_dirs.append(str(directory))
        registry = ModelRegistry(lambda: gru(self.seed), self.spec, dtype=np.float32)
        self.active = registry.publish("v0", gru(self.seed))
        self.server = ForecastServer(
            registry, store, n_workers=plan.workers, max_batch=plan.max_batch,
            max_delay=plan.max_delay, cache_capacity=1024,
        )
        phases.mark("build")
        self.round()
        self.round_requests.clear()
        self.requests = self.expected_hits = 0
        self.cache_base = (self.server.cache.hits, self.server.cache.misses)
        phases.mark("warm")
        return phases.seconds

    def round(self) -> RoundResult:
        plan, server = self.plan, self.server
        tracer = self.tracer if self.tracer is not None and self.tracer.installed else None
        self._rounds += 1
        retired = self.active.version
        self.active = server.hot_swap(f"v{self._rounds}", checkpoint_dir=self.ckpt_dirs[self._rounds % 2])
        server.registry.retire(retired)
        answered: Dict[str, int] = {}
        served: List[Request] = []
        for _ in range(plan.bursts_per_round):
            burst = []
            for index in self.rng.choice(plan.n_series, size=plan.burst, replace=False):
                sid = self.series_ids[index]
                length = len(self.values[sid])
                request = Request(self._next_rid, sid, length, self.active.version, answered.get(sid) == length)
                self._next_rid += 1
                if tracer is not None:
                    tracer.set_request_ids((request.rid,))
                request.start = time.perf_counter()
                request.future = server.submit(sid)
                request.future.add_done_callback(request.done)
                burst.append(request)
            for request in burst:
                request.future.result(timeout=60)
                answered[request.series] = request.length
            served.extend(burst)
            for index in self.rng.choice(plan.n_series, size=plan.ingests_per_burst, replace=False):
                sid = self.series_ids[index]
                block = self.values[sid][-1] + np.cumsum(
                    self.rng.normal(scale=0.1, size=(1 + int(index) % 3, plan.n_dims)), axis=0
                )
                self.values[sid] = np.concatenate([self.values[sid], block])
                server.ingest(sid, block)
                answered.pop(sid, None)
        if tracer is not None:
            tracer.set_request_ids(None)
            for request in served:
                tracer.span("serve.request", request.start, request.end, (request.rid,))
        self.round_requests = served
        self.requests += len(served)
        self.expected_hits += sum(r.expect_hit for r in served)
        failed = sum(1 for r in served if not r.future.result().ok)
        return RoundResult([r.end - r.start for r in served], len(served), failed)

    def counters(self) -> Dict[str, float]:
        return {"cache_hits": self.server.cache.hits, "cache_misses": self.server.cache.misses}

    def close(self) -> None:
        self.server.shutdown()

    def verify(self) -> List[str]:
        """The last round's answers: each resolved once, ok, hit or missed
        the cache as the schedule says, from the active version, and equal
        bit for bit to that version's forecast of the window the store
        held when the request was sent."""
        from repro.serve import SeriesStore

        requests, self.round_requests = self.round_requests, []
        responses = [r.future.result() for r in requests]
        counts = {
            "did not resolve exactly once": sum(r.resolved != 1 for r in requests),
            "failed": sum(not resp.ok for resp in responses),
            "hit or missed the cache against the schedule": sum(
                resp.cached != r.expect_hit for r, resp in zip(requests, responses)
            ),
            "came from another version than the active one": sum(
                resp.model_version != r.version for r, resp in zip(requests, responses)
            ),
        }
        spec, pad = self.spec, self.plan.max_batch
        keys = sorted({(r.series, r.length) for r in requests})
        expected: Dict[tuple, np.ndarray] = {}
        for start in range(0, len(keys), pad):
            group = keys[start : start + pad]
            windows = []
            for sid, length in group:
                store = SeriesStore(n_dims=self.plan.n_dims)
                store.ingest(sid, self.values[sid][:length])
                windows.append(store.window(sid, spec.input_len, spec.label_len, spec.pred_len))
            fields = ("x_enc", "x_mark", "x_dec", "y_mark")
            out = self.active.forecast_batch(
                *(np.stack([getattr(w, f) for w in windows]) for f in fields), pad_to=pad
            )
            expected.update(zip(group, out))
        counts["differ from the active version's forecast"] = sum(
            1 for r, resp in zip(requests, responses)
            if resp.ok and not np.array_equal(resp.forecast, expected[(r.series, r.length)])
        )
        return [f"serve: {n} of {len(requests)} answers {what}" for what, n in counts.items() if n]

    def check(self) -> List[str]:
        """The cache's own counters match the hits the schedule implies."""
        hits = self.server.cache.hits - self.cache_base[0]
        misses = self.server.cache.misses - self.cache_base[1]
        if (hits, misses) != (self.expected_hits, self.requests - self.expected_hits):
            return [
                f"serve: cache counted {hits} hits / {misses} misses, "
                f"the schedule implies {self.expected_hits} / {self.requests - self.expected_hits}"
            ]
        return []


WORKLOADS = {"train": TrainWorkload, "predict": PredictWorkload, "serve": ServeWorkload}
