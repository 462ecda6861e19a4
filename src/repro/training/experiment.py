"""Experiment runner: dataset x model x horizon, paper-style table rows.

``run_experiment("etth1", "conformer", pred_len=96)`` builds the data
pipeline, instantiates the model from the registry, trains with the
paper's protocol, and returns test MSE/MAE — averaged over seeds the way
the paper averages over 5 runs.

Scale profiles keep the harness CPU-friendly: the default ``tiny``
profile shrinks model width, series length, and window counts while
preserving every architectural ratio; ``REPRO_SCALE=paper`` switches to
paper-shaped settings.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import baselines
from repro.ckpt import CheckpointManager
from repro.core import Conformer, ConformerConfig
from repro.data import DataLoader, WindowedDataset, load_dataset
from repro.data.datasets import TimeSeriesDataset
from repro.obs import RunLogger, run_logger
from repro.tensor.random import seed_everything
from repro.training.trainer import Trainer, TrainingHistory


@dataclass
class ExperimentSettings:
    """Everything that controls the scale of one experiment."""

    input_len: int = 32
    label_len: int = 16
    d_model: int = 16
    n_heads: int = 2
    e_layers: int = 2
    d_layers: int = 1
    d_ff: int = 32
    dropout: float = 0.05
    window: int = 2
    moving_avg: int = 13
    n_flows: int = 2
    lambda_weight: float = 0.8
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 5
    patience: int = 3
    n_points: Optional[int] = 1200  # dataset length override (None = paper size)
    window_stride: int = 8  # training-window stride (1 = paper)
    eval_stride: int = 8
    max_train_windows: int = 64
    max_eval_windows: int = 32
    dataset_kwargs: Dict[str, object] = field(default_factory=dict)

    def scaled_pred_len(self, paper_pred_len: int) -> int:
        """Map a paper horizon (48..768) onto this profile's scale.

        The tiny profile shrinks horizons by 8x (48 -> 6, 768 -> 96) so the
        relative horizon ladder is preserved.
        """
        if self.n_points is None:
            return paper_pred_len
        return max(4, paper_pred_len // 8)


PROFILES: Dict[str, ExperimentSettings] = {
    "tiny": ExperimentSettings(),
    "small": ExperimentSettings(
        input_len=48,
        label_len=24,
        d_model=32,
        n_heads=4,
        d_ff=64,
        n_points=4000,
        max_epochs=4,
        max_train_windows=256,
        max_eval_windows=128,
    ),
    "paper": ExperimentSettings(
        input_len=96,
        label_len=48,
        d_model=512,
        n_heads=8,
        d_ff=2048,
        moving_avg=25,
        learning_rate=1e-4,
        batch_size=32,
        max_epochs=10,
        n_points=None,
        window_stride=1,
        eval_stride=1,
        max_train_windows=10**9,
        max_eval_windows=10**9,
    ),
}


def active_profile() -> ExperimentSettings:
    """Settings selected by the REPRO_SCALE environment variable."""
    name = os.environ.get("REPRO_SCALE", "tiny")
    try:
        return replace(PROFILES[name])
    except KeyError:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(PROFILES)}, got {name!r}") from None


# ----------------------------------------------------------------------
# model registry
# ----------------------------------------------------------------------
def _build_conformer(enc_in: int, c_out: int, pred_len: int, s: ExperimentSettings, seed: int, **overrides):
    kwargs = dict(
        enc_in=enc_in,
        dec_in=enc_in,
        c_out=c_out,
        input_len=s.input_len,
        label_len=s.label_len,
        pred_len=pred_len,
        d_model=s.d_model,
        n_heads=s.n_heads,
        e_layers=s.e_layers,
        d_layers=s.d_layers,
        window=s.window,
        moving_avg=s.moving_avg,
        dropout=s.dropout,
        n_flows=s.n_flows,
        lambda_weight=s.lambda_weight,
        d_time=4,
        seed=seed,
    )
    kwargs.update(overrides)  # ablation switches win over profile defaults
    return Conformer(ConformerConfig(**kwargs))


def _transformer_kwargs(enc_in: int, c_out: int, pred_len: int, s: ExperimentSettings, seed: int) -> dict:
    return dict(
        enc_in=enc_in,
        dec_in=enc_in,
        c_out=c_out,
        pred_len=pred_len,
        d_model=s.d_model,
        n_heads=s.n_heads,
        e_layers=s.e_layers,
        d_layers=s.d_layers,
        d_ff=s.d_ff,
        dropout=s.dropout,
        d_time=4,
        seed=seed,
    )


def _construct(cls, defaults: dict, overrides: dict):
    """Build a model with profile defaults, letting overrides win."""
    kwargs = dict(defaults)
    kwargs.update(overrides)
    return cls(**kwargs)


MODEL_REGISTRY: Dict[str, Callable] = {
    "conformer": _build_conformer,
    "transformer": lambda e, c, p, s, seed, **kw: _construct(
        baselines.VanillaTransformer, _transformer_kwargs(e, c, p, s, seed), kw
    ),
    "informer": lambda e, c, p, s, seed, **kw: _construct(
        baselines.Informer, _transformer_kwargs(e, c, p, s, seed), kw
    ),
    "reformer": lambda e, c, p, s, seed, **kw: _construct(
        baselines.Reformer,
        dict(_transformer_kwargs(e, c, p, s, seed), bucket_length=min(24, s.input_len // 2)),
        kw,
    ),
    "longformer": lambda e, c, p, s, seed, **kw: _construct(
        baselines.Longformer, _transformer_kwargs(e, c, p, s, seed), kw
    ),
    "logtrans": lambda e, c, p, s, seed, **kw: _construct(
        baselines.LogTrans, _transformer_kwargs(e, c, p, s, seed), kw
    ),
    "autoformer": lambda e, c, p, s, seed, **kw: _construct(
        baselines.Autoformer,
        dict(
            enc_in=e, dec_in=e, c_out=c, pred_len=p, d_model=s.d_model, n_heads=s.n_heads,
            e_layers=s.e_layers, d_layers=s.d_layers, d_ff=s.d_ff, moving_avg=s.moving_avg,
            dropout=s.dropout, d_time=4, seed=seed,
        ),
        kw,
    ),
    "gru": lambda e, c, p, s, seed, **kw: _construct(
        baselines.GRUForecaster,
        dict(enc_in=e, c_out=c, pred_len=p, hidden_size=s.d_model, d_time=4, dropout=s.dropout, seed=seed),
        kw,
    ),
    "lstnet": lambda e, c, p, s, seed, **kw: _construct(
        baselines.LSTNet,
        dict(enc_in=e, c_out=c, pred_len=p, hidden_size=s.d_model, conv_channels=s.d_model,
             d_time=4, dropout=s.dropout, seed=seed),
        kw,
    ),
    "nbeats": lambda e, c, p, s, seed, **kw: _construct(
        baselines.NBeats,
        dict(enc_in=e, c_out=c, input_len=s.input_len, pred_len=p, hidden_size=s.d_ff, seed=seed),
        kw,
    ),
    "ts2vec": lambda e, c, p, s, seed, **kw: _construct(
        baselines.TS2Vec, dict(enc_in=e, c_out=c, pred_len=p, d_repr=s.d_model, d_time=4, seed=seed), kw
    ),
    "deepar": lambda e, c, p, s, seed, **kw: _construct(
        baselines.DeepAR, dict(enc_in=e, c_out=c, pred_len=p, hidden_size=s.d_model, d_time=4, seed=seed), kw
    ),
    "dlinear": lambda e, c, p, s, seed, **kw: _construct(
        baselines.DLinear,
        dict(enc_in=e, c_out=c, input_len=s.input_len, pred_len=p, moving_avg=s.moving_avg, seed=seed),
        kw,
    ),
}


def available_models() -> list:
    """Names accepted by :func:`run_experiment`."""
    return sorted(MODEL_REGISTRY)


def build_model(name: str, enc_in: int, c_out: int, pred_len: int, settings: ExperimentSettings, seed: int = 0, **kw):
    """Instantiate a registered forecaster wired to dataset dimensions."""
    try:
        factory = MODEL_REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {available_models()}") from None
    return factory(enc_in, c_out, pred_len, settings, seed, **kw)


# ----------------------------------------------------------------------
# data pipeline
# ----------------------------------------------------------------------
def make_loaders(
    dataset: TimeSeriesDataset,
    settings: ExperimentSettings,
    pred_len: int,
    seed: int = 0,
):
    """Build (train, val, test) loaders of rolling windows."""

    def _loader(part: str, stride: int, cap: int, shuffle: bool) -> DataLoader:
        values, stamps = dataset.split(part)
        marks = dataset.marks(stamps)
        windows = WindowedDataset(
            values, marks, settings.input_len, pred_len, label_len=settings.label_len, stride=stride
        )
        if len(windows) > cap:  # cap via a coarser stride (keeps chronology even)
            windows = WindowedDataset(
                values,
                marks,
                settings.input_len,
                pred_len,
                label_len=settings.label_len,
                stride=max(stride, (len(windows) * stride) // cap),
            )
        return DataLoader(windows, batch_size=settings.batch_size, shuffle=shuffle, rng=np.random.default_rng(seed))

    train = _loader("train", settings.window_stride, settings.max_train_windows, shuffle=True)
    val = _loader("val", settings.eval_stride, settings.max_eval_windows, shuffle=False)
    test = _loader("test", settings.eval_stride, settings.max_eval_windows, shuffle=False)
    return train, val, test


# ----------------------------------------------------------------------
# experiment driver
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """One (dataset, model, horizon) cell of a paper table."""

    dataset: str
    model: str
    pred_len: int
    mse: float
    mae: float
    per_seed: List[Dict[str, float]] = field(default_factory=list)
    history: Optional[TrainingHistory] = None

    def row(self) -> str:
        return f"{self.dataset:10s} {self.model:12s} {self.pred_len:5d} mse={self.mse:.4f} mae={self.mae:.4f}"


def run_experiment(
    dataset_name: str,
    model_name: str,
    pred_len: int,
    settings: Optional[ExperimentSettings] = None,
    univariate: bool = False,
    seeds: Sequence[int] = (0,),
    model_overrides: Optional[dict] = None,
    logger: Optional[RunLogger] = None,
    log_jsonl: Union[str, Path, None] = None,
    checkpoint_dir: Union[str, Path, None] = None,
    resume: bool = False,
    checkpoint_every_steps: Optional[int] = None,
) -> ExperimentResult:
    """Train and evaluate one model on one dataset at one horizon.

    Telemetry: pass an :class:`repro.obs.RunLogger` (``logger``) or a
    ``log_jsonl`` path to record a structured run log — a manifest event
    (seed list, model, settings, git rev, numpy version) followed by
    per-stage spans, per-epoch metrics, per-seed results, and any
    anomalies.  Render it with ``python -m repro.cli obs report``.

    Fault tolerance: pass ``checkpoint_dir`` to snapshot the full
    training state under ``<checkpoint_dir>/seed<seed>/`` (per-seed
    subdirectories, so multi-seed runs resume independently) and
    ``resume=True`` to continue an interrupted run from its latest
    verified checkpoint — the resumed run is bit-exact with the
    uninterrupted one.  ``checkpoint_every_steps`` additionally
    checkpoints mid-epoch every N trained batches.
    """
    settings = settings if settings is not None else active_profile()
    model_overrides = model_overrides or {}
    owns_logger = logger is None and log_jsonl is not None
    log = logger if logger is not None else run_logger(jsonl_path=log_jsonl)
    per_seed: List[Dict[str, float]] = []
    history = None
    try:
        log.log_manifest(
            dataset=dataset_name,
            model=model_name,
            pred_len=pred_len,
            univariate=univariate,
            seeds=list(seeds),
            model_overrides=model_overrides,
            settings=asdict(settings),
        )
        for seed in seeds:
            log.event("seed_start", seed=seed)
            seed_everything(seed)  # pin dropout masks etc. spawned off the global rng
            with log.span("data_gen"):
                dataset = load_dataset(
                    dataset_name, n_points=settings.n_points, seed=seed, **settings.dataset_kwargs
                )
                if univariate:
                    dataset = dataset.univariate()
            with log.span("window"):
                train, val, test = make_loaders(dataset, settings, pred_len, seed=seed)
            with log.span("build_model"):
                model = build_model(
                    model_name, dataset.n_dims, dataset.n_dims, pred_len, settings, seed=seed, **model_overrides
                )
            trainer = Trainer(
                model,
                learning_rate=settings.learning_rate,
                max_epochs=settings.max_epochs,
                patience=settings.patience,
                logger=log,
            )
            manager = None
            if checkpoint_dir is not None:
                manager = CheckpointManager(Path(checkpoint_dir) / f"seed{seed}", logger=log)
            history = trainer.fit(
                train, val,
                checkpoint=manager,
                checkpoint_every_steps=checkpoint_every_steps,
                resume=resume and manager is not None,
            )
            with log.span("evaluate"):
                metrics = trainer.evaluate(test)
            per_seed.append(metrics)
            log.event(
                "seed_result",
                seed=seed,
                epochs_run=history.epochs_run,
                stopped_early=history.stopped_early,
                skipped_steps=history.skipped_steps,
                wall_time=history.wall_time,
                **metrics,
            )
        result = ExperimentResult(
            dataset=dataset_name,
            model=model_name,
            pred_len=pred_len,
            mse=float(np.mean([m["mse"] for m in per_seed])),
            mae=float(np.mean([m["mae"] for m in per_seed])),
            per_seed=per_seed,
            history=history,
        )
        log.event("result", dataset=dataset_name, model=model_name, pred_len=pred_len,
                  mse=result.mse, mae=result.mae)
        return result
    finally:
        if owns_logger:
            log.close()
