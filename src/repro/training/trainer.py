"""Training loop: Adam + early stopping + best-checkpoint restore.

Matches §V-A3: Adam at lr 1e-4, batch 32, early stopping within 10
epochs.  Works with any model following the forecaster protocol
(``forward`` / ``compute_loss`` / ``point_forecast``).

Telemetry: every fit is instrumented through a
:class:`repro.obs.RunLogger` — spans for epoch/batch/forward/backward/
step, per-epoch ``epoch`` events (train/val loss, grad norm, samples per
second), streaming metrics (``loss``, ``grad_norm``, ``clip_events``,
``samples_per_sec``, ``tape_nodes``), and ``anomaly`` events for
non-finite losses/gradients and exploding grad norms.  The default
logger is the shared null logger, which costs nothing; pass
``verbose=True`` to get the classic console epoch lines (now routed
through a :class:`~repro.obs.sinks.ConsoleSink`).

Robustness: a batch whose loss is non-finite never reaches the
optimizer — the step is skipped and recorded, so one poisoned batch
cannot corrupt Adam's moment buffers for the rest of the run.

Fault tolerance: pass a :class:`repro.ckpt.CheckpointManager` to
:meth:`Trainer.fit` and the loop snapshots the *complete* training state
(model, optimizer, scheduler, early-stopping counters + best weights,
every RNG stream, loss history) at every epoch boundary — and, with
``checkpoint_every_steps``, mid-epoch too.  ``resume=True`` restores the
latest verified checkpoint and continues mid-schedule; a resumed run is
bit-exact with an uninterrupted one because the loader's shuffle stream
is rewound to epoch start and already-trained batches are skipped
without consuming any randomness.  :mod:`repro.ckpt.faults` injection
points (``step:N`` after each trained batch, ``epoch:N`` before the
epoch-end save) let tests rehearse crashes at every boundary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.ckpt import faults as ckpt_faults
from repro.ckpt import state as ckpt_state
from repro.ckpt.manager import CheckpointManager
from repro.core.flow import set_flow_anomaly_hook
from repro.data.windows import DataLoader
from repro.obs import ConsoleSink, RunLogger
from repro.optim import Adam, EarlyStopping, clip_grad_norm, global_grad_norm
from repro.perf import op_profile
from repro.tensor import Tensor, inference_mode
from repro.tensor.random import generator_state
from repro.training import metrics as M


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    grad_norm: List[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    wall_time: float = 0.0
    skipped_steps: int = 0
    resumed_at_step: Optional[int] = None


class Trainer:
    """Fit a forecaster on windowed loaders and evaluate on held-out data.

    Parameters
    ----------
    logger:
        Optional :class:`repro.obs.RunLogger`; defaults to the shared
        null logger (zero overhead).  With ``verbose=True`` and no
        console sink attached, one is added so epoch lines still print.
    optimizer:
        Optional factory ``(params, lr) -> Optimizer``; defaults to the
        paper's Adam.  Any optimizer with ``state_dict`` support works
        with checkpointing.
    scheduler:
        Optional factory ``(optimizer) -> scheduler``; stepped once per
        epoch and included in checkpoints.
    """

    def __init__(
        self,
        model,
        learning_rate: float = 1e-4,
        max_epochs: int = 10,
        patience: int = 3,
        grad_clip: Optional[float] = 5.0,
        verbose: bool = False,
        logger: Optional[RunLogger] = None,
        optimizer: Optional[Callable] = None,
        scheduler: Optional[Callable] = None,
    ) -> None:
        self.model = model
        if optimizer is None:
            self.optimizer = Adam(model.parameters(), lr=learning_rate)
        else:
            self.optimizer = optimizer(model.parameters(), learning_rate)
        self.scheduler = scheduler(self.optimizer) if scheduler is not None else None
        self.max_epochs = max_epochs
        self.patience = patience
        self.grad_clip = grad_clip
        self.verbose = verbose
        if logger is None:
            logger = RunLogger(sinks=[ConsoleSink()]) if verbose else RunLogger.null()
        elif verbose:
            logger.ensure_console()
        self.logger = logger
        self._skipped_steps = 0

    # ------------------------------------------------------------------
    def _run_batch(self, batch, train: bool) -> tuple:
        """One batch; returns ``(loss_value, grad_norm_or_None)``.

        In training mode a non-finite loss aborts the step before
        ``backward`` and a non-finite gradient norm aborts it before
        ``optimizer.step`` — Adam's moment buffers only ever see finite
        updates.
        """
        log = self.logger
        x_enc, x_mark, x_dec, y_mark, y = batch
        with log.span("forward"):
            outputs = self.model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
            loss = self.model.compute_loss(outputs, Tensor(y))
        value = loss.item()
        if not train:
            return value, None
        # everything below is the training arm: evaluate paths call with
        # train=False and return at the guard above, so the dataflow pass's
        # flow-insensitive view of this function is suppressed line by line
        if not math.isfinite(value):
            log.anomaly("nonfinite_loss", loss=value)
            self._skipped_steps += 1  # repro: noqa[dataflow-impure-predict]
            log.count("skipped_steps")
            return value, None
        with log.span("backward"):
            self.optimizer.zero_grad()
            loss.backward()  # repro: noqa[dataflow-impure-predict]
        if self.grad_clip is not None:
            norm = clip_grad_norm(self.model.parameters(), self.grad_clip)
            if math.isfinite(norm) and norm > self.grad_clip:
                log.count("clip_events")
        elif log.enabled:
            norm = global_grad_norm(self.model.parameters())
        else:
            norm = None  # not needed: no clipping, no telemetry
        if norm is not None:
            # emits nonfinite_grad_norm / exploding_grad_norm events;
            # True only for non-finite norms, which must not reach Adam
            if log.check_grad_norm(norm):
                self.optimizer.zero_grad()
                self._skipped_steps += 1  # repro: noqa[dataflow-impure-predict]
                log.count("skipped_steps")
                return value, norm
            log.observe("grad_norm", norm)
        with log.span("step"):
            self.optimizer.step()
        return value, norm

    # ------------------------------------------------------------------
    def _capture(
        self,
        stopper: EarlyStopping,
        history: TrainingHistory,
        next_epoch: int,
        next_batch: int,
        global_step: int,
        loader_rng_state: Optional[dict],
        partial_epoch: Optional[dict],
    ) -> dict:
        """Full training-state tree for one checkpoint."""
        return ckpt_state.capture_training_state(
            self.model,
            self.optimizer,
            self.scheduler,
            stopper,
            loader_rng_state=loader_rng_state,
            progress={
                "next_epoch": int(next_epoch),
                "next_batch": int(next_batch),
                "global_step": int(global_step),
                "skipped_steps": int(self._skipped_steps),
            },
            history={
                "train_loss": list(history.train_loss),
                "val_loss": list(history.val_loss),
                "grad_norm": list(history.grad_norm),
                "epochs_run": int(history.epochs_run),
                "stopped_early": bool(history.stopped_early),
            },
            partial_epoch=partial_epoch,
        )

    def _restore(
        self,
        checkpoint: CheckpointManager,
        resume: Union[bool, str],
        stopper: EarlyStopping,
        history: TrainingHistory,
        train_loader: DataLoader,
    ) -> tuple:
        """Restore the resume target; returns ``(next_epoch, next_batch,
        global_step, partial_epoch)`` — all zeros/None on a fresh start."""
        loaded = checkpoint.load_latest() if resume is True else checkpoint.load(resume)
        if loaded is None:
            return 0, 0, 0, None
        extras = ckpt_state.restore_training_state(
            loaded.state,
            self.model,
            self.optimizer,
            self.scheduler,
            stopper,
            loader_rng=getattr(train_loader, "rng", None),
        )
        progress = extras["progress"]
        past = extras["history"]
        history.train_loss = [float(v) for v in past["train_loss"]]
        history.val_loss = [float(v) for v in past["val_loss"]]
        history.grad_norm = [float(v) for v in past["grad_norm"]]
        history.epochs_run = int(past["epochs_run"])
        history.stopped_early = bool(past["stopped_early"])
        history.resumed_at_step = int(progress["global_step"])
        self._skipped_steps = int(progress["skipped_steps"])
        return (
            int(progress["next_epoch"]),
            int(progress["next_batch"]),
            int(progress["global_step"]),
            extras.get("partial_epoch"),
        )

    def fit(
        self,
        train_loader: DataLoader,
        val_loader: Optional[DataLoader] = None,
        *,
        checkpoint: Optional[CheckpointManager] = None,
        checkpoint_every_steps: Optional[int] = None,
        resume: Union[bool, str] = False,
    ) -> TrainingHistory:
        """Train with early stopping on validation loss; restore best state.

        With ``checkpoint`` set, the full training state is snapshotted at
        every epoch end (and every ``checkpoint_every_steps`` trained
        batches); ``resume=True`` continues from the latest verified
        checkpoint in that manager (``resume=<file name>`` picks one),
        bit-exactly reproducing the uninterrupted run.
        """
        if resume and checkpoint is None:
            raise ValueError("resume requires a CheckpointManager")
        log = self.logger
        history = TrainingHistory()
        stopper = EarlyStopping(patience=self.patience)
        start = time.perf_counter()
        self._skipped_steps = 0
        start_epoch, resume_batch, global_step, resumed_partial = 0, 0, 0, None
        if checkpoint is not None and resume:
            start_epoch, resume_batch, global_step, resumed_partial = self._restore(
                checkpoint, resume, stopper, history, train_loader
            )
        prev_hook = set_flow_anomaly_hook(
            (lambda kind, payload: log.anomaly(kind, **payload)) if log.enabled else None
        )
        try:
            with log.span("fit"):
                for epoch in range(start_epoch, self.max_epochs):
                    if val_loader is not None and stopper.should_stop:
                        break  # resumed from a checkpoint taken after early stop
                    self.model.train()
                    epoch_start = time.perf_counter()
                    skip_batches = resume_batch if epoch == start_epoch else 0
                    if epoch == start_epoch and resumed_partial is not None:
                        epoch_losses = [float(v) for v in resumed_partial["losses"]]
                        epoch_norms = [float(v) for v in resumed_partial["norms"]]
                        n_samples = int(resumed_partial["n_samples"])
                    else:
                        epoch_losses, epoch_norms, n_samples = [], [], 0
                    # the shuffle stream as of epoch start: mid-epoch
                    # checkpoints store this so a resumed iteration
                    # replays the exact same permutation
                    loader_rng = getattr(train_loader, "rng", None)
                    epoch_loader_state = None if loader_rng is None else generator_state(loader_rng)
                    with log.span("epoch"):
                        for batch_index, batch in enumerate(train_loader):
                            if batch_index < skip_batches:
                                continue  # already trained before the crash
                            n_samples += len(batch[0])
                            with log.span("batch"):
                                if batch_index == 0 and log.enabled:
                                    # bridge the op profile (forward and
                                    # backward per op) into the run log
                                    # once per epoch
                                    with op_profile() as prof:
                                        value, norm = self._run_batch(batch, train=True)
                                    log.record_op_profile(prof)
                                else:
                                    value, norm = self._run_batch(batch, train=True)
                            epoch_losses.append(value)
                            if norm is not None and math.isfinite(norm):
                                epoch_norms.append(norm)
                            global_step += 1
                            ckpt_faults.check("step", global_step)
                            if (
                                checkpoint is not None
                                and checkpoint_every_steps
                                and global_step % checkpoint_every_steps == 0
                            ):
                                checkpoint.save(
                                    self._capture(
                                        stopper, history,
                                        next_epoch=epoch, next_batch=batch_index + 1,
                                        global_step=global_step,
                                        loader_rng_state=epoch_loader_state,
                                        partial_epoch={
                                            "losses": list(epoch_losses),
                                            "norms": list(epoch_norms),
                                            "n_samples": int(n_samples),
                                        },
                                    ),
                                    epoch=epoch, step=global_step,
                                )
                    epoch_seconds = time.perf_counter() - epoch_start
                    # skipped (non-finite) batches are excluded from the mean;
                    # they are accounted for in skipped_steps and anomaly events
                    finite_losses = [v for v in epoch_losses if math.isfinite(v)]
                    train_loss = float(np.mean(finite_losses)) if finite_losses else float("nan")
                    history.train_loss.append(train_loss)
                    mean_norm = float(np.mean(epoch_norms)) if epoch_norms else float("nan")
                    history.grad_norm.append(mean_norm)
                    samples_per_sec = n_samples / epoch_seconds if epoch_seconds > 0 else float("nan")

                    val_loss: Optional[float] = None
                    if val_loader is not None:
                        with log.span("validate"):
                            val_loss = self.evaluate_loss(val_loader)
                        history.val_loss.append(val_loss)
                        stopper.update(val_loss, state=self.model.state_dict())
                    if self.scheduler is not None:
                        self.scheduler.step()

                    if log.enabled:
                        log.check_loss(train_loss)
                        log.observe("loss", train_loss)
                        log.observe("samples_per_sec", samples_per_sec)
                        log.event(
                            "epoch",
                            epoch=epoch,
                            train_loss=train_loss,
                            val_loss=val_loss,
                            grad_norm=mean_norm if math.isfinite(mean_norm) else None,
                            samples_per_sec=samples_per_sec,
                            n_samples=n_samples,
                            seconds=epoch_seconds,
                        )

                    history.epochs_run = epoch + 1
                    if val_loader is not None and stopper.should_stop:
                        history.stopped_early = True
                        log.event("early_stop", epoch=epoch, best_val=stopper.best_loss)
                    # the epoch boundary crash window: everything since the
                    # last checkpoint is lost, recovery must replay it
                    ckpt_faults.check("epoch", epoch)
                    if checkpoint is not None:
                        loader_rng = getattr(train_loader, "rng", None)
                        checkpoint.save(
                            self._capture(
                                stopper, history,
                                next_epoch=epoch + 1, next_batch=0,
                                global_step=global_step,
                                loader_rng_state=None if loader_rng is None else generator_state(loader_rng),
                                partial_epoch=None,
                            ),
                            epoch=epoch + 1, step=global_step, metric=val_loss,
                        )
                    if val_loader is not None and stopper.should_stop:
                        break
            if stopper.best_state is not None:
                self.model.load_state_dict(stopper.best_state)
        finally:
            set_flow_anomaly_hook(prev_hook)
        history.wall_time = time.perf_counter() - start
        history.skipped_steps = self._skipped_steps
        return history

    # ------------------------------------------------------------------
    def evaluate_loss(self, loader: DataLoader) -> float:
        """Mean model loss over a loader (no gradient, eval mode).

        Restores the model's prior train/eval mode on exit.
        """
        was_training = getattr(self.model, "training", True)
        self.model.eval()
        try:
            with inference_mode():
                losses = [self._run_batch(batch, train=False)[0] for batch in loader]
        finally:
            self.model.train(was_training)
        return float(np.mean(losses)) if losses else float("nan")

    def evaluate(self, loader: DataLoader) -> Dict[str, float]:
        """Point-forecast metrics (mse/mae/rmse/mape) over a loader.

        Restores the model's prior train/eval mode on exit.
        """
        was_training = getattr(self.model, "training", True)
        self.model.eval()
        predictions, targets = [], []
        try:
            with inference_mode():
                for x_enc, x_mark, x_dec, y_mark, y in loader:
                    outputs = self.model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
                    predictions.append(self.model.point_forecast(outputs))
                    targets.append(y)
        finally:
            self.model.train(was_training)
        prediction = np.concatenate(predictions, axis=0)
        target = np.concatenate(targets, axis=0)
        return M.evaluate(prediction, target)
