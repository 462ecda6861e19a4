"""The canonical autodiff performance benchmark.

Times one *GRU-heavy Conformer training step* — forward, loss, backward,
gradient clip, Adam update — with the fused kernels enabled and (for the
speedup baseline) with the original op-by-op composition, and counts the
tape nodes each path records.  Results are written to
``BENCH_autodiff.json`` so successive PRs accumulate a measured perf
trajectory.  Entry points:

- ``python -m repro.perf`` (CLI; see ``__main__.py``),
- ``benchmarks/test_perf_regression.py`` (asserts the >= 2x speedup),
- ``tests/test_perf_smoke.py`` (fast tier-1 smoke).
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.optim import Adam, clip_grad_norm
from repro.perf import op_profile
from repro.tensor import Tensor, functional as F
from repro.tensor.random import seed_everything
from repro.training import ExperimentSettings, PROFILES, build_model, make_loaders
from repro.data import load_dataset

#: default artifact location (repo root when run from a checkout)
BENCH_FILENAME = "BENCH_autodiff.json"


def canonical_settings() -> ExperimentSettings:
    """The benchmark profile: tiny widths but a long-enough scan that the
    recurrent path (SIRN's GRUs) dominates — the configuration the paper's
    linear-complexity claim stresses."""
    return replace(
        PROFILES["tiny"],
        input_len=64,
        label_len=32,
        batch_size=16,
        n_points=1200,
    )


def _model_and_batch(settings: ExperimentSettings, pred_len: int = 12, seed: int = 0):
    seed_everything(seed)
    dataset = load_dataset("etth1", n_points=settings.n_points, seed=seed)
    train, _, _ = make_loaders(dataset, settings, pred_len, seed=seed)
    model = build_model("conformer", dataset.n_dims, dataset.n_dims, pred_len, settings, seed=seed)
    batch = next(iter(train))
    return model, batch


def _training_step(model, optimizer, batch, grad_clip: float = 5.0) -> float:
    x_enc, x_mark, x_dec, y_mark, y = batch
    outputs = model(Tensor(x_enc), Tensor(x_mark), Tensor(x_dec), Tensor(y_mark))
    loss = model.compute_loss(outputs, Tensor(y))
    optimizer.zero_grad()
    loss.backward()
    clip_grad_norm(model.parameters(), grad_clip)
    optimizer.step()
    return float(loss.item())


def time_training_steps(
    modes: Sequence[bool],
    repeats: int = 5,
    warmup: int = 1,
    settings: Optional[ExperimentSettings] = None,
    seed: int = 0,
) -> List[dict]:
    """Median seconds per training step plus a tape-node profile, one
    dict per entry of ``modes`` (``fused_ops`` on or off).

    Each mode trains its own model.  The timed steps alternate between
    the modes (A, B, A, B, ...), so load from other processes falls on
    every mode alike and a ratio of their medians stays steady.
    """
    settings = settings if settings is not None else canonical_settings()
    arms = []
    for fused in modes:
        with F.fused_ops(fused):
            model, batch = _model_and_batch(settings, seed=seed)
            optimizer = Adam(model.parameters(), lr=1e-3)
            for _ in range(warmup):
                _training_step(model, optimizer, batch)
        arms.append((fused, model, optimizer, batch, []))
    for _ in range(repeats):
        for fused, model, optimizer, batch, times in arms:
            with F.fused_ops(fused):
                start = perf_counter()
                _training_step(model, optimizer, batch)
                times.append(perf_counter() - start)
    results = []
    for fused, model, optimizer, batch, times in arms:
        # profiled step kept out of the timing loop: hooks add overhead
        with F.fused_ops(fused), op_profile() as prof:
            loss = _training_step(model, optimizer, batch)
        taped = [
            {"op": op, "tape_nodes": row["tape_nodes"], "backward_seconds": row["backward_seconds"]}
            for op, row in prof.per_op().items()
            if row["tape_nodes"] or row["backward_calls"]
        ]
        taped.sort(key=lambda r: (-r["backward_seconds"], -r["tape_nodes"]))
        results.append(
            {
                "seconds_per_step": float(np.median(times)),
                "seconds_per_step_mean": float(np.mean(times)),
                "steps_timed": repeats,
                "tape_nodes_per_step": prof.taped_nodes,
                "backward_seconds": prof.total_backward_seconds,
                "top_ops": taped[:10],
                "final_loss": loss,
            }
        )
    return results


def run_autodiff_benchmark(
    repeats: int = 5,
    warmup: int = 1,
    include_unfused: bool = True,
    settings: Optional[ExperimentSettings] = None,
) -> dict:
    """The full fused-vs-unfused comparison as a JSON-serialisable dict."""
    settings = settings if settings is not None else canonical_settings()
    result = {
        "benchmark": "conformer_training_step",
        "description": "GRU-heavy Conformer train step: forward + loss + backward + clip + Adam",
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "config": {
            "pred_len": 12,
            **{k: v for k, v in asdict(settings).items() if not isinstance(v, dict)},
        },
    }
    arms = ("fused", "unfused") if include_unfused else ("fused",)
    timed = time_training_steps([arm == "fused" for arm in arms], repeats=repeats, warmup=warmup, settings=settings)
    result.update(zip(arms, timed))
    if include_unfused:
        result["speedup"] = result["unfused"]["seconds_per_step"] / result["fused"]["seconds_per_step"]
        result["tape_node_reduction"] = (
            result["unfused"]["tape_nodes_per_step"] / result["fused"]["tape_nodes_per_step"]
        )
    return result


def write_bench_json(result: dict, path: Path) -> Path:
    """Persist a benchmark result (the BENCH_autodiff.json artifact)."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def format_result(result: dict) -> str:
    """Human-readable summary of :func:`run_autodiff_benchmark` output."""
    lines = [
        result["benchmark"],
        "-" * len(result["benchmark"]),
        f"fused:   {result['fused']['seconds_per_step'] * 1e3:8.2f} ms/step, "
        f"{result['fused']['tape_nodes_per_step']:6d} tape nodes",
    ]
    if "unfused" in result:
        lines.append(
            f"unfused: {result['unfused']['seconds_per_step'] * 1e3:8.2f} ms/step, "
            f"{result['unfused']['tape_nodes_per_step']:6d} tape nodes"
        )
        lines.append(
            f"speedup: {result['speedup']:.2f}x wall clock, "
            f"{result['tape_node_reduction']:.2f}x fewer tape nodes"
        )
    lines.append("top fused ops by backward time:")
    for row in result["fused"]["top_ops"][:5]:
        lines.append(
            f"  {row['op']:<18} {row['tape_nodes']:>6d} nodes {row['backward_seconds'] * 1e3:>9.3f} ms"
        )
    return "\n".join(lines)
