"""Benchmark entry point: one workload, one process, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train|predict|serve --seed N \
        --seconds S --trace 0|1

The run builds its inputs from ``--seed``, sets up the workload, then
runs whole rounds of it until they have taken ``--seconds`` seconds,
timing the reference computation (reference.py) between rounds.  Each
round's times are scaled by ``NOMINAL_REF_S`` over the mean of the
reference times before and after it.  The program's outputs are checked
between rounds and after the loop, never inside a timed round.
The last line of standard output is the result object; the line before
it carries the same end-to-end figures unscaled.  With ``--trace 1``
every other round runs with spans around repro's public functions, and
the result carries the per-layer metrics instead.

Exits 1 if a check fails, 2 if repro cannot be imported from this
checkout's ``src``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

# single-threaded BLAS: the engine's matrices are tiny, and BLAS threads
# contending with the serving workers add spread, not speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SRC = ROOT / "src"


@dataclass
class Round:
    start: float
    end: float
    factor: float
    latencies: List[float]
    work: int
    failed: int
    traced: bool


def _import_repro() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: repro imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    # ``import repro`` leaves out the serving runtime; importing it here
    # gives every workload the same import phase
    import repro.serve  # noqa: F401


def _counters(workload) -> Dict[str, float]:
    from repro.tensor import get_arena, plan_cache, tape_node_count

    arena, plans = get_arena().stats(), plan_cache().stats()
    return {
        "arena_hits": arena["hits"], "arena_misses": arena["misses"],
        "plan_hits": plans["hits"], "plan_misses": plans["misses"],
        "tape_nodes": tape_node_count(), **workload.counters(),
    }


def measure(workload, seconds: float, tracer=None) -> Tuple[List[Round], List[str]]:
    """Whole rounds until they have run ``seconds`` in all; between rounds
    the reference is timed, then the round's outputs are verified."""
    from reference import NOMINAL_REF_S, make_reference, time_reference

    reference = make_reference()
    time_reference(reference)  # the first call pays numpy's lazy set-up
    refs = [time_reference(reference)]
    rounds: List[Round] = []
    failures: List[str] = []
    deltas: Dict[str, float] = {}
    timed = 0.0
    while timed < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            before = _counters(workload)
            tracer.install(workload.model)
        start = time.perf_counter()
        result = workload.round()
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
            for name, value in _counters(workload).items():
                deltas[name] = deltas.get(name, 0) + value - before[name]
        refs.append(time_reference(reference))
        factor = NOMINAL_REF_S / (0.5 * (refs[-2] + refs[-1]))
        rounds.append(Round(start, end, factor, result.latencies, result.work, result.failed, traced))
        timed += end - start
        failures.extend(workload.verify())
    if tracer is not None:
        tracer.counter_deltas = deltas
    return rounds, failures


def end_to_end(rounds: List[Round], setup_s: float, scaled: bool = True) -> Dict[str, float]:
    """The time-based end-to-end metrics, at nominal machine speed unless
    ``scaled`` is off.  ``windows_per_s`` is the median over rounds of the
    round's rate.  ``setup_s`` comes before the first reference call, so
    it is scaled by the mean factor of the run's rounds."""
    import numpy as np

    factor = (lambda r: r.factor) if scaled else (lambda r: 1.0)
    rates = [r.work / ((r.end - r.start) * factor(r)) for r in rounds]
    latencies = [lat * factor(r) * 1e3 for r in rounds for lat in r.latencies]
    return {
        "setup_s": setup_s * float(np.mean([factor(r) for r in rounds])),
        "windows_per_s": float(np.median(rates)),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
    }


def per_layer(tracer, rounds: List[Round]) -> Dict[str, float]:
    """Per-layer metrics from the traced rounds' spans, samples and
    counters.  A span counts for the traced round it ended in and is
    scaled like that round; a layer that does not run reads 0."""
    import bisect
    import numpy as np

    traced = [r for r in rounds if r.traced]
    ends = [r.end for r in traced]
    ops = sum(len(r.latencies) for r in traced)

    def factor_at(t: float) -> Optional[float]:
        i = bisect.bisect_left(ends, t)
        if i < len(traced) and traced[i].start <= t <= traced[i].end:
            return traced[i].factor
        return None

    times: Dict[str, List[float]] = {}
    values: Dict[str, List[float]] = {}
    for span in tracer.spans:
        f = factor_at(span.end)
        if f is None:
            continue
        times.setdefault(span.name, []).append(span.duration * f * 1e3)
        if span.name == "training.fit":
            times.setdefault("training.fit_self", []).append(span.self_time * f * 1e3)
        if span.name == "serve.forecast_batch":
            times.setdefault("serve.lock_pad", []).append(span.self_time * f * 1e3)
            if not span.within("serve.hot_swap"):
                values.setdefault("serve.batch_size", []).append(span.value)
        if span.name == "ckpt.save":
            values.setdefault("ckpt.bytes_per_save", []).append(span.value)
    for t, wait in tracer.samples["serve.queue_wait"]:
        f = factor_at(t)
        if f is not None:
            times.setdefault("serve.queue_wait", []).append(wait * f * 1e3)

    mean = lambda xs: float(np.mean(xs)) if xs else 0.0
    ratio = lambda a, b: a / (a + b) if a + b else 0.0
    d = tracer.counter_deltas
    metrics = {f"{name}_ms": mean(times.get(name, [])) for name in TIMED_LAYERS}
    metrics.update({
        "tensor.tape_nodes": d["tape_nodes"] / ops,
        "tensor.arena_hit_rate": ratio(d["arena_hits"], d["arena_misses"]),
        "tensor.plan_cache_hit_rate": ratio(d["plan_hits"], d["plan_misses"]),
        "tensor.plan_cache_misses": float(d["plan_misses"]),
        "ckpt.bytes_per_save": mean(values.get("ckpt.bytes_per_save", [])),
        "serve.cache_hit_rate": ratio(d.get("cache_hits", 0), d.get("cache_misses", 0)),
        "serve.batch_size": mean(values.get("serve.batch_size", [])),
        "serve.forwards": len(values.get("serve.batch_size", [])) / ops,
    })
    from repro.tensor import get_arena

    metrics["tensor.arena_bytes"] = float(get_arena().nbytes())
    # rounds are alike, so traced against untraced round time is the overhead
    untraced_s = np.median([(r.end - r.start) * r.factor for r in rounds if not r.traced])
    traced_s = np.median([(r.end - r.start) * r.factor for r in traced])
    metrics["trace.overhead_pct"] = 100.0 * float(traced_s / untraced_s - 1.0)
    return metrics


#: span names reported as mean milliseconds per call (``<name>_ms``)
TIMED_LAYERS = (
    "data.batch", "core.forward", "core.enc_repr", "core.dec_repr", "core.encoder", "core.decoder",
    "core.flow", "core.flow_sample", "core.loss", "tensor.backward", "optim.clip", "optim.step",
    "training.validate", "training.fit_self", "ckpt.save", "ckpt.load", "serve.cache_get",
    "serve.cache_put", "serve.queue_wait", "serve.window", "serve.forecast_batch", "serve.lock_pad",
    "serve.ingest", "serve.hot_swap",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "predict", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_repro()
    import_s = time.perf_counter() - _PROCESS_START
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR, tracer)
    phases = workload.setup()
    setup_s = time.perf_counter() - _PROCESS_START

    try:
        rounds, failures = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()
    failures += workload.check()
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        values = per_layer(tracer, rounds)
        values.update({
            "setup.import_ms": import_s * 1e3,
            **{f"setup.{name}_ms": seconds * 1e3 for name, seconds in phases.items()},
        })
        tracer.write_chrome_trace(OUT_DIR / f"trace-{args.workload}.json", _PROCESS_START)
        units = PER_LAYER_UNITS
    else:
        values = {"peak_rss_mb": peak_rss_mb, **end_to_end(rounds, setup_s)}
        print(json.dumps({"unscaled": end_to_end(rounds, setup_s, scaled=False),
                          "rounds": len(rounds),
                          "mean_scale": sum(r.factor for r in rounds) / len(rounds)}))
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "windows_per_s": "windows/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms",
}

PER_LAYER_UNITS = {
    **{f"{name}_ms": "ms" for name in TIMED_LAYERS},
    "tensor.tape_nodes": "nodes/op", "tensor.arena_hit_rate": "ratio",
    "tensor.plan_cache_hit_rate": "ratio", "tensor.arena_bytes": "bytes",
    "tensor.plan_cache_misses": "count", "ckpt.bytes_per_save": "bytes",
    "serve.cache_hit_rate": "ratio", "serve.batch_size": "requests",
    "serve.forwards": "forwards/req", "trace.overhead_pct": "%",
    "setup.import_ms": "ms", "setup.data_ms": "ms", "setup.build_ms": "ms", "setup.warm_ms": "ms",
}


if __name__ == "__main__":
    sys.exit(main())
