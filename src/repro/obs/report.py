"""Render a JSONL run log back into a human-readable summary.

``python -m repro.cli obs report run.jsonl`` loads the event stream
written by a :class:`~repro.obs.runlog.RunLogger` and prints:

- the run manifest (model, dataset, seed, git rev, numpy version, ...),
- a per-epoch table (train/val loss, grad norm, samples/sec),
- the per-stage wall-clock breakdown from the ``spans`` summary event,
- metric distributions (p50/p95/max/EWMA) from the ``metrics`` event,
- every anomaly, in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class RunRecord:
    """Parsed view of one JSONL run log."""

    path: Optional[Path] = None
    manifest: Dict = field(default_factory=dict)
    events: List[Dict] = field(default_factory=list)
    epochs: List[Dict] = field(default_factory=list)
    anomalies: List[Dict] = field(default_factory=list)
    spans: Dict[str, Dict] = field(default_factory=dict)
    metrics: Dict[str, Dict] = field(default_factory=dict)
    op_profile: Dict = field(default_factory=dict)
    #: malformed/truncated JSONL lines skipped by the loader
    skipped_lines: int = 0

    def of_kind(self, kind: str) -> List[Dict]:
        return [e for e in self.events if e.get("kind") == kind]


def iter_jsonl(path: Union[str, Path]):
    """Yield dict records from a JSONL file; return the skip count.

    Tolerant line-by-line reader shared by run logs and the bench
    history: blank lines are ignored; lines that fail to parse or do not
    hold a JSON object are *counted and skipped*, never fatal (a crashed
    writer truncates its last line).  The skip count is the generator's
    return value — use :func:`load_jsonl` for the plain
    ``(records, skipped)`` pair.
    """
    skipped = 0
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            yield record
    return skipped


def load_jsonl(path: Union[str, Path]):
    """All good records of a JSONL file plus the malformed-line count."""
    records: List[Dict] = []
    generator = iter_jsonl(path)
    while True:
        try:
            records.append(next(generator))
        except StopIteration as stop:
            return records, int(stop.value or 0)


def load_run(path: Union[str, Path]) -> RunRecord:
    """Parse a JSONL run log into a :class:`RunRecord`.

    Tolerates truncated or corrupt lines (a crashed run may cut its last
    event mid-write) — each bad line is skipped and counted in
    ``RunRecord.skipped_lines``; the report surfaces the count as a
    warning instead of raising.
    """
    path = Path(path)
    run = RunRecord(path=path)
    events, run.skipped_lines = load_jsonl(path)
    for event in events:
        run.events.append(event)
        kind = event.get("kind")
        if kind == "manifest" and not run.manifest:
            run.manifest = event
        elif kind == "epoch":
            run.epochs.append(event)
        elif kind == "anomaly":
            run.anomalies.append(event)
        elif kind == "spans":
            spans = event.get("spans", {})
            run.spans = spans if isinstance(spans, dict) else {}
        elif kind == "metrics":
            metrics = event.get("metrics", {})
            run.metrics = metrics if isinstance(metrics, dict) else {}
        elif kind == "op_profile":
            run.op_profile = event
    return run


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value, width: int = 10, digits: int = 4) -> str:
    if value is None:
        return f"{'-':>{width}}"
    if isinstance(value, float):
        return f"{value:>{width}.{digits}f}"
    return f"{value:>{width}}"


_MANIFEST_KEYS = (
    "run_id",
    "dataset",
    "model",
    "pred_len",
    "seed",
    "seeds",
    "git_rev",
    "numpy_version",
    "python_version",
)


def _render_op_profile(profile: Dict, top: int = 15) -> List[str]:
    """Top-K per-op forward and backward table (``op_profile`` event).

    An event from before schema 3 has no forward-and-backward ``per_op``
    rows; it renders as a one-line note instead of a table.
    """
    per_op = profile.get("per_op")
    rows = [
        (op, stats)
        for op, stats in (per_op.items() if isinstance(per_op, dict) else ())
        if isinstance(stats, dict) and "seconds" in stats and "backward_seconds" in stats
    ]
    if not rows:
        return [f"op profile: schema {profile.get('schema', 1)} layout has no per-op table"]
    rows.sort(key=lambda kv: -(kv[1]["seconds"] + kv[1]["backward_seconds"]))
    lines = [
        f"op profile (top {min(top, len(rows))} by forward + backward time)",
        f"  {'op':<18} {'calls':>7} {'fwd s':>10} {'MB':>8} {'nodes':>7} {'bwd s':>10}",
        "  " + "-" * 65,
    ]
    for op, stats in rows[:top]:
        lines.append(
            f"  {op:<18} {_fmt(stats.get('calls'), 7)} {_fmt(stats['seconds'], 10, 6)} "
            f"{_fmt((stats.get('nbytes') or 0) / 1e6, 8, 2)} "
            f"{_fmt(stats.get('tape_nodes'), 7)} {_fmt(stats['backward_seconds'], 10, 6)}"
        )
    memory = profile.get("memory")
    if isinstance(memory, dict):
        lines.append(
            "  memory: "
            f"allocated {memory.get('allocated_bytes', 0) / 1e6:.2f} MB, "
            f"peak live {memory.get('peak_bytes', 0) / 1e6:.2f} MB, "
            f"taped {memory.get('taped_nodes', 0)} nodes / "
            f"{memory.get('taped_bytes', 0) / 1e6:.2f} MB"
        )
    return lines


def render_report(run: RunRecord, top: int = 15) -> str:
    """Multi-section fixed-width report of one run log."""
    lines: List[str] = []
    title = str(run.path) if run.path is not None else "<run>"
    lines.append(f"run log: {title} ({len(run.events)} events)")
    if run.skipped_lines:
        lines.append(
            f"warning: skipped {run.skipped_lines} malformed line(s) "
            "(truncated or corrupt JSONL)"
        )

    if run.manifest:
        lines.append("")
        lines.append("manifest")
        lines.append("-" * 60)
        for key in _MANIFEST_KEYS:
            if key in run.manifest:
                lines.append(f"  {key:<16} {run.manifest[key]}")
        settings = run.manifest.get("settings")
        if isinstance(settings, dict):
            compact = ", ".join(f"{k}={v}" for k, v in list(settings.items())[:8])
            lines.append(f"  {'settings':<16} {compact}{', ...' if len(settings) > 8 else ''}")

    if run.epochs:
        lines.append("")
        lines.append("epochs")
        lines.append(
            f"  {'epoch':>5} {'train_loss':>12} {'val_loss':>12} {'grad_norm':>12} {'samples/s':>12}"
        )
        lines.append("  " + "-" * 58)
        for e in run.epochs:
            lines.append(
                "  "
                + _fmt(e.get("epoch"), 5)
                + " "
                + _fmt(e.get("train_loss"), 12)
                + " "
                + _fmt(e.get("val_loss"), 12)
                + " "
                + _fmt(e.get("grad_norm"), 12)
                + " "
                + _fmt(e.get("samples_per_sec"), 12, 1)
            )

    if run.spans:
        lines.append("")
        lines.append("stages (wall clock)")
        lines.append(f"  {'span':<36} {'calls':>8} {'seconds':>12} {'mean ms':>10}")
        lines.append("  " + "-" * 70)
        for path in sorted(run.spans, key=lambda p: -run.spans[p].get("seconds", 0.0)):
            stats = run.spans[path]
            calls = stats.get("calls", 0)
            seconds = stats.get("seconds", 0.0)
            mean_ms = (seconds / calls) * 1e3 if calls else 0.0
            lines.append(f"  {path:<36} {calls:>8} {seconds:>12.6f} {mean_ms:>10.3f}")

    if run.spans:
        from repro.obs.trace import render_flamegraph

        lines.append("")
        lines.append("span tree")
        lines.append("  " + render_flamegraph(run.spans).replace("\n", "\n  "))

    if run.op_profile:
        lines.append("")
        lines.extend(_render_op_profile(run.op_profile, top=top))

    if run.metrics:
        lines.append("")
        lines.append("metrics")
        lines.append(f"  {'metric':<24} {'count':>8} {'mean':>10} {'p50':>10} {'p95':>10} {'max':>10} {'ewma':>10}")
        lines.append("  " + "-" * 88)
        for name in sorted(run.metrics):
            m = run.metrics[name]
            if m.get("type") == "histogram":
                lines.append(
                    f"  {name:<24} {_fmt(m.get('count'), 8)} {_fmt(m.get('mean'))} "
                    f"{_fmt(m.get('p50'))} {_fmt(m.get('p95'))} {_fmt(m.get('max'))} {_fmt(m.get('ewma'))}"
                )
            else:
                lines.append(f"  {name:<24} {_fmt(m.get('value'), 8)}  ({m.get('type')})")

    lines.append("")
    if run.anomalies:
        # sanitizer findings (repro.analysis) get their own section: they
        # carry op/stack attribution and drown out the training anomalies
        sanitizer = [a for a in run.anomalies if str(a.get("anomaly", "")).startswith("sanitizer_")]
        training = [a for a in run.anomalies if a not in sanitizer]
        if training:
            lines.append(f"anomalies ({len(training)})")
            for a in training:
                detail = {k: v for k, v in a.items() if k not in ("ts", "kind", "anomaly")}
                lines.append(f"  {a.get('anomaly')}: {detail}")
        else:
            lines.append("anomalies: none")
        if sanitizer:
            lines.append(f"sanitizer findings ({len(sanitizer)})")
            for a in sanitizer:
                kind = str(a.get("anomaly", "")).replace("sanitizer_", "", 1)
                lines.append(f"  [{kind}] op={a.get('op')}: {a.get('message')}")
    else:
        lines.append("anomalies: none")
    return "\n".join(lines)


def report_dict(run: RunRecord) -> Dict:
    """Machine-readable summary (``obs report --json``)."""
    return {
        "path": str(run.path) if run.path is not None else None,
        "n_events": len(run.events),
        "skipped_lines": run.skipped_lines,
        "manifest": run.manifest,
        "epochs": run.epochs,
        "spans": run.spans,
        "metrics": run.metrics,
        "op_profile": run.op_profile,
        "anomalies": run.anomalies,
    }
