"""Versioned checkpoint store: atomic saves, integrity, retention.

One :class:`CheckpointManager` owns one directory.  Every save encodes a
state tree (:mod:`repro.ckpt.codec`), writes it atomically
(:mod:`repro.ckpt.atomic`), and commits a ``manifest.json`` — itself
written atomically — recording the file name, progress counters, metric,
size, and SHA-256 of every live checkpoint.  The manifest is the source
of truth: a file the manifest does not list (a crash leftover) is never
loaded, and a listed file whose digest no longer matches is *skipped*
with a ``checkpoint_corrupt`` event, falling back to the previous one.

Retention: ``keep_last`` newest checkpoints plus (``keep_best``) the one
with the lowest metric are kept; everything else is pruned after each
save.  Stray ``*.tmp`` files from crashed writes are cleaned up on the
next save.

Overhead is measured, not guessed: a flat :class:`repro.obs.Tracer`
times every encode/write, and :meth:`stats` reports totals so runs can
bound checkpoint cost against training time (also emitted through
``repro.obs`` as ``checkpoint_saved`` events).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.ckpt import codec
from repro.ckpt.atomic import TMP_SUFFIX, ChecksumError, atomic_write_bytes, read_verified_bytes
from repro.obs import RunLogger, Tracer

__all__ = ["CheckpointInfo", "LoadedCheckpoint", "CheckpointManager", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1


@dataclass
class CheckpointInfo:
    """One manifest row: where a checkpoint is and how to verify it."""

    file: str
    epoch: int
    step: int
    metric: Optional[float]
    sha256: str
    size: int

    def path_in(self, directory: Path) -> Path:
        return directory / self.file


@dataclass
class LoadedCheckpoint:
    """A decoded state tree plus the manifest row it came from."""

    state: Dict
    info: CheckpointInfo


class CheckpointManager:
    """Atomic, checksummed, pruned checkpoints in one directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        keep_last: int = 3,
        keep_best: bool = True,
        logger: Optional[RunLogger] = None,
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1 (something must survive a crash)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last
        self.keep_best = keep_best
        self.logger = logger if logger is not None else RunLogger.null()
        self.timer = Tracer(flat=True)
        self.bytes_written = 0
        self._manifest: List[CheckpointInfo] = self._read_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _read_manifest(self) -> List[CheckpointInfo]:
        if not self.manifest_path.exists():
            return []
        try:
            raw = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IOError(f"unreadable checkpoint manifest {self.manifest_path}: {exc}") from exc
        if raw.get("version") != _MANIFEST_VERSION:
            raise IOError(f"unsupported manifest version {raw.get('version')!r}")
        return [CheckpointInfo(**row) for row in raw.get("checkpoints", [])]

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {"version": _MANIFEST_VERSION, "checkpoints": [asdict(info) for info in self._manifest]},
            indent=2,
        ).encode("utf-8")
        atomic_write_bytes(self.manifest_path, payload)

    def checkpoints(self) -> List[CheckpointInfo]:
        """Live manifest rows, oldest first (copy)."""
        return list(self._manifest)

    def latest(self) -> Optional[CheckpointInfo]:
        return self._manifest[-1] if self._manifest else None

    def best(self) -> Optional[CheckpointInfo]:
        """The row with the lowest metric, or None if no metrics recorded."""
        scored = [info for info in self._manifest if info.metric is not None]
        return min(scored, key=lambda info: info.metric) if scored else None

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------
    def save(self, state: Dict, epoch: int, step: int, metric: Optional[float] = None) -> Path:
        """Encode + atomically persist one checkpoint; returns its path.

        The durable sequence is: checkpoint file commit, then manifest
        commit, then retention pruning — a crash between any two steps
        leaves the previous manifest state fully loadable.
        """
        name = f"ckpt-{epoch:04d}-{step:08d}.npz"
        path = self.directory / name
        before = self.timer.seconds.get("encode", 0.0) + self.timer.seconds.get("write", 0.0)
        with self.timer.span("encode"):
            payload = codec.encode_state(state)
        with self.timer.span("write"):
            digest = atomic_write_bytes(path, payload)
        save_seconds = (
            self.timer.seconds.get("encode", 0.0) + self.timer.seconds.get("write", 0.0) - before
        )
        info = CheckpointInfo(
            file=name, epoch=int(epoch), step=int(step),
            metric=None if metric is None else float(metric),
            sha256=digest, size=len(payload),
        )
        self._manifest = [row for row in self._manifest if row.file != name] + [info]
        self._write_manifest()
        self._prune()
        self.bytes_written += len(payload)
        self.logger.event(
            "checkpoint_saved",
            path=str(path), epoch=info.epoch, step=info.step,
            metric=info.metric, bytes=info.size, seconds=save_seconds,
        )
        self.logger.observe("ckpt_save_seconds", save_seconds)
        return path

    def _prune(self) -> None:
        """Apply retention and remove crash-leftover temp files."""
        keep = set(row.file for row in self._manifest[-self.keep_last:])
        if self.keep_best:
            best = self.best()
            if best is not None:
                keep.add(best.file)
        doomed = [row for row in self._manifest if row.file not in keep]
        if doomed:
            self._manifest = [row for row in self._manifest if row.file in keep]
            self._write_manifest()  # manifest first: never lists a deleted file
            for row in doomed:
                row.path_in(self.directory).unlink(missing_ok=True)
        for stray in self.directory.glob(f"*{TMP_SUFFIX}"):
            stray.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, info: Union[CheckpointInfo, str, Path]) -> LoadedCheckpoint:
        """Load and verify one checkpoint (by manifest row or file name)."""
        if not isinstance(info, CheckpointInfo):
            name = Path(info).name
            matches = [row for row in self._manifest if row.file == name]
            if not matches:
                raise FileNotFoundError(f"checkpoint {name!r} is not in the manifest of {self.directory}")
            info = matches[0]
        payload = read_verified_bytes(info.path_in(self.directory), info.sha256)
        return LoadedCheckpoint(state=codec.decode_state(payload), info=info)

    def load_latest(self) -> Optional[LoadedCheckpoint]:
        """Newest checkpoint that passes verification, or None.

        Corrupt/missing entries are skipped (newest first) with a
        ``checkpoint_corrupt`` anomaly event — a torn write must never
        take down recovery when an older durable checkpoint exists.
        """
        for info in reversed(self._manifest):
            try:
                loaded = self.load(info)
            except (ChecksumError, OSError, codec.CheckpointFormatError) as exc:
                self.logger.anomaly("checkpoint_corrupt", file=info.file, error=str(exc))
                continue
            self.logger.event(
                "checkpoint_restored", path=str(info.path_in(self.directory)),
                epoch=info.epoch, step=info.step,
            )
            return loaded
        return None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Measured checkpoint overhead (encode/write seconds, bytes)."""
        return {
            "saves": self.timer.calls.get("write", 0),
            "encode_seconds": self.timer.seconds.get("encode", 0.0),
            "write_seconds": self.timer.seconds.get("write", 0.0),
            "bytes_written": self.bytes_written,
        }

    def inspect(self) -> Dict:
        """Manifest plus per-file integrity status (for ``cli ckpt inspect``)."""
        rows = []
        best = self.best()
        for info in self._manifest:
            path = info.path_in(self.directory)
            if not path.exists():
                status = "missing"
            else:
                try:
                    read_verified_bytes(path, info.sha256)
                    status = "ok"
                except ChecksumError:
                    status = "corrupt"
            rows.append({**asdict(info), "status": status, "is_best": best is not None and info.file == best.file})
        strays = sorted(p.name for p in self.directory.glob(f"*{TMP_SUFFIX}"))
        return {
            "directory": str(self.directory),
            "keep_last": self.keep_last,
            "keep_best": self.keep_best,
            "checkpoints": rows,
            "stray_tmp_files": strays,
        }
