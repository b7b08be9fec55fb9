"""Run manifests: what ran, on what configuration, and what it measured.

A manifest is the provenance record of an experiment invocation: one
:class:`RunRecord` per distinct ``(config, apps)`` simulation (config
hash, seed, workload mix, where the result came from, wall time) plus
run-wide metadata (package version, worker count, merged metric
snapshot).  :class:`~repro.experiments.runner.Runner` (serial or
process-pool) collects records for every run it serves; the CLI
writes the merged manifest next to the
results and prints its path, so any figure or table can be traced back
to the exact configuration that produced it.

Run identities are content-derived (SHA-256 over the config cache key
and app tuple), so the same job set always yields the same manifest
filename and the metric aggregation -- performed in job-submission
order -- is deterministic across serial and process-pool execution.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.telemetry.registry import MetricRegistry

#: Manifest document schema version.
MANIFEST_SCHEMA = 1


def _package_version() -> str:
    from repro import __version__  # local import: repro imports telemetry

    return __version__


def config_hash(config) -> str:
    """Stable hex digest of everything that affects a simulation."""
    return hashlib.sha256(repr(config.cache_key()).encode()).hexdigest()


def run_id(config, apps: Sequence[str]) -> str:
    """Deterministic identity of one ``(config, apps)`` run."""
    key = (config.cache_key(), tuple(apps))
    return hashlib.sha256(repr(key).encode()).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """Provenance of one simulation inside a manifest."""

    run_id: str
    config_hash: str
    seed: int
    apps: tuple[str, ...]
    scheduler: str
    fetch_policy: str
    instructions_per_thread: int
    warmup_instructions: int
    #: Where the result came from: simulated | memo | disk-cache | pool.
    source: str = "simulated"
    wall_time_s: float = 0.0
    #: Execution engine the result was produced under.  Exact engines
    #: ("reference"/"fast") are interchangeable; "sampled" marks the
    #: result as an estimate.
    engine: str = "fast"
    #: Sampled-engine window/error metadata (schedule knobs, windows
    #: run, measured fraction, CPI confidence interval) — None for
    #: exact-engine runs.
    sampling: dict | None = None

    def as_dict(self) -> dict:
        """JSON-safe view of this record (what the service API serves)."""
        return asdict(self)

    @classmethod
    def from_run(
        cls, config, apps: Sequence[str],
        source: str = "simulated", wall_time_s: float = 0.0,
        sampling: dict | None = None,
    ) -> "RunRecord":
        engine = getattr(config, "engine", "fast")
        if sampling is None and engine == "sampled":
            # No per-run metadata supplied (e.g. a cache hit): record
            # at least the schedule, which is part of the run identity.
            s = config.sampling
            sampling = {
                "detail_instructions": s.detail_instructions,
                "ff_instructions": s.ff_instructions,
                "window_warmup": s.window_warmup,
                "gap_smoothing": s.gap_smoothing,
            }
        return cls(
            run_id=run_id(config, apps),
            config_hash=config_hash(config),
            seed=config.seed,
            apps=tuple(apps),
            scheduler=config.scheduler,
            fetch_policy=config.fetch_policy,
            instructions_per_thread=config.instructions_per_thread,
            warmup_instructions=config.warmup_instructions,
            source=source,
            wall_time_s=wall_time_s,
            engine=engine,
            sampling=sampling,
        )


@dataclass
class RunManifest:
    """A batch of run records plus run-wide metadata and metrics."""

    records: list[RunRecord] = field(default_factory=list)
    package_version: str = field(default_factory=_package_version)
    workers: int = 1
    #: Merged metric snapshot (see MetricRegistry.merge); empty dicts
    #: when the batch ran without telemetry.
    metrics: dict = field(default_factory=dict)
    #: Wall-clock time of the whole batch, seconds.
    wall_time_s: float = 0.0
    #: Unix timestamp the manifest was created (not part of identity).
    created: float = field(default_factory=time.time)
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def manifest_id(self) -> str:
        """Content-derived identity: stable for the same job set."""
        ids = sorted(r.run_id for r in self.records)
        return hashlib.sha256("\n".join(ids).encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "package": "repro",
            "package_version": self.package_version,
            "manifest_id": self.manifest_id,
            "created": self.created,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "runs": [asdict(r) for r in self.records],
            "metrics": self.metrics,
            "extra": self.extra,
        }

    def write(self, directory: str | os.PathLike) -> Path:
        """Write ``manifest-<id>.json`` under ``directory``; return path."""
        directory = Path(directory).expanduser()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"manifest-{self.manifest_id[:16]}.json"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def read(cls, path) -> dict:
        """Load a written manifest back as a plain dict."""
        with open(path) as handle:
            return json.load(handle)

    # ------------------------------------------------------------------

    @classmethod
    def merge(cls, manifests: Iterable["RunManifest"]) -> "RunManifest":
        """Fold per-worker/per-driver manifests into one.

        Records concatenate in argument order (deduplicated by run id,
        first occurrence wins); metric snapshots merge with
        :meth:`MetricRegistry.merge`, so the result is deterministic
        for a deterministic input order.
        """
        records: list[RunRecord] = []
        seen: set[str] = set()
        snapshots: list[dict] = []
        workers = 1
        wall = 0.0
        extra: dict = {}
        version = _package_version()
        for m in manifests:
            version = m.package_version
            workers = max(workers, m.workers)
            wall += m.wall_time_s
            extra.update(m.extra)
            if m.metrics:
                snapshots.append(m.metrics)
            for record in m.records:
                if record.run_id not in seen:
                    seen.add(record.run_id)
                    records.append(record)
        return cls(
            records=records,
            package_version=version,
            workers=workers,
            metrics=MetricRegistry.merge(snapshots) if snapshots else {},
            wall_time_s=wall,
            extra=extra,
        )


def default_manifest_dir() -> Path:
    """Where manifests go when no ``--manifest-dir`` is given.

    ``REPRO_MANIFEST_DIR`` overrides; otherwise a stable directory
    under the system temp dir, so test and smoke runs never litter the
    working tree.
    """
    override = os.environ.get("REPRO_MANIFEST_DIR")
    if override:
        return Path(override)
    import tempfile

    return Path(tempfile.gettempdir()) / "repro-manifests"
