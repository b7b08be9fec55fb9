"""Content-addressed, versioned store of simulation results.

:class:`ResultStore` is the one persistent home of
:class:`~repro.experiments.runner.MixResult` objects: behind a local
``--cache-dir`` run, and as the artifact store that schedulers and API
workers share.

* **Content-addressed keys** — an entry's name is the SHA-256 of
  ``(schema version, config.cache_key(), apps)``, so independently
  constructed runners, repeat CLI invocations and the service all find
  each other's results.
* **Self-verifying entries** — each entry file is the 32-byte raw
  SHA-256 of its payload followed by the payload.  Every read, by key
  or by ``(config, apps)``, re-hashes the payload against that prefix
  before serving; a short file or a mismatch quarantines the entry and
  reads as a miss, so a flipped bit on disk can never reach a figure
  or an HTTP client.  No side file is involved, so any number of
  processes can share one directory.
* **Atomic compare-and-publish writes** — :meth:`ResultStore.publish`
  stages the framed entry in an fsynced temp file and hard-links it
  into place (first writer wins), so concurrent
  schedulers/threads/processes cannot tear an entry.
* **Quarantine** — an entry that cannot be read back (torn pickle,
  garbage bytes, a payload that is not a :class:`MixResult`, a digest
  mismatch) is moved to ``quarantine/``, counted in ``corrupt`` apart
  from ``misses``, and logged; readers only ever see a miss.
* **Operator tooling** — :meth:`verify` re-hashes every entry and
  :meth:`gc` drains the quarantine and stale temp files.  The
  ``repro cache`` CLI drives both.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.experiments.config import SystemConfig
from repro.experiments.runner import MixResult

log = logging.getLogger("repro.service.store")

#: Bump whenever the meaning of stored results changes (simulator
#: semantics, MixResult schema, profile calibration, ...).  A bump
#: silently invalidates every previously written entry.
#: v2: MixResult grew the ``metrics`` telemetry-snapshot field.
#: v3: SystemConfig (pickled inside every result) lost ``sampling``.
CACHE_SCHEMA_VERSION = 3

#: ``*.tmp`` orphans older than this are removed on open and by
#: :meth:`ResultStore.gc`; younger ones may belong to a concurrent
#: writer mid-publish and are left alone.
STALE_TMP_SECONDS = 3600.0

#: Length of the raw SHA-256 that prefixes every entry file.
DIGEST_BYTES = 32


def payload_digest(data: bytes) -> str:
    """Integrity digest of one stored payload."""
    return hashlib.sha256(data).hexdigest()


def _unframe(data: bytes) -> bytes | None:
    """The payload of one entry file, or None if its digest prefix fails."""
    payload = data[DIGEST_BYTES:]
    if hashlib.sha256(payload).digest() != data[:DIGEST_BYTES]:
        return None
    return payload


def job_key(
    config: SystemConfig,
    apps: Sequence[str],
    version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """The content-addressed key of one job, without a store instance.

    Exactly :meth:`ResultStore.key_for`; exposed at module level so
    the typed client can
    derive idempotency keys for submits before any store exists on its
    side of the wire.
    """
    raw = (version, config.cache_key(), tuple(apps))
    return hashlib.sha256(repr(raw).encode()).hexdigest()


@dataclass
class StoreStats:
    """What :meth:`ResultStore.stats` reports (and ``repro cache stats``)."""

    entries: int = 0
    bytes: int = 0
    quarantined: int = 0
    quarantined_bytes: int = 0
    stale_tmp: int = 0

    def as_dict(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "quarantined": self.quarantined,
            "quarantined_bytes": self.quarantined_bytes,
            "stale_tmp": self.stale_tmp,
        }


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    ok: int = 0
    corrupt: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def as_dict(self) -> dict:
        return {"ok": self.ok, "corrupt": sorted(self.corrupt)}


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` pass removed."""

    quarantined_removed: int = 0
    tmp_removed: int = 0

    def as_dict(self) -> dict:
        return {
            "quarantined_removed": self.quarantined_removed,
            "tmp_removed": self.tmp_removed,
        }


class ResultStore:
    """Persistent store of :class:`MixResult` objects, one file per job.

    Reads and writes go by ``(config, apps)`` (:meth:`get` /
    :meth:`put`, what a runner needs) or by content-addressed key
    (:meth:`get_bytes` / :meth:`publish`, what an HTTP service needs);
    both go through the same digest-verified path.  Lookups never
    raise on corruption: a bad entry is quarantined and reads as a
    miss.
    """

    def __init__(
        self, cache_dir: str | os.PathLike, version: int = CACHE_SCHEMA_VERSION
    ) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.version = version
        self.hits = 0
        self.misses = 0
        #: Entries quarantined because they could not be read back.
        self.corrupt = 0
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Remove ``*.tmp`` orphans left by crashed writers; return count.

        Only files older than :data:`STALE_TMP_SECONDS` are removed: a
        young temp file belongs to a writer between fsync and link, and
        unlinking it under that writer turns its atomic publish into a
        FileNotFoundError.
        """
        removed = 0
        now = time.time()  # repro: allow(DET002) file-age housekeeping, not simulation
        for tmp in sorted(self.cache_dir.glob("*.tmp")):
            try:
                if now - tmp.stat().st_mtime > STALE_TMP_SECONDS:
                    tmp.unlink()
                    removed += 1
                    log.warning("removed stale store temp file %s", tmp)
            except OSError:
                pass  # already gone, or unreadable -- leave it
        return removed

    # ------------------------------------------------------------------
    # keys and paths

    def key_for(self, config: SystemConfig, apps: Sequence[str]) -> str:
        """The content-addressed key (hex digest) of one job."""
        return job_key(config, apps, self.version)

    def path_for_key(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self.cache_dir / f"{key}.pkl"

    def path_for(self, config: SystemConfig, apps: Sequence[str]) -> Path:
        """Entry path for one job (exposed for inspection/tests)."""
        return self.path_for_key(self.key_for(config, apps))

    @property
    def quarantine_dir(self) -> Path:
        return self.cache_dir / "quarantine"

    def has(self, key: str) -> bool:
        return self.path_for_key(key).exists()

    def keys(self) -> list[str]:
        """Keys of every entry currently on disk, sorted."""
        return sorted(p.stem for p in self.cache_dir.glob("*.pkl"))

    def __len__(self) -> int:
        # Counting only -- entry order cannot influence the result.
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))  # repro: allow(DET006) count only

    def clear(self) -> None:
        """Delete every entry."""
        for entry in sorted(self.cache_dir.glob("*.pkl")):
            try:
                entry.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # reads

    def _quarantine(self, path: Path, reason: str) -> None:
        self.corrupt += 1
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Lost a race (another reader quarantined it first); the
            # warning below still records the sighting.
            target = path
        log.warning(
            "quarantined corrupt store entry %s -> %s (%s); will re-simulate",
            path.name, target, reason,
        )

    @staticmethod
    def _valid_payload(result: object) -> bool:
        """Schema check: only a well-formed :class:`MixResult` may escape.

        A wrong-type payload (hand-edited file, version skew, a pickle
        of something else entirely) would otherwise propagate into
        figure drivers and corrupt their output silently.
        """
        return (
            isinstance(result, MixResult)
            and isinstance(getattr(result, "apps", None), tuple)
            and getattr(result, "core", None) is not None
            and getattr(result, "hierarchy", None) is not None
        )

    def get(self, config: SystemConfig, apps: Sequence[str]) -> MixResult | None:
        """The stored result of one job, or None (miss or corrupt)."""
        return self.get_by_key(self.key_for(config, apps))

    def get_bytes(self, key: str) -> bytes | None:
        """Raw payload bytes for ``key``, integrity-checked.

        The payload must hash to the digest that prefixes the entry
        file.  A short file or a mismatch quarantines the entry and
        reads as a miss — corruption never propagates to a caller.
        """
        path = self.path_for_key(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:  # pragma: no cover - unreadable file
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return None
        payload = _unframe(data)
        if payload is None:
            self._quarantine(path, "payload digest mismatch")
            return None
        self.hits += 1
        return payload

    def get_by_key(self, key: str) -> MixResult | None:
        """Decode the stored :class:`MixResult` under ``key``."""
        data = self.get_bytes(key)
        if data is None:
            return None
        try:
            result = pickle.loads(data)
        except Exception as exc:
            result = exc
        if not self._valid_payload(result):
            self._quarantine(
                self.path_for_key(key),
                f"payload is {type(result).__name__}, not a MixResult",
            )
            self.hits -= 1
            return None
        return result

    # ------------------------------------------------------------------
    # writes

    def publish(self, key: str, data: bytes) -> bool:
        """Atomically publish ``data`` under ``key``; first writer wins.

        The entry file is the payload's raw SHA-256 followed by the
        payload.  It is staged in a temp file named by pid *and* thread
        id: two threads of one process (two runners sharing a
        directory, a scheduler next to an API worker) stage to
        different files instead of interleaving writes into one.  The
        staged file is then hard-linked into place — link(2) fails if
        the name already exists, so of any number of racing writers
        *exactly one* observes success, with no check-then-act window.
        An existing entry is left untouched — every writer of a key
        produces the same deterministic bytes, so the loser just drops
        its copy; readers only ever observe a complete entry either
        way.  Returns True when this call installed the entry.
        """
        path = self.path_for_key(key)
        if path.exists():
            return False
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "wb") as handle:
            handle.write(hashlib.sha256(data).digest())
            handle.write(data)
            # Without the fsync a host crash can surface the link but
            # not the data, leaving a zero-length entry that passes the
            # atomic-publish contract while holding nothing.
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
            published = True
        except FileExistsError:
            published = False
        except OSError:  # pragma: no cover - fs without hard links
            # Degrade to replace: content is still atomic and correct,
            # only the exactly-one-True return is best-effort here.
            published = not path.exists()
            if published:
                os.replace(tmp, path)
                return True
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - already swept
            pass
        return published

    def put(
        self, config: SystemConfig, apps: Sequence[str], result: MixResult
    ) -> bool:
        """Persist ``result``; returns whether this call published it."""
        return self.publish(
            self.key_for(config, apps),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # ------------------------------------------------------------------
    # maintenance

    def stats(self) -> StoreStats:
        stats = StoreStats()
        for path in sorted(self.cache_dir.glob("*.pkl")):
            stats.entries += 1
            try:
                stats.bytes += path.stat().st_size
            except OSError:  # pragma: no cover - racing unlink
                pass
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                stats.quarantined += 1
                try:
                    stats.quarantined_bytes += path.stat().st_size
                except OSError:  # pragma: no cover - racing unlink
                    pass
        stats.stale_tmp = len(sorted(self.cache_dir.glob("*.tmp")))
        return stats

    def integrity(self) -> dict:
        """Cheap integrity summary for health/readiness reporting.

        Counts only — no hashing, no decoding — so ``/healthz`` can
        include it on every poll: entries on disk, the quarantine
        population, and the corrupt-read counter this process has
        accumulated.  A full :meth:`verify` remains the authoritative
        (and expensive) check.
        """
        entries = len(sorted(self.cache_dir.glob("*.pkl")))
        quarantined = (
            len(sorted(self.quarantine_dir.iterdir()))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "entries": entries,
            "quarantined": quarantined,
            "corrupt_reads": self.corrupt,
        }

    def verify(self) -> VerifyReport:
        """Re-hash every entry against its digest; quarantine mismatches."""
        report = VerifyReport()
        for path in sorted(self.cache_dir.glob("*.pkl")):
            try:
                data = path.read_bytes()
            except OSError:  # pragma: no cover - unreadable file
                report.corrupt.append(path.stem)
                self._quarantine(path, "unreadable during verify")
                continue
            if _unframe(data) is None:
                report.corrupt.append(path.stem)
                self._quarantine(path, "digest mismatch during verify")
            else:
                report.ok += 1
        return report

    def gc(self) -> GCReport:
        """Drain the quarantine and remove temp orphans.

        Quarantined entries exist only so repeated reads don't re-pay
        the decode failure; once an operator has inspected (or stopped
        caring about) them they are dead weight — before this existed
        ``quarantine/`` grew silently forever.
        """
        report = GCReport()
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                try:
                    path.unlink()
                    report.quarantined_removed += 1
                except OSError:  # pragma: no cover - racing unlink
                    pass
        report.tmp_removed = self._sweep_stale_tmp()
        return report


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "GCReport",
    "ResultStore",
    "StoreStats",
    "VerifyReport",
    "job_key",
    "payload_digest",
]
