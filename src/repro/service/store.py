"""Content-addressed, versioned store of simulation results.

:class:`ResultStore` is the one persistent home of
:class:`~repro.experiments.runner.MixResult` objects: behind a local
``--cache-dir`` run, and as the artifact store that schedulers and API
workers share.

* **Content-addressed keys** — an entry's name is the SHA-256 of
  ``(schema version, config.cache_key(), apps)``, so independently
  constructed runners, repeat CLI invocations and the service all find
  each other's results.
* **Integrity index** — ``index.json`` records each entry's payload
  SHA-256 and size.  Every read, by key or by ``(config, apps)``,
  verifies the bytes against the index before serving; a mismatch
  quarantines the entry and reads as a miss, so a flipped bit on disk
  can never reach a figure or an HTTP client.
* **Heal on read** — an entry with no index row (a crash between the
  publish and the index write, or a directory from before the index)
  is validated by unpickling on its first read and indexed then.
* **Atomic compare-and-publish writes** — all writes go through
  :meth:`ResultStore.publish_path` (fsynced temp file, first-writer-
  wins hard link), so concurrent schedulers/threads/processes cannot
  tear an entry, and the index update is folded in under a
  process-local lock.
* **Quarantine** — an entry that cannot be read back (torn pickle,
  garbage bytes, a payload that is not a :class:`MixResult`, a digest
  mismatch) is moved to ``quarantine/``, counted in ``corrupt`` apart
  from ``misses``, and logged; readers only ever see a miss.
* **Operator tooling** — :meth:`verify` re-hashes every entry against
  the index, :meth:`gc` drains the quarantine and stale temp files and
  prunes orphaned index rows, :meth:`reindex` rebuilds the index from
  the payloads.  The ``repro cache`` CLI drives all three.
"""

from __future__ import annotations

import hashlib
import json
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

#: Index document schema version.
INDEX_SCHEMA = 1

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


def payload_digest(data: bytes) -> str:
    """Integrity digest of one stored payload."""
    return hashlib.sha256(data).hexdigest()


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
    indexed: int = 0
    quarantined: int = 0
    quarantined_bytes: int = 0
    stale_tmp: int = 0

    def as_dict(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "indexed": self.indexed,
            "quarantined": self.quarantined,
            "quarantined_bytes": self.quarantined_bytes,
            "stale_tmp": self.stale_tmp,
        }


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    ok: int = 0
    healed: int = 0  # unindexed entries validated and indexed
    corrupt: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # indexed, no file

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.missing

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "healed": self.healed,
            "corrupt": sorted(self.corrupt),
            "missing": sorted(self.missing),
        }


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` pass removed."""

    quarantined_removed: int = 0
    tmp_removed: int = 0
    index_pruned: int = 0

    def as_dict(self) -> dict:
        return {
            "quarantined_removed": self.quarantined_removed,
            "tmp_removed": self.tmp_removed,
            "index_pruned": self.index_pruned,
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

    INDEX_NAME = "index.json"

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
        self._lock = threading.RLock()
        self._entries: dict[str, dict] = {}
        self._sweep_stale_tmp()
        self._load_index()

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
        """Delete every entry and its index row."""
        with self._lock:
            for entry in sorted(self.cache_dir.glob("*.pkl")):
                try:
                    entry.unlink()
                except OSError:
                    pass
            self._entries = {}
            self._save_index()

    # ------------------------------------------------------------------
    # index persistence

    @property
    def index_path(self) -> Path:
        return self.cache_dir / self.INDEX_NAME

    def _load_index(self) -> None:
        try:
            with open(self.index_path) as handle:
                doc = json.load(handle)
        except (FileNotFoundError, ValueError):
            self._entries = {}
            return
        if doc.get("schema") != INDEX_SCHEMA:
            self._entries = {}
            return
        entries = doc.get("entries", {})
        self._entries = entries if isinstance(entries, dict) else {}

    def _save_index(self) -> None:
        doc = {
            "schema": INDEX_SCHEMA,
            "entries": {k: self._entries[k] for k in sorted(self._entries)},
        }
        tmp = self.index_path.with_name(
            f"{self.index_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with open(tmp, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.index_path)

    def _index_entry(self, key: str, data: bytes) -> None:
        self._entries[key] = {
            "sha256": payload_digest(data),
            "size": len(data),
        }
        self._save_index()

    def index_record(self, key: str) -> dict | None:
        """The index row (sha256, size) for ``key``, if indexed."""
        record = self._entries.get(key)
        return dict(record) if record is not None else None

    # ------------------------------------------------------------------
    # reads

    def _quarantine(self, path: Path, reason: str) -> None:
        self.corrupt += 1
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Lost a race (another reader quarantined it, or a writer
            # healed it); the warning below still records the sighting.
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

        An indexed entry must hash to its recorded digest; an unindexed
        one must unpickle to a valid :class:`MixResult`, after which it
        is indexed so later reads pay only the hash.  Any failure
        quarantines the entry and reads as a miss — corruption never
        propagates to a caller.
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
        with self._lock:
            record = self._entries.get(key)
            if record is not None:
                if payload_digest(data) != record.get("sha256"):
                    del self._entries[key]
                    self._save_index()
                    self._quarantine(path, "payload digest mismatch")
                    return None
            else:
                if not self._decodes(data):
                    self._quarantine(path, "unindexed entry failed to decode")
                    return None
                self._index_entry(key, data)
        self.hits += 1
        return data

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

    @classmethod
    def _decodes(cls, data: bytes) -> bool:
        try:
            return cls._valid_payload(pickle.loads(data))
        except Exception:
            return False

    # ------------------------------------------------------------------
    # writes

    def publish(self, key: str, data: bytes) -> bool:
        """Compare-and-publish ``data`` under ``key``; True if installed.

        Losing the publish race is not an error — the winner's bytes
        are the same deterministic pickle — but either way the index
        ends up describing what is on disk.
        """
        path = self.path_for_key(key)
        with self._lock:
            published = self.publish_path(path, data)
            if published:
                self._index_entry(key, data)
            elif key not in self._entries:
                try:
                    self._index_entry(key, path.read_bytes())
                except OSError:  # pragma: no cover - entry vanished
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

    def publish_path(self, path: Path, data: bytes) -> bool:
        """Atomically publish ``data`` at ``path``; first writer wins.

        The temp file is named by pid *and* thread id: two threads of
        one process (two runners sharing a directory, a scheduler next
        to an API worker) stage to different files instead of
        interleaving writes into one.  The staged file is then
        hard-linked into place — link(2) fails if the name already
        exists, so of any number of racing writers *exactly one*
        observes success, with no check-then-act window.  An existing
        entry is left untouched — every writer of a key produces the
        same deterministic bytes, so the loser just drops its copy;
        readers only ever observe a complete entry either way.  The
        index is not touched here; :meth:`publish` adds the row.
        Returns True when this call installed the entry.
        """
        if path.exists():
            return False
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with open(tmp, "wb") as handle:
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
        with self._lock:
            stats.indexed = len(self._entries)
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
        include it on every poll: entries on disk vs. indexed, the
        quarantine population, and the corrupt-read counter this
        process has accumulated.  A full :meth:`verify` remains the
        authoritative (and expensive) check.
        """
        with self._lock:
            indexed = len(self._entries)
        entries = len(sorted(self.cache_dir.glob("*.pkl")))
        quarantined = (
            len(sorted(self.quarantine_dir.iterdir()))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "entries": entries,
            "indexed": indexed,
            "quarantined": quarantined,
            "corrupt_reads": self.corrupt,
        }

    def verify(self) -> VerifyReport:
        """Re-hash every entry against the index; quarantine mismatches."""
        report = VerifyReport()
        with self._lock:
            on_disk = {p.stem: p for p in sorted(self.cache_dir.glob("*.pkl"))}
            for key in sorted(set(self._entries) | set(on_disk)):
                path = on_disk.get(key)
                if path is None:
                    report.missing.append(key)
                    del self._entries[key]
                    continue
                try:
                    data = path.read_bytes()
                except OSError:  # pragma: no cover - unreadable file
                    report.corrupt.append(key)
                    self._quarantine(path, "unreadable during verify")
                    continue
                record = self._entries.get(key)
                if record is None:
                    if self._decodes(data):
                        self._entries[key] = {
                            "sha256": payload_digest(data),
                            "size": len(data),
                        }
                        report.healed += 1
                    else:
                        report.corrupt.append(key)
                        self._quarantine(path, "undecodable during verify")
                    continue
                if payload_digest(data) != record.get("sha256"):
                    report.corrupt.append(key)
                    del self._entries[key]
                    self._quarantine(path, "digest mismatch during verify")
                else:
                    report.ok += 1
            self._save_index()
        return report

    def reindex(self) -> int:
        """Rebuild the index from the payloads; returns entry count."""
        with self._lock:
            self._entries = {}
            for path in sorted(self.cache_dir.glob("*.pkl")):
                try:
                    data = path.read_bytes()
                except OSError:  # pragma: no cover - racing unlink
                    continue
                if self._decodes(data):
                    self._entries[path.stem] = {
                        "sha256": payload_digest(data),
                        "size": len(data),
                    }
            self._save_index()
            return len(self._entries)

    def gc(self) -> GCReport:
        """Drain the quarantine, remove temp orphans, prune the index.

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
        with self._lock:
            live = {p.stem for p in sorted(self.cache_dir.glob("*.pkl"))}
            orphans = [k for k in self._entries if k not in live]
            for key in orphans:
                del self._entries[key]
            if orphans:
                self._save_index()
            report.index_pruned = len(orphans)
        return report


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "GCReport",
    "INDEX_SCHEMA",
    "ResultStore",
    "StoreStats",
    "VerifyReport",
    "job_key",
    "payload_digest",
]
