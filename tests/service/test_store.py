"""Tests for the content-addressed ResultStore."""

import hashlib
import os
import pickle
import struct
import threading
import time

from repro.experiments.runner import run_mix
from repro.service.store import (
    STALE_TMP_SECONDS,
    ResultStore,
    job_key,
)


def _payload(config, apps=("gzip",)):
    return pickle.dumps(
        run_mix(config, apps), protocol=pickle.HIGHEST_PROTOCOL
    )


def _flip_float_bit(path, value):
    """Flip the lowest mantissa bit of the one pickled float ``value``
    in the entry at ``path``; returns the new file bytes."""
    data = bytearray(path.read_bytes())
    # BINFLOAT opcode, then the big-endian double.
    needle = b"G" + struct.pack(">d", value)
    at = data.find(needle)
    assert at >= 0 and data.count(needle) == 1
    data[at + 8] ^= 1
    path.write_bytes(bytes(data))
    return bytes(data)


class TestKeys:
    def test_key_matches_cache_file_naming(self, tiny_config, tmp_path):
        """Reads by key and by job address the same file."""
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        path = store.path_for(tiny_config, ("gzip",))
        assert store.path_for_key(key) == path
        assert path == tmp_path / f"{job_key(tiny_config, ('gzip',))}.pkl"

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../escape", "ABCDEF", "deadbeef/../../x"):
            try:
                store.path_for_key(bad)
            except ValueError:
                continue
            raise AssertionError(f"malformed key accepted: {bad!r}")


class TestPublish:
    def test_first_writer_wins(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        data = _payload(tiny_config)
        assert store.publish(key, data) is True
        assert store.publish(key, data) is False
        assert store.get_bytes(key) == data

    def test_put_returns_publish_outcome(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        assert store.put(tiny_config, ("gzip",), result) is True
        assert store.put(tiny_config, ("gzip",), result) is False

    def test_concurrent_writers_single_entry(self, tiny_config, tmp_path):
        """Regression: two runners sharing a cache dir race on one key.

        Before compare-and-publish, both writers staged to the *same*
        pid-named temp file; interleaved writes could tear it.  Now
        each stages privately and exactly one hard-link publishes
        (link(2) fails on an existing name, so there is no
        check-then-act window).
        """
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        data = _payload(tiny_config)
        outcomes = []
        barrier = threading.Barrier(8)

        def writer():
            barrier.wait()
            outcomes.append(store.publish(key, data))

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(outcomes) == 1  # exactly one publish succeeded
        assert store.get_bytes(key) == data
        assert not list(tmp_path.glob("*.tmp"))  # losers cleaned up

    def test_concurrent_cache_writers_two_instances(
        self, tiny_config, tmp_path
    ):
        """Two independent store objects over one directory."""
        a, b = ResultStore(tmp_path), ResultStore(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        outcomes = []
        barrier = threading.Barrier(2)

        def writer(cache):
            barrier.wait()
            outcomes.append(cache.put(tiny_config, ("gzip",), result))

        threads = [
            threading.Thread(target=writer, args=(c,)) for c in (a, b)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(outcomes) == 1
        loaded = ResultStore(tmp_path).get(tiny_config, ("gzip",))
        assert loaded is not None and loaded.ipcs == result.ipcs


class TestIntegrity:
    def test_index_written_and_verified(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        data = _payload(tiny_config)
        store.publish(key, data)
        entry = store.path_for_key(key).read_bytes()
        assert entry[:32] == hashlib.sha256(data).digest()
        assert entry[32:] == data
        report = store.verify()
        assert report.clean and report.ok == 1

    def test_tampered_entry_quarantined(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        store.publish(key, _payload(tiny_config))
        store.path_for_key(key).write_bytes(b"flipped bits")
        assert store.get_bytes(key) is None  # digest mismatch -> miss
        assert store.corrupt == 1
        assert (store.quarantine_dir / f"{key}.pkl").exists()

    def test_get_verifies_digest(self, tiny_config, tmp_path):
        """A bit flipped inside a pickled float still unpickles, to a
        different result; only the digest can tell.  ``get`` must
        quarantine the entry instead of serving it."""
        store = ResultStore(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        store.put(tiny_config, ("gzip",), result)
        path = store.path_for(tiny_config, ("gzip",))
        data = _flip_float_bit(path, result.core.int_issue_coverage)
        assert pickle.loads(data[32:]) != result  # decodes, but wrong
        assert store.get(tiny_config, ("gzip",)) is None
        assert store.corrupt == 1
        assert (store.quarantine_dir / path.name).exists()

    def test_unindexed_garbage_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" * 32
        store.path_for_key(key).write_bytes(b"not a pickle")
        assert store.get_bytes(key) is None
        assert store.corrupt == 1

    def test_last_writer_cannot_unprotect_another_stores_entry(
        self, tiny_config, tmp_path
    ):
        """Two stores over one directory each publish a result; a bit
        then flips in the first entry.  Its digest lives in the entry
        itself, so no other process's write can leave it unchecked."""
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        other = tiny_config.with_(scheduler="fcfs")
        result = run_mix(tiny_config, ("gzip",))
        first.put(tiny_config, ("gzip",), result)
        second.put(other, ("gzip",), run_mix(other, ("gzip",)))
        _flip_float_bit(
            first.path_for(tiny_config, ("gzip",)),
            result.core.int_issue_coverage,
        )
        fresh = ResultStore(tmp_path)
        assert fresh.get(tiny_config, ("gzip",)) is None
        assert fresh.corrupt == 1


class TestMaintenance:
    def test_stats(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        data = _payload(tiny_config)
        store.publish(store.key_for(tiny_config, ("gzip",)), data)
        stats = store.stats()
        assert stats.entries == 1
        assert stats.bytes == 32 + len(data)  # digest prefix + payload
        assert stats.quarantined == 0 and stats.stale_tmp == 0

    def test_gc_drains_quarantine_and_prunes(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        store.publish(key, _payload(tiny_config))
        store.path_for_key(key).write_bytes(b"junk")
        assert store.get_bytes(key) is None  # quarantines + removes file
        leftover = tmp_path / "leftover.pkl.123.456.tmp"
        leftover.write_bytes(b"")
        # Backdate it: only *stale* tmp files are orphans — a young one
        # may belong to a writer mid-publish and must be left alone.
        old = time.time() - 2 * STALE_TMP_SECONDS
        os.utime(leftover, (old, old))
        fresh = tmp_path / "inflight.pkl.789.012.tmp"
        fresh.write_bytes(b"")
        report = store.gc()
        assert report.quarantined_removed == 1
        assert report.tmp_removed == 1
        assert fresh.exists()  # in-flight writer's tmp survives
        fresh.unlink()
        assert store.stats().quarantined == 0


class TestModuleLevelKey:
    def test_job_key_matches_store_derivation(self, tiny_config, tmp_path):
        """The client-side key (no store instance) is the store's key."""
        store = ResultStore(tmp_path)
        for apps in (("gzip",), ("mcf", "art")):
            assert job_key(tiny_config, apps) == store.key_for(
                tiny_config, apps
            )

    def test_integrity_summary_is_cheap_and_accurate(
        self, tiny_config, tmp_path
    ):
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        store.publish(key, _payload(tiny_config))
        assert store.integrity() == {
            "entries": 1, "quarantined": 0, "corrupt_reads": 0,
        }
        store.path_for_key(key).write_bytes(b"junk")
        assert store.get_bytes(key) is None
        summary = store.integrity()
        assert summary["entries"] == 0 and summary["quarantined"] == 1
        assert summary["corrupt_reads"] == 1


class TestConcurrentMaintenance:
    """Satellite: verify/gc racing live writers and quarantine collisions."""

    def _payloads(self, tiny_config, n):
        configs = [
            tiny_config.with_(instructions_per_thread=300 + 10 * i)
            for i in range(n)
        ]
        return [
            (job_key(c, ("gzip",)), _payload(c)) for c in configs
        ]

    def test_verify_under_concurrent_writers(self, tiny_config, tmp_path):
        """verify() racing publishers must neither crash nor quarantine
        a good entry; once writers finish, the store verifies clean."""
        store = ResultStore(tmp_path)
        jobs = self._payloads(tiny_config, 6)
        barrier = threading.Barrier(7)
        errors = []

        def writer(key, data):
            barrier.wait()
            try:
                store.publish(key, data)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def verifier():
            barrier.wait()
            try:
                for _ in range(5):
                    report = store.verify()
                    assert not report.corrupt
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=job) for job in jobs
        ] + [threading.Thread(target=verifier)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        final = store.verify()
        assert final.clean and final.ok == len(jobs)
        for key, data in jobs:
            assert store.get_bytes(key) == data

    def test_gc_under_concurrent_writers(self, tiny_config, tmp_path):
        """gc() draining quarantine/tmp while publishers land new
        entries must not eat a freshly published result."""
        store = ResultStore(tmp_path)
        (store.quarantine_dir).mkdir(exist_ok=True)
        (store.quarantine_dir / "old.pkl").write_bytes(b"junk")
        jobs = self._payloads(tiny_config, 6)
        barrier = threading.Barrier(7)
        errors = []

        def writer(key, data):
            barrier.wait()
            try:
                store.publish(key, data)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        def collector():
            barrier.wait()
            try:
                for _ in range(5):
                    store.gc()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=job) for job in jobs
        ] + [threading.Thread(target=collector)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        store.gc()
        assert store.stats().quarantined == 0
        for key, data in jobs:
            assert store.get_bytes(key) == data
        assert store.verify().clean

    def test_quarantine_directory_collision(self, tiny_config, tmp_path):
        """A file squatting on the quarantine *path* must not crash a
        read of a corrupt entry -- the store degrades to counting the
        sighting and reporting a miss."""
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        store.publish(key, _payload(tiny_config))
        store.path_for_key(key).write_bytes(b"flipped bits")
        store.quarantine_dir.parent.mkdir(exist_ok=True)
        (tmp_path / "quarantine").write_bytes(b"not a directory")
        assert store.get_bytes(key) is None  # miss, not an exception
        assert store.corrupt == 1
        # The corrupt file stayed put (couldn't be moved), so the next
        # read pays the check again but still degrades gracefully.
        assert store.get_bytes(key) is None

    def test_concurrent_quarantine_of_one_entry(self, tiny_config, tmp_path):
        """Two readers hitting the same corrupt entry race to
        quarantine it; the loser's os.replace fails and both report a
        miss."""
        store = ResultStore(tmp_path)
        key = store.key_for(tiny_config, ("gzip",))
        store.publish(key, _payload(tiny_config))
        store.path_for_key(key).write_bytes(b"flipped bits")
        barrier = threading.Barrier(4)
        outcomes = []

        def reader():
            barrier.wait()
            outcomes.append(store.get_bytes(key))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == [None] * 4
        assert (store.quarantine_dir / f"{key}.pkl").exists()
