"""Tests for the parallel experiment engine and persistent result cache."""

import pickle

import pytest

import repro.experiments.parallel as parallel
import repro.experiments.runner as runner_mod
from repro.experiments.figures import run_experiment
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    ParallelRunner,
    ResultCache,
    run_many,
)
from repro.experiments.runner import Runner, run_mix
from repro.workloads.mixes import MIXES


class TestResultCache:
    def test_roundtrip(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        loaded = cache.get(tiny_config, ("gzip",))
        assert loaded is not None
        assert loaded.ipcs == result.ipcs
        assert loaded.core.cycles == result.core.cycles

    def test_empty_cache_misses(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(tiny_config, ("gzip",)) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_keyed_by_config_and_apps(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        assert cache.get(tiny_config, ("eon",)) is None
        assert cache.get(tiny_config.with_(channels=4), ("gzip",)) is None

    def test_version_bump_invalidates(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path, version=CACHE_SCHEMA_VERSION)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        bumped = ResultCache(tmp_path, version=CACHE_SCHEMA_VERSION + 1)
        assert bumped.get(tiny_config, ("gzip",)) is None
        # ... and the old stamp still resolves.
        same = ResultCache(tmp_path, version=CACHE_SCHEMA_VERSION)
        assert same.get(tiny_config, ("gzip",)) is not None

    def test_corrupt_entry_is_a_miss(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        # Different corruptions raise different exception classes from
        # pickle.load (UnpicklingError, ValueError, EOFError); every
        # one must read as a miss, never propagate.
        for garbage in (b"not a pickle", b"garbage\n", b""):
            cache.path_for(tiny_config, ("gzip",)).write_bytes(garbage)
            assert cache.get(tiny_config, ("gzip",)) is None

    def test_corrupt_entry_quarantined_not_rehit(self, tiny_config, tmp_path):
        """Satellite: corruption moves the file aside and is counted once.

        Before the quarantine, every lookup of a corrupt entry paid to
        fail on it again (and counted as a plain miss, hiding the
        corruption from operators).
        """
        cache = ResultCache(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        path = cache.path_for(tiny_config, ("gzip",))
        path.write_bytes(b"not a pickle")
        assert cache.get(tiny_config, ("gzip",)) is None
        assert cache.corrupt == 1 and cache.misses == 0
        # the entry is gone from the cache dir, parked in quarantine/
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()
        # the next lookup is an honest miss, not another decode failure
        assert cache.get(tiny_config, ("gzip",)) is None
        assert cache.corrupt == 1 and cache.misses == 1

    def test_corruption_logs_a_warning(self, tiny_config, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        cache.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        cache.path_for(tiny_config, ("gzip",)).write_bytes(b"garbage")
        with caplog.at_level("WARNING", logger="repro.experiments.parallel"):
            assert cache.get(tiny_config, ("gzip",)) is None
        assert any("quarantined" in r.message for r in caplog.records)

    def test_wrong_type_payload_rejected(self, tiny_config, tmp_path):
        """Satellite: a valid pickle of the wrong type must not escape.

        A wrong-type payload used to propagate straight into figure
        drivers; now the schema check quarantines it like any other
        corruption.
        """
        import pickle as _pickle

        cache = ResultCache(tmp_path)
        cache.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        path = cache.path_for(tiny_config, ("gzip",))
        path.write_bytes(_pickle.dumps({"imposter": True}))
        assert cache.get(tiny_config, ("gzip",)) is None
        assert cache.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()

    def test_stale_tmp_orphans_swept_on_init(self, tiny_config, tmp_path):
        """Satellite: crashed writers' temp files are cleaned up, but a
        live writer's fresh temp file is left alone."""
        import os as _os
        import time as _time

        stale = tmp_path / "deadbeef.pkl.12345.tmp"
        stale.write_bytes(b"half a result")
        old = _time.time() - 7200
        _os.utime(stale, (old, old))
        fresh = tmp_path / "cafe.pkl.67890.tmp"
        fresh.write_bytes(b"in flight right now")
        ResultCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()

    def test_len_and_clear(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_results_pickle_cleanly(self, tiny_config):
        result = run_mix(tiny_config, ("gzip", "mcf"))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.ipcs == result.ipcs
        assert clone.core.stall_cycles == result.core.stall_cycles


def _hammer_cache(cache_dir, config, apps, result, rounds):
    """Worker: rewrite the same cache entry over and over."""
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        cache.put(config, apps, result)
    return True


class TestResultCacheConcurrency:
    """Satellite: the os.replace write path under concurrent writers."""

    def test_concurrent_writers_never_tear_an_entry(
        self, tiny_config, tmp_path
    ):
        from concurrent.futures import ProcessPoolExecutor

        result = run_mix(tiny_config, ("gzip",))
        cache = ResultCache(tmp_path)
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(
                    _hammer_cache, tmp_path, tiny_config, ("gzip",),
                    result, 25,
                )
                for _ in range(4)
            ]
            # read while the writers race; a reader must only ever see
            # a complete entry or (transiently) none at all
            for _ in range(50):
                loaded = cache.get(tiny_config, ("gzip",))
                if loaded is not None:
                    assert loaded.core.cycles == result.core.cycles
            assert all(f.result() for f in futures)
        final = cache.get(tiny_config, ("gzip",))
        assert final is not None
        assert final.core.cycles == result.core.cycles
        # the per-pid temp files are always renamed away, never leaked
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_entry_then_rewrite_round_trip(
        self, tiny_config, tmp_path
    ):
        cache = ResultCache(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        path = cache.path_for(tiny_config, ("gzip",))
        path.write_bytes(b"\x80\x05 torn mid-write")
        assert cache.get(tiny_config, ("gzip",)) is None  # corrupt = miss
        cache.put(tiny_config, ("gzip",), result)  # heal in place
        healed = cache.get(tiny_config, ("gzip",))
        assert healed is not None
        assert healed.ipcs == result.ipcs
        # Corruption is counted apart from honest misses, and the bad
        # entry was quarantined rather than silently rewritten over.
        assert cache.corrupt == 1 and cache.misses == 0 and cache.hits == 1
        assert len(list(cache.quarantine_dir.glob("*.pkl"))) == 1


class TestRunMany:
    def test_preserves_job_order(self, tiny_config):
        jobs = [
            (tiny_config, ("mcf",)),
            (tiny_config, ("gzip",)),
            (tiny_config, ("mcf", "gzip")),
        ]
        results = run_many(jobs)
        assert [r.apps for r in results] == [("mcf",), ("gzip",), ("mcf", "gzip")]

    def test_duplicate_jobs_simulated_once(self, tiny_config, monkeypatch):
        calls = []
        real = parallel._simulate

        def counting(config, apps):
            calls.append(apps)
            return real(config, apps)

        monkeypatch.setattr(parallel, "_simulate", counting)
        results = run_many(
            [(tiny_config, ("gzip",)), (tiny_config, ("gzip",))]
        )
        assert len(calls) == 1
        assert results[0] is results[1]

    def test_memo_consulted_and_populated(self, tiny_config):
        memo = {}
        first = run_many([(tiny_config, ("gzip",))], memo=memo)
        assert len(memo) == 1
        second = run_many([(tiny_config, ("gzip",))], memo=memo)
        assert second[0] is first[0]


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_serial(self, tiny_config):
        """The paper's figure fan-outs must not depend on worker count.

        Two figure-style job sets (fig2: fetch policies; fig6: channel
        counts) run serially and across four worker processes; every
        per-mix metric must match bit for bit.
        """
        mix = MIXES["2-MIX"]
        jobs = [
            (tiny_config.with_(fetch_policy=p), mix.apps)
            for p in ("icount", "dwarn")
        ] + [
            (tiny_config.with_(channels=n, gang=1), MIXES["2-MEM"].apps)
            for n in (2, 4)
        ]
        serial = run_many(jobs, parallelism=1)
        pooled = run_many(jobs, parallelism=4)
        for s, p in zip(serial, pooled):
            assert s.ipcs == p.ipcs
            assert s.core.cycles == p.core.cycles
            assert s.row_buffer_miss_rate == p.row_buffer_miss_rate
            assert s.core.stall_cycles == p.core.stall_cycles
            assert s.hierarchy == p.hierarchy

    def test_parallel_runner_figure_rows_match_serial(self, tiny_config):
        mixes = ["2-MEM"]
        serial = run_experiment(
            "fig4", config=tiny_config, runner=Runner(), mixes=mixes
        )
        pooled = run_experiment(
            "fig4", config=tiny_config, runner=ParallelRunner(jobs=2),
            mixes=mixes,
        )
        assert serial.rows == pooled.rows


class TestPersistentReuse:
    def test_warm_cache_runs_zero_simulations(
        self, tiny_config, tmp_path, monkeypatch
    ):
        jobs = [(tiny_config, ("gzip",)), (tiny_config, ("gzip", "mcf"))]
        cache = ResultCache(tmp_path)
        first = run_many(jobs, cache=cache)

        def explode(config, apps):  # a warm rerun must never simulate
            raise AssertionError(f"unexpected simulation of {apps}")

        monkeypatch.setattr(parallel, "_simulate", explode)
        second = run_many(jobs, cache=ResultCache(tmp_path))
        assert [r.ipcs for r in second] == [r.ipcs for r in first]

    def test_version_bump_forces_resimulation(
        self, tiny_config, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        run_many([(tiny_config, ("gzip",))], cache=cache)
        calls = []
        real = parallel._simulate

        def counting(config, apps):
            calls.append(apps)
            return real(config, apps)

        monkeypatch.setattr(parallel, "_simulate", counting)
        bumped = ResultCache(tmp_path, version=CACHE_SCHEMA_VERSION + 1)
        run_many([(tiny_config, ("gzip",))], cache=bumped)
        assert calls == [("gzip",)]

    def test_runners_share_baselines_through_cache(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """Satellite fix: independently constructed runners must not
        re-run identical single-thread baselines when they share the
        persistent cache."""
        cache = ResultCache(tmp_path)
        first = Runner(cache=cache)
        baseline = first.single(tiny_config, "gzip")

        monkeypatch.setattr(
            runner_mod,
            "run_mix",
            lambda config, apps: (_ for _ in ()).throw(
                AssertionError("baseline should come from the cache")
            ),
        )
        second = Runner(cache=ResultCache(tmp_path))
        again = second.single(tiny_config, "gzip")
        assert again.ipcs == baseline.ipcs

    def test_runner_memoizes_mix_runs_in_process(
        self, tiny_config, monkeypatch
    ):
        runner = Runner()
        first = runner.run_mix(tiny_config, ["gzip", "mcf"])
        monkeypatch.setattr(
            runner_mod,
            "run_mix",
            lambda config, apps: (_ for _ in ()).throw(
                AssertionError("second identical run must hit the memo")
            ),
        )
        assert runner.run_mix(tiny_config, ["gzip", "mcf"]) is first


class TestParallelRunnerApi:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_cache_dir_creates_cache(self, tmp_path):
        runner = ParallelRunner(cache_dir=tmp_path / "cache")
        assert isinstance(runner.cache, ResultCache)
        assert (tmp_path / "cache").is_dir()

    def test_default_has_no_persistent_cache(self):
        assert ParallelRunner().cache is None

    def test_baseline_job_matches_single(self, tiny_config):
        runner = Runner()
        config, apps = runner.baseline_job(tiny_config, "gzip")
        assert apps == ("gzip",)
        assert (
            config.instructions_per_thread
            == tiny_config.instructions_per_thread * runner.baseline_multiplier
        )
        planned = runner.run_many([(config, apps)])[0]
        assert runner.single(tiny_config, "gzip") is planned
