"""Tests for pooled execution and the persistent store behind a Runner."""

import pickle

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.cli import _make_runner, build_parser
from repro.experiments.figures import run_experiment
from repro.experiments.runner import Runner, run_mix
from repro.service.store import CACHE_SCHEMA_VERSION, ResultStore
from repro.workloads.mixes import MIXES


def _count_simulations(monkeypatch) -> list:
    """Record the apps of every fresh simulation a runner starts."""
    calls = []
    real = runner_mod._simulate

    def counting(config, apps, **kwargs):
        calls.append(apps)
        return real(config, apps, **kwargs)

    monkeypatch.setattr(runner_mod, "_simulate", counting)
    return calls


def _forbid_simulation(monkeypatch) -> None:
    def explode(config, apps, **kwargs):
        raise AssertionError(f"unexpected simulation of {apps}")

    monkeypatch.setattr(runner_mod, "_simulate", explode)


class TestResultCache:
    """The store in its result-cache role: reads and writes by job."""

    def test_roundtrip(self, tiny_config, tmp_path):
        cache = ResultStore(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        loaded = cache.get(tiny_config, ("gzip",))
        assert loaded is not None
        assert loaded.ipcs == result.ipcs
        assert loaded.core.cycles == result.core.cycles

    def test_empty_cache_misses(self, tiny_config, tmp_path):
        cache = ResultStore(tmp_path)
        assert cache.get(tiny_config, ("gzip",)) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_keyed_by_config_and_apps(self, tiny_config, tmp_path):
        cache = ResultStore(tmp_path)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        assert cache.get(tiny_config, ("eon",)) is None
        assert cache.get(tiny_config.with_(channels=4), ("gzip",)) is None

    def test_version_bump_invalidates(self, tiny_config, tmp_path):
        cache = ResultStore(tmp_path, version=CACHE_SCHEMA_VERSION)
        result = run_mix(tiny_config, ("gzip",))
        cache.put(tiny_config, ("gzip",), result)
        bumped = ResultStore(tmp_path, version=CACHE_SCHEMA_VERSION + 1)
        assert bumped.get(tiny_config, ("gzip",)) is None
        # ... and the old stamp still resolves.
        same = ResultStore(tmp_path, version=CACHE_SCHEMA_VERSION)
        assert same.get(tiny_config, ("gzip",)) is not None

    def test_corrupt_entry_is_a_miss(self, tiny_config, tmp_path):
        cache = ResultStore(tmp_path)
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
        cache = ResultStore(tmp_path)
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
        cache = ResultStore(tmp_path)
        cache.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        cache.path_for(tiny_config, ("gzip",)).write_bytes(b"garbage")
        with caplog.at_level("WARNING", logger="repro.service.store"):
            assert cache.get(tiny_config, ("gzip",)) is None
        assert any("quarantined" in r.message for r in caplog.records)

    def test_wrong_type_payload_rejected(
        self, tiny_config, tmp_path, caplog
    ):
        """Satellite: a valid pickle of the wrong type must not escape.

        A wrong-type payload used to propagate straight into figure
        drivers; now the schema check quarantines it like any other
        corruption.  The imposter is published through the store, so
        its digest checks out and the schema check is what rejects it.
        """
        import pickle as _pickle

        cache = ResultStore(tmp_path)
        cache.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        path = cache.path_for(tiny_config, ("gzip",))
        path.unlink()
        cache.publish(path.stem, _pickle.dumps({"imposter": True}))
        with caplog.at_level("WARNING", logger="repro.service.store"):
            assert cache.get(tiny_config, ("gzip",)) is None
        assert cache.corrupt == 1
        assert (cache.quarantine_dir / path.name).exists()
        assert any("not a MixResult" in r.getMessage() for r in caplog.records)

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
        ResultStore(tmp_path)
        assert not stale.exists()
        assert fresh.exists()

    def test_len_and_clear(self, tiny_config, tmp_path):
        cache = ResultStore(tmp_path)
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
    cache = ResultStore(cache_dir)
    for _ in range(rounds):
        cache.put(config, apps, result)
    return True


class TestResultCacheConcurrency:
    """The publish path under concurrent writers."""

    def test_concurrent_writers_never_tear_an_entry(
        self, tiny_config, tmp_path
    ):
        from concurrent.futures import ProcessPoolExecutor

        result = run_mix(tiny_config, ("gzip",))
        cache = ResultStore(tmp_path)
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
        cache = ResultStore(tmp_path)
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
        results = Runner().run_many(jobs)
        assert [r.apps for r in results] == [("mcf",), ("gzip",), ("mcf", "gzip")]

    def test_duplicate_jobs_simulated_once(self, tiny_config, monkeypatch):
        calls = _count_simulations(monkeypatch)
        results = Runner().run_many(
            [(tiny_config, ("gzip",)), (tiny_config, ("gzip",))]
        )
        assert len(calls) == 1
        assert results[0] is results[1]

    def test_memo_consulted_and_populated(self, tiny_config, monkeypatch):
        calls = _count_simulations(monkeypatch)
        runner = Runner()
        first = runner.run_many([(tiny_config, ("gzip",))])
        second = runner.run_many([(tiny_config, ("gzip",))])
        assert second[0] is first[0]
        assert calls == [("gzip",)]


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_serial(self, tiny_config):
        """The paper's figure fan-outs must not depend on worker count.

        Two figure-style job sets (fig2: fetch policies; fig6: channel
        counts) run serially and across four worker processes; every
        result must pickle to the same bytes.
        """
        mix = MIXES["2-MIX"]
        jobs = [
            (tiny_config.with_(fetch_policy=p), mix.apps)
            for p in ("icount", "dwarn")
        ] + [
            (tiny_config.with_(channels=n, gang=1), MIXES["2-MEM"].apps)
            for n in (2, 4)
        ]
        serial = Runner().run_many(jobs)
        pooled = Runner(jobs=4).run_many(jobs)
        for s, p in zip(serial, pooled):
            assert pickle.dumps(s) == pickle.dumps(p)

    def test_parallel_runner_figure_rows_match_serial(self, tiny_config):
        mixes = ["2-MEM"]
        serial = run_experiment(
            "fig4", config=tiny_config, runner=Runner(), mixes=mixes
        )
        pooled = run_experiment(
            "fig4", config=tiny_config, runner=Runner(jobs=2), mixes=mixes,
        )
        assert serial.rows == pooled.rows


class TestProvenance:
    """One source per route: every runner width records the same way."""

    JOBS = (("gzip",), ("mcf",))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_hits_record_disk_cache(self, tiny_config, tmp_path, jobs):
        batch = [(tiny_config, apps) for apps in self.JOBS]
        Runner(cache=ResultStore(tmp_path)).run_many(batch)
        warm = Runner(jobs=jobs, cache=ResultStore(tmp_path))
        warm.run_many(batch)
        assert [(r.source, r.wall_time_s) for r in warm.records] == [
            ("disk-cache", 0.0), ("disk-cache", 0.0),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fresh_jobs_record_their_own_wall_time(
        self, tiny_config, monkeypatch, jobs
    ):
        measured = {}
        real = runner_mod.execute_jobs

        def spying(job_list, simulate, on_complete, **kwargs):
            def spy(i, result, wall_s):
                measured[job_list[i][1]] = wall_s
                on_complete(i, result, wall_s)

            return real(job_list, simulate, on_complete=spy, **kwargs)

        monkeypatch.setattr(runner_mod, "execute_jobs", spying)
        runner = Runner(jobs=jobs)
        runner.run_many([(tiny_config, apps) for apps in self.JOBS])
        assert sorted(measured) == sorted(self.JOBS)
        assert {r.apps: (r.source, r.wall_time_s) for r in runner.records} == {
            apps: ("simulated", wall_s) for apps, wall_s in measured.items()
        }


class TestPersistentReuse:
    def test_warm_cache_runs_zero_simulations(
        self, tiny_config, tmp_path, monkeypatch
    ):
        jobs = [(tiny_config, ("gzip",)), (tiny_config, ("gzip", "mcf"))]
        first = Runner(cache=ResultStore(tmp_path)).run_many(jobs)
        _forbid_simulation(monkeypatch)  # a warm rerun must never simulate
        second = Runner(cache=ResultStore(tmp_path)).run_many(jobs)
        assert [r.ipcs for r in second] == [r.ipcs for r in first]

    def test_version_bump_forces_resimulation(
        self, tiny_config, tmp_path, monkeypatch
    ):
        Runner(cache=ResultStore(tmp_path)).run_many([(tiny_config, ("gzip",))])
        calls = _count_simulations(monkeypatch)
        bumped = ResultStore(tmp_path, version=CACHE_SCHEMA_VERSION + 1)
        Runner(cache=bumped).run_many([(tiny_config, ("gzip",))])
        assert calls == [("gzip",)]
    def test_runners_share_baselines_through_cache(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """Satellite fix: independently constructed runners must not
        re-run identical single-thread baselines when they share the
        persistent cache."""
        cache = ResultStore(tmp_path)
        first = Runner(cache=cache)
        baseline = first.single(tiny_config, "gzip")

        monkeypatch.setattr(
            runner_mod,
            "run_mix",
            lambda config, apps: (_ for _ in ()).throw(
                AssertionError("baseline should come from the cache")
            ),
        )
        second = Runner(cache=ResultStore(tmp_path))
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
    """The Runner's execution options."""

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)

    def test_cache_dir_creates_cache(self, tmp_path):
        args = build_parser().parse_args(
            ["fig4", "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        )
        runner = _make_runner(args)
        assert isinstance(runner.cache, ResultStore)
        assert runner.jobs == 2
        assert (tmp_path / "cache").is_dir()

    def test_default_has_no_persistent_cache(self):
        assert Runner().cache is None

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
