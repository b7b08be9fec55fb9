"""Chaos suite: inject real faults, assert bit-identical recovery.

Every test here runs actual process pools, kills actual workers, or
corrupts actual store files, then checks the one property the
resilience layer exists to provide: a recovered batch produces results
*bit-identical* to an undisturbed run.  The suite is excluded from the
tier-1 run (pool startup and deliberate hangs cost seconds); the CI
``chaos`` lane runs it with ``pytest -m chaos``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import SimulationTimeout, WorkerCrashed
from repro.experiments.config import SystemConfig
from repro.experiments.resilience import JobLog, RetryPolicy
from repro.experiments.runner import Runner
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    corrupt_cache_entry,
)
from repro.service.store import ResultStore

pytestmark = pytest.mark.chaos

JOBS_PER_BATCH = 4


@pytest.fixture(scope="module")
def config() -> SystemConfig:
    """Module-scoped twin of ``tiny_config`` (which is function-scoped,
    so the module-scoped ``clean_run`` fixture below cannot use it)."""
    return SystemConfig(
        scale=32,
        instructions_per_thread=300,
        warmup_instructions=100,
        seed=99,
    )


def _jobs(config):
    return [
        (config, ("gzip",)),
        (config, ("mcf",)),
        (config, ("gzip", "mcf")),
        (config, ("bzip2", "art")),
    ]


def _fingerprints(results):
    """Everything observable about a batch, for bit-identity checks."""
    return [
        (r.apps, tuple(r.ipcs), r.core.cycles, r.row_buffer_miss_rate)
        for r in results
    ]


@pytest.fixture(scope="module")
def clean_run(config):
    """The undisturbed reference batch every recovery is compared to."""
    return _fingerprints(Runner().run_many(_jobs(config)))


class TestPoolRecovery:
    def test_killed_worker_recovers_bit_identically(
        self, config, clean_run
    ):
        """A worker hard-killed mid-batch (os._exit, i.e. a segfault
        stand-in) breaks the pool; the batch rebuilds it, retries the
        lost job, and still produces the clean run's exact results."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", apps=("mcf",), attempt=0),)
        )
        runner = Runner(
            jobs=2, retry_policy=RetryPolicy(retries=1), fault_plan=plan
        )
        results = runner.run_many(_jobs(config))
        stats = runner.resilience
        assert _fingerprints(results) == clean_run
        assert stats.worker_crashes >= 1
        assert stats.pool_rebuilds >= 1

    def test_persistent_crash_raises_worker_crashed(self, config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", apps=("mcf",), attempt=None),)
        )
        runner = Runner(
            jobs=2, retry_policy=RetryPolicy(retries=1), fault_plan=plan
        )
        with pytest.raises(WorkerCrashed) as info:
            runner.run_many(_jobs(config))
        # a broken pool cannot identify the culprit, so every in-flight
        # job is charged the crash -- the job that exhausts its attempts
        # first may be a collateral one, but it always carries identity
        assert info.value.apps in {apps for _, apps in _jobs(config)}
        assert info.value.failures[-1].kind == "crash"

    def test_hung_worker_times_out_and_recovers(self, config, clean_run):
        """A worker that hangs (sleep far past the budget) is killed by
        the watchdog; the retried batch matches the clean run."""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="hang", apps=("mcf",), attempt=0, seconds=60.0),
            )
        )
        runner = Runner(
            jobs=2,
            retry_policy=RetryPolicy(retries=1, timeout_s=3.0),
            fault_plan=plan,
        )
        results = runner.run_many(_jobs(config))
        assert _fingerprints(results) == clean_run
        assert runner.resilience.timeouts == 1

    def test_hung_worker_without_retries_raises_timeout(self, config):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="hang", apps=("mcf",), attempt=None, seconds=60.0),
            )
        )
        runner = Runner(
            jobs=2,
            retry_policy=RetryPolicy(retries=0, timeout_s=2.0),
            fault_plan=plan,
        )
        with pytest.raises(SimulationTimeout) as info:
            runner.run_many(_jobs(config))
        assert info.value.apps == ("mcf",)
        assert info.value.failures[-1].kind == "timeout"

    def test_serial_fallback_after_rebuild_budget(self, config, clean_run):
        """When the pool keeps dying past ``max_pool_rebuilds``, the
        batch degrades to in-process serial execution and completes.
        (Faults only fire in attempts 0-1, so the serial pass — which
        runs later attempts — succeeds.)"""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="crash", apps=("mcf",), attempt=0),
                FaultSpec(kind="crash", apps=("mcf",), attempt=1),
            )
        )
        runner = Runner(
            jobs=2,
            retry_policy=RetryPolicy(retries=3, max_pool_rebuilds=0),
            fault_plan=plan,
        )
        results = runner.run_many(_jobs(config))
        assert _fingerprints(results) == clean_run
        assert runner.resilience.serial_fallbacks == 1


class TestCacheChaos:
    def test_corrupt_entry_quarantined_and_recomputed(
        self, config, tmp_path, clean_run
    ):
        """End-to-end: corrupt a cache file between runs; the next run
        quarantines it, re-simulates, and matches the clean batch."""
        cache = ResultStore(tmp_path / "cache")
        Runner(cache=cache).run_many(_jobs(config))
        corrupted = corrupt_cache_entry(
            cache, config, ("mcf",), mode="truncate"
        )
        assert corrupted.exists()
        fresh = ResultStore(tmp_path / "cache")
        results = Runner(cache=fresh).run_many(_jobs(config))
        assert _fingerprints(results) == clean_run
        assert fresh.corrupt == 1
        assert len(list(fresh.quarantine_dir.glob("*.pkl"))) == 1

    @pytest.mark.parametrize("mode", ["garbage", "empty", "wrong-type"])
    def test_every_corruption_mode_recovers(self, config, tmp_path, mode):
        cache = ResultStore(tmp_path / "cache")
        baseline = Runner(cache=cache).run_many([(config, ("gzip",))])
        corrupt_cache_entry(cache, config, ("gzip",), mode=mode)
        fresh = ResultStore(tmp_path / "cache")
        again = Runner(cache=fresh).run_many([(config, ("gzip",))])
        assert _fingerprints(again) == _fingerprints(baseline)
        assert fresh.corrupt == 1


class TestInterruptedBatchResume:
    def test_aborted_batch_resumes_bit_identically(
        self, config, tmp_path, clean_run
    ):
        """The headline property: fault aborts a batch partway; the
        resumed batch serves logged work from the cache, simulates
        only the remainder, and the full result set is bit-identical."""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="exception", apps=("gzip", "mcf"), attempt=None),
            )
        )
        journal = JobLog(tmp_path / "jobs.jsonl")
        runner = Runner(
            cache=ResultStore(tmp_path / "cache"),
            journal=journal,
            fault_plan=plan,
        )
        with pytest.raises(Exception):
            runner.run_many(_jobs(config))
        journal.close()
        completed_before = sum(
            1
            for line in (tmp_path / "jobs.jsonl").read_text().splitlines()
            if json.loads(line).get("outcome") == "done"
        )
        assert 0 < completed_before < JOBS_PER_BATCH

        resumed_journal = JobLog(tmp_path / "jobs.jsonl", resume=True)
        runner = Runner(
            cache=ResultStore(tmp_path / "cache"), journal=resumed_journal
        )
        results = runner.run_many(_jobs(config))
        resumed_journal.close()
        assert _fingerprints(results) == clean_run
        assert runner.resilience.resumed_jobs == completed_before

    def test_cli_abort_then_resume_is_byte_identical(self, tmp_path):
        """The full CLI contract, as the CI chaos lane runs it: a
        faulted ``fig10`` exits 3 and names its job log; the ``--resume``
        rerun exits 0 and its CSV is byte-for-byte the clean run's."""
        base = [
            sys.executable, "-m", "repro", "fig10",
            "--mixes", "2-MEM", "--instructions", "300", "--warmup", "100",
            "--scale", "32",
        ]
        env_base = {"REPRO_MANIFEST_DIR": str(tmp_path / "manifests")}

        def run(extra, *, faulted=False, check=True):
            env = {**os.environ, **env_base}
            if faulted:
                env[FAULT_PLAN_ENV] = str(plan_path)
            env.setdefault("PYTHONPATH", "src")
            proc = subprocess.run(
                base + extra, capture_output=True, text=True, env=env,
            )
            if check:
                assert proc.returncode == 0, proc.stderr
            return proc

        clean_csv = tmp_path / "clean.csv"
        run(["--csv", str(clean_csv)])

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            specs=(FaultSpec(kind="exception", rate=0.5, attempt=None),),
            seed=7,
        ).write(plan_path)
        cache_dir = tmp_path / "cache"
        faulted_csv = tmp_path / "faulted.csv"
        proc = run(
            ["--cache-dir", str(cache_dir), "--resume",
             "--csv", str(faulted_csv)],
            faulted=True,
            check=False,
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "--resume" in proc.stderr

        resumed_csv = tmp_path / "resumed.csv"
        run(["--cache-dir", str(cache_dir), "--resume",
             "--csv", str(resumed_csv)])
        assert resumed_csv.read_bytes() == clean_csv.read_bytes()

    def test_fast_engine_resume_matches_reference_clean_run(self, tmp_path):
        """A faulted ``--resume`` must land byte-identical to an
        undisturbed run: the resume path mixes cached (pre-crash)
        results with re-simulated ones, which the core's memo has
        already seen part of."""
        base = [
            sys.executable, "-m", "repro", "fig10",
            "--mixes", "2-MEM", "--instructions", "300", "--warmup", "100",
            "--scale", "32",
        ]
        env_base = {"REPRO_MANIFEST_DIR": str(tmp_path / "manifests")}

        def run(extra, *, faulted=False, check=True):
            env = {**os.environ, **env_base}
            if faulted:
                env[FAULT_PLAN_ENV] = str(plan_path)
            env.setdefault("PYTHONPATH", "src")
            proc = subprocess.run(
                base + extra, capture_output=True, text=True, env=env,
            )
            if check:
                assert proc.returncode == 0, proc.stderr
            return proc

        clean_csv = tmp_path / "clean.csv"
        run(["--csv", str(clean_csv)])

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            specs=(FaultSpec(kind="exception", rate=0.5, attempt=None),),
            seed=11,
        ).write(plan_path)
        cache_dir = tmp_path / "cache"
        proc = run(
            ["--cache-dir", str(cache_dir), "--resume",
             "--csv", str(tmp_path / "faulted.csv")],
            faulted=True,
            check=False,
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr

        resumed_csv = tmp_path / "resumed.csv"
        run(["--cache-dir", str(cache_dir), "--resume",
             "--csv", str(resumed_csv)])
        assert resumed_csv.read_bytes() == clean_csv.read_bytes()
