"""Tests for the fault-tolerance layer (repro.experiments.resilience).

Pool-level chaos scenarios (killed workers, hung workers, end-to-end
resume bit-identity) live in ``tests/chaos``; this file covers the
units — retry policy, job log, and the serial failure paths of
``Runner.run_many`` — which run fast enough for tier-1.
"""

import json

import pytest

import repro.experiments.resilience as resilience
import repro.experiments.runner as runner_mod
from repro.common.errors import BatchAborted, WorkerCrashed
from repro.experiments.resilience import JobLog, RetryPolicy, execute_jobs
from repro.experiments.runner import Runner
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.service.store import ResultStore


class TestRetryPolicy:
    def test_defaults_are_fail_fast(self):
        policy = RetryPolicy()
        assert policy.retries == 0
        assert policy.timeout_s is None

    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.5)
        first = policy.backoff_s("job-a", 1)
        assert first == policy.backoff_s("job-a", 1)  # pure function
        assert 0.5 <= first <= 1.0  # base * (1 + jitter in [0, 1))
        assert 1.0 <= policy.backoff_s("job-a", 2) <= 2.0  # doubled
        assert policy.backoff_s("job-b", 1) != first  # jitter is per-job

    def test_zero_base_means_no_wait(self):
        assert RetryPolicy().backoff_s("job", 3) == 0.0


def _completions(path):
    """Completion records in a job log file, in order."""
    return [
        record["key"]
        for record in map(json.loads, path.read_text().splitlines())
        if record["event"] == "release" and record.get("outcome") == "done"
    ]


def _done(key, **fields):
    """A completion record for ``key``."""
    return {"event": "release", "outcome": "done", "key": key,
            "run": f"run-{key}", **fields}


class TestJobLog:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLog(path) as log:
            log.append(_done("k1", attempts=1, source="pool", wall_s=0.5))
            log.append({"event": "failure", "key": "k2", "run": "r2",
                        "attempt": 1, "kind": "timeout", "detail": "60s"})
        resumed = JobLog(path, resume=True)
        assert "k1" in resumed.view["done"]
        assert "k2" not in resumed.view["done"]
        assert [r["event"] for r in resumed.records()] == [
            "log-start", "release", "failure",
        ]
        resumed.close()

    def test_fresh_journal_truncates_existing(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLog(path) as log:
            log.append(_done("k1"))
        with JobLog(path, resume=False) as log:
            assert "k1" not in log.view["done"]
            assert log.records() == [{"event": "log-start", "schema": 1}]

    def test_torn_final_line_tolerated(self, tmp_path):
        """A crash mid-write leaves half a JSON line; loading must skip
        it — the event it described never durably happened."""
        path = tmp_path / "jobs.jsonl"
        with JobLog(path) as log:
            log.append(_done("k1"))
        with open(path, "a") as handle:
            handle.write('{"event": "release", "outcome": "done", "key": "k2')
        resumed = JobLog(path, resume=True)
        assert "k1" in resumed.view["done"]
        assert "k2" not in resumed.view["done"]
        resumed.close()

    def test_resume_onto_torn_tail_keeps_next_completion(self, tmp_path):
        """Regression: a log resumed onto an unterminated final line
        must not glue the next record onto the fragment (which lost the
        first completion written after resume)."""
        path = tmp_path / "jobs.jsonl"
        with JobLog(path) as log:
            log.append(_done("a"))
        with open(path, "a") as handle:
            handle.write('{"event": "release", "outcome": "done", "key": "b')
        with JobLog(path, resume=True) as resumed:
            resumed.append(_done("c"))
        assert JobLog(path, resume=True).view["done"] == {"a": 1, "c": 1}
        assert _completions(path) == ["a", "c"]  # every line parses

    def test_lines_are_valid_sorted_json(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobLog(path) as log:
            log.append({"event": "pool-rebuild", "reason": "broken"})
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_one_completion_per_key(self, tmp_path):
        """Executor and resume may both see a result land;
        only the first writes the completion."""
        path = tmp_path / "jobs.jsonl"
        with JobLog(path) as log:
            log.append(_done("k", source="serial"))
            log.append(_done("k", holder="batch-1"), _done("j"), _done("j"))
        with JobLog(path, resume=True) as log:
            log.append(_done("k"))
            assert log.completions() == {"k": 1, "j": 1}
        (first,) = [r for r in log.records() if r.get("key") == "k"]
        assert first["source"] == "serial"

    def test_group_commit_is_one_fsync(self, tmp_path, monkeypatch):
        fsyncs = []
        real = resilience.os.fsync
        monkeypatch.setattr(
            resilience.os, "fsync", lambda fd: fsyncs.append(fd) or real(fd)
        )
        log = JobLog(tmp_path / "jobs.jsonl")
        fsyncs.clear()
        log.append({"event": "grant", "key": "a"}, {"event": "grant", "key": "b"})
        assert len(fsyncs) == 1
        with log.group():
            log.append({"event": "release", "key": "a", "outcome": "shutdown"})
            with log.group():
                log.append({"event": "shutdown", "clean": True})
            assert len(fsyncs) == 1  # nothing written until the group ends
        assert len(fsyncs) == 2
        log.close()
        assert [r["event"] for r in log.records()] == [
            "log-start", "grant", "grant", "release", "shutdown",
        ]


class TestRunManyFailurePaths:
    """Satellite: worker failure semantics of the batch engine."""

    def test_exception_carries_job_identity(self, tiny_config, monkeypatch):
        """A non-transient worker exception aborts the batch with the
        failing job's config/apps identity attached (and the original
        exception chained), not a bare traceback from a nameless job."""

        real = runner_mod._simulate

        def explode(config, apps, **kwargs):
            if apps == ("mcf",):
                raise ValueError("numerical goo")
            return real(config, apps, **kwargs)

        monkeypatch.setattr(runner_mod, "_simulate", explode)
        with pytest.raises(BatchAborted) as info:
            Runner().run_many(
                [(tiny_config, ("gzip",)), (tiny_config, ("mcf",))]
            )
        assert info.value.apps == ("mcf",)
        assert info.value.job_id
        assert info.value.config_hash
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.failures[-1].kind == "exception"

    def test_non_transient_exception_not_retried(self, tiny_config, monkeypatch):
        calls = []

        def explode(config, apps, **kwargs):
            calls.append(apps)
            raise ValueError("deterministic bug: retrying is pointless")

        monkeypatch.setattr(runner_mod, "_simulate", explode)
        with pytest.raises(BatchAborted):
            Runner(retry_policy=RetryPolicy(retries=3)).run_many(
                [(tiny_config, ("gzip",))]
            )
        assert len(calls) == 1

    def test_transient_exception_retried_to_success(self, tiny_config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=0),)
        )
        clean = Runner().run_many([(tiny_config, ("gzip",))])
        runner = Runner(retry_policy=RetryPolicy(retries=1), fault_plan=plan)
        recovered = runner.run_many([(tiny_config, ("gzip",))])
        stats = runner.resilience
        assert recovered[0].ipcs == clean[0].ipcs
        assert recovered[0].core.cycles == clean[0].core.cycles
        assert stats.retries == 1 and stats.injected_faults == 1
        assert stats.failures[0].attempt == 1

    def test_retries_exhausted_aborts(self, tiny_config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=None),)
        )
        runner = Runner(retry_policy=RetryPolicy(retries=2), fault_plan=plan)
        with pytest.raises(BatchAborted) as info:
            runner.run_many([(tiny_config, ("gzip",))])
        assert info.value.attempts == 3  # 1 try + 2 retries
        assert len(info.value.failures) == 3

    def test_duplicate_fan_in_filled_after_retry(self, tiny_config):
        """Satellite: when the canonical copy of a duplicated job fails
        and then succeeds on retry, every duplicate index must still be
        filled with the recovered result."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=0),)
        )
        jobs = [
            (tiny_config, ("gzip",)),
            (tiny_config, ("mcf",)),
            (tiny_config, ("gzip",)),  # duplicate of job 0
        ]
        runner = Runner(retry_policy=RetryPolicy(retries=1), fault_plan=plan)
        results = runner.run_many(jobs)
        assert all(r is not None for r in results)
        assert results[0] is results[2]
        assert results[0].apps == ("gzip",)

    def test_keyboard_interrupt_serial_is_journaled(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """Satellite: an interrupt aborts cleanly — completed work stays
        journaled, the interruption is recorded, and the batch resumes."""
        real = runner_mod._simulate

        def interrupt_second(config, apps, **kwargs):
            if apps == ("mcf",):
                raise KeyboardInterrupt
            return real(config, apps, **kwargs)

        monkeypatch.setattr(runner_mod, "_simulate", interrupt_second)
        journal = JobLog(tmp_path / "jobs.jsonl")
        jobs = [(tiny_config, ("gzip",)), (tiny_config, ("mcf",))]
        with pytest.raises(KeyboardInterrupt):
            Runner(
                cache=ResultStore(tmp_path / "cache"), journal=journal
            ).run_many(jobs)
        journal.close()
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "jobs.jsonl").read_text().splitlines()
        ]
        assert "interrupted" in events
        assert len(_completions(tmp_path / "jobs.jsonl")) == 1

        monkeypatch.setattr(runner_mod, "_simulate", real)
        resumed_journal = JobLog(tmp_path / "jobs.jsonl", resume=True)
        runner = Runner(
            cache=ResultStore(tmp_path / "cache"), journal=resumed_journal
        )
        results = runner.run_many(jobs)
        resumed_journal.close()
        assert [r.apps for r in results] == [("gzip",), ("mcf",)]
        assert runner.resilience.resumed_jobs == 1

    def test_keyboard_interrupt_pooled_cancels_futures(
        self, tiny_config, monkeypatch
    ):
        """The pooled path must cancel pending futures and tear the pool
        down instead of hanging when the user hits Ctrl-C."""
        cancelled = []

        def interrupting_wait(futures, timeout=None, return_when=None):
            cancelled.extend(futures)
            raise KeyboardInterrupt

        monkeypatch.setattr(resilience, "wait", interrupting_wait)
        with pytest.raises(KeyboardInterrupt):
            execute_jobs(
                [(tiny_config, ("gzip",)), (tiny_config, ("mcf",))],
                runner_mod._simulate,
                parallelism=2,
            )
        # every in-flight future was asked to cancel (already-running
        # ones decline, which is fine -- the pool is terminated next)
        assert cancelled


class TestResumeSemantics:
    def test_resume_skips_journaled_complete_jobs(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """The resume contract: journal + cache consulted first, zero
        re-simulation of journaled-complete jobs."""
        jobs = [(tiny_config, ("gzip",)), (tiny_config, ("mcf",))]
        journal = JobLog(tmp_path / "jobs.jsonl")
        first = Runner(
            cache=ResultStore(tmp_path / "cache"), journal=journal
        ).run_many(jobs)
        journal.close()

        def explode(config, apps, **kwargs):
            raise AssertionError(f"resumed batch re-simulated {apps}")

        monkeypatch.setattr(runner_mod, "_simulate", explode)
        journal = JobLog(tmp_path / "jobs.jsonl", resume=True)
        runner = Runner(cache=ResultStore(tmp_path / "cache"), journal=journal)
        again = runner.run_many(jobs)
        journal.close()
        assert [r.ipcs for r in again] == [r.ipcs for r in first]
        assert runner.resilience.resumed_jobs == 2

    def test_journal_without_cache_entry_resimulates(
        self, tiny_config, tmp_path
    ):
        """A journaled-complete job whose cache entry vanished (wiped
        cache dir) is re-simulated rather than trusted blindly."""
        jobs = [(tiny_config, ("gzip",))]
        cache = ResultStore(tmp_path / "cache")
        journal = JobLog(tmp_path / "jobs.jsonl")
        first = Runner(cache=cache, journal=journal).run_many(jobs)
        journal.close()
        cache.clear()
        journal = JobLog(tmp_path / "jobs.jsonl", resume=True)
        runner = Runner(cache=ResultStore(tmp_path / "cache"), journal=journal)
        again = runner.run_many(jobs)
        journal.close()
        assert again[0].ipcs == first[0].ipcs
        assert runner.resilience.resumed_jobs == 0  # nothing to resume from


class TestRunnerWiring:
    def test_runner_retries_transient_faults(self, tiny_config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=0),)
        )
        baseline = Runner().run_mix(tiny_config, ["gzip"])
        runner = Runner(retry_policy=RetryPolicy(retries=1), fault_plan=plan)
        result = runner.run_mix(tiny_config, ["gzip"])
        assert result.ipcs == baseline.ipcs
        assert runner.resilience.retries == 1

    def test_serial_crash_fault_is_retryable(self, tiny_config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", apps=("gzip",), attempt=0),)
        )
        runner = Runner(retry_policy=RetryPolicy(retries=1), fault_plan=plan)
        result = runner.run_mix(tiny_config, ["gzip"])
        assert result is not None
        assert runner.resilience.worker_crashes == 1

    def test_serial_crash_without_retries_raises(self, tiny_config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="crash", apps=("gzip",), attempt=None),)
        )
        runner = Runner(retry_policy=RetryPolicy(retries=0), fault_plan=plan)
        with pytest.raises(WorkerCrashed):
            runner.run_mix(tiny_config, ["gzip"])

    def test_default_runner_raises_unwrapped(self, tiny_config, monkeypatch):
        """A default Runner fails the way every route does: BatchAborted
        with the failing job's identity, and the original exception
        unwrapped as its ``__cause__``."""
        monkeypatch.setattr(
            runner_mod, "run_mix",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("raw")),
        )
        with pytest.raises(BatchAborted) as info:
            Runner().run_mix(tiny_config, ["gzip"])
        assert info.value.apps == ("gzip",)
        cause = info.value.__cause__
        assert isinstance(cause, ValueError) and str(cause) == "raw"

    def test_manifest_records_resilience(self, tiny_config):
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=0),)
        )
        runner = Runner(retry_policy=RetryPolicy(retries=1), fault_plan=plan)
        runner.run_many([(tiny_config, ("gzip",))])
        manifest = runner.manifest()
        block = manifest.extra["resilience"]
        assert block["retries"] == 1
        assert block["failures"][0]["kind"] == "injected"
        assert block["failures"][0]["apps"] == ["gzip"]

    def test_clean_manifest_has_no_resilience_block(self, tiny_config):
        runner = Runner()
        runner.run_many([(tiny_config, ("gzip",))])
        assert "resilience" not in runner.manifest().extra

    def test_parallel_runner_journal_path_accepted(self, tiny_config, tmp_path):
        runner = Runner(
            cache=ResultStore(tmp_path / "cache"),
            journal=JobLog(tmp_path / "jobs.jsonl"),
        )
        runner.run_many([(tiny_config, ("gzip",))])
        runner.journal.close()
        store = runner.cache
        assert _completions(tmp_path / "jobs.jsonl") == [
            store.key_for(tiny_config, ("gzip",))
        ]


class TestFaultPlanUnit:
    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="crash", apps=("mcf", "gzip"), attempt=1),
                FaultSpec(kind="exception", rate=0.25),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip_and_env(self, tmp_path, monkeypatch):
        from repro.faults import FAULT_PLAN_ENV, plan_from_env

        plan = FaultPlan(specs=(FaultSpec(kind="delay", seconds=0.01),))
        path = plan.write(tmp_path / "plan.json")
        assert FaultPlan.from_file(path) == plan
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert plan_from_env() == plan
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert plan_from_env() is None

    def test_seeded_rate_is_deterministic_and_partial(self):
        plan = FaultPlan.seeded(seed=7, kinds=("exception",), rate=0.5)
        jobs = [f"job-{i:02d}" for i in range(40)]
        fired = [j for j in jobs if plan.pick(j, ("gzip",), 0) is not None]
        assert fired == [
            j for j in jobs if plan.pick(j, ("gzip",), 0) is not None
        ]
        assert 0 < len(fired) < len(jobs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor-strike")

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="exception", rate=1.5)

    def test_exception_fault_is_transient(self):
        plan = FaultPlan(specs=(FaultSpec(kind="exception"),))
        with pytest.raises(InjectedFault) as info:
            plan.maybe_fire("job", ("gzip",), 0, in_worker=False)
        assert info.value.transient
