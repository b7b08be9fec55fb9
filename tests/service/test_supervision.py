"""Tests for lease-based supervision: the log, the supervisor, and the
scheduler's recovery paths (expiry -> requeue, crash -> read-only,
orphan reclamation on resume, clean shutdown records)."""

import json
import threading

import pytest

from repro.experiments.resilience import JobLog, RetryPolicy
from repro.experiments.runner import run_mix
from repro.faults import FaultPlan, FaultSpec
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore
from repro.service.supervision import (
    LeaseLog,
    Supervisor,
    SupervisionStats,
)


def _log_events(store_dir):
    path = store_dir / "service" / "jobs.jsonl"
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def _leases(path, resume=False, **kwargs):
    """A lease table over the job log at ``path``."""
    return LeaseLog(JobLog(path, resume=resume), **kwargs)


class TestLeaseLog:
    def test_grant_release_roundtrip(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        lease = log.grant("k1", "run-1", "batch-1", attempt=0, now=100.0)
        assert log.held("k1")
        assert not lease.expired(100.0 + lease.lease_s - 1)
        assert lease.expired(100.0 + lease.lease_s)
        assert log.release("k1", "done") is True
        assert log.release("k1", "done") is False  # already gone
        assert log.joblog.completions() == {"k1": 1}

    def test_release_validates_outcome(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("k1", "run-1", "b", attempt=0)
        with pytest.raises(ValueError, match="outcome"):
            log.release("k1", "exploded")

    def test_renewal_pushes_deadline(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("k1", "r", "b", attempt=0, lease_s=10.0, now=0.0)
        assert log.expired(now=10.0) != []
        assert log.renew("k1", now=10.0)
        assert log.expired(now=10.0) == []
        assert log.expired(now=20.0) != []
        assert not log.renew("missing")

    def test_reclaim_writes_reason(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("k1", "r", "b", attempt=2)
        taken = log.reclaim("k1", "lease-expired")
        assert taken is not None and taken.attempt == 2
        assert log.reclaim("k1", "lease-expired") is None
        events = log.joblog.records()
        assert events[-1]["event"] == "reclaim"
        assert events[-1]["reason"] == "lease-expired"
        # Only release/done counts as a completion.
        assert log.joblog.completions() == {}

    def test_orphaned_grants_reclaimed_on_resume(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        first = _leases(path)
        first.grant("done-key", "r1", "b", attempt=0)
        first.release("done-key", "done")
        first.grant("orphan-key", "r2", "b", attempt=0)
        # kill -9: no release, no close.
        stats = SupervisionStats()
        resumed = _leases(path, resume=True, stats=stats)
        assert stats.orphans_recovered == 1
        assert not resumed.held("orphan-key")
        reclaims = [
            e for e in resumed.joblog.records() if e["event"] == "reclaim"
        ]
        assert [r["key"] for r in reclaims] == ["orphan-key"]
        assert reclaims[0]["reason"] == "orphaned"
        assert resumed.joblog.completions() == {"done-key": 1}

    def test_store_present_orphan_completed_on_resume(self, tmp_path):
        """A kill -9 can land between the store write and the lease
        release (they are separate fsyncs).  On resume the store entry
        is proof of completion, so the orphan gets the swallowed
        release/done record instead of an ``orphaned`` reclaim — the
        exactly-once proof must count the job that did run."""
        path = tmp_path / "jobs.jsonl"
        first = _leases(path)
        first.grant("landed-key", "r1", "batch-1", attempt=1)
        first.grant("lost-key", "r2", "batch-1", attempt=0)
        # kill -9: no release, no close.
        stats = SupervisionStats()
        resumed = _leases(
            path,
            resume=True,
            stats=stats,
            has_result=lambda key: key == "landed-key",
        )
        assert stats.orphans_recovered == 2
        assert stats.released == 1
        assert stats.reclaimed == 1
        assert not resumed.held("landed-key")
        assert resumed.joblog.completions() == {"landed-key": 1}
        events = resumed.joblog.records()
        done = [
            e
            for e in events
            if e["event"] == "release" and e["outcome"] == "done"
        ]
        assert [(e["key"], e["holder"], e["attempt"]) for e in done] == [
            ("landed-key", "batch-1", 1)
        ]
        reclaims = [e for e in events if e["event"] == "reclaim"]
        assert [(r["key"], r["reason"]) for r in reclaims] == [
            ("lost-key", "orphaned")
        ]

    def test_no_timestamps_persisted(self, tmp_path):
        """Determinism: lease records carry durations, never clocks."""
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("k1", "r", "b", attempt=0)
        log.renew("k1")
        log.release("k1", "done")
        for event in log.joblog.records():
            for field in ("deadline", "time", "timestamp", "now"):
                assert field not in event

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        log = _leases(path)
        log.grant("k1", "r", "b", attempt=0)
        log.joblog.close()
        with open(path, "a") as handle:
            handle.write('{"event": "grant", "key": "torn')
        resumed = _leases(path, resume=True)
        events = resumed.joblog.records()
        assert [e["key"] for e in events if e["event"] == "reclaim"] == ["k1"]


class TestSupervisor:
    def _supervisor(self, log, landed=None, crashed=lambda: False):
        reclaimed, released = [], []
        landed = set() if landed is None else landed
        sup = Supervisor(
            leases=log,
            cond=threading.Condition(),
            has_result=lambda key: key in landed,
            on_expired=reclaimed.extend,
            is_crashed=crashed,
            on_landed=released.append,
        )
        return sup, reclaimed, released

    def test_landing_releases_and_renews_siblings(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("a", "r1", "b", attempt=0, lease_s=10.0, now=0.0)
        log.grant("b", "r2", "b", attempt=0, lease_s=10.0, now=0.0)
        sup, reclaimed, released = self._supervisor(log, landed={"a"})
        # Past both deadlines, but "a" landed -> progress renews "b".
        assert sup.tick(now=50.0) == []
        assert released == ["a"]
        assert not log.held("a") and log.held("b")
        assert reclaimed == []
        assert log.joblog.completions() == {"a": 1}

    def test_expired_lease_reclaimed(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("a", "r1", "b", attempt=0, lease_s=10.0, now=0.0)
        sup, reclaimed, _ = self._supervisor(log)
        assert sup.tick(now=5.0) == []  # within budget
        taken = sup.tick(now=10.0)
        assert [lease.key for lease in taken] == ["a"]
        assert [lease.key for lease in reclaimed] == ["a"]
        assert not log.held("a")

    def test_crash_reclaims_everything(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        log.grant("a", "r1", "b", attempt=0, lease_s=1000.0, now=0.0)
        log.grant("b", "r2", "b", attempt=0, lease_s=1000.0, now=0.0)
        sup, reclaimed, _ = self._supervisor(log, crashed=lambda: True)
        sup.tick(now=1.0)  # deadlines are far away; crash trumps them
        assert sorted(lease.key for lease in reclaimed) == ["a", "b"]
        reasons = {
            e["reason"] for e in log.joblog.records()
            if e["event"] == "reclaim"
        }
        assert reasons == {"scheduler-crashed"}

    def test_thread_lifecycle(self, tmp_path):
        log = _leases(tmp_path / "jobs.jsonl")
        sup, _, _ = self._supervisor(log)
        sup.poll_s = 0.01
        sup.start()
        ticks_seen = threading.Event()

        def watch():
            while sup.ticks < 3:
                pass
            ticks_seen.set()

        threading.Thread(target=watch, daemon=True).start()
        assert ticks_seen.wait(5.0)
        sup.stop()


class TestSchedulerRecovery:
    def test_expired_lease_requeues_and_completes(
        self, tiny_config, tmp_path
    ):
        """A wedged batch's lease expires -> reclaim -> requeue -> the
        retry completes, and the lease log still shows exactly one
        completion."""
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(
            store, policy=RetryPolicy(), supervise=False, lease_s=900.0
        )
        status = scheduler.submit_job(tiny_config, ("gzip",))
        key = status["key"]
        # Fake the wedge: grant is on the books, job marked running,
        # but no worker is executing it.
        with scheduler._cond:
            job = scheduler._jobs[key]
            job.state = "running"
            scheduler._queue.clear()
            scheduler.leases.grant(
                key, status["run_id"], "batch-1", attempt=0, lease_s=0.0
            )
        reclaimed = scheduler.supervisor.tick()
        assert [lease.key for lease in reclaimed] == [key]
        assert scheduler.job_status(key)["state"] == "queued"
        assert scheduler.sup_stats.requeues == 1
        scheduler.start()
        assert scheduler.drain(timeout=120)
        scheduler.stop()
        assert scheduler.job_status(key)["state"] == "done"
        assert scheduler.joblog.completions() == {key: 1}
        requeue_events = [
            e for e in _log_events(tmp_path) if e["event"] == "requeue"
        ]
        assert len(requeue_events) == 1

    def test_requeue_budget_exhaustion_fails_job(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(
            store, supervise=False, max_requeues=1
        )
        status = scheduler.submit_job(tiny_config, ("gzip",))
        key = status["key"]
        for _ in range(2):
            with scheduler._cond:
                job = scheduler._jobs[key]
                job.state = "running"
                scheduler._queue.clear()
                scheduler.leases.grant(
                    key, status["run_id"], "b", attempt=job.requeues,
                    lease_s=0.0,
                )
            scheduler.supervisor.tick()
        final = scheduler.job_status(key)
        assert final["state"] == "failed"
        assert "lease expired" in final["detail"]
        scheduler.stop()

    def test_injected_crash_flips_scheduler_to_unhealthy(
        self, tiny_config, tmp_path
    ):
        """A service-scope exception fault escapes the batch handler,
        kills the worker thread, and the supervisor reclaims the
        in-flight leases with reason scheduler-crashed."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", scope="service"),), seed=7
        )
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(
            store, supervise=False, fault_plan=plan
        )
        scheduler.start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        worker = scheduler._thread
        worker.join(30)
        assert not worker.is_alive()
        assert scheduler.crashed and not scheduler.healthy
        assert scheduler.sup_stats.scheduler_crashes == 1
        scheduler.supervisor.tick()
        assert scheduler.job_status(key)["state"] == "failed"
        reasons = {
            e["reason"]
            for e in scheduler.joblog.records()
            if e["event"] == "reclaim"
        }
        assert reasons == {"scheduler-crashed"}
        scheduler.stop()

    def test_crash_failed_jobs_rerun_on_resume(self, tiny_config, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", scope="service"),), seed=7
        )
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(store, supervise=False, fault_plan=plan)
        scheduler.start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        scheduler._thread.join(30)
        scheduler.supervisor.tick()  # reclaim + mark failed (not terminal)
        scheduler.stop()
        # Resume WITHOUT the fault plan: the job must re-queue and run.
        resumed = CampaignScheduler(
            ResultStore(tmp_path), resume=True, supervise=False
        )
        assert resumed.job_status(key)["state"] == "queued"
        resumed.start()
        assert resumed.drain(timeout=120)
        resumed.stop()
        assert resumed.job_status(key)["state"] == "done"

    def test_supervision_counters_in_manifest(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(store, supervise=False)
        assert "supervision" not in scheduler.manifest().extra
        scheduler.sup_stats.requeues = 2
        assert scheduler.manifest().extra["supervision"]["requeues"] == 2
        scheduler.stop()


class TestCleanShutdown:
    def test_stop_writes_shutdown_record(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
            assert scheduler.drain(timeout=120)
        events = _log_events(tmp_path)
        shutdown = [e for e in events if e["event"] == "shutdown"]
        assert len(shutdown) == 1
        assert shutdown[0]["clean"] is True
        assert key in shutdown[0]["done"]

    def test_resume_after_clean_stop_requeues_nothing(
        self, tiny_config, tmp_path
    ):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            scheduler.submit_job(tiny_config, ("gzip",))
            assert scheduler.drain(timeout=120)
        resumed = CampaignScheduler(
            ResultStore(tmp_path), resume=True, supervise=False
        )
        assert resumed.queue_depth == 0
        assert resumed.state_counts() == {"done": 1}
        resumed.stop()

    def test_terminal_failures_survive_resume(self, tiny_config, tmp_path):
        """A job that exhausted its requeue budget stays failed after
        --resume instead of silently re-running."""
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(store, supervise=False, max_requeues=0)
        status = scheduler.submit_job(tiny_config, ("gzip",))
        key = status["key"]
        with scheduler._cond:
            job = scheduler._jobs[key]
            job.state = "running"
            scheduler._queue.clear()
            scheduler.leases.grant(
                key, status["run_id"], "b", attempt=0, lease_s=0.0
            )
        scheduler.supervisor.tick()
        assert scheduler.job_status(key)["state"] == "failed"
        scheduler.stop()
        resumed = CampaignScheduler(
            ResultStore(tmp_path), resume=True, supervise=False
        )
        final = resumed.job_status(key)
        assert final["state"] == "failed"
        assert resumed.queue_depth == 0
        # An explicit resubmission clears the terminal state.
        again = resumed.submit_job(tiny_config, ("gzip",))
        assert again["state"] == "queued"
        resumed.stop()

    def test_shutdown_releases_held_leases(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(store, supervise=False)
        scheduler.leases.grant("ab" * 32, "r", "b", attempt=0)
        scheduler.stop()
        events = scheduler.joblog.records()
        releases = [e for e in events if e["event"] == "release"]
        assert releases and releases[-1]["outcome"] == "shutdown"


class TestKilledDeployment:
    """kill -9 leaves no shutdown record; the log alone must carry the
    terminal failures across --resume."""

    def _kill(self, scheduler):
        # Stop the worker thread without stop(): nothing more is written.
        with scheduler._cond:
            scheduler._stop = True
            scheduler._cond.notify_all()
        if scheduler._thread is not None:
            scheduler._thread.join(30)

    def _assert_still_failed(self, tmp_path, key):
        resumed = CampaignScheduler(
            ResultStore(tmp_path), resume=True, supervise=False
        )
        assert resumed.job_status(key)["state"] == "failed"
        assert resumed.queue_depth == 0
        resumed.stop()

    def test_aborted_batch_failure_survives_kill(self, tiny_config, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=None),)
        )
        scheduler = CampaignScheduler(
            ResultStore(tmp_path), supervise=False, max_requeues=0,
            fault_plan=plan,
        ).start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        assert scheduler.drain(timeout=120)
        assert scheduler.job_status(key)["state"] == "failed"
        self._kill(scheduler)
        self._assert_still_failed(tmp_path, key)

    def test_expired_lease_failure_survives_kill(self, tiny_config, tmp_path):
        scheduler = CampaignScheduler(
            ResultStore(tmp_path), supervise=False, max_requeues=0
        )
        status = scheduler.submit_job(tiny_config, ("gzip",))
        key = status["key"]
        with scheduler._cond:
            scheduler._jobs[key].state = "running"
            scheduler._queue.clear()
            scheduler.leases.grant(
                key, status["run_id"], "b", attempt=0, lease_s=0.0
            )
        scheduler.supervisor.tick()
        assert scheduler.job_status(key)["state"] == "failed"
        self._assert_still_failed(tmp_path, key)
