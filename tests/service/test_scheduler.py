"""Tests for the campaign scheduler: exactly-once, resume, campaigns,
and its one failure path (retry budget spent -> terminal failure,
scheduler crash -> read-only, kill -9 -> --resume)."""

import json
import threading
import time

import pytest

import repro.experiments.resilience as resilience
import repro.experiments.runner as runner_mod
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import run_mix
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.service.jobs import JobSpec, campaign_jobs
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore
from repro.telemetry.manifest import run_id


def _log_events(store_dir):
    path = store_dir / "service" / "jobs.jsonl"
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def _enqueue_records(store_dir):
    return [e for e in _log_events(store_dir) if e["event"] == "enqueue"]


#: Fails every attempt of every ("gzip",) job: each batch holding one
#: aborts.
GZIP_ALWAYS_FAILS = FaultPlan(
    specs=(FaultSpec(kind="exception", apps=("gzip",), attempt=None),)
)

#: Crashes the scheduler thread as the first job is dispatched.
SCHEDULER_CRASH = FaultPlan(
    specs=(FaultSpec(kind="exception", scope="service"),), seed=7
)


class TestSubmission:
    def test_store_hit_answers_done_without_queueing(
        self, tiny_config, tmp_path
    ):
        store = ResultStore(tmp_path)
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        scheduler = CampaignScheduler(store)  # never started
        status = scheduler.submit_job(tiny_config, ("gzip",))
        assert status["state"] == "done" and status["source"] == "store"
        assert scheduler.queue_depth == 0
        assert not _enqueue_records(tmp_path)
        scheduler.stop()

    def test_miss_enqueues_once(self, tiny_config, tmp_path):
        scheduler = CampaignScheduler(ResultStore(tmp_path))
        first = scheduler.submit_job(tiny_config, ("gzip",))
        second = scheduler.submit_job(tiny_config, ("gzip",))
        assert first["state"] == "queued"
        assert second["key"] == first["key"]
        assert len(_enqueue_records(tmp_path)) == 1
        assert scheduler.queue_depth == 1
        scheduler.stop()

    def test_concurrent_submissions_exactly_once(self, tiny_config, tmp_path):
        """N concurrent submissions of one config -> one queue entry,
        one simulation, one completion record, N identical keys."""
        store = ResultStore(tmp_path)
        scheduler = CampaignScheduler(store, policy=RetryPolicy()).start()
        results = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            results.append(scheduler.submit_job(tiny_config, ("gzip",)))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert scheduler.drain(timeout=120)
        scheduler.stop()
        assert len({r["key"] for r in results}) == 1
        assert len(_enqueue_records(tmp_path)) == 1
        key = results[0]["key"]
        assert scheduler.joblog.completions() == {key: 1}
        (enqueue,) = _enqueue_records(tmp_path)
        assert enqueue["run"] == run_id(tiny_config, ("gzip",))
        assert store.has(key)
        assert scheduler.job_status(key)["state"] == "done"

    def test_executes_and_matches_direct_run(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            status = scheduler.submit_job(tiny_config, ("gzip",))
            assert scheduler.drain(timeout=120)
            served = store.get_by_key(status["key"])
        direct = run_mix(tiny_config, ("gzip",))
        assert served.ipcs == direct.ipcs
        assert served.core.cycles == direct.core.cycles


class TestResume:
    def test_queued_jobs_survive_a_crash(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        dead = CampaignScheduler(store)  # worker never started = "crash"
        other = tiny_config.with_(scheduler="fcfs")
        dead.submit_job(tiny_config, ("gzip",))
        dead.submit_job(other, ("gzip",))
        # Simulate the kill: no stop(), no drain -- just abandon it and
        # satisfy one of the two jobs out of band.
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))

        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        done_key = store.key_for(tiny_config, ("gzip",))
        pending_key = store.key_for(other, ("gzip",))
        assert resumed.job_status(done_key)["state"] == "done"
        assert resumed.job_status(pending_key)["state"] == "queued"
        assert resumed.queue_depth == 1
        resumed.start()
        assert resumed.drain(timeout=120)
        resumed.stop()
        assert resumed.job_status(pending_key)["state"] == "done"
        dead.stop()

    def test_fresh_start_truncates_queue(self, tiny_config, tmp_path):
        first = CampaignScheduler(ResultStore(tmp_path))
        first.submit_job(tiny_config, ("gzip",))
        first.stop()
        fresh = CampaignScheduler(ResultStore(tmp_path))  # no resume
        assert fresh.queue_depth == 0
        assert not _enqueue_records(tmp_path)
        fresh.stop()

    def test_campaigns_survive_resume(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        dead = CampaignScheduler(store, policy=RetryPolicy()).start()
        status = dead.submit_campaign("fig1", tiny_config)
        assert dead.drain(timeout=300)
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        again = resumed.campaign_status(status["campaign"])
        assert again is not None
        assert again["complete"]  # every key found in the store
        resumed.stop()
        dead.stop()

    def test_store_present_orphan_completed_on_resume(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A kill -9 can land between the store write and the completion
        record (they are separate fsyncs).  On resume the store entry is
        proof of completion, so the job gets the swallowed release/done
        record -- all such records in one group commit -- and the
        exactly-once proof counts the job that did run."""
        store = ResultStore(tmp_path)
        landed = [tiny_config.with_(scheduler=s) for s in ("fcfs", "hit-first")]
        recorded = tiny_config.with_(scheduler="read-first")
        lost = tiny_config.with_(scheduler="request-based")
        dead = CampaignScheduler(store)  # worker never started = "crash"
        for config in (*landed, recorded, lost):
            dead.submit_job(config, ("gzip",))
        result = run_mix(tiny_config, ("gzip",))
        for config in (*landed, recorded):
            store.put(config, ("gzip",), result)
        recorded_key = store.key_for(recorded, ("gzip",))
        dead.joblog.append({"event": "release", "key": recorded_key,
                            "outcome": "done"})

        fsyncs = []
        real = resilience.os.fsync
        monkeypatch.setattr(
            resilience.os, "fsync", lambda fd: fsyncs.append(fd) or real(fd)
        )
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        assert len(fsyncs) == 1
        landed_keys = [store.key_for(c, ("gzip",)) for c in landed]
        assert resumed.joblog.completions() == {
            key: 1 for key in (*landed_keys, recorded_key)
        }
        for key in landed_keys:
            done = [
                e for e in _log_events(tmp_path)
                if e["event"] == "release" and e["key"] == key
            ]
            assert [e["outcome"] for e in done] == ["done"]
            assert resumed.job_status(key)["state"] == "done"
        lost_key = store.key_for(lost, ("gzip",))
        assert resumed.job_status(lost_key)["state"] == "queued"
        assert resumed.queue_depth == 1
        resumed.stop()
        dead.stop()

    def test_log_with_lease_records_replays(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A job log written while leases and the scheduler's own retry
        layer existed (``grant``/``reclaim``/``requeue`` records,
        ``requeued``/``shutdown`` releases) still resumes: those records
        are ignored, and exactly the unfinished, non-terminal jobs
        re-run."""
        configs = {
            name: tiny_config.with_(scheduler=name)
            for name in ("fcfs", "hit-first", "read-first", "request-based")
        }
        done, requeued, failed, shut = configs.values()
        store = ResultStore(tmp_path)
        key = {name: store.key_for(c, ("gzip",)) for name, c in configs.items()}
        rid = {name: run_id(c, ("gzip",)) for name, c in configs.items()}
        store.put(done, ("gzip",), run_mix(done, ("gzip",)))

        def lease(name, event, attempt=0, **fields):
            return {"event": event, "key": key[name], "run": rid[name],
                    "holder": "batch-1", "attempt": attempt, **fields}

        records = [{"event": "log-start", "schema": 1}]
        records += [
            {"event": "enqueue", "key": key[name], "run": rid[name],
             "job": JobSpec.of(c, ("gzip",)).to_dict()}
            for name, c in configs.items()
        ]
        records += [lease(name, "grant", lease_s=30.0) for name in configs]
        records += [
            {"event": "release", "key": key["fcfs"], "run": rid["fcfs"],
             "outcome": "done", "attempts": 1, "source": "serial",
             "wall_s": 0.1},
            lease("hit-first", "reclaim", reason="lease-expired"),
            lease("hit-first", "release", outcome="requeued"),
            {"event": "requeue", "key": key["hit-first"],
             "run": rid["hit-first"], "requeues": 1},
            lease("hit-first", "grant", attempt=1, lease_s=30.0),
            lease("read-first", "release", outcome="failed",
                  detail="lease expired after 1 requeue(s)"),
            lease("hit-first", "release", attempt=1, outcome="shutdown"),
            lease("request-based", "release", outcome="shutdown"),
            {"event": "shutdown", "clean": True, "done": [key["fcfs"]],
             "failed": {key["read-first"]: "lease expired"}},
        ]
        path = tmp_path / "service" / "jobs.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        assert {"grant", "reclaim", "requeue"} <= {r["event"] for r in records}

        simulated = []
        real = runner_mod._simulate

        def counting(config, apps, **kwargs):
            simulated.append(run_id(config, apps))
            return real(config, apps, **kwargs)

        monkeypatch.setattr(runner_mod, "_simulate", counting)
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        view = resumed.joblog.view
        assert view == resilience.replay(
            [r for r in records if r["event"] != "requeue"]
        )
        assert list(view["submitted"]) == list(key.values())
        assert list(view["pending"]) == [key["hit-first"], key["request-based"]]
        assert view["done"] == {key["fcfs"]: 1}
        assert list(view["terminal"]) == [key["read-first"]]
        assert resumed.job_status(key["fcfs"])["state"] == "done"
        assert resumed.job_status(key["read-first"])["state"] == "failed"
        assert set(resumed.job_status(key["hit-first"])) == {
            "key", "run_id", "state", "apps",
        }
        resumed.start()
        assert resumed.drain(timeout=120)
        resumed.stop()
        assert simulated == [rid["hit-first"], rid["request-based"]]
        assert resumed.joblog.completions() == {
            key[name]: 1 for name in ("fcfs", "hit-first", "request-based")
        }


    def test_log_with_engine_field_replays(self, tiny_config, tmp_path, caplog):
        """Every enqueue record written while ``SystemConfig`` had an
        ``engine`` field carries it; an upgraded ``--resume`` must still
        queue every pending job, and name the one spec it cannot read."""
        configs = [
            tiny_config.with_(scheduler=name)
            for name in ("fcfs", "hit-first", "read-first")
        ]
        store = ResultStore(tmp_path)
        keys = [store.key_for(c, ("gzip",)) for c in configs]
        docs = [JobSpec.of(c, ("gzip",)).to_dict() for c in configs]
        for doc, engine in zip(docs, ("fast", "fast", "reference")):
            doc["config"]["engine"] = engine
        bad = JobSpec.of(tiny_config, ("mcf",)).to_dict()
        bad["config"]["engine"] = "sampled"
        bad_key = store.key_for(tiny_config, ("mcf",))
        records = [{"event": "log-start", "schema": 1}] + [
            {"event": "enqueue", "key": key, "run": "r", "job": doc}
            for key, doc in [*zip(keys, docs), (bad_key, bad)]
        ]
        path = tmp_path / "service" / "jobs.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        with caplog.at_level("WARNING", logger="repro.service.scheduler"):
            resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        assert resumed.queue_depth == len(keys)
        for key in keys:
            assert resumed.job_status(key)["state"] == "queued"
        assert resumed.job_status(bad_key) is None
        assert [r for r in caplog.records if bad_key in r.getMessage()]
        resumed.stop()

    def test_log_with_invalid_config_replays(self, tiny_config, tmp_path,
                                             caplog):
        """An enqueue written before ``SystemConfig`` checked scheduler
        and fetch-policy names can hold a config that no longer
        decodes: ``--resume`` names it in a warning and skips it."""
        store = ResultStore(tmp_path)
        doc = JobSpec.of(tiny_config, ("gzip",)).to_dict()
        doc["config"]["scheduler"] = "bogus"
        key = store.key_for(tiny_config, ("gzip",))
        records = [
            {"event": "log-start", "schema": 1},
            {"event": "enqueue", "key": key, "run": "r", "job": doc},
        ]
        path = tmp_path / "service" / "jobs.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        with caplog.at_level("WARNING", logger="repro.service.scheduler"):
            resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        assert resumed.queue_depth == 0
        assert resumed.job_status(key) is None
        (warning,) = [r for r in caplog.records if key in r.getMessage()]
        assert "cannot decode" in warning.getMessage()
        assert "bogus" in warning.getMessage()
        resumed.stop()


class TestCampaigns:
    def test_campaign_runs_to_completion(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            status = scheduler.submit_campaign(
                "fig10", tiny_config, mixes=["2-MEM"]
            )
            jobs = campaign_jobs("fig10", tiny_config, mixes=["2-MEM"])
            assert status["jobs"] == len(jobs)
            assert scheduler.drain(timeout=600)
            final = scheduler.campaign_status(status["campaign"])
        assert final["complete"]
        assert final["counts"] == {"done": len(jobs)}
        assert all(store.has(k) for k in final["states"])

    def test_resubmission_is_idempotent(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            first = scheduler.submit_campaign("fig1", tiny_config)
            assert scheduler.drain(timeout=300)
            enqueues = len(_enqueue_records(tmp_path))
            second = scheduler.submit_campaign("fig1", tiny_config)
            assert second["campaign"] == first["campaign"]
            assert second["complete"]
            assert len(_enqueue_records(tmp_path)) == enqueues  # no re-run

    def test_unknown_campaign_status_is_none(self, tmp_path):
        scheduler = CampaignScheduler(ResultStore(tmp_path))
        assert scheduler.campaign_status("deadbeef") is None
        scheduler.stop()

    def test_manifest_records_served_runs(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            status = scheduler.submit_job(tiny_config, ("gzip",))
            assert scheduler.drain(timeout=120)
            manifest = scheduler.manifest()
            record = scheduler.record_for(status["run_id"])
        assert record is not None and record.source == "service"
        assert [r.run_id for r in manifest.records] == [status["run_id"]]

    def test_manifest_records_measured_wall_time(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A job is done only when its batch hands it back, with the
        wall time the executor measured -- never 0.0 for a job that
        really ran."""
        real = runner_mod._simulate

        def slow(config, apps, **kwargs):
            time.sleep(0.4)
            return real(config, apps, **kwargs)

        monkeypatch.setattr(runner_mod, "_simulate", slow)
        scheduler = CampaignScheduler(ResultStore(tmp_path), workers=1)
        for apps in (("gzip",), ("mcf",), ("ammp",)):
            scheduler.submit_job(tiny_config, apps)
        scheduler.start()
        assert scheduler.drain(timeout=120)
        scheduler.stop()
        walls = [r.wall_time_s for r in scheduler.manifest().records]
        assert len(walls) == 3
        assert all(wall > 0 for wall in walls), walls


class TestSchedulerRecovery:
    @pytest.mark.parametrize("transient", [False, True],
                             ids=["deterministic", "transient"])
    def test_failing_job_spends_one_budget(
        self, tiny_config, tmp_path, monkeypatch, transient
    ):
        """The executor's retry budget is the only one.  gzip fails
        every attempt: a deterministic error is simulated once, a
        transient one ``policy.retries + 1`` times, and then the job
        fails terminally -- nothing re-runs it.  The batch-mates its
        abort cut short are simulated exactly once each."""
        simulated = []
        real = runner_mod._simulate

        def counting(config, apps, **kwargs):
            simulated.append(run_id(config, apps))
            if apps == ("gzip",):
                raise (InjectedFault if transient else RuntimeError)(
                    "gzip always fails"
                )
            return real(config, apps, **kwargs)

        monkeypatch.setattr(runner_mod, "_simulate", counting)
        policy = RetryPolicy(retries=2)
        attempts = policy.retries + 1 if transient else 1
        scheduler = CampaignScheduler(ResultStore(tmp_path), policy=policy)
        keys = {
            app: scheduler.submit_job(tiny_config, (app,))["key"]
            for app in ("gzip", "mcf", "swim")
        }
        scheduler.start()
        assert scheduler.drain(timeout=120)
        scheduler.stop()
        gzip = scheduler.job_status(keys["gzip"])
        assert gzip["state"] == "failed"
        assert "batch aborted" in gzip["detail"]
        events = _log_events(tmp_path)
        failures = [
            e["attempt"] for e in events
            if e["event"] == "failure" and e["key"] == keys["gzip"]
        ]
        assert failures == list(range(1, attempts + 1))
        assert simulated.count(run_id(tiny_config, ("gzip",))) == attempts
        assert "requeue" not in {e["event"] for e in events}
        assert [
            e["outcome"] for e in events
            if e["event"] == "release" and e["key"] == keys["gzip"]
        ] == ["failed"]
        for app in ("mcf", "swim"):
            assert scheduler.job_status(keys[app])["state"] == "done"
            assert simulated.count(run_id(tiny_config, (app,))) == 1
        assert scheduler.joblog.completions() == {
            keys["mcf"]: 1, keys["swim"]: 1,
        }
        assert not scheduler.sup_stats.eventful

    def test_injected_crash_flips_scheduler_to_unhealthy(
        self, tiny_config, tmp_path
    ):
        """A service-scope exception fault escapes the batch handler and
        kills the worker thread; the crash handler fails the in-flight
        job at once, and not terminally (no failure record)."""
        scheduler = CampaignScheduler(
            ResultStore(tmp_path), fault_plan=SCHEDULER_CRASH
        )
        scheduler.start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        worker = scheduler._thread
        worker.join(30)
        assert not worker.is_alive()
        assert scheduler.crashed and not scheduler.healthy
        assert scheduler.sup_stats.scheduler_crashes == 1
        status = scheduler.job_status(key)
        assert status["state"] == "failed"
        assert status["detail"] == "scheduler crashed with the job in flight"
        assert not [
            e for e in scheduler.joblog.records() if e["event"] == "release"
        ]
        scheduler.stop()

    def test_crash_failed_jobs_rerun_on_resume(self, tiny_config, tmp_path):
        scheduler = CampaignScheduler(
            ResultStore(tmp_path), fault_plan=SCHEDULER_CRASH
        )
        scheduler.start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        scheduler._thread.join(30)
        assert scheduler.job_status(key)["state"] == "failed"
        scheduler.stop()
        # Resume WITHOUT the fault plan: the job must re-queue and run.
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        assert resumed.job_status(key)["state"] == "queued"
        resumed.start()
        assert resumed.drain(timeout=120)
        resumed.stop()
        assert resumed.job_status(key)["state"] == "done"

    def test_supervision_counters_in_manifest(self, tiny_config, tmp_path):
        scheduler = CampaignScheduler(ResultStore(tmp_path))
        assert "supervision" not in scheduler.manifest().extra
        scheduler.sup_stats.scheduler_crashes = 2
        supervision = scheduler.manifest().extra["supervision"]
        assert supervision["scheduler_crashes"] == 2
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

    def test_resume_after_clean_stop_reruns_nothing(
        self, tiny_config, tmp_path
    ):
        store = ResultStore(tmp_path)
        with CampaignScheduler(store, policy=RetryPolicy()) as scheduler:
            scheduler.submit_job(tiny_config, ("gzip",))
            assert scheduler.drain(timeout=120)
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        assert resumed.queue_depth == 0
        assert resumed.state_counts() == {"done": 1}
        resumed.stop()

    def test_terminal_failures_survive_resume(self, tiny_config, tmp_path):
        """A job that exhausted its retry budget stays failed after
        --resume instead of silently re-running."""
        scheduler = CampaignScheduler(
            ResultStore(tmp_path), fault_plan=GZIP_ALWAYS_FAILS,
        ).start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        assert scheduler.drain(timeout=120)
        assert scheduler.job_status(key)["state"] == "failed"
        scheduler.stop()
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        final = resumed.job_status(key)
        assert final["state"] == "failed"
        assert resumed.queue_depth == 0
        # An explicit resubmission clears the terminal state.
        again = resumed.submit_job(tiny_config, ("gzip",))
        assert again["state"] == "queued"
        resumed.stop()


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

    def test_aborted_batch_failure_survives_kill(self, tiny_config, tmp_path):
        scheduler = CampaignScheduler(
            ResultStore(tmp_path), fault_plan=GZIP_ALWAYS_FAILS,
        ).start()
        key = scheduler.submit_job(tiny_config, ("gzip",))["key"]
        assert scheduler.drain(timeout=120)
        assert scheduler.job_status(key)["state"] == "failed"
        self._kill(scheduler)
        resumed = CampaignScheduler(ResultStore(tmp_path), resume=True)
        assert resumed.job_status(key)["state"] == "failed"
        assert resumed.queue_depth == 0
        resumed.stop()
