"""Tests for the campaign scheduler: exactly-once, resume, campaigns."""

import json
import threading

from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import run_mix
from repro.service.jobs import campaign_jobs
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore
from repro.telemetry.manifest import run_id


def _enqueue_records(store_dir):
    path = store_dir / "service" / "jobs.jsonl"
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip() and json.loads(line).get("event") == "enqueue"
    ]


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
