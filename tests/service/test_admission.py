"""Tests for API admission control, graceful degradation, idempotent
submits, and the client's circuit breaker / retry machinery."""

import threading

import pytest

from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import run_mix
from repro.service.api import (
    AdmissionPolicy,
    ServiceApp,
    make_server,
)
from repro.service.client import (
    CircuitBreaker,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    write_server_info,
)
from repro.service.jobs import config_to_dict
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore, job_key


def _app(tmp_path, admission=None, **sched_kw):
    scheduler = CampaignScheduler(ResultStore(tmp_path), **sched_kw)
    return ServiceApp(scheduler, admission=admission), scheduler


def _job_body(config, apps=("gzip",)):
    return {"config": config_to_dict(config), "apps": list(apps)}


class TestAdmissionControl:
    def test_full_queue_sheds_with_429(self, tiny_config, tmp_path):
        app, scheduler = _app(
            tmp_path, admission=AdmissionPolicy(max_queue_depth=1)
        )
        first = app.submit(_job_body(tiny_config))
        assert first[0] == 202
        other = tiny_config.with_(scheduler="fcfs")
        status, payload, headers = app.submit(_job_body(other))
        assert status == 429
        assert "Retry-After" in headers
        assert payload["max_queue_depth"] == 1
        assert scheduler.sup_stats.shed == 1
        scheduler.stop()

    def test_shed_campaign_whole(self, tiny_config, tmp_path):
        app, scheduler = _app(
            tmp_path, admission=AdmissionPolicy(max_queue_depth=0)
        )
        status, payload, headers = app.submit(
            {"campaign": {"experiment": "fig1"}}
        )
        assert status == 429 and "Retry-After" in headers
        assert scheduler.queue_depth == 0  # nothing partially admitted
        scheduler.stop()

    def test_warm_hit_admitted_even_when_full(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        app, scheduler = _app(
            tmp_path, admission=AdmissionPolicy(max_queue_depth=0)
        )
        answer = app.submit(_job_body(tiny_config))
        assert answer[0] == 200 and answer[1]["source"] == "warm"
        scheduler.stop()

    def test_unmeetable_deadline_refused(self, tiny_config, tmp_path):
        app, scheduler = _app(
            tmp_path, admission=AdmissionPolicy(deadline_floor_s=5.0)
        )
        status, payload, headers = app.submit(
            _job_body(tiny_config), headers={"X-Deadline-S": "1.0"}
        )
        assert status == 503 and "Retry-After" in headers
        assert scheduler.sup_stats.deadline_rejections == 1
        # A generous deadline is admitted.
        assert app.submit(
            _job_body(tiny_config), headers={"X-Deadline-S": "600"}
        )[0] == 202
        # Garbage deadline is a client error.
        assert app.submit(
            _job_body(tiny_config), headers={"X-Deadline-S": "soon"}
        )[0] == 400
        scheduler.stop()

    def test_header_lookup_is_case_insensitive(self, tiny_config, tmp_path):
        app, scheduler = _app(tmp_path)
        key = job_key(tiny_config, ("gzip",))
        answer = app.submit(
            _job_body(tiny_config), headers={"x-idempotency-key": key}
        )
        assert answer[0] == 202
        scheduler.stop()


class TestIdempotency:
    def test_matching_key_accepted(self, tiny_config, tmp_path):
        app, scheduler = _app(tmp_path)
        key = job_key(tiny_config, ("gzip",))
        status, payload = app.submit(
            _job_body(tiny_config), headers={"X-Idempotency-Key": key}
        )
        assert status == 202 and payload["key"] == key
        # Retrying the same submit lands on the same ticket.
        again = app.submit(
            _job_body(tiny_config), headers={"X-Idempotency-Key": key}
        )
        assert again[1]["key"] == key
        assert scheduler.queue_depth == 1
        scheduler.stop()

    def test_mismatched_key_is_409(self, tiny_config, tmp_path):
        app, scheduler = _app(tmp_path)
        status, payload = app.submit(
            _job_body(tiny_config),
            headers={"X-Idempotency-Key": "ab" * 32},
        )
        assert status == 409
        assert payload["key"] == job_key(tiny_config, ("gzip",))
        assert scheduler.queue_depth == 0  # nothing enqueued
        scheduler.stop()

    def test_client_sends_derived_key(self, tiny_config, tmp_path):
        """The typed client derives the same key the server does."""
        assert job_key(tiny_config, ("gzip",)) == ResultStore(
            tmp_path
        ).key_for(tiny_config, ("gzip",))


class TestGracefulDegradation:
    def test_crash_flips_to_read_only(self, tiny_config, tmp_path):
        store = ResultStore(tmp_path)
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        app, scheduler = _app(tmp_path)
        scheduler._crashed = True
        assert app.read_only
        # Warm reads stay up.
        warm = app.submit(_job_body(tiny_config))
        assert warm[0] == 200 and warm[1]["source"] == "warm"
        key = store.key_for(tiny_config, ("gzip",))
        assert app.result_payload(key)[0] == 200
        # Cold writes fail fast with Retry-After.
        other = tiny_config.with_(scheduler="fcfs")
        status, payload, headers = app.submit(_job_body(other))
        assert status == 503 and payload["read_only"]
        assert "Retry-After" in headers
        assert scheduler.sup_stats.read_only_rejections == 1
        scheduler.stop()

    def test_healthz_reports_degraded_state(self, tiny_config, tmp_path):
        app, scheduler = _app(tmp_path)
        status, doc = app.healthz()
        assert status == 200 and doc["status"] == "ok"
        assert set(doc) >= {"store", "jobs", "supervision"}
        scheduler._crashed = True
        status, doc = app.healthz()
        assert status == 200  # liveness: still serving
        assert doc["status"] == "read-only"
        scheduler.stop()

    def test_readyz_503_while_degraded_or_full(self, tiny_config, tmp_path):
        app, scheduler = _app(
            tmp_path, admission=AdmissionPolicy(max_queue_depth=1)
        )
        assert app.readyz()[0] == 200
        app.submit(_job_body(tiny_config))
        status, doc, headers = app.readyz()
        assert status == 503 and "Retry-After" in headers
        assert any("full" in r for r in doc["reasons"])
        scheduler.stop()


class TestCircuitBreaker:
    def test_deterministic_cooldowns(self):
        a = CircuitBreaker(seed=42)
        b = CircuitBreaker(seed=42)
        assert [a.cooldown_s(t) for t in (1, 2, 3)] == [
            b.cooldown_s(t) for t in (1, 2, 3)
        ]
        c = CircuitBreaker(seed=43)
        assert a.cooldown_s(1) != c.cooldown_s(1)

    def test_cooldowns_grow_and_cap(self):
        breaker = CircuitBreaker(base_s=0.1, cap_s=1.0, seed=1)
        cooldowns = [breaker.cooldown_s(t) for t in range(1, 10)]
        assert cooldowns == sorted(cooldowns)
        assert cooldowns[-1] == 1.0

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(threshold=3, base_s=60.0, seed=0)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.seconds_until_probe() > 0
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens_longer(self):
        breaker = CircuitBreaker(threshold=1, base_s=0.0, seed=0)
        breaker.record_failure()
        assert breaker.trips == 1
        assert breaker.state in ("open", "half-open")
        breaker.record_failure()  # failed probe
        assert breaker.trips == 2


class TestClientResilience:
    def test_backoff_is_deterministic_and_honors_hint(self, tmp_path):
        a = ServiceClient(url="http://127.0.0.1:1", seed=5)
        b = ServiceClient(url="http://127.0.0.1:1", seed=5)
        assert [a._backoff_s(i, None) for i in range(4)] == [
            b._backoff_s(i, None) for i in range(4)
        ]
        assert a._backoff_s(0, 1.5) >= 1.5

    def test_nothing_listening_raises_transient(self):
        client = ServiceClient(url="http://127.0.0.1:1", retries=1, timeout=2)
        with pytest.raises(ServiceUnavailable):
            client.health()
        assert client.breaker.failures >= 2

    def test_survives_a_service_restart(self, tiny_config, tmp_path):
        """Kill the server, restart on a NEW port: the client follows
        the fresh advertisement and completes its request."""
        store = ResultStore(tmp_path / "store")
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        scheduler = CampaignScheduler(store)
        server = make_server(scheduler)
        write_server_info(tmp_path / "store", server.url)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            store_dir=tmp_path / "store", retries=6, timeout=5
        )
        assert client.health()["status"] == "ok"
        server.shutdown()
        server.server_close()
        thread.join(5)

        # Restart on a different ephemeral port, advertise it, and let
        # the client's retry loop re-discover.
        server2 = make_server(scheduler)
        assert server2.url != server.url
        write_server_info(tmp_path / "store", server2.url)
        thread2 = threading.Thread(target=server2.serve_forever, daemon=True)
        thread2.start()
        try:
            key = store.key_for(tiny_config, ("gzip",))
            status = client.result(key)
            assert status["state"] == "done"
            assert client.url == server2.url  # followed the restart
        finally:
            server2.shutdown()
            server2.server_close()
            scheduler.stop()
            thread2.join(5)

    def test_submit_post_retry_is_idempotent(self, tiny_config, tmp_path):
        """Retrying a submit (idempotency key attached) never enqueues
        a duplicate -- the second POST lands on the same ticket."""
        scheduler = CampaignScheduler(ResultStore(tmp_path))
        server = make_server(scheduler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url=server.url, retries=2)
            first = client.submit(tiny_config, ("gzip",))
            second = client.submit(tiny_config, ("gzip",))  # the "retry"
            assert first["key"] == second["key"]
            assert scheduler.queue_depth == 1
        finally:
            server.shutdown()
            server.server_close()
            scheduler.stop()
            thread.join(5)

    def test_wait_job_tolerates_outage_within_deadline(
        self, tiny_config, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(store)
        key = store.key_for(tiny_config, ("gzip",))
        client = ServiceClient(
            url="http://127.0.0.1:1",
            store_dir=tmp_path / "store",
            retries=0,
            timeout=2,
        )

        def come_up_late():
            store.put(
                tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",))
            )
            server = make_server(scheduler)
            write_server_info(tmp_path / "store", server.url)
            threading.Thread(target=server.serve_forever, daemon=True).start()

        starter = threading.Timer(0.5, come_up_late)
        starter.start()
        try:
            status = client.wait_job(key, timeout=60, poll_s=0.1)
            assert status["state"] == "done"
        finally:
            starter.cancel()
            scheduler.stop()

    def test_hard_errors_are_not_retried(self, tmp_path):
        scheduler = CampaignScheduler(ResultStore(tmp_path))
        server = make_server(scheduler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url=server.url, retries=3)
            with pytest.raises(ServiceError, match="404") as err:
                client.result("ab" * 32)
            assert not isinstance(err.value, ServiceUnavailable)
        finally:
            server.shutdown()
            server.server_close()
            scheduler.stop()
            thread.join(5)
