"""End-to-end HTTP tests: exactly-once over the wire, bit-identity,
warm-path behaviour, and the transparent ServiceRunner."""

import pickle
import threading
import urllib.error
import urllib.request

import pytest

from repro.cpu.core import SMTCore
from repro.engine.oracle import diff_values
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import Runner
from repro.service.api import make_server
from repro.service.client import ServiceClient, ServiceError, ServiceRunner
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore, payload_digest


@pytest.fixture
def service(tmp_path):
    """A live service on an ephemeral port; yields (client, scheduler)."""
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(store, policy=RetryPolicy()).start()
    server = make_server(scheduler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(url=server.url), scheduler
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()
        thread.join(5)


class TestExactlyOnce:
    def test_concurrent_posts_execute_once(self, service, tiny_config):
        client, scheduler = service
        responses = []
        barrier = threading.Barrier(6)

        def post():
            barrier.wait()
            responses.append(client.submit(tiny_config, ["gzip"]))

        threads = [threading.Thread(target=post) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(responses) == 6
        keys = {r["key"] for r in responses}
        assert len(keys) == 1
        (key,) = keys
        final = client.wait_job(key, timeout=120)
        assert final["state"] == "done"
        assert scheduler.joblog.completions() == {key: 1}

    def test_warm_hit_never_spawns_a_simulation(self, service, tiny_config):
        client, scheduler = service
        client.run(tiny_config, ["gzip"], timeout=120)
        batches = scheduler.batches
        warm_before = client.metric("repro_service_hits_warm_total") or 0
        for _ in range(3):
            status = client.submit(tiny_config, ["gzip"])
            assert status["state"] == "done"
            assert status["source"] == "warm"
        assert scheduler.batches == batches  # scheduler never woke up
        assert scheduler.queue_depth == 0
        warm_after = client.metric("repro_service_hits_warm_total")
        assert warm_after >= warm_before + 3


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_fetched_equals_direct_run(
        self, service, tiny_config, engine, monkeypatch
    ):
        # "reference": the core's shortcuts off, in the served run too
        # (the scheduler simulates in this process).
        monkeypatch.setattr(SMTCore, "shortcuts", engine == "fast")
        client, scheduler = service
        served = client.run(tiny_config, ["mcf", "gzip"], timeout=300)
        direct = Runner().run_mix(tiny_config, ("mcf", "gzip"))
        divergences = []
        diff_values(served, direct, "result", divergences)
        assert divergences == []
        # Byte-level: the served payload is the exact pickle a local
        # runner would have produced.
        key = scheduler.store.key_for(tiny_config, ("mcf", "gzip"))
        assert client.fetch_bytes(key) == pickle.dumps(
            direct, protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_payload_digest_header(self, service, tiny_config):
        client, scheduler = service
        client.run(tiny_config, ["gzip"], timeout=120)
        key = scheduler.store.key_for(tiny_config, ("gzip",))
        request = urllib.request.Request(
            f"{client.url}/results/{key}/payload"
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            data = resp.read()
            header = resp.headers["X-Payload-SHA256"]
        assert header == payload_digest(data)


class TestHTTPSurface:
    def test_health_and_404(self, service):
        client, _ = service
        assert client.health()["status"] == "ok"
        with pytest.raises(ServiceError, match="404"):
            client.result("ab" * 32)

    def test_manifest_served(self, service, tiny_config):
        client, _ = service
        status = client.submit(tiny_config, ["gzip"])
        final = client.wait_job(status["key"], timeout=120)
        record = client.manifest(final["run_id"])
        assert record["run_id"] == final["run_id"]
        assert record["apps"] == ["gzip"]
        assert record["source"] == "service"

    def test_campaign_over_http(self, service, tiny_config):
        client, _ = service
        status = client.submit_campaign("fig1", config=tiny_config)
        final = client.wait_campaign(status["campaign"], timeout=300)
        assert final["complete"]
        # Resubmission is a warm no-op.
        again = client.submit_campaign("fig1", config=tiny_config)
        assert again["complete"]

    def test_bad_json_is_client_error(self, service):
        client, _ = service
        request = urllib.request.Request(
            f"{client.url}/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400


class TestServiceRunner:
    def test_transparent_drop_in(self, service, tiny_config):
        client, _ = service
        remote = ServiceRunner(client, timeout=300)
        local = Runner()
        jobs = [
            (tiny_config, ("gzip",)),
            (tiny_config.with_(scheduler="fcfs"), ("gzip",)),
            (tiny_config, ("gzip",)),  # duplicate
        ]
        served = remote.run_many(jobs)
        direct = local.run_many(jobs)
        for s, d in zip(served, direct):
            divergences = []
            diff_values(s, d, "result", divergences)
            assert divergences == []
        assert served[0] is served[2]  # memo dedupe

    def test_single_run_and_weighted_speedup(self, service, tiny_config):
        client, _ = service
        remote = ServiceRunner(client, timeout=300)
        ws_remote = remote.weighted_speedup(tiny_config, ["mcf", "gzip"])
        ws_local = Runner().weighted_speedup(tiny_config, ["mcf", "gzip"])
        assert ws_remote == ws_local
        sources = {r.source for r in remote.records}
        assert sources <= {"service", "memo"}
