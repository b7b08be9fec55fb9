"""Unit tests for the service API logic (no sockets: ServiceApp direct)."""

import pickle

from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import run_mix
from repro.service.api import PayloadLRU, ServiceApp
from repro.service.jobs import config_to_dict
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore, payload_digest


def _app(tmp_path, **kwargs) -> ServiceApp:
    store = ResultStore(tmp_path)
    return ServiceApp(
        CampaignScheduler(store, policy=RetryPolicy()), **kwargs
    )


def _seed(app: ServiceApp, config, apps=("gzip",)) -> str:
    result = run_mix(config, apps)
    app.store.put(config, apps, result)
    return app.store.key_for(config, apps)


class TestPayloadLRU:
    def test_hit_miss_and_eviction(self):
        lru = PayloadLRU(max_entries=2)
        lru.put("a", b"1")
        lru.put("b", b"2")
        assert lru.get("a") == b"1"  # refreshes a
        lru.put("c", b"3")  # evicts b (least recent)
        assert lru.get("b") is None
        assert lru.get("a") == b"1" and lru.get("c") == b"3"
        assert lru.hits == 3 and lru.misses == 1

    def test_zero_capacity_stores_nothing(self):
        lru = PayloadLRU(max_entries=0)
        lru.put("a", b"1")
        assert lru.get("a") is None and len(lru) == 0


class TestEndpoints:
    def test_healthz(self, tmp_path):
        status, doc = _app(tmp_path).healthz()
        assert status == 200
        assert doc["status"] == "ok" and doc["queue_depth"] == 0

    def test_metrics_prometheus_text(self, tiny_config, tmp_path):
        app = _app(tmp_path)
        key = _seed(app, tiny_config)
        assert app.payload(key) is not None
        status, text = app.metrics()
        assert status == 200
        assert "# TYPE repro_service_hits_store_total counter" in text
        assert "repro_service_hits_store_total 1" in text
        assert "repro_service_store_misses 0" in text

    def test_result_envelope_done(self, tiny_config, tmp_path):
        app = _app(tmp_path)
        key = _seed(app, tiny_config)
        data = app.store.get_bytes(key)
        status, doc = app.result_envelope(key)
        assert status == 200
        assert doc["state"] == "done"
        assert doc["sha256"] == payload_digest(data)
        assert doc["size"] == len(data)
        assert doc["payload"] == f"/results/{key}/payload"

    def test_result_envelope_unknown(self, tmp_path):
        status, doc = _app(tmp_path).result_envelope("ab" * 32)
        assert status == 404 and "error" in doc

    def test_result_payload_roundtrip(self, tiny_config, tmp_path):
        app = _app(tmp_path)
        key = _seed(app, tiny_config)
        status, data = app.result_payload(key)
        assert status == 200
        direct = run_mix(tiny_config, ("gzip",))
        assert pickle.loads(data).ipcs == direct.ipcs

    def test_manifest_unknown(self, tmp_path):
        status, _ = _app(tmp_path).manifest("ab" * 32)
        assert status == 404

    def test_campaign_unknown(self, tmp_path):
        status, _ = _app(tmp_path).campaign("feedface")
        assert status == 404


class TestSubmit:
    def test_warm_hit_never_reaches_the_scheduler(self, tiny_config, tmp_path):
        app = _app(tmp_path)
        key = _seed(app, tiny_config)
        status, doc = app.submit(
            {"config": config_to_dict(tiny_config), "apps": ["gzip"]}
        )
        assert status == 200
        assert doc["state"] == "done" and doc["source"] == "warm"
        assert doc["key"] == key
        # The scheduler never saw the job: no ticket, no queue entry.
        assert app.scheduler._jobs == {}
        assert app.scheduler.queue_depth == 0

    def test_miss_enqueues_with_202(self, tiny_config, tmp_path):
        app = _app(tmp_path)  # worker not started: job stays queued
        status, doc = app.submit(
            {"config": config_to_dict(tiny_config), "apps": ["gzip"]}
        )
        assert status == 202
        assert doc["state"] == "queued"
        assert app.scheduler.queue_depth == 1

    def test_bad_job_spec_is_400(self, tmp_path):
        app = _app(tmp_path)
        for body in (
            {"apps": []},
            {"config": {"bogus_field": 1}, "apps": ["gzip"]},
            {"config": {}, "apps": ["gzip", 7]},
            [],
        ):
            status, doc = app.submit(body)
            assert status == 400 and "error" in doc

    def test_bad_campaign_spec_is_400(self, tmp_path):
        app = _app(tmp_path)
        status, doc = app.submit({"campaign": {"mixes": ["2-MEM"]}})
        assert status == 400 and "known" in doc
        status, doc = app.submit({"campaign": {"experiment": "fig99"}})
        assert status == 400

    def test_invalid_config_is_400_and_enqueues_nothing(
        self, tiny_config, tmp_path
    ):
        """A config ``SystemConfig`` rejects (``ConfigError``) is the
        client's mistake: 400, as a job and as a campaign config, and
        nothing reaches the queue or the job log."""
        app = _app(tmp_path)
        for bad in ({"channels": 0}, {"scheduler": "bogus"},
                    {"fetch_policy": "bogus"}):
            config = {**config_to_dict(tiny_config), **bad}
            status, doc = app.submit({"config": config, "apps": ["gzip"]})
            assert status == 400, doc
            assert doc["error"].startswith("bad job spec")
            status, doc = app.submit(
                {"campaign": {"experiment": "fig1", "config": config}}
            )
            assert status == 400, doc
            assert doc["error"].startswith("bad campaign spec")
        assert app.scheduler.queue_depth == 0
        assert app.scheduler.joblog.view["submitted"] == {}
        assert app.scheduler.joblog.view["campaigns"] == {}

    def test_routing(self, tiny_config, tmp_path):
        app = _app(tmp_path)
        key = _seed(app, tiny_config)
        assert app.handle_get("/healthz")[0] == 200
        assert app.handle_get("/metrics")[0] == 200
        assert app.handle_get(f"/results/{key}")[0] == 200
        assert app.handle_get(f"/results/{key}/payload")[0] == 200
        assert app.handle_get("/nope")[0] == 404
        assert app.handle_post("/nope", {})[0] == 404
