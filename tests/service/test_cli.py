"""Tests for the service CLI verbs: cache maintenance, submit/fetch."""

import json
import threading

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import run_mix
from repro.service.api import make_server
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore


@pytest.fixture(autouse=True)
def _manifests_in_tmp(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))


@pytest.fixture
def service(tmp_path):
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(store, policy=RetryPolicy()).start()
    server = make_server(scheduler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.url, store
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()
        thread.join(5)


class TestParser:
    def test_service_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--store", "x", "--workers", "3"])
        assert args.command == "serve" and args.workers == 3
        args = parser.parse_args(["cache", "stats", "x"])
        assert args.command == "cache" and args.action == "stats"
        args = parser.parse_args(
            ["submit", "--url", "http://h:1", "--mix", "2-MEM", "--wait"]
        )
        assert args.command == "submit" and args.wait

    def test_submit_needs_exactly_one_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--url", "http://h:1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--url", "u", "--store", "s", "--mix", "2-MEM"]
            )

    def test_remote_flags_on_figure_commands(self):
        args = build_parser().parse_args(
            ["fig10", "--remote-store", "somewhere"]
        )
        assert args.remote_store == "somewhere"


class TestCacheCommand:
    def test_stats_on_populated_store(self, tiny_config, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        assert main(["cache", "stats", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 1

    def test_verify_clean_and_corrupt(self, tiny_config, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        assert main(["cache", "verify", str(tmp_path)]) == 0
        key = store.key_for(tiny_config, ("gzip",))
        store.path_for_key(key).write_bytes(b"garbage")
        assert main(["cache", "verify", str(tmp_path)]) == 1
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["corrupt"] == [key]

    def test_gc_empties_quarantine(self, tiny_config, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(tiny_config, ("gzip",), run_mix(tiny_config, ("gzip",)))
        key = store.key_for(tiny_config, ("gzip",))
        store.path_for_key(key).write_bytes(b"garbage")
        assert store.get_bytes(key) is None  # -> quarantine
        assert main(["cache", "gc", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quarantined_removed"] == 1
        assert not any(ResultStore(tmp_path).quarantine_dir.iterdir())


class TestRemoteCommands:
    def test_submit_wait_and_fetch(self, service, tmp_path, capsys):
        url, store = service
        code = main(
            ["submit", "--url", url, "--apps", "gzip",
             "--instructions", "300", "--warmup", "100", "--seed", "99",
             "--scale", "32", "--wait", "--poll-timeout", "120"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["state"] == "done"
        out_path = tmp_path / "result.pkl"
        assert main(
            ["fetch", doc["key"], "--url", url, "--out", str(out_path)]
        ) == 0
        assert out_path.read_bytes() == store.get_bytes(doc["key"])
        assert main(["fetch", doc["key"], "--url", url]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["apps"] == ["gzip"]
        assert summary["throughput_ipc"] > 0

    def test_campaign_submit_and_wait(self, service, capsys):
        url, _ = service
        code = main(
            ["submit", "--url", url, "--experiment", "fig1",
             "--instructions", "300", "--warmup", "100", "--seed", "99",
             "--scale", "32", "--wait", "--poll-timeout", "300"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["complete"] is True
        assert main(
            ["campaign", "status", doc["campaign"], "--url", url]
        ) == 0

    def test_unknown_mix_is_an_error(self, service, capsys):
        url, _ = service
        assert main(["submit", "--url", url, "--mix", "9-MEM"]) == 2

    def test_unreachable_service_exits_3(self, capsys):
        assert main(
            ["fetch", "ab" * 32, "--url", "http://127.0.0.1:9"]
        ) == 3

    def test_figure_against_service_matches_local(
        self, service, tmp_path, capsys
    ):
        """--remote-store transparency: same CSV bytes as a local run."""
        url, store = service
        from repro.service.client import write_server_info

        write_server_info(store.cache_dir, url)
        common = ["fig1", "--instructions", "300", "--warmup", "100",
                  "--seed", "99", "--scale", "32"]
        local_csv = tmp_path / "local.csv"
        served_csv = tmp_path / "served.csv"
        assert main([*common, "--csv", str(local_csv)]) == 0
        assert main(
            [*common, "--remote-store", str(store.cache_dir),
             "--csv", str(served_csv)]
        ) == 0
        assert served_csv.read_bytes() == local_csv.read_bytes()
