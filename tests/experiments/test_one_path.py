"""One job list, every route from a job to its result, one set of digests.

A 2-app mix, a duplicate of it, and its two single-thread baselines run
through every way the package can serve a job: the serial ``Runner``
(batched and one call at a time), a two-worker process pool, a cold and
then a warm on-disk store, a runner collecting metrics, ``REPRO_SANITIZE=1``
over the pool, and a ``ServiceRunner`` against an in-process server.
``one_path_golden.json`` holds the SHA-256 of each pickled result; every
route must produce exactly that list.  ``metrics`` is blanked before
hashing: it is the one field a metrics-collecting run adds on purpose.

A mismatch means some route no longer returns the bytes a plain
simulation does.  Regenerate only for an intentional model change::

    PYTHONPATH=src python tests/experiments/test_one_path.py --write
"""

import dataclasses
import hashlib
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import Runner
from repro.service.store import ResultStore

GOLDEN_PATH = Path(__file__).with_name("one_path_golden.json")

CONFIG = SystemConfig(
    scale=32, instructions_per_thread=200, warmup_instructions=50,
    seed=2005,
)
MIX = ("mcf", "gzip")


def _jobs() -> list[tuple]:
    runner = Runner()
    return [
        (CONFIG, MIX),
        (CONFIG, MIX),
        *(runner.baseline_job(CONFIG, app) for app in MIX),
    ]


def _digest(result) -> str:
    if result.metrics is not None:
        result = dataclasses.replace(result, metrics=None)
    data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(data).hexdigest()


def _digests(results) -> list[str]:
    return [_digest(r) for r in results]


@pytest.fixture(scope="module")
def golden() -> list[str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_shape(golden):
    assert len(golden) == 4
    assert golden[0] == golden[1]  # the duplicate is the same job
    assert len(set(golden)) == 3


def test_serial_runner(golden):
    assert _digests(Runner().run_many(_jobs())) == golden


def test_serial_one_call_at_a_time(golden):
    runner = Runner()
    results = [
        runner.run_mix(CONFIG, MIX),
        runner.run_mix(CONFIG, list(MIX)),
        *(runner.single(CONFIG, app) for app in MIX),
    ]
    assert _digests(results) == golden


def test_process_pool(golden):
    assert _digests(Runner(jobs=2).run_many(_jobs())) == golden


def test_cold_then_warm_store(golden, tmp_path):
    cold = Runner(cache=ResultStore(tmp_path / "store"))
    assert _digests(cold.run_many(_jobs())) == golden
    warm = Runner(cache=ResultStore(tmp_path / "store"))
    assert _digests(warm.run_many(_jobs())) == golden


def test_collect_metrics(golden):
    results = Runner(collect_metrics=True).run_many(_jobs())
    assert all(r.metrics for r in results)
    assert _digests(results) == golden


def test_sanitize_env_over_the_pool(golden, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    runner = Runner(jobs=2)
    assert runner.sanitize
    assert _digests(runner.run_many(_jobs())) == golden


def test_service_runner(golden, tmp_path):
    from repro.service.api import make_server
    from repro.service.client import ServiceClient, ServiceRunner
    from repro.service.scheduler import CampaignScheduler

    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(store, policy=RetryPolicy()).start()
    server = make_server(scheduler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        runner = ServiceRunner(ServiceClient(url=server.url))
        assert _digests(runner.run_many(_jobs())) == golden
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()
        thread.join(5)


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_one_path.py --write")
    digests = _digests(Runner().run_many(_jobs()))
    GOLDEN_PATH.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
