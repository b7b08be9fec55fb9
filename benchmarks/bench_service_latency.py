"""Latency and throughput of the simulation service's HTTP surface.

Measures the warm path (``POST /jobs`` answered from the store/LRU
without waking the scheduler), the raw payload download, and the
miss->enqueue path against a live in-process server, plus request
throughput under concurrent clients.  The committed
``BENCH_service.json`` snapshot is machine-normalized: raw
microseconds are recorded for provenance only, the *ratios* are the
numbers that transfer across machines:

- ``*_vs_healthz`` — each endpoint's round trip relative to the
  cheapest possible request (``GET /healthz``), cancelling the
  machine's socket/HTTP overhead.
- ``warm_vs_simulation`` — the headline: how much faster a warm hit
  is than actually running the (tiny) simulation it replaces.
- ``concurrency_speedup`` — warm-submit throughput with concurrent
  clients relative to one serial client.  Clients and server share
  one Python process (and one GIL) in this harness, so the ratio
  cannot exceed ~1; what it guards is that concurrent clients do not
  *collapse* throughput (a contended lock on the warm path would).

Latencies are wall-clock (the request crosses threads, so process
time would under-count) summarized by the median of many samples;
the healthz normalization absorbs constant per-machine cost.

Run as a pytest (marked ``slow``) for the regression floors, or
directly to regenerate the committed snapshot::

    PYTHONPATH=src python benchmarks/bench_service_latency.py
"""

import json
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.runner import run_mix
from repro.service.api import make_server
from repro.service.client import ServiceClient
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore

_SAMPLES = 200
_THREADS = 4
_APPS = ("gzip",)


def _config(seed: int = 2005) -> SystemConfig:
    # The bench-harness scale and budget (see bench_figures.py): large
    # enough that the simulation a warm hit replaces is representative,
    # small enough that seeding the store takes well under a second.
    return SystemConfig(
        scale=8,
        instructions_per_thread=2500,
        warmup_instructions=600,
        seed=seed,
    )


def _median_us(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(times)


def _throughput(fn, threads: int, per_thread: int) -> float:
    """Warm requests per second with ``threads`` concurrent clients."""
    barrier = threading.Barrier(threads + 1)

    def client():
        barrier.wait()
        for _ in range(per_thread):
            fn()

    pool = [threading.Thread(target=client) for _ in range(threads)]
    for t in pool:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in pool:
        t.join()
    return threads * per_thread / (time.perf_counter() - t0)


def run_bench(samples: int = _SAMPLES, threads: int = _THREADS) -> dict:
    config = _config()
    t0 = time.process_time()
    result = run_mix(config, _APPS)
    simulation_s = time.process_time() - t0

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp))
        store.put(config, _APPS, result)
        # The scheduler is deliberately never started: every measured
        # request must be answered by the API layer alone, and a miss
        # must cost exactly one enqueue (no simulation behind it).
        scheduler = CampaignScheduler(store)
        server = make_server(scheduler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(url=server.url)
        key = store.key_for(config, _APPS)
        try:
            healthz_us = _median_us(client.health, samples)
            warm_us = _median_us(
                lambda: client.submit(config, _APPS), samples
            )
            payload_us = _median_us(
                lambda: client.fetch_bytes(key), samples
            )
            misses = iter(range(1000, 1000 + samples))
            miss_us = _median_us(
                lambda: client.submit(_config(seed=next(misses)), _APPS),
                samples,
            )
            serial_rps = samples / _timed(
                lambda: [client.submit(config, _APPS)
                         for _ in range(samples)]
            )
            # Each thread issues the full sample count: too few
            # requests per thread and handler-thread churn dominates
            # the measurement instead of steady-state throughput.
            concurrent_rps = _throughput(
                lambda: client.submit(config, _APPS), threads, samples
            )
        finally:
            server.shutdown()
            server.server_close()
            scheduler.stop()
            thread.join(5)

    return {
        "samples": samples,
        "threads": threads,
        # Engine label: the simulation_s baseline (and hence the
        # warm_vs_simulation ratio) is engine-dependent; snapshots
        # taken under different engines must not be diffed.
        "engine": config.engine,
        "timer": "perf_counter, median of N; healthz-normalized ratios",
        "raw": {
            "healthz_us": round(healthz_us, 1),
            "warm_submit_us": round(warm_us, 1),
            "payload_fetch_us": round(payload_us, 1),
            "miss_enqueue_us": round(miss_us, 1),
            "simulation_s": round(simulation_s, 3),
            "serial_rps": round(serial_rps, 1),
            "concurrent_rps": round(concurrent_rps, 1),
        },
        "ratios": {
            "warm_vs_healthz": round(warm_us / healthz_us, 2),
            "payload_vs_healthz": round(payload_us / healthz_us, 2),
            "miss_vs_healthz": round(miss_us / healthz_us, 2),
            "warm_vs_simulation": round(simulation_s * 1e6 / warm_us, 1),
            "concurrency_speedup": round(concurrent_rps / serial_rps, 2),
        },
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _report(stats: dict) -> str:
    raw, ratios = stats["raw"], stats["ratios"]
    return "\n".join([
        f"service latency (median of {stats['samples']}):",
        f"  healthz      {raw['healthz_us']:8.0f}us   (normalizer)",
        f"  warm submit  {raw['warm_submit_us']:8.0f}us   "
        f"x{ratios['warm_vs_healthz']:.1f} healthz, "
        f"x{ratios['warm_vs_simulation']:.0f} faster than simulating",
        f"  payload      {raw['payload_fetch_us']:8.0f}us   "
        f"x{ratios['payload_vs_healthz']:.1f} healthz",
        f"  miss enqueue {raw['miss_enqueue_us']:8.0f}us   "
        f"x{ratios['miss_vs_healthz']:.1f} healthz",
        f"  throughput   {raw['serial_rps']:8.0f} rps serial, "
        f"{raw['concurrent_rps']:.0f} rps x{stats['threads']} clients "
        f"(x{ratios['concurrency_speedup']:.2f})",
    ])


@pytest.mark.slow
def test_service_latency():
    stats = run_bench(samples=60, threads=4)
    print()
    print(_report(stats))
    ratios = stats["ratios"]
    # Regression floors, deliberately loose (see BENCH_service.json for
    # the measured values) so CI machine noise cannot flake the lane:
    # the warm path must stay within an order of magnitude of a bare
    # healthz round trip and must dwarf the simulation it replaces.
    assert ratios["warm_vs_healthz"] < 10
    assert ratios["payload_vs_healthz"] < 10
    assert ratios["miss_vs_healthz"] < 25  # fsync'd enqueue is pricier
    assert ratios["warm_vs_simulation"] > 10
    assert ratios["concurrency_speedup"] > 0.5  # no warm-path contention


if __name__ == "__main__":
    stats = run_bench()
    print(_report(stats))
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(f"wrote {out}")
