"""Serial vs parallel experiment engine on a figure-scale sweep.

Runs the Figure 2 workload set (fetch policies x mixes, plus the
shared single-thread baselines) three ways and reports wall clock and
cache behaviour:

1. serial ``Runner`` (the reference path),
2. ``Runner(jobs=N)`` over a cold ``ResultStore``,
3. the same sweep again over the warm store (zero simulations).

On a multi-core machine (2) should approach ``serial / N`` for the
simulation-bound part; (3) should be near-instant with a 100% hit
rate regardless of core count.  Runnable as a pytest (marked ``slow``,
excluded from tier-1) or directly::

    PYTHONPATH=src python benchmarks/bench_parallel_engine.py [jobs]
"""

import os
import shutil
import sys
import tempfile
import time

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.figures import run_experiment
from repro.experiments.runner import Runner
from repro.service.store import ResultStore

#: Small figure-scale budget: big enough that pool overhead is noise,
#: small enough that the whole bench stays in tens of seconds.
_MIXES = ("2-MIX", "2-MEM", "4-MIX", "4-MEM")


def _config(instructions: int) -> SystemConfig:
    return SystemConfig(
        scale=8,
        instructions_per_thread=instructions,
        warmup_instructions=max(200, instructions // 4),
        seed=2005,
    )


def run_bench(jobs: int = 4, instructions: int = 1200) -> dict:
    config = _config(instructions)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        t0 = time.perf_counter()
        serial = run_experiment(
            "fig2", config=config, runner=Runner(), mixes=list(_MIXES)
        )
        t1 = time.perf_counter()
        cold_cache = ResultStore(cache_dir)
        parallel = run_experiment(
            "fig2",
            config=config,
            runner=Runner(jobs=jobs, cache=cold_cache),
            mixes=list(_MIXES),
        )
        t2 = time.perf_counter()
        warm_cache = ResultStore(cache_dir)
        warm = run_experiment(
            "fig2",
            config=config,
            runner=Runner(jobs=jobs, cache=warm_cache),
            mixes=list(_MIXES),
        )
        t3 = time.perf_counter()
        assert serial.rows == parallel.rows == warm.rows
        total = warm_cache.hits + warm_cache.misses
        return {
            "jobs": jobs,
            "serial_s": t1 - t0,
            "parallel_s": t2 - t1,
            "warm_s": t3 - t2,
            "speedup": (t1 - t0) / max(1e-9, t2 - t1),
            "warm_hit_rate": warm_cache.hits / total if total else 0.0,
            "warm_misses": warm_cache.misses,
            "cached_entries": len(warm_cache),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _report(stats: dict) -> str:
    return (
        f"figure2 sweep ({len(_MIXES)} mixes): "
        f"serial {stats['serial_s']:.1f}s, "
        f"parallel(jobs={stats['jobs']}) {stats['parallel_s']:.1f}s "
        f"({stats['speedup']:.2f}x), "
        f"warm-cache rerun {stats['warm_s']:.2f}s "
        f"(hit rate {stats['warm_hit_rate']:.0%}, "
        f"{stats['warm_misses']} misses, "
        f"{stats['cached_entries']} entries)"
    )


@pytest.mark.slow
def test_parallel_engine_speedup():
    jobs = min(4, os.cpu_count() or 1)
    stats = run_bench(jobs=jobs)
    print()
    print(_report(stats))
    # Identical rows are asserted inside run_bench; the warm rerun must
    # be pure cache (zero simulations)...
    assert stats["warm_misses"] == 0
    assert stats["warm_hit_rate"] == 1.0
    # ... and on a 4+-core machine the fan-out should win clearly.
    if jobs >= 4:
        assert stats["speedup"] >= 2.0


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 1)
    print(_report(run_bench(jobs=n)))
