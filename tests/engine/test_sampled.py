"""Sampled-engine contracts: determinism, edge cases, tolerance mode.

The sampled engine trades bit-identity for speed, so its tests pin a
different contract than the fast engine's:

* determinism — same seed and sampling parameters give byte-identical
  estimates, serially, across a process pool, and across a
  crash/``--resume`` cycle (the cache key includes the sampling
  schedule, so cached sampled results can never masquerade as exact
  ones);
* window-schedule edge cases — a window longer than the whole run, a
  zero-length fast-forward (which must degenerate to the exact
  result), budgets that do not divide the window period;
* the oracle's bounded-error mode — thresholds are inclusive at the
  boundary and violated strictly beyond it, and unknown engine names
  fail loudly instead of tracebacking.
"""

import pytest

from repro.common.errors import ConfigError
from repro.engine import ENGINE_NAMES, core_class
from repro.engine.oracle import (
    ComparisonReport,
    Tolerance,
    compare_engines,
    diff_within_tolerance,
)
from repro.engine.sampled import SampledSMTCore, SamplingParams
from repro.experiments.config import SystemConfig
from repro.experiments.runner import Runner, run_mix
from repro.service.store import ResultStore
from repro.workloads.mixes import MIXES


def _config(**overrides) -> SystemConfig:
    base = dict(
        engine="sampled",
        scale=32,
        instructions_per_thread=3000,
        warmup_instructions=500,
        seed=2005,
        sampling=SamplingParams(
            detail_instructions=200,
            ff_instructions=600,
            window_warmup=100,
            gap_smoothing=2,
        ),
    )
    base.update(overrides)
    return SystemConfig(**base)


def _fingerprint(result) -> tuple:
    """Byte-comparable summary of a MixResult's estimates."""
    return (
        result.core.cycles,
        tuple(
            (t.thread_id, t.committed, t.cycles, t.dram_accesses)
            for t in result.core.threads
        ),
    )


APPS = MIXES["2-MIX"].apps


class TestRegistration:
    def test_sampled_is_registered(self):
        assert "sampled" in ENGINE_NAMES
        assert core_class("sampled") is SampledSMTCore

    def test_sampled_is_not_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert SystemConfig().engine == "fast"


class TestSamplingParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplingParams(detail_instructions=0)
        with pytest.raises(ConfigError):
            SamplingParams(ff_instructions=-1)
        with pytest.raises(ConfigError):
            SamplingParams(window_warmup=-1)
        with pytest.raises(ConfigError):
            SamplingParams(gap_smoothing=0)

    def test_cache_key_covers_every_knob(self):
        p = SamplingParams(100, 900, 50, 3)
        assert p.cache_key() == (100, 900, 50, 3)

    def test_config_cache_key_depends_on_sampling_only_when_sampled(self):
        exact = SystemConfig(engine="fast")
        sampled_a = _config()
        sampled_b = _config(
            sampling=SamplingParams(detail_instructions=400)
        )
        assert sampled_a.cache_key() != sampled_b.cache_key()
        # Exact engines share results; their keys must not mention the
        # sampling schedule at all.
        assert exact.cache_key() == SystemConfig(
            engine="reference"
        ).cache_key()
        assert sampled_a.cache_key() != exact.with_(
            instructions_per_thread=sampled_a.instructions_per_thread,
            warmup_instructions=sampled_a.warmup_instructions,
            seed=sampled_a.seed,
            scale=sampled_a.scale,
        ).cache_key()


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        a = run_mix(_config(), APPS)
        b = run_mix(_config(), APPS)
        assert _fingerprint(a) == _fingerprint(b)

    def test_serial_and_parallel_runner_agree(self):
        serial = Runner().run_mix(_config(), APPS)
        parallel = Runner(jobs=2).run_mix(_config(), APPS)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_resume_from_cache_is_identical(self, tmp_path):
        config = _config()
        first = Runner(cache=ResultStore(tmp_path / "cache")).run_mix(
            config, APPS
        )
        # A fresh runner over the same store replays the persisted
        # result (the crash/--resume path) instead of re-simulating.
        resumed = Runner(cache=ResultStore(tmp_path / "cache")).run_mix(
            config, APPS
        )
        assert _fingerprint(first) == _fingerprint(resumed)

    def test_estimates_report_full_budget(self):
        result = run_mix(_config(), APPS)
        for t in result.core.threads:
            assert t.committed == 3000
        assert result.core.reached_all_targets


class TestWindowEdgeCases:
    def test_window_longer_than_run(self):
        config = _config(
            instructions_per_thread=150,
            warmup_instructions=0,
            sampling=SamplingParams(
                detail_instructions=1000,
                ff_instructions=2000,
                window_warmup=100,
            ),
        )
        result = run_mix(config, APPS)
        sampling = result.core.extra["sampling"]
        assert sampling["windows"] == 1
        assert sampling["measured_fraction"] == 1.0
        for t in result.core.threads:
            assert t.committed == 150

    def test_zero_fast_forward_matches_reference_exactly(self):
        sampled = run_mix(
            _config(
                sampling=SamplingParams(
                    detail_instructions=250,
                    ff_instructions=0,
                    window_warmup=100,
                )
            ),
            APPS,
        )
        reference = run_mix(
            _config(engine="reference", sampling=None), APPS
        )
        assert sampled.core.cycles == reference.core.cycles
        for s, r in zip(sampled.core.threads, reference.core.threads):
            assert s.cycles == r.cycles
            assert s.committed == r.committed

    def test_budget_not_multiple_of_period(self):
        config = _config(instructions_per_thread=1777)
        result = run_mix(config, APPS)
        for t in result.core.threads:
            assert t.committed == 1777

    def test_sampling_metadata_present(self):
        result = run_mix(_config(), APPS)
        s = result.core.extra["sampling"]
        assert s["detail_instructions"] == 200
        assert s["ff_instructions"] == 600
        assert s["window_warmup"] == 100
        assert s["gap_smoothing"] == 2
        assert s["windows"] >= 1
        assert 0.0 < s["measured_fraction"] <= 1.0
        assert s["cpi_ci95_rel"] >= 0.0


class _Thread:
    def __init__(self, thread_id, committed, cycles, dram_accesses):
        self.thread_id = thread_id
        self.committed = committed
        self.cycles = cycles
        self.dram_accesses = dram_accesses


class _Core:
    def __init__(self, cycles, threads):
        self.cycles = cycles
        self.threads = threads


class _Result:
    def __init__(self, cycles, threads):
        self.core = _Core(cycles, threads)


def _mix(cycles, *threads):
    return _Result(cycles, [_Thread(*t) for t in threads])


class TestToleranceMode:
    def test_tolerance_validation(self):
        with pytest.raises(ConfigError):
            Tolerance(cpi=0.0)
        with pytest.raises(ConfigError):
            Tolerance(thread_cpi=-1.0)

    def test_within_bounds_passes(self):
        base = _mix(10000, (0, 1000, 10000, 50))
        cand = _mix(10190, (0, 1000, 10190, 55))
        tol = Tolerance(cpi=0.02, thread_cpi=0.02, dram_accesses=0.25)
        assert diff_within_tolerance(base, cand, tol) == []

    def test_exact_boundary_is_not_a_violation(self):
        base = _mix(10000, (0, 1000, 10000, 100))
        cand = _mix(10200, (0, 1000, 10200, 100))
        tol = Tolerance(cpi=0.02, thread_cpi=0.02)
        assert diff_within_tolerance(base, cand, tol) == []

    def test_just_beyond_boundary_is_a_violation(self):
        base = _mix(10000, (0, 1000, 10000, 100))
        cand = _mix(10201, (0, 1000, 10201, 100))
        tol = Tolerance(cpi=0.02, thread_cpi=1.0)
        diffs = diff_within_tolerance(base, cand, tol)
        assert len(diffs) == 1
        assert "core.cycles" in diffs[0].path

    def test_dram_accesses_not_checked_by_default(self):
        # The sampled engine's DRAM count is a known underestimate in
        # memory-bound mixes; the default contract bounds CPI only.
        base = _mix(10000, (0, 1000, 10000, 1000))
        cand = _mix(10000, (0, 1000, 10000, 400))
        assert diff_within_tolerance(base, cand, Tolerance()) == []

    def test_per_thread_metrics_checked(self):
        base = _mix(10000, (0, 1000, 10000, 100), (1, 1000, 5000, 40))
        cand = _mix(10000, (0, 1000, 10000, 100), (1, 1000, 7000, 90))
        tol = Tolerance(cpi=0.02, thread_cpi=0.15, dram_accesses=0.25)
        paths = [d.path for d in diff_within_tolerance(base, cand, tol)]
        assert any("threads[1].cpi" in p for p in paths)
        assert any("threads[1].dram_accesses" in p for p in paths)

    def test_unknown_engine_raises_config_error(self):
        with pytest.raises(ConfigError):
            compare_engines(_config(), APPS, candidate="warp")
        with pytest.raises(ConfigError):
            compare_engines(_config(), APPS, baseline="warp")

    def test_compare_engines_sampled_within_loose_tolerance(self):
        report = compare_engines(
            _config(sampling=None, engine="fast"),
            APPS,
            baseline="reference",
            candidate="sampled",
            tolerance=Tolerance(
                cpi=2.0, thread_cpi=2.0, dram_accesses=2.0
            ),
        )
        assert isinstance(report, ComparisonReport)
        assert report.identical
