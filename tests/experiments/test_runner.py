"""Tests for the experiment runner and baseline caching."""

import pytest

from repro.experiments.runner import Runner, build_system, run_mix
from repro.workloads.mixes import get_mix


class TestBuildSystem:
    def test_components_wired(self, quick_config):
        core, memory, hierarchy = build_system(quick_config, ["gzip", "mcf"])
        assert len(core.threads) == 2
        assert hierarchy.memory is memory
        assert core.hierarchy is hierarchy

    def test_perfect_l3_has_no_memory(self, quick_config):
        cfg = quick_config.with_(perfect_l3=True)
        core, memory, hierarchy = build_system(cfg, ["gzip"])
        assert memory is None

    def test_rdram_system(self, quick_config):
        cfg = quick_config.with_(dram_type="rdram")
        _, memory, _ = build_system(cfg, ["gzip"])
        assert memory.geometry.banks_per_logical_channel == 128

    def test_caches_prewarmed(self, quick_config):
        _, _, hierarchy = build_system(quick_config, ["gzip"])
        assert hierarchy.l3.lines_resident > 0


class TestRunMix:
    def test_result_structure(self, quick_config):
        result = run_mix(quick_config, ["gzip", "mcf"])
        assert result.apps == ("gzip", "mcf")
        assert len(result.ipcs) == 2
        assert result.throughput > 0
        assert 0.0 <= result.row_buffer_miss_rate <= 1.0

    def test_single_is_one_thread(self, quick_config):
        result = run_mix(quick_config, ["eon"])
        assert len(result.core.threads) == 1

    def test_dram_rate_computed(self, quick_config):
        result = run_mix(quick_config, ["mcf", "ammp"])
        assert result.dram_accesses_per_100_instructions > 0.5

    def test_deterministic(self, quick_config):
        a = run_mix(quick_config, ["gzip", "mcf"])
        b = run_mix(quick_config, ["gzip", "mcf"])
        assert a.ipcs == b.ipcs
        assert a.core.cycles == b.core.cycles


class TestRunnerCaching:
    def test_single_cached(self, quick_config):
        runner = Runner()
        first = runner.single(quick_config, "gzip")
        second = runner.single(quick_config, "gzip")
        assert first is second

    def test_cache_keyed_by_config(self, quick_config):
        runner = Runner()
        a = runner.single(quick_config, "gzip")
        b = runner.single(quick_config.with_(channels=4), "gzip")
        assert a is not b

    def test_single_ipc_positive(self, quick_config):
        assert Runner().single_ipc(quick_config, "eon") > 0


class TestWeightedSpeedup:
    def test_accepts_mix_object_or_names(self, quick_config):
        runner = Runner()
        mix = get_mix("2-ILP")
        ws_obj = runner.weighted_speedup(quick_config, mix)
        ws_names = runner.weighted_speedup(quick_config, list(mix.apps))
        assert ws_obj == pytest.approx(ws_names)

    def test_reuses_supplied_result(self, quick_config):
        runner = Runner()
        mix = get_mix("2-ILP")
        result = runner.run_mix(quick_config, mix)
        ws = runner.weighted_speedup(quick_config, mix, result)
        assert 0 < ws <= 2.5

    def test_bounded_by_thread_count_approximately(self, quick_config):
        runner = Runner()
        ws = runner.weighted_speedup(quick_config, get_mix("2-ILP"))
        assert ws < 2.5  # small slack for measurement noise


class TestBaselineMultiplier:
    def test_baselines_run_longer_than_mix(self, quick_config):
        runner = Runner(baseline_multiplier=2)
        single = runner.single(quick_config, "gzip")
        assert (
            single.config.instructions_per_thread
            == 2 * quick_config.instructions_per_thread
        )

    def test_multiplier_one_preserves_budget(self, quick_config):
        runner = Runner(baseline_multiplier=1)
        single = runner.single(quick_config, "gzip")
        assert (
            single.config.instructions_per_thread
            == quick_config.instructions_per_thread
        )

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            Runner(baseline_multiplier=0)
