"""Public API surface tests: the documented entry points exist."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_all_names_are_their_defining_modules_objects(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(repro._EXPORTS[name])
            value = getattr(repro, name)
            assert value is getattr(module, name), name
            # Classes and functions are listed under the module that
            # defines them, not one that re-exports them.
            assert getattr(value, "__module__", module.__name__) == (
                module.__name__
            ), name

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(repro, "no_such_export")

    def test_dir_lists_the_documented_names(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_telemetry_names_resolve_lazily(self):
        import repro.telemetry as telemetry

        for name in telemetry.__all__:
            value = getattr(telemetry, name)
            if name in telemetry._EXPORTS:
                module = importlib.import_module(telemetry._EXPORTS[name])
                assert value is getattr(module, name), name
        assert set(telemetry.__all__) <= set(dir(telemetry))
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(telemetry, "no_such_export")

    def test_experiment_registry_complete(self):
        assert {"fig1", "fig2", "fig3", "fig4", "fig5",
                "fig6", "fig7", "fig8", "fig9", "fig10"} <= set(
            repro.EXPERIMENTS
        )

    def test_mix_and_profile_lookups(self):
        assert repro.get_mix("2-MEM").apps == ("mcf", "ammp")
        assert repro.get_profile("mcf").category == "MEM"
        assert len(repro.profile_names()) == 26
        assert len(repro.all_mix_names()) == 9


class TestSubpackageExports:
    def test_dram(self):
        from repro.dram import (
            DRAMGeometry, MemorySystem, make_mapping, make_scheduler,
        )
        assert MemorySystem and DRAMGeometry
        assert make_scheduler("hit-first").name == "hit-first"
        assert callable(make_mapping)

    def test_cache(self):
        from repro.cache import MemoryHierarchy, MSHRFile, SetAssocCache, TLB
        assert all((MemoryHierarchy, MSHRFile, SetAssocCache, TLB))

    def test_cpu(self):
        from repro.cpu import CoreParams, SMTCore, make_fetch_policy
        assert make_fetch_policy("dwarn").name == "dwarn"
        assert CoreParams().rob_size == 256
        assert SMTCore

    def test_workloads(self):
        from repro.workloads import (
            AppProfile, MIXES, PROFILES, Region, SyntheticStream,
        )
        assert len(PROFILES) == 26
        assert len(MIXES) == 9
        assert all((AppProfile, Region, SyntheticStream))

    def test_metrics(self):
        from repro.metrics import (
            cpi_breakdown, fairness_index, weighted_speedup,
        )
        assert weighted_speedup([1.0], [1.0]) == 1.0
        assert fairness_index([1.0], [1.0]) == 1.0
        assert cpi_breakdown

    def test_common(self):
        from repro.common import (
            EventQueue, MemRequest, OpClass, child_rng,
        )
        assert all((EventQueue, MemRequest, OpClass))
        assert child_rng(1, "x")


class TestReadmeQuickstart:
    """The README quickstart snippet must actually run."""

    def test_quickstart_snippet(self):
        from repro import Runner, SystemConfig, get_mix

        config = SystemConfig(
            scale=32, instructions_per_thread=200, warmup_instructions=50
        )
        runner = Runner()
        mix = get_mix("2-MIX")
        result = runner.run_mix(config, mix)
        assert result.dram.row_hit_rate >= 0.0
        assert runner.weighted_speedup(config, mix, result) > 0

    def test_config_with_snippet(self):
        from repro import SystemConfig

        fast = SystemConfig().with_(channels=8, scheduler="request-based")
        assert fast.channels == 8
        assert fast.scheduler == "request-based"
