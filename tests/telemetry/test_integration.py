"""Telemetry wired through the full simulator.

The two contract-level guarantees: disabled telemetry changes nothing
(bit-identical cycle counts), and an enabled tracer captures the
DRAM-command / scheduler-pick / fetch-gate story the observability docs
promise.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cpu.core import SMTCore
from repro.experiments.runner import Runner, run_mix
from repro.telemetry import (
    EventTracer,
    MetricRegistry,
    Telemetry,
    validate_chrome_trace,
)


def _traced_run(config, apps):
    telemetry = Telemetry(tracer=EventTracer())
    result = run_mix(config, apps, telemetry=telemetry)
    return result, telemetry


class TestDisabledIsInvisible:
    def test_cycle_counts_bit_identical(self, quick_config):
        plain = run_mix(quick_config, ["gzip", "mcf"])
        traced, _ = _traced_run(quick_config, ["gzip", "mcf"])
        assert plain.core.cycles == traced.core.cycles
        assert plain.ipcs == traced.ipcs
        assert plain.hierarchy == traced.hierarchy

    def test_command_model_bit_identical(self, quick_config):
        config = quick_config.with_(controller_model="command")
        plain = run_mix(config, ["gzip", "mcf"])
        traced, _ = _traced_run(config, ["gzip", "mcf"])
        assert plain.core.cycles == traced.core.cycles
        assert plain.ipcs == traced.ipcs

    def test_plain_run_attaches_no_metrics(self, quick_config):
        assert run_mix(quick_config, ["gzip"]).metrics is None

    def test_disabled_timeline_stays_empty(self, quick_config):
        from repro.experiments.runner import build_system

        core, _, _ = build_system(quick_config, ["gzip"])
        core.run(200)
        assert core.timeline == []

    def test_disabled_path_is_zero_cost(self, quick_config, monkeypatch):
        """With telemetry off, the simulation must make *zero* instrument
        calls — not even no-op calls on the null singletons.

        The hot paths (core tick, fetch policies, DRAM issue) hoist their
        telemetry checks so a disabled run never touches an instrument;
        this pins that audit by counting invocations on the
        null-instrument classes during an untelemetered run with the
        core's shortcuts on and off.
        """
        from repro.telemetry import registry as reg
        from repro.workloads.mixes import MIXES

        calls = {"n": 0}

        def counting(self, *args, **kwargs):
            calls["n"] += 1

        monkeypatch.setattr(reg._NullCounter, "add", counting)
        monkeypatch.setattr(reg._NullGauge, "set", counting)
        monkeypatch.setattr(reg._NullHistogram, "observe", counting)
        monkeypatch.setattr(reg._NullSeries, "record", counting)

        for shortcuts in (True, False):
            monkeypatch.setattr(SMTCore, "shortcuts", shortcuts)
            calls["n"] = 0
            result = run_mix(quick_config, MIXES["2-MEM"].apps)
            assert result.core.cycles > 0
            assert calls["n"] == 0, (
                f"shortcuts={shortcuts}: {calls['n']} instrument calls "
                "with telemetry disabled"
            )


class TestRegistryThroughTheStack:
    def test_metric_hierarchy_populated(self, quick_config):
        telemetry = Telemetry()
        result = run_mix(quick_config, ["gzip", "mcf"], telemetry=telemetry)
        reg = telemetry.registry
        assert "cpu.cycles" in reg.names("cpu")
        assert "cpu.t0.instructions" in reg.names("cpu.t0")
        assert "cpu.t1.ipc" in reg.names("cpu.t1")
        assert "dram.ch0.row_hits" in reg.names("dram.ch0")
        assert "cache.loads" in reg.names("cache")
        snap = result.metrics
        assert snap is not None
        assert snap["counters"]["cpu.cycles"] == result.core.cycles

    def test_counters_match_simulator_stats(self, quick_config):
        telemetry = Telemetry()
        result = run_mix(quick_config, ["gzip", "mcf"], telemetry=telemetry)
        snap = telemetry.snapshot()
        dram = result.dram
        row_hits = sum(
            v for k, v in snap["counters"].items()
            if k.endswith(".row_hits") and k.startswith("dram.")
        )
        row_misses = sum(
            v for k, v in snap["counters"].items()
            if k.endswith(".row_misses") and k.startswith("dram.")
        )
        assert row_hits == dram.row_buffer.hits
        assert row_hits + row_misses == dram.reads + dram.writes
        for i, thread in enumerate(result.core.threads):
            assert (
                snap["counters"][f"cpu.t{i}.instructions"]
                == thread.committed
            )
            assert snap["gauges"][f"cpu.t{i}.ipc"] == pytest.approx(
                thread.ipc
            )

    def test_occupancy_histograms_recorded(self, quick_config):
        telemetry = Telemetry()
        run_mix(quick_config, ["gzip", "mcf"], telemetry=telemetry)
        snap = telemetry.snapshot()
        assert snap["histograms"]["cpu.t0.rob_occupancy"]["count"] > 0
        assert snap["series"]["cpu.t0.committed"]

    def test_registry_without_tracer_records_no_events(self, quick_config):
        telemetry = Telemetry(registry=MetricRegistry())
        assert telemetry.tracer is None
        result = run_mix(quick_config, ["gzip"], telemetry=telemetry)
        assert result.metrics is not None


class TestDramCommandTrace:
    """Acceptance: a 2-thread scheduler-pick trace shows ACT/PRE/CAS
    events with reasons."""

    @pytest.fixture
    def trace(self, quick_config):
        config = quick_config.with_(controller_model="command")
        _, telemetry = _traced_run(config, ["mcf", "art"])
        return telemetry.tracer

    def test_act_pre_cas_present_with_reasons(self, trace):
        commands = trace.events("dram.cmd")
        names = {e.name for e in commands}
        assert "dram.ACT" in names
        assert "dram.PRE" in names
        assert "dram.CAS.read" in names
        for event in commands:
            assert event.args["reason"], event
            assert event.args["scheduler"] == "hit-first"
            assert {"channel", "bank", "row", "req"} <= set(event.args)

    def test_both_threads_traced(self, trace):
        tids = {e.tid for e in trace.events("dram.cmd")}
        assert tids == {0, 1}

    def test_reasons_name_the_criteria(self, trace):
        reasons = {e.args["reason"] for e in trace.events("dram.cmd")}
        assert any("row-hit" in r for r in reasons)
        assert any("row-miss" in r for r in reasons)

    def test_chrome_export_of_full_run_validates(self, trace):
        assert validate_chrome_trace(trace.chrome_trace()) == []

    def test_request_model_pick_reasons(self, quick_config):
        _, telemetry = _traced_run(quick_config, ["mcf", "art"])
        picks = telemetry.tracer.events("dram.sched")
        assert picks
        for event in picks:
            assert event.args["reason"]
        bursts = telemetry.tracer.events("dram.bus")
        assert bursts and all(e.dur is not None for e in bursts)


class TestPipelineTrace:
    def test_fetch_gate_events(self, quick_config, monkeypatch):
        """Gate events carry policy and reason, and — a tracer keeps
        the core out of its skip kernel — the core emits the same
        front-end events at the same cycles with its shortcuts on and
        off."""
        emitted = {}
        for shortcuts in (False, True):
            monkeypatch.setattr(SMTCore, "shortcuts", shortcuts)
            config = quick_config.with_(fetch_policy="dwarn")
            _, telemetry = _traced_run(config, ["mcf", "art"])
            events = telemetry.tracer.events("cpu.fetch")
            gates = [e for e in events if e.name == "fetch.gate"]
            assert gates
            assert all(e.args["policy"] == "dwarn" for e in gates)
            assert all(e.args["reason"] == "iq-pressure" for e in gates)
            emitted[shortcuts] = [(e.name, e.ts, e.tid) for e in events]
        assert {"fetch.icache_miss", "fetch.redirect"} <= {
            name for name, _, _ in emitted[True]
        }
        assert emitted[False] == emitted[True]

    def test_mshr_events(self, quick_config):
        _, telemetry = _traced_run(quick_config, ["mcf", "art"])
        mshr = telemetry.tracer.events("cache.mshr")
        names = {e.name for e in mshr}
        assert "mshr.alloc" in names
        assert all("occupancy" in e.args for e in mshr)


class TestSchedulerReasons:
    def test_age_override_reason(self):
        from repro.dram.schedulers import make_scheduler
        from repro.common.types import MemAccessType, MemRequest

        class Ctx:
            # Every request's bank is precharged: all misses.
            banks = {-1: SimpleNamespace(open_row=None)}
            outstanding = {}

        scheduler = make_scheduler("age-based")
        requests = [
            MemRequest(64 * i, MemAccessType.READ, 0, arrival=i)
            for i in range(10)
        ]
        picked, reason = scheduler.select_with_reason(requests, 100, Ctx())
        assert picked is requests[0]
        assert reason == "age-override(backlog=10)"

    def test_thread_aware_reason_names_the_scheme(self):
        from repro.dram.schedulers import make_scheduler
        from repro.common.types import MemAccessType, MemRequest

        class Ctx:
            # Unmapped requests sit at bank -1, row -1: hold it open.
            banks = {-1: SimpleNamespace(open_row=-1)}
            outstanding = {5: 3}

        scheduler = make_scheduler("request-based")
        request = MemRequest(0, MemAccessType.READ, 5, arrival=0)
        _, reason = scheduler.select_with_reason([request], 0, Ctx())
        assert reason == "row-hit,read,request-based=3"


class TestRunnerManifests:
    def test_runner_records_sources(self, tiny_config, tmp_path):
        runner = Runner()
        runner.run_mix(tiny_config, ["gzip"])
        runner.run_mix(tiny_config, ["gzip"])  # memo hit, not re-recorded
        records = runner.records
        assert len(records) == 1
        assert records[0].source == "simulated"
        assert records[0].wall_time_s > 0
        path = runner.write_manifest(tmp_path)
        from repro.telemetry import RunManifest

        doc = RunManifest.read(path)
        assert doc["runs"][0]["apps"] == ["gzip"]

    def test_collect_metrics_attaches_and_merges(self, tiny_config):
        runner = Runner(collect_metrics=True)
        result = runner.run_mix(tiny_config, ["gzip", "mcf"])
        assert result.metrics is not None
        manifest = runner.manifest()
        assert manifest.metrics["counters"]["cpu.cycles"] > 0

    def test_parallel_runner_manifest_deterministic(self, tiny_config):
        jobs = [
            (tiny_config, ("gzip",)),
            (tiny_config, ("mcf",)),
            (tiny_config, ("gzip",)),  # duplicate
        ]
        a = Runner(jobs=2, collect_metrics=True)
        a.run_many(jobs)
        b = Runner(jobs=2, collect_metrics=True)
        b.run_many(jobs)
        assert a.manifest().manifest_id == b.manifest().manifest_id
        assert len(a.records) == 2
        assert a.manifest().metrics == b.manifest().metrics
