"""Tests for the runtime simulation sanitizer."""

import pytest

from repro.analysis.sanitizer import (
    SanitizedEventQueue,
    SanitizerError,
    SimSanitizer,
)
from repro.cache.mshr import MSHRFile, MSHRStatus
from repro.experiments.runner import build_system, run_mix
from repro.telemetry import EventTracer


class TestViolationSink:
    def test_starts_clean(self):
        checker = SimSanitizer()
        assert checker.ok
        assert "0 violations" in checker.report()
        checker.raise_if_violations()  # no-op when clean

    def test_record_and_raise(self):
        checker = SimSanitizer()
        checker.record(42, "protocol", "bad thing", channel=1)
        assert not checker.ok
        assert "[cycle 42] protocol: bad thing channel=1" in checker.report()
        with pytest.raises(SanitizerError):
            checker.raise_if_violations()

    def test_violations_land_in_tracer(self):
        tracer = EventTracer()
        tracer.emit(10, "dram.pick", "dram.sched", 0)
        checker = SimSanitizer(tracer=tracer)
        checker.record(11, "tRCD", "too soon")
        names = [e.name for e in tracer.events()]
        assert "sanitize.tRCD" in names
        (violation,) = checker.violations
        assert violation.context["trace_context"][0]["name"] == "dram.pick"


class TestSanitizedEventQueue:
    def test_same_semantics_as_plain_queue(self):
        q = SanitizedEventQueue(SimSanitizer())
        fired = []
        for tag in ("a", "b", "c"):
            q.schedule(7, fired.append, tag)
        q.schedule(3, fired.append, "early")
        q.run_until(7)
        assert fired == ["early", "a", "b", "c"]
        assert q.now == 7

    def test_run_all_drains(self):
        q = SanitizedEventQueue(SimSanitizer())
        fired = []
        for t in (5, 1, 9):
            q.schedule(t, fired.append, t)
        assert q.run_all() == 9
        assert fired == [1, 5, 9]

    def test_monotonicity_violation_recorded(self):
        checker = SimSanitizer()
        q = checker.make_event_queue()
        q._check_fire(10)
        q._check_fire(4)
        assert not checker.ok
        assert checker.violations[0].check == "event-time"


class TestMshrAccounting:
    def test_completion_without_entry_flagged(self):
        checker = SimSanitizer()
        mshr = MSHRFile(entries=4)

        class _Hierarchy:
            pass

        hierarchy = _Hierarchy()
        hierarchy.mshr = mshr
        checker.attach_hierarchy(hierarchy)
        # The model itself raises on the bogus completion; the
        # sanitizer has already localized the violation by then.
        with pytest.raises(KeyError):
            mshr.complete(0x40, finish=10)
        assert any(v.check == "mshr" for v in checker.violations)

    def test_leak_detected_at_finish(self):
        checker = SimSanitizer()
        mshr = MSHRFile(entries=4)

        class _Hierarchy:
            pass

        hierarchy = _Hierarchy()
        hierarchy.mshr = mshr
        checker.attach_hierarchy(hierarchy)
        assert mshr.register(0x40, 0) is MSHRStatus.NEW
        checker.finish()
        checks = [v.check for v in checker.violations]
        assert checks.count("mshr-leak") == 2  # live entry + imbalance

    def test_balanced_traffic_is_clean(self):
        checker = SimSanitizer()
        mshr = MSHRFile(entries=4)

        class _Hierarchy:
            pass

        hierarchy = _Hierarchy()
        hierarchy.mshr = mshr
        checker.attach_hierarchy(hierarchy)
        mshr.register(0x40, 0)
        mshr.complete(0x40, finish=10)
        checker.finish()
        assert checker.ok


class TestCoreConservation:
    def test_lost_issue_queue_release_flagged(self, tiny_config):
        checker = SimSanitizer()
        core, _memory, _hierarchy = build_system(
            tiny_config, ("mcf", "gzip"), sanitizer=checker
        )

        def lose_a_release():
            core.threads[0].iq_int += 1

        core.event_queue.schedule(60, lose_a_release)
        core.run(tiny_config.instructions_per_thread)
        broken = [
            v for v in checker.violations if v.check == "iq-conservation"
        ]
        assert broken and broken[0].time == 60
        assert all(v.check == "iq-conservation" for v in checker.violations)


class TestEndToEnd:
    @pytest.mark.parametrize("controller", ["request", "command"])
    def test_full_run_is_clean_and_bit_identical(
        self, quick_config, controller
    ):
        config = quick_config.with_(controller_model=controller)
        apps = ("mcf", "art")
        plain = run_mix(config, apps)
        checker = SimSanitizer()
        checked = run_mix(config, apps, sanitizer=checker)
        assert checker.ok, checker.report()
        assert checker.checks_run > 0
        assert checked.core == plain.core
        assert checked.hierarchy == plain.hierarchy
        assert checked.ipcs == plain.ipcs
        assert checked.dram.reads == plain.dram.reads
        assert checked.dram.writes == plain.dram.writes
        assert checked.dram.row_miss_rate == plain.dram.row_miss_rate
        assert checked.dram.read_latency_sum == plain.dram.read_latency_sum

    def test_close_page_command_model_clean(self, tiny_config):
        config = tiny_config.with_(
            controller_model="command", page_mode="close"
        )
        checker = SimSanitizer()
        run_mix(config, ("mcf", "gzip"), sanitizer=checker)
        assert checker.ok, checker.report()

    def test_build_system_attaches_everything(self, tiny_config, sanitizer):
        core, memory, hierarchy = build_system(
            tiny_config, ("mcf",), sanitizer=sanitizer
        )
        assert isinstance(core.event_queue, SanitizedEventQueue)
        core.run(tiny_config.instructions_per_thread, warmup_instructions=0)
        assert sanitizer.checks_run > 0
        # teardown of the `sanitizer` fixture drains and asserts clean

    def test_env_var_opt_in(self, tiny_config, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_mix(tiny_config, ("mcf",))
        assert result.core.cycles > 0

    def test_runner_sanitize_flag(self, tiny_config):
        from repro.experiments.runner import Runner

        runner = Runner(sanitize=True)
        result = runner.run_mix(tiny_config, ("mcf", "art"))
        assert result.core.cycles > 0
