"""The core's shortcuts: skips vs FIFO, intervals, sanitizer.

``SMTCore.shortcuts`` turns the stalled-window kernel and the stream
memo on (the default) or off; ``tests/engine/test_golden.py`` runs every
golden job both ways against the same digests.  These tests pin the
specific hazards a cycle-skipping kernel introduces:

* same-cycle events must keep FIFO order across a skipped window,
* timeline samples on interval boundaries inside a skip must land
  exactly where ticking every cycle puts them,
* the sanitizer's monotonic-time checks must hold when the clock jumps,
* fetch policies with cycle-dependent state (round-robin rotation)
  must see the same cycle numbers,
* and the kernel must actually open where stalls dominate, which
  bit-identity alone cannot show.
"""

import dataclasses

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.cpu.core import SMTCore
from repro.engine import core_class
from repro.engine.fast import _SharedStream
from repro.engine.oracle import compare_engines, diff_results
from repro.experiments.config import SystemConfig
from repro.experiments.runner import build_system, run_mix
from repro.metrics.timeline import interval_ipcs
from repro.service.jobs import config_from_dict, config_to_dict
from repro.workloads.mixes import MIXES


def _config(**overrides) -> SystemConfig:
    base = dict(
        scale=32,
        instructions_per_thread=400,
        warmup_instructions=100,
        seed=2005,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestEngineSelection:
    """There is nothing left to select: one core, shortcuts on."""

    def test_registry(self):
        # ``bench/trace.py`` asks for the core by its old engine name.
        assert core_class("fast") is SMTCore

    def test_unknown_engine_rejected(self):
        for name in ("warp", "sampled"):
            with pytest.raises(ConfigError):
                core_class(name)
            with pytest.raises(ValueError, match="unknown engine"):
                config_from_dict({"engine": name})
        with pytest.raises(TypeError):
            SystemConfig(engine="fast")

    def test_fast_is_the_default(self):
        assert SMTCore.shortcuts is True
        assert not hasattr(SystemConfig(), "engine")

    def test_env_var_overrides_default_only(self):
        # No environment variable reaches the shortcuts: they are a
        # plain class attribute, and the core's module reads no
        # environment.
        import repro.cpu.core as core_module

        assert not hasattr(core_module, "os")
        core, _, _ = build_system(_config(), ("mcf",))
        assert core.shortcuts is True
        assert type(core.threads[0].stream) is _SharedStream

    def test_cache_key_ignores_engine(self):
        # A config written when the engine was a field keeps its
        # identity, whichever engine it named.
        config = _config()
        for engine in ("fast", "reference"):
            doc = dict(config_to_dict(config), engine=engine)
            assert config_from_dict(doc).cache_key() == config.cache_key()

    def test_build_system_picks_engine_class(self, monkeypatch):
        core, _, _ = build_system(_config(), ("mcf",))
        assert type(core) is SMTCore
        assert type(core.threads[0].stream) is _SharedStream
        monkeypatch.setattr(SMTCore, "shortcuts", False)
        core, _, _ = build_system(_config(), ("mcf",))
        assert type(core) is SMTCore
        assert type(core.threads[0].stream) is not _SharedStream


class TestNoRefork:
    def test_fast_core_adds_kernel_and_memo_and_overrides_nothing(self):
        """The per-µop path, the kernel and the memo hook all live in
        ``SMTCore``; a subclass would be a second core to keep equal."""
        assert SMTCore.__subclasses__() == []
        own = vars(SMTCore)
        assert {"_stalled_window", "_reject_key", "shortcuts"} <= set(own)
        assert not hasattr(SMTCore, "_fetch_fast")


class TestKernelOpens:
    def test_fast_engine_fetches_a_third_as_often_on_8_mem(
        self, monkeypatch
    ):
        """Bit-identity cannot tell a working kernel from one that never
        opens.  On the stall-dominated 8-MEM mix the stalled-window
        kernel must skip most cycles, so with the shortcuts on the core
        reaches ``_fetch`` at most a third as often as with them off
        (measured: 2 883 vs 15 320)."""
        real_fetch = SMTCore._fetch
        calls = {"n": 0}

        def counting_fetch(self, cycle):
            calls["n"] += 1
            return real_fetch(self, cycle)

        monkeypatch.setattr(SMTCore, "_fetch", counting_fetch)
        counts = {}
        for shortcuts in (False, True):
            monkeypatch.setattr(SMTCore, "shortcuts", shortcuts)
            calls["n"] = 0
            run_mix(
                _config(instructions_per_thread=300), MIXES["8-MEM"].apps
            )
            counts[shortcuts] = calls["n"]
        assert counts[True] * 3 <= counts[False], counts


class TestSameCycleFifoAcrossSkip:
    def test_queue_jump_preserves_insertion_order(self):
        """The kernel advances the clock with one ``run_until`` jump;
        events parked at one future cycle must still fire FIFO."""
        q = EventQueue()
        fired = []
        q.schedule(50, fired.append, "a")
        q.schedule(50, fired.append, "b")
        q.run_until(30)  # partial skip: clock moves, nothing fires
        q.schedule(50, fired.append, "c")
        assert q.run_until(50) == 3
        assert fired == ["a", "b", "c"]

    def test_burstiest_dram_config_is_identical(self):
        """fcfs on a big MEM mix maximizes same-cycle DRAM completions
        racing the skip logic; any FIFO reshuffle diverges counters."""
        report = compare_engines(
            _config(scheduler="fcfs"), MIXES["4-MEM"].apps
        )
        assert report.identical, report.render()


class TestIntervalBoundaries:
    @pytest.mark.parametrize("interval", [64, 200])
    def test_timeline_identical_under_skips(self, interval, monkeypatch):
        """Sample cycles routinely land inside skipped windows; the
        kernel must emit the very same (cycle, committed) pairs."""
        cores = {}
        for shortcuts in (False, True):
            monkeypatch.setattr(SMTCore, "shortcuts", shortcuts)
            cfg = _config()
            cfg = cfg.with_(
                core=dataclasses.replace(cfg.core, sample_interval=interval)
            )
            core, _, _ = build_system(cfg, MIXES["2-MEM"].apps)
            core.run(
                cfg.instructions_per_thread,
                warmup_instructions=cfg.warmup_instructions,
                max_cycles=cfg.max_cycles,
            )
            cores[shortcuts] = core
        ref, fast = cores[False], cores[True]
        assert ref.timeline == fast.timeline
        assert len(fast.timeline) >= 2  # the test exercised sampling
        assert interval_ipcs(ref.timeline) == interval_ipcs(fast.timeline)

    def test_sampled_run_results_identical(self):
        cfg = _config()
        cfg = cfg.with_(
            core=dataclasses.replace(cfg.core, sample_interval=100)
        )
        report = compare_engines(cfg, MIXES["2-MEM"].apps)
        assert report.identical, report.render()


class TestRoundRobinRotation:
    def test_cycle_dependent_policy_identical(self):
        """Round-robin priority is a function of the cycle number; a
        kernel that mis-advances the clock rotates fetch priority."""
        report = compare_engines(
            _config(fetch_policy="round-robin"), MIXES["2-MEM"].apps
        )
        assert report.identical, report.render()


class TestSanitizerUnderSkips:
    def test_fast_engine_passes_monotonic_time_checks(self):
        """The sanitized event queue asserts fire times never move
        backwards; a skip that overshoots then rewinds would trip it."""
        sanitizer = SimSanitizer()
        result = run_mix(
            _config(), MIXES["2-MEM"].apps, sanitizer=sanitizer
        )
        assert result.core.cycles > 0
        assert sanitizer.ok, sanitizer.report()
        sanitizer.raise_if_violations()

    def test_sanitized_fast_run_is_bit_identical_to_plain(self):
        apps = MIXES["2-MEM"].apps
        plain = run_mix(_config(), apps)
        sanitized = run_mix(_config(), apps, sanitizer=SimSanitizer())
        diffs = diff_results(plain, sanitized)
        assert not diffs, diffs
