"""Fast-engine edge cases: skips vs FIFO, intervals, sanitizer.

The broad bit-identity guarantee lives in the oracle sweep
(``test_oracle.py`` / the ``repro engine-diff`` CI lane); these tests
pin the specific hazards a cycle-skipping kernel introduces:

* same-cycle events must keep FIFO order across a skipped window,
* timeline samples on interval boundaries inside a skip must land
  exactly where the reference puts them,
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
from repro.engine import ENGINE_NAMES, FastSMTCore, core_class
from repro.engine.oracle import compare_engines
from repro.experiments.config import SystemConfig
from repro.experiments.runner import build_system, run_mix
from repro.metrics.timeline import interval_ipcs
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
    def test_registry(self):
        assert core_class("reference") is SMTCore
        assert core_class("fast") is FastSMTCore
        assert set(ENGINE_NAMES) == {"reference", "fast"}

    def test_unknown_engine_rejected(self):
        for name in ("warp", "sampled"):
            with pytest.raises(ConfigError):
                core_class(name)
            with pytest.raises(ConfigError):
                SystemConfig(engine=name)

    def test_fast_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert SystemConfig().engine == "fast"

    def test_env_var_overrides_default_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert SystemConfig().engine == "reference"
        # explicit choices always win over the environment
        assert SystemConfig(engine="fast").engine == "fast"

    def test_cache_key_ignores_engine(self):
        # Shared result caches across engines are sound *because* of
        # the bit-identity contract; this is the flip side the oracle
        # must compensate for (it bypasses the cache).
        ref = _config(engine="reference")
        fast = _config(engine="fast")
        assert ref.cache_key() == fast.cache_key()

    def test_build_system_picks_engine_class(self):
        core, _, _ = build_system(_config(engine="fast"), ("mcf",))
        assert type(core) is FastSMTCore
        core, _, _ = build_system(_config(engine="reference"), ("mcf",))
        assert type(core) is SMTCore


class TestNoRefork:
    def test_fast_core_adds_kernel_and_memo_and_overrides_nothing(self):
        """The per-µop path exists once, in ``SMTCore``; a method
        re-appearing in ``FastSMTCore`` is a fork the oracle would then
        be comparing against itself."""
        own = vars(FastSMTCore)
        overridden = {
            name for name in set(own) & set(vars(SMTCore))
            if callable(own[name])
        }
        assert overridden == {"__init__"}
        assert {n for n in own if not n.startswith("__")} == {
            "_stalled_window", "_reject_key",
        }
        assert not hasattr(FastSMTCore, "_fetch_fast")


class TestKernelOpens:
    def test_fast_engine_fetches_a_third_as_often_on_8_mem(
        self, monkeypatch
    ):
        """Bit-identity cannot tell a working kernel from one that never
        opens.  On the stall-dominated 8-MEM mix the stalled-window
        kernel must skip most cycles, so the fast engine reaches
        ``_fetch`` at most a third as often as the reference (measured:
        2 883 vs 15 320)."""
        real_fetch = SMTCore._fetch
        calls = {"n": 0}

        def counting_fetch(self, cycle):
            calls["n"] += 1
            return real_fetch(self, cycle)

        monkeypatch.setattr(SMTCore, "_fetch", counting_fetch)
        counts = {}
        for engine in ENGINE_NAMES:
            calls["n"] = 0
            run_mix(
                _config(engine=engine, instructions_per_thread=300),
                MIXES["8-MEM"].apps,
            )
            counts[engine] = calls["n"]
        assert counts["fast"] * 3 <= counts["reference"], counts


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
    def test_timeline_identical_under_skips(self, interval):
        """Sample cycles routinely land inside skipped windows; the
        fast engine must emit the very same (cycle, committed) pairs."""
        cores = {}
        for engine in ENGINE_NAMES:
            cfg = _config(engine=engine)
            cfg = cfg.with_(
                core=dataclasses.replace(cfg.core, sample_interval=interval)
            )
            core, _, _ = build_system(cfg, MIXES["2-MEM"].apps)
            core.run(
                cfg.instructions_per_thread,
                warmup_instructions=cfg.warmup_instructions,
                max_cycles=cfg.max_cycles,
            )
            cores[engine] = core
        ref, fast = cores["reference"], cores["fast"]
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
            _config(engine="fast"), MIXES["2-MEM"].apps, sanitizer=sanitizer
        )
        assert result.core.cycles > 0
        assert sanitizer.ok, sanitizer.report()
        sanitizer.raise_if_violations()

    def test_sanitized_fast_run_is_bit_identical_to_plain(self):
        from repro.engine.oracle import diff_results

        apps = MIXES["2-MEM"].apps
        plain = run_mix(_config(engine="fast"), apps)
        sanitized = run_mix(
            _config(engine="fast"), apps, sanitizer=SimSanitizer()
        )
        diffs = diff_results(plain, sanitized)
        assert not diffs, diffs
