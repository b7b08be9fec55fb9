"""Heap events per dispatched µop: a floor host noise cannot fool.

A µop leaving the issue queue is not a heap event: one marker per
issue record releases a whole cycle's members, and only loads and
stores keep an event of their own (see ``repro.cpu.core``).  Host
time drifts by tens of percent on a shared machine; the number of
``EventQueue.schedule`` calls for a given seed repeats exactly, so the
ratio is asserted here and the cycle counts pin that the simulated
run is still the same one.
"""

import pytest

from repro.common.events import EventQueue
from repro.experiments.config import SystemConfig
from repro.experiments.runner import build_system
from repro.workloads.mixes import MIXES

_BASE = SystemConfig(
    scale=32,
    instructions_per_thread=300,
    warmup_instructions=100,
    seed=2005,
)


@pytest.mark.parametrize(
    "mix, overrides, max_events_per_uop, cycles",
    [
        ("2-ILP", dict(fetch_policy="icount", engine="reference"), 0.75, 184),
        (
            "8-MIX",
            dict(fetch_policy="dwarn", scheduler="request-based",
                 engine="fast"),
            0.85,
            10351,
        ),
    ],
)
def test_events_per_dispatched_uop(
    monkeypatch, mix, overrides, max_events_per_uop, cycles
):
    scheduled = 0
    schedule = EventQueue.schedule

    def counting(self, time, fn, *args):
        nonlocal scheduled
        scheduled += 1
        schedule(self, time, fn, *args)

    monkeypatch.setattr(EventQueue, "schedule", counting)
    config = _BASE.with_(**overrides)
    core, _memory, _hierarchy = build_system(config, MIXES[mix].apps)
    result = core.run(
        config.instructions_per_thread,
        warmup_instructions=config.warmup_instructions,
    )
    dispatched = sum(t.fetched for t in core.threads)
    assert result.cycles == cycles
    assert scheduled / dispatched <= max_events_per_uop, (
        f"{scheduled} events for {dispatched} dispatched µops"
    )
