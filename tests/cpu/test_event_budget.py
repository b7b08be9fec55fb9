"""Work per dispatched µop: floors that host noise cannot fool.

A µop leaving the issue queue is not a heap event: one marker per
issue record releases a whole cycle's members, and only loads and
stores keep an event of their own (see ``repro.cpu.core``).  Host
time drifts by tens of percent on a shared machine; the number of
``EventQueue.schedule`` calls and of Python calls a seeded run makes
repeats exactly, so both ratios are asserted here and the cycle counts
pin that the simulated run is still the same one.

Calls are ``sys.setprofile`` ``call`` events whose code lives in the
``repro`` package, comprehension frames excluded (Python 3.12 inlines
them, PEP 709, while 3.11 gives them a frame).  ``CALLS_PER_UOP`` holds
the measured count and the bound sits 10 % above it;
``PRIOR_CALLS_PER_UOP`` is the count before ``_fetch`` and ``_commit``
paid their bookkeeping per thread visit instead of per µop, and the
measured count must stay at or below 0.85 x that.
"""

import os
import sys

import pytest

import repro
from repro.common.events import EventQueue
from repro.cpu.core import SMTCore
from repro.engine import fast
from repro.experiments.config import SystemConfig
from repro.experiments.runner import build_system
from repro.workloads.mixes import MIXES

_BASE = SystemConfig(
    scale=32,
    instructions_per_thread=300,
    warmup_instructions=100,
    seed=2005,
)

_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_COMPREHENSIONS = frozenset(("<listcomp>", "<setcomp>", "<dictcomp>"))

# ``shortcuts`` is not a config field: it switches the core's kernel
# and memo (``SMTCore.shortcuts``) for the row.
_ROWS = {
    "2-ILP": dict(fetch_policy="icount", shortcuts=False),
    "8-MIX": dict(fetch_policy="dwarn", scheduler="request-based",
                  shortcuts=True),
}

#: Measured calls into ``repro`` per dispatched µop.
CALLS_PER_UOP = {
    "2-ILP": 9.72,
    "8-MIX": 11.78,
}

#: The same count before the front end batched its bookkeeping.
PRIOR_CALLS_PER_UOP = {
    "2-ILP": 11.81,
    "8-MIX": 13.90,
}

_RUNS: dict[str, tuple[int, int, int, int]] = {}


def count_work(mix: str, overrides: dict) -> tuple[int, int, int, int]:
    """Run ``mix`` under ``overrides`` once; return (cycles, µops
    dispatched, heap events scheduled, calls into ``repro``).  Memoized
    per mix: each mix has one row."""
    if mix in _RUNS:
        return _RUNS[mix]
    overrides = dict(overrides)
    scheduled = 0
    calls = 0
    schedule = EventQueue.schedule

    def counting(self, time, fn, *args):
        nonlocal scheduled
        scheduled += 1
        schedule(self, time, fn, *args)

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (
                code.co_filename.startswith(_PACKAGE)
                and code.co_name not in _COMPREHENSIONS
            ):
                calls += 1

    shortcuts = SMTCore.__dict__["shortcuts"]
    memo = fast._STREAM_MEMO
    EventQueue.schedule = counting
    SMTCore.shortcuts = overrides.pop("shortcuts")
    # A fresh memo: whether an earlier run in this process already
    # recorded these streams must not decide the count.
    fast._STREAM_MEMO = fast._Memo()
    try:
        config = _BASE.with_(**overrides)
        core, _memory, _hierarchy = build_system(config, MIXES[mix].apps)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = core.run(
                config.instructions_per_thread,
                warmup_instructions=config.warmup_instructions,
            )
        finally:
            sys.setprofile(previous)
    finally:
        EventQueue.schedule = schedule
        SMTCore.shortcuts = shortcuts
        fast._STREAM_MEMO = memo
    dispatched = sum(t.fetched for t in core.threads)
    _RUNS[mix] = (result.cycles, dispatched, scheduled, calls)
    return _RUNS[mix]


@pytest.mark.parametrize(
    "mix, overrides, max_events_per_uop, cycles",
    [
        ("2-ILP", _ROWS["2-ILP"], 0.75, 184),
        ("8-MIX", _ROWS["8-MIX"], 0.85, 10351),
    ],
)
def test_events_per_dispatched_uop(
    mix, overrides, max_events_per_uop, cycles
):
    simulated, dispatched, scheduled, _calls = count_work(mix, overrides)
    assert simulated == cycles
    assert scheduled / dispatched <= max_events_per_uop, (
        f"{scheduled} events for {dispatched} dispatched µops"
    )


@pytest.mark.parametrize("mix", list(_ROWS))
def test_calls_per_dispatched_uop(mix):
    _cycles, dispatched, _scheduled, calls = count_work(mix, _ROWS[mix])
    per_uop = calls / dispatched
    assert per_uop <= 1.1 * CALLS_PER_UOP[mix], (
        f"{mix}: {per_uop:.2f} calls per dispatched µop, bound "
        f"{1.1 * CALLS_PER_UOP[mix]:.2f}"
    )
    assert per_uop <= 0.85 * PRIOR_CALLS_PER_UOP[mix]


if __name__ == "__main__":
    for name in _ROWS:
        ran, uops, events, made = count_work(name, _ROWS[name])
        print(
            f"{name}: {ran} cycles, {uops} µops, "
            f"{events / uops:.3f} events/µop, {made / uops:.2f} calls/µop"
        )
