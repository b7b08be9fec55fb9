"""Work per DRAM request: floors that host noise cannot fool.

Host time on a shared machine drifts by tens of percent; the number of
heap events and of Python calls a seeded replay makes repeats exactly.
For each configuration of ``test_dram_golden`` this pins

* heap events (``EventQueue.schedule`` calls) per completed request to
  the exact count -- pumps, wake-ups and completions are model state
  (the command model's refresh timing depends on when ``pump`` runs),
  so the count may not move in either direction;
* Python calls into ``repro`` per completed request under a bound:
  ``sys.setprofile`` ``call`` events whose code lives in the package.
  Comprehension frames are excluded, because Python 3.12 inlines list,
  set and dict comprehensions (PEP 709) while 3.11 gives them a frame.

``CALLS_PER_REQUEST`` holds the measured count and the bound sits
10 % above it; ``PRIOR_CALLS_PER_REQUEST`` is the count before requests
were decoded once and scheduler picks became one pass, and the
measured count must stay at or below 0.6 x that.
"""

import os
import sys

import pytest

import repro
from repro.common.events import EventQueue

from tests.dram.test_dram_golden import CONFIGS, SUBMITTED, build, drive

_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_COMPREHENSIONS = frozenset(("<listcomp>", "<setcomp>", "<dictcomp>"))

#: Exact ``EventQueue.schedule`` calls for the whole replay.
EVENTS = {
    "ddr/request/hit-first": 6227,
    "ddr/request/request-based": 6234,
    "ddr/command/hit-first": 8683,
    "ddr/command/request-based/close": 8283,
    "rdram/request/hit-first": 5874,
}

#: Measured calls into ``repro`` per completed request.
CALLS_PER_REQUEST = {
    "ddr/request/hit-first": 34.95,
    "ddr/request/request-based": 40.64,
    "ddr/command/hit-first": 47.79,
    "ddr/command/request-based/close": 50.78,
    "rdram/request/hit-first": 35.6,
}

#: The same count before the request path was flattened.
PRIOR_CALLS_PER_REQUEST = {
    "ddr/request/hit-first": 60.16,
    "ddr/request/request-based": 74.23,
    "ddr/command/hit-first": 87.87,
    "ddr/command/request-based/close": 93.66,
    "rdram/request/hit-first": 63.38,
}


def count_calls(label: str) -> tuple[int, int, int]:
    """Replay ``label``; return (requests completed, heap events
    scheduled, calls into ``repro`` made by the replay)."""
    system = build(label, EventQueue())
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (
                code.co_filename.startswith(_PACKAGE)
                and code.co_name not in _COMPREHENSIONS
            ):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drive(system)
    finally:
        sys.setprofile(previous)
    return system.stats.total_requests, system.event_queue._seq, calls


@pytest.mark.parametrize("label", list(CONFIGS))
def test_work_per_request(label):
    completed, events, calls = count_calls(label)
    assert completed == SUBMITTED
    assert events == EVENTS[label], (
        f"{label}: {events} heap events, expected exactly "
        f"{EVENTS[label]} -- pumps and wake-ups are model state"
    )
    per_request = calls / completed
    assert per_request <= 1.1 * CALLS_PER_REQUEST[label], (
        f"{label}: {per_request:.2f} calls per request, bound "
        f"{1.1 * CALLS_PER_REQUEST[label]:.2f}"
    )
    assert per_request <= 0.6 * PRIOR_CALLS_PER_REQUEST[label]


if __name__ == "__main__":
    for name in CONFIGS:
        done, scheduled, made = count_calls(name)
        print(
            f"{name}: {scheduled} events ({scheduled / done:.3f}/request), "
            f"{made / done:.2f} calls/request"
        )
