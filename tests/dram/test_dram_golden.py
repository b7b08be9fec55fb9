"""Golden digests for the DRAM model driven without a core.

The end-to-end goldens (``tests/engine/test_golden.py``) see the
memory system only through what a core made of its answers; this
module pins the DRAM controllers themselves.  Five configurations --
the ones ``bench/`` names ``dram_direct_rw`` -- are replayed
closed-loop from seeded request traces (eight threads, four requests
outstanding each, 30 % write-backs; a completion issues the thread's
next request) and drained with ``run_all``.  One SHA-256 per
configuration covers:

* every :class:`~repro.dram.stats.DRAMStats` field, both
  time-weighted histograms' bins and the per-thread dicts included;
* every request's ``(req_id, channel, bank, row, issue_time,
  finish_time, row_hit)``;
* the command-level model's ``commands_issued`` and ``refreshes``;
* the number of heap events scheduled and the final ``now``.

A mismatch means the simulated DRAM behaviour changed.  Regenerate
only for an intentional model fix, and say so in the change::

    PYTHONPATH=src python tests/dram/test_dram_golden.py --write

The driver here is self-contained (it does not import ``bench/``);
``test_dram_budget.py`` and the sanitizer replay below reuse it.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import SimSanitizer
from repro.common.events import EventQueue
from repro.common.stats import RateCounter, WeightedHistogram
from repro.dram.bank import PageMode
from repro.dram.system import MemorySystem

GOLDEN_PATH = Path(__file__).with_name("dram_golden.json")

THREADS = 8
OUTSTANDING = 4
PER_THREAD = 250
LINES = 1 << 22
SEED = 2005

#: label -> (dram type, controller model, scheduler, page mode)
CONFIGS = {
    "ddr/request/hit-first": ("ddr", "request", "hit-first", "open"),
    "ddr/request/request-based": ("ddr", "request", "request-based", "open"),
    "ddr/command/hit-first": ("ddr", "command", "hit-first", "open"),
    "ddr/command/request-based/close": (
        "ddr", "command", "request-based", "close",
    ),
    "rdram/request/hit-first": ("rdram", "request", "hit-first", "open"),
}


def traces() -> list[list[tuple[int, bool]]]:
    """Per-thread ``(line, is_write)`` traces: 60 % next-line, 40 %
    uniform, 30 % writes."""
    out = []
    for thread in range(THREADS):
        rng = random.Random(f"{SEED}:dram_golden:{thread}")
        line = rng.randrange(LINES)
        trace = []
        for _ in range(PER_THREAD):
            if rng.random() < 0.6:
                line = (line + 1) % LINES
            else:
                line = rng.randrange(LINES)
            trace.append((line, rng.random() < 0.3))
        out.append(trace)
    return out


TRACES = traces()
SUBMITTED = THREADS * PER_THREAD


def build(label: str, queue: EventQueue) -> MemorySystem:
    dram_type, model, scheduler, page_mode = CONFIGS[label]
    factory = getattr(MemorySystem, dram_type)
    return factory(
        queue, channels=2, mapping="xor",
        page_mode=PageMode.OPEN if page_mode == "open" else PageMode.CLOSE,
        scheduler=scheduler, controller_model=model,
    )


def drive(system: MemorySystem) -> list:
    """Replay the traces closed-loop into ``system``; return every
    request in submission order once the queue has drained."""
    cursors = [iter(trace) for trace in TRACES]
    read, write = system.read, system.write
    requests = []

    def submit(line, is_write, thread):
        requests.append((write if is_write else read)(line, thread, issue_next))

    def issue_next(_now, request):
        entry = next(cursors[request.thread_id], None)
        if entry is not None:
            submit(entry[0], entry[1], request.thread_id)

    for thread, cursor in enumerate(cursors):
        for _ in range(OUTSTANDING):
            line, is_write = next(cursor)
            submit(line, is_write, thread)
    system.event_queue.run_all()
    system.finish()
    return requests


def _canon(value):
    if isinstance(value, WeightedHistogram):
        return sorted(value.as_dict().items())
    if isinstance(value, RateCounter):
        return [value.hits, value.total]
    if isinstance(value, dict):
        return sorted(value.items())
    return value


def digest(system: MemorySystem, requests: list) -> str:
    queue = system.event_queue
    record = {
        "stats": {k: _canon(v) for k, v in sorted(vars(system.stats).items())},
        "requests": [
            (r.req_id, r.channel, r.bank, r.row, r.issue_time,
             r.finish_time, r.row_hit)
            for r in requests
        ],
        "commands": [
            (sorted((c.value, n) for c, n in ch.commands_issued.items()),
             ch.refreshes)
            for ch in system.channels
            if system.controller_model == "command"
        ],
        # ``_seq`` counts every ``schedule`` call the queue accepted.
        "events_scheduled": queue._seq,
        "now": queue.now,
    }
    blob = repr(record).encode()
    return hashlib.sha256(blob).hexdigest()


def run(label: str, queue: EventQueue | None = None) -> tuple:
    system = build(label, EventQueue() if queue is None else queue)
    requests = drive(system)
    return system, requests


def _digest_of(label: str) -> str:
    return digest(*run(label))


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_configuration(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("label", list(CONFIGS))
def test_dram_matches_golden(label, golden):
    system, requests = run(label)
    assert len(requests) == SUBMITTED
    assert system.stats.total_requests == SUBMITTED
    assert system.outstanding_total == 0 and len(system.event_queue) == 0
    assert digest(system, requests) == golden[label], (
        f"{label}: simulated DRAM behaviour changed"
    )


@pytest.mark.parametrize("label", list(CONFIGS))
def test_sanitizer_sees_every_pick(label, golden):
    """Every request-level issue and every command-level command goes
    through the controller's instance-dispatched ``_issue``, which the
    sanitizer wraps: ``checks_run`` counts exactly those, no violation
    is recorded, and the sanitized replay is the same simulation."""
    sanitizer = SimSanitizer()
    system = build(label, sanitizer.make_event_queue())
    sanitizer.attach_memory(system)
    requests = drive(system)
    sanitizer.raise_if_violations()
    if system.controller_model == "command":
        picks = sum(
            sum(ch.commands_issued.values()) for ch in system.channels
        )
        assert sum(ch.refreshes for ch in system.channels) > 0
    else:
        picks = system.stats.total_requests
    assert picks >= SUBMITTED
    assert sanitizer.checks_run == picks
    assert digest(system, requests) == golden[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    digests = {label: _digest_of(label) for label in CONFIGS}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
