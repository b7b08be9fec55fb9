"""Bytes per memoized µop: a memory floor host noise cannot fool.

The core keeps every generated µop in a process-wide memo
(``repro.engine.fast._STREAM_MEMO``).  A memo entry is a slot list (the
generator's shared object for a compute µop, ``None`` for anything
else) plus two packed columns holding the loads, stores and branches
(an address or ``pc`` word and a 16-bit code each).  Peak RSS drifts
with the host, but ``sys.getsizeof`` of the list, the column buffers
and the distinct objects the slots hold repeats exactly for a given
seed, so the bytes per memoized µop are asserted here.  When every
load, store and branch was its own ``Uop`` (plus its address ``int``),
these two runs cost about 54 bytes per memoized µop; the columns bring
that to about 15.
"""

import sys

from repro.common.types import OpClass
from repro.engine import fast
from repro.experiments.config import SystemConfig
from repro.experiments.runner import build_system
from repro.workloads.mixes import MIXES

_CONFIG = SystemConfig(
    scale=8,
    instructions_per_thread=600,
    warmup_instructions=150,
    seed=2005,
)

#: The memo may cost at most this many bytes per memoized µop.
MAX_BYTES_PER_UOP = 20

_COMPUTE = (OpClass.INT_ALU, OpClass.INT_MULT, OpClass.FP_ALU, OpClass.FP_MULT)


def _run(mix: str) -> None:
    core, _memory, _hierarchy = build_system(_CONFIG, MIXES[mix].apps)
    core.run(
        _CONFIG.instructions_per_thread,
        warmup_instructions=_CONFIG.warmup_instructions,
    )


def test_memo_holds_few_distinct_uops(monkeypatch):
    monkeypatch.setattr(fast, "_STREAM_MEMO", fast._Memo())
    _run("2-ILP")
    _run("2-MIX")
    entries = list(fast._STREAM_MEMO.values())
    assert len(entries) == 4
    uops = sum(len(slots) for slots, _words, _codes, _backing in entries)
    assert fast._STREAM_MEMO.uops == uops
    objects = {
        id(slot): slot
        for slots, _words, _codes, _backing in entries
        for slot in slots
        if slot is not None
    }
    assert all(slot.opc in _COMPUTE for slot in objects.values())
    size = sum(
        sys.getsizeof(slots) + sys.getsizeof(words) + sys.getsizeof(codes)
        for slots, words, codes, _backing in entries
    ) + sum(sys.getsizeof(slot) for slot in objects.values())
    assert size <= MAX_BYTES_PER_UOP * uops, (
        f"{size} bytes ({len(objects)} distinct objects) for {uops} "
        f"memoized µops"
    )


def test_equal_compute_uops_are_one_object_across_streams(monkeypatch):
    monkeypatch.setattr(fast, "_STREAM_MEMO", fast._Memo())
    _run("2-MIX")
    first, second = (entry[0] for entry in fast._STREAM_MEMO.values())

    def compute_uops(slots):
        return {(u.opc, u.dep1, u.dep2): u for u in slots if u is not None}

    a, b = compute_uops(first), compute_uops(second)
    shared = a.keys() & b.keys()
    assert shared
    for key in shared:
        assert a[key] is b[key], key
