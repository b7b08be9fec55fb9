"""Objects per memoized µop: a memory floor host noise cannot fool.

The core keeps every generated µop in a process-wide memo
(``repro.engine.fast._STREAM_MEMO``), so the memo's size is set by how
many distinct ``Uop`` objects it holds.  Compute µops carry only an op
class and two dependence distances, and the generator hands out one
shared object per distinct value; peak RSS drifts with the host, but
the count of distinct objects for a given seed repeats exactly, so the
ratio is asserted here.  Before sharing, every memoized µop was its own
object (6,552 of 6,552 on these two runs).
"""

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

#: Distinct Uop objects may be at most this share of memoized µops.
MAX_OBJECTS_PER_UOP = 0.45

_COMPUTE = (OpClass.INT_ALU, OpClass.INT_MULT, OpClass.FP_ALU, OpClass.FP_MULT)


def _run(mix: str) -> None:
    core, _memory, _hierarchy = build_system(_CONFIG, MIXES[mix].apps)
    core.run(
        _CONFIG.instructions_per_thread,
        warmup_instructions=_CONFIG.warmup_instructions,
    )


def test_memo_holds_few_distinct_uops(monkeypatch):
    monkeypatch.setattr(fast, "_STREAM_MEMO", {})
    _run("2-ILP")
    _run("2-MIX")
    streams = [entry[0] for entry in fast._STREAM_MEMO.values()]
    assert len(streams) == 4
    uops = [u for stream in streams for u in stream]
    distinct = len({id(u) for u in uops})
    assert distinct <= MAX_OBJECTS_PER_UOP * len(uops), (
        f"{distinct} distinct Uop objects for {len(uops)} memoized µops"
    )


def test_equal_compute_uops_are_one_object_across_streams(monkeypatch):
    monkeypatch.setattr(fast, "_STREAM_MEMO", {})
    _run("2-MIX")
    first, second = (entry[0] for entry in fast._STREAM_MEMO.values())

    def compute_uops(stream):
        return {(u.opc, u.dep1, u.dep2): u for u in stream if u.opc in _COMPUTE}

    a, b = compute_uops(first), compute_uops(second)
    shared = a.keys() & b.keys()
    assert shared
    for key in shared:
        assert a[key] is b[key], key
