"""The µop stream memo replays exactly what the generator made.

Every golden job runs with ``branch_predictor=False``, so a replay
that got a branch's ``pc`` or ``taken`` wrong would pass every golden;
these tests compare a replayed stream with a plain ``SyntheticStream``
field by field instead.  They also pin what ``_STREAM_MEMO_CAP``
bounds: the memo's µops, so neither a new stream nor a longer run
grows it past the cap, and a view that runs past a full entry still
yields the generator's stream.
"""

import pytest

from repro.common.rng import child_rng
from repro.common.types import OpClass
from repro.engine import fast
from repro.workloads.generator import SyntheticStream
from repro.workloads.spec2000 import PROFILES

SEED = 2005
SCALE = 8
UOPS = 5_000

_COMPUTE = (OpClass.INT_ALU, OpClass.INT_MULT, OpClass.FP_ALU, OpClass.FP_MULT)


def _stream(app: str, thread_id: int = 1) -> SyntheticStream:
    return SyntheticStream(
        PROFILES[app],
        child_rng(SEED, f"stream:{app}:{thread_id}"),
        thread_id=thread_id,
        scale=SCALE,
    )


def _fields(uop):
    return (uop.opc, uop.addr, uop.dep1, uop.dep2, uop.mispredict, uop.pc, uop.taken)


def _assert_same(view, plain, count: int) -> None:
    for i in range(count):
        got, want = view.next_uop(), plain.next_uop()
        assert _fields(got) == _fields(want), (i, _fields(got), _fields(want))
        assert type(got.mispredict) is bool and type(got.taken) is bool, i
        if got.opc in _COMPUTE:
            assert got is want, i  # the generator's shared object


@pytest.mark.parametrize("app", sorted(PROFILES))
def test_replay_round_trips_every_field(app, monkeypatch):
    monkeypatch.setattr(fast, "_STREAM_MEMO", fast._Memo())
    first = fast._shared_stream(_stream(app))
    second = fast._shared_stream(_stream(app))
    assert type(first) is type(second) is fast._SharedStream
    _assert_same(first, _stream(app), UOPS)  # generates and records
    (entry,) = fast._STREAM_MEMO.values()
    slots, words, codes, _backing = entry
    assert len(slots) == UOPS
    assert len(words) == len(codes) == slots.count(None)
    assert max(codes) < fast._CODES
    _assert_same(second, _stream(app), UOPS)  # replays
    assert len(entry[0]) == UOPS


def test_cap_bounds_the_memo(monkeypatch):
    monkeypatch.setattr(fast, "_STREAM_MEMO", fast._Memo())
    monkeypatch.setattr(fast, "_STREAM_MEMO_CAP", 1_000)
    # The first view records 1,000 µops, then draws on from the
    # entry's generator (its own stream) unrecorded.
    first = fast._shared_stream(_stream("mcf"))
    assert type(first) is fast._SharedStream
    _assert_same(first, _stream("mcf"), 3_000)
    (entry,) = fast._STREAM_MEMO.values()
    assert len(entry[0]) == fast._STREAM_MEMO.uops == 1_000

    late = _stream("gzip")
    assert fast._shared_stream(late) is late

    # A later view replays the 1,000 and fast-forwards its own stream
    # past them; the entry does not grow.
    again = fast._shared_stream(_stream("mcf"))
    assert type(again) is fast._SharedStream
    _assert_same(again, _stream("mcf"), 3_000)
    assert len(entry[0]) == fast._STREAM_MEMO.uops == 1_000


def test_other_streams_pass_through():
    class Custom(SyntheticStream):
        pass

    custom = Custom(PROFILES["mcf"], child_rng(SEED, "custom"), scale=SCALE)
    assert fast._shared_stream(custom) is custom
