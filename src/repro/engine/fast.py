"""The µop stream memo the SMT core replays its workloads through.

A SyntheticStream's output is a pure function of its constructor
inputs: the (singleton) AppProfile, thread id, scale, and the exact
initial RNG state.  Experiment sweeps re-run identical streams many
times — figure 10 replays every mix and every single-thread baseline
once per scheduler — so :class:`repro.cpu.core.SMTCore` wraps each
stream it is given in :func:`_shared_stream`, which memoizes generated
µops process-wide, keyed by those constructor inputs.  Uop objects are
immutable after construction (the core wraps them in Inflight nodes,
and the generator already hands out one shared object per distinct
compute µop), so the cached objects are shared directly; a repeat run
replays the recorded prefix by list index and only falls back to the
original generator when it runs longer than any previous run with the
same key.

The core imports this module, so it imports nothing from
:mod:`repro.cpu`.
"""

from __future__ import annotations

from typing import Any

#: key -> [uops_so_far, backing_generator]; the backing generator is
#: the *first* stream seen for the key, kept so the list can be
#: extended from its exact mid-stream state.
_STREAM_MEMO: dict = {}

#: Stop admitting new streams once the memo holds this many µops;
#: existing entries keep serving.  Measured as peak RSS with the cap
#: at 0 against the default (scale 8, seed 2005, CPython 3.11 on
#: x86-64), a memoized µop costs 42 B on the 2/4/8-ILP mixes and 77 B
#: on figure 10's MEM mixes at 2,400 instructions (107 B and 128 B
#: when every compute µop was its own object), so the cap bounds the
#: memo at roughly 85-155 MB.
_STREAM_MEMO_CAP = 2_000_000


class _SharedStream:
    """Replay view over a memoized µop stream (see above).

    ``bench/trace.py`` wraps this class's ``next_uop`` by name, which
    is why the class keeps its name and its module.
    """

    __slots__ = ("_entry", "_uops", "_pos", "_backing", "profile")

    def __init__(self, entry: tuple[list[Any], Any], backing: Any) -> None:
        self._entry = entry
        self._uops = entry[0]
        self._pos = 0
        self._backing = backing
        self.profile = backing.profile

    def next_uop(self) -> Any:
        pos = self._pos
        uops = self._uops
        if pos >= len(uops):
            uops.append(self._entry[1].next_uop())
        self._pos = pos + 1
        return uops[pos]

    def footprint(self) -> Any:
        # Region layout is fixed at construction, identical for every
        # stream instance with this memo key.
        return self._backing.footprint()


def _shared_stream(stream: Any) -> Any:
    """Wrap ``stream`` in a memoized replay view (or pass through)."""
    try:
        # AppProfile is a frozen dataclass: hashing by value keeps the
        # key deterministic (no id()) and still exact — two streams
        # with equal constructor inputs are behaviorally identical.
        key = (
            stream.profile,
            stream.thread_id,
            stream.scale,
            stream._rng.getstate(),
        )
        hash(key)
    except (AttributeError, TypeError):  # trace/custom streams: no memo
        return stream
    entry = _STREAM_MEMO.get(key)
    if entry is None:
        if sum(len(e[0]) for e in _STREAM_MEMO.values()) >= _STREAM_MEMO_CAP:
            return stream
        entry = ([], stream)
        _STREAM_MEMO[key] = entry
    return _SharedStream(entry, stream)
