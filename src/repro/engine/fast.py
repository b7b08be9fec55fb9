"""The µop stream memo the SMT core replays its workloads through.

A SyntheticStream's output is a pure function of its constructor
inputs: the (singleton) AppProfile, thread id, scale, and the exact
initial RNG state.  Experiment sweeps re-run identical streams many
times — figure 10 replays every mix and every single-thread baseline
once per scheduler — so :class:`repro.cpu.core.SMTCore` wraps each
stream it is given in :func:`_shared_stream`, which memoizes generated
µops process-wide, keyed by those constructor inputs.  A repeat run
replays the recorded prefix by index and only falls back to the
original generator when it runs longer than any previous run with the
same key.

A memo entry stores a µop in one of two ways:

* a compute µop is the generator's shared, immutable ``Uop`` object
  (one per distinct op class and dependence pair), kept in the entry's
  slot list exactly as generated;
* a load, store or branch leaves ``None`` in its slot and one row in
  two packed columns: an ``array('q')`` word (the address, or the
  branch's ``pc``) and an ``array('H')`` code packing the op class,
  both dependence distances and the ``mispredict``/``taken`` bits
  (every code is below :data:`_CODES`).  Replay builds a fresh ``Uop``
  from the row through a precomputed code table.

A memoized µop therefore costs one slot pointer, plus 10 bytes of
column for a load, store or branch, instead of an object of its own.
Only :class:`~repro.workloads.generator.SyntheticStream` itself is
memoized; the codes cover exactly the fields its ``next_uop`` sets.
Trace streams and custom streams pass through unwrapped.

The core imports this module, so it imports nothing from
:mod:`repro.cpu`.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable

from repro.common.types import OpClass
from repro.workloads.generator import MAX_DEP_DISTANCE, SyntheticStream, Uop

#: Distinct values of one dependence distance (0 = no dependence).
_DEPS = MAX_DEP_DISTANCE + 1

#: A load's code is ``dep1 * 65 + dep2``, a store's is that plus
#: ``_STORE_CODE``, and a branch's is ``_BRANCH_CODE + dep1 * 4 +
#: mispredict * 2 + taken`` (a branch has no ``dep2`` and no address).
_STORE_CODE = _DEPS * _DEPS
_BRANCH_CODE = 2 * _STORE_CODE
#: Number of distinct codes: 8,710, well inside ``array('H')``.
_CODES = _BRANCH_CODE + 4 * _DEPS

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH

#: ``object.__new__``, typed to return a ``Uop`` when given ``Uop``.
_new_uop = Uop.__new__

#: code -> (op class, dep1, dep2) for loads and stores,
#: code -> (dep1, mispredict, taken) for branches.
_DECODE: list[tuple[Any, ...]] = [
    (opc, dep1, dep2)
    for opc in (_LOAD, _STORE)
    for dep1 in range(_DEPS)
    for dep2 in range(_DEPS)
] + [
    (dep1, mispredict, taken)
    for dep1 in range(_DEPS)
    for mispredict in (False, True)
    for taken in (False, True)
]

#: One memo entry: [slots, words, codes, backing generator].  A slot is
#: a shared compute ``Uop`` or ``None`` (the µop is the next column
#: row); the backing generator is the *first* stream seen for the key,
#: kept so the entry can be extended from its exact mid-stream state.
_Entry = list[Any]


class _Memo(dict[tuple[Any, ...], _Entry]):
    """key -> entry (see above), plus ``uops``: the µops memoized in
    all entries, kept as they are recorded."""

    __slots__ = ("uops",)

    def __init__(self) -> None:
        super().__init__()
        self.uops = 0


_STREAM_MEMO = _Memo()

#: The memo holds at most this many µops: once it is full, no stream is
#: admitted and no entry grows.  A view that reaches the end of its
#: entry then goes on unrecorded (see ``_SharedStream``).  A memoized
#: µop costs about 15 bytes (``sys.getsizeof`` of slot list, columns and
#: shared objects on 2-ILP + 2-MIX, pinned by
#: ``tests/engine/test_memo_footprint.py``), so the memo stops at
#: roughly 30 MB.
_STREAM_MEMO_CAP = 2_000_000


class _SharedStream:
    """Replay view over a memoized µop stream (see the module docstring).

    Each view keeps two cursors into its entry: ``_pos`` over the slot
    list and ``_row`` over the columns (the loads, stores and branches
    before ``_pos``).  ``next_uop`` returns a compute µop's shared
    object as stored, builds a fresh ``Uop`` for a column row, and
    extends the entry from its generator when the view reaches its
    end.  Once the memo is full it stops recording for good (the memo
    never shrinks, so no view extends an entry again) and generates
    from its own backing stream instead, see :meth:`_stop_recording`.

    ``bench/trace.py`` wraps this class's ``next_uop`` by name, which
    is why the class keeps its name and its module.
    """

    __slots__ = (
        "_slots", "_words", "_codes", "_generate", "_pos", "_row",
        "_backing", "_memo", "profile",
    )

    def __init__(
        self, entry: _Entry, backing: SyntheticStream, memo: _Memo
    ) -> None:
        self._slots: list[Uop | None] = entry[0]
        self._words: array[int] = entry[1]
        self._codes: array[int] = entry[2]
        self._generate: Callable[[], Uop] = entry[3].next_uop
        self._pos = 0
        self._row = 0
        self._backing = backing
        #: The memo the entry belongs to; None once recording stopped.
        self._memo: _Memo | None = memo
        self.profile = backing.profile

    def next_uop(self) -> Uop:
        pos = self._pos
        self._pos = pos + 1
        slots = self._slots
        if pos < len(slots):
            uop = slots[pos]
            if uop is not None:
                return uop
            row = self._row
            self._row = row + 1
            code = self._codes[row]
            # All seven slots are stored here instead of calling
            # ``Uop.__init__``, whose Python-level call costs more than
            # the stores; a slot left unset would raise on first read.
            uop = _new_uop(Uop)
            if code < _BRANCH_CODE:
                uop.opc, uop.dep1, uop.dep2 = _DECODE[code]
                uop.addr = self._words[row]
                uop.mispredict = uop.taken = False
                uop.pc = 0
            else:
                uop.dep1, uop.mispredict, uop.taken = _DECODE[code]
                uop.opc = _BRANCH
                uop.addr = uop.dep2 = 0
                uop.pc = self._words[row]
            return uop
        memo = self._memo
        if memo is None:
            return self._generate()
        if memo.uops >= _STREAM_MEMO_CAP:
            self._stop_recording(pos)
            return self._generate()
        memo.uops += 1
        uop = self._generate()
        opc = uop.opc
        if opc is _LOAD or opc is _STORE:
            code = uop.dep1 * _DEPS + uop.dep2
            self._codes.append(code if opc is _LOAD else code + _STORE_CODE)
            self._words.append(uop.addr)
        elif opc is _BRANCH:
            self._codes.append(
                _BRANCH_CODE + uop.dep1 * 4 + uop.mispredict * 2 + uop.taken
            )
            self._words.append(uop.pc)
        else:
            slots.append(uop)
            return uop
        slots.append(None)
        self._row += 1
        return uop

    def _stop_recording(self, pos: int) -> None:
        """Go on unrecorded from stream position ``pos``, the entry's end.

        The view whose backing stream *is* the entry's generator keeps
        drawing from it: no other view ever draws from it unrecorded,
        so it stands at ``pos``.  Any other view fast-forwards its own,
        still fresh, backing stream past the recorded µops, so the
        entry's generator is never shared.
        """
        self._memo = None
        generate = self._backing.next_uop
        if self._generate != generate:
            for _ in range(pos):
                generate()
            self._generate = generate

    def footprint(self) -> Any:
        # Region layout is fixed at construction, identical for every
        # stream instance with this memo key.
        return self._backing.footprint()


def _shared_stream(stream: Any) -> Any:
    """Wrap ``stream`` in a memoized replay view (or pass through)."""
    if type(stream) is not SyntheticStream:  # trace/custom streams
        return stream
    try:
        version, state, gauss_next = stream._rng.getstate()
        # AppProfile is a frozen dataclass: hashing by value keeps the
        # key deterministic (no id()) and still exact — two streams
        # with equal constructor inputs are behaviorally identical.
        # The 625 state words are packed into one bytes object rather
        # than kept as a tuple of ints.
        key = (
            stream.profile,
            stream.thread_id,
            stream.scale,
            version,
            array("Q", state).tobytes(),
            gauss_next,
        )
        entry = _STREAM_MEMO.get(key)
    except (AttributeError, TypeError, ValueError):  # no exact key
        return stream
    if entry is None:
        if _STREAM_MEMO.uops >= _STREAM_MEMO_CAP:
            return stream
        entry = [[], array("q"), array("H"), stream]
        _STREAM_MEMO[key] = entry
    return _SharedStream(entry, stream, _STREAM_MEMO)
