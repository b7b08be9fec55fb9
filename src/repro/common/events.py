"""Discrete-event queue driving the memory hierarchy and DRAM model.

The SMT core advances a cycle counter; everything below the core (cache
miss handling, DRAM command timing, response delivery) is scheduled on
this queue.  Events at the same timestamp fire in FIFO scheduling
order, which keeps simulations deterministic.

The FIFO tie-break is a load-bearing contract: heap entries carry a
monotonic sequence number (``(time, seq, fn, args)``) so equal
timestamps never fall through to comparing callables, and same-cycle
work fires in exactly the order it was scheduled.  The contract is
pinned by ``tests/common/test_events.py`` (same-cycle ordering
regression suite) and checked at runtime by
:class:`repro.analysis.sanitizer.SanitizedEventQueue`, which asserts
fire-time monotonicity on every pop.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Tuple

from repro.common.errors import SimulationError

EventFn = Callable[..., None]


class EventQueue:
    """A time-ordered queue of callbacks.

    Example
    -------
    >>> q = EventQueue()
    >>> fired = []
    >>> q.schedule(5, fired.append, "a")
    >>> q.schedule(3, fired.append, "b")
    >>> q.run_until(10)
    2
    >>> fired
    ['b', 'a']
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: list[Tuple[int, int, EventFn, tuple]] = []
        self._seq = 0
        #: Timestamp of the most recently fired event, or the last
        #: ``run_until`` target (0 before either).  A plain slot: every
        #: DRAM request reads it several times.  The SMT core writes it
        #: directly when it advances the clock past an empty window.
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, fn: EventFn, *args: Any) -> None:
        """Schedule ``fn(*args)`` to fire at ``time``.

        ``time`` may equal the current time (fires on the next pump) but
        must never be in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"event scheduled at {time} before current time {self.now}"
            )
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn, args))

    def peek_time(self) -> int | None:
        """Timestamp of the earliest pending event, or ``None`` if empty.

        O(1) and side-effect free; this is what skip logic (the core's
        ``_maybe_skip`` and its stalled-window kernel) consults to
        bound how far the clock may jump.
        """
        heap = self._heap
        if not heap:
            return None
        return heap[0][0]

    def run_until(self, time: int) -> int:
        """Fire every event with timestamp ``<= time`` in order.

        Returns the number of events fired (0 when the window held
        none), so callers can cheaply detect whether any state may
        have changed — the contract the stalled-window kernel's reuse
        logic and the tests pin.  Always advances :attr:`now` to
        ``time``.  Events scheduled by fired events are themselves
        fired if they fall inside the window, so the queue fully
        settles before control returns.

        This is the simulator's hottest function: the SMT core pumps it
        every cycle, and on most cycles the heap is empty or its head
        lies beyond the window, so that case returns after a single
        comparison.
        """
        heap = self._heap
        if not heap or heap[0][0] > time:
            self.now = time
            return 0
        return self._drain(time)

    def _drain(self, time: int) -> int:
        """The non-empty-window half of :meth:`run_until`.

        Split out so subclasses (the sanitizer's checking queue) can
        instrument every pop without duplicating the early-out.
        """
        heap = self._heap
        pop = heappop
        fired = 0
        while heap and heap[0][0] <= time:
            when, _seq, fn, args = pop(heap)
            self.now = when
            fn(*args)
            fired += 1
        self.now = time
        return fired

    def run_all(self, limit: int = 10_000_000) -> int:
        """Drain the queue completely (used by memory-only simulations).

        ``limit`` bounds the number of fired events to catch accidental
        event storms; exceeding it raises :class:`SimulationError`.
        """
        fired = 0
        heap = self._heap
        pop = heappop
        while heap:
            when, _seq, fn, args = pop(heap)
            self.now = when
            fn(*args)
            fired += 1
            if fired > limit:
                raise SimulationError(f"event limit {limit} exceeded; runaway loop?")
        return self.now

    def close(self) -> None:
        """Drop every pending event.

        Pending callbacks are bound methods of the components that
        schedule on this queue, which hold the queue in turn; dropping
        them lets reference counting free a finished simulation at
        once instead of leaving it to the cyclic collector.
        """
        self._heap.clear()
