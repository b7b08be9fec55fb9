"""Miss Status Holding Registers.

MSHRs bound how many distinct line misses a cache can have in flight
(16 per cache in Table 1) and merge secondary misses to a line that is
already being fetched.  The MSHR limit is what shapes the memory
concurrency the paper measures in Figure 4: a thread can expose at most
``entries`` distinct outstanding lines.
"""

from __future__ import annotations

import enum
from typing import Callable, List

from repro.common.errors import ConfigError


class MSHRStatus(enum.Enum):
    """Result of trying to register a miss."""

    NEW = "new"        # allocated a fresh entry; caller must start the fetch
    MERGED = "merged"  # line already in flight; waiter was registered
    FULL = "full"      # no entry available; caller must retry later


class _Entry:
    __slots__ = ("line_addr", "thread_id", "waiters", "went_to_dram")

    def __init__(self, line_addr: int, thread_id: int) -> None:
        self.line_addr = line_addr
        self.thread_id = thread_id
        self.waiters: List[Callable[[int], None]] = []
        self.went_to_dram = False


class MSHRFile:
    """A fixed-size file of miss entries keyed by line address.

    ``tracer``/``clock`` (a :class:`repro.telemetry.EventTracer` and a
    zero-argument now-callable) turn every allocate / merge / reject
    into a structured trace event; both default to off and cost one
    ``None`` check per registration when disabled.

    ``register`` and ``complete`` are the accounting boundary the
    simulation sanitizer audits (allocate/release balance, occupancy
    vs. capacity, empty-at-drain leak detection); see
    :meth:`repro.analysis.sanitizer.SimSanitizer._watch_mshr`.
    """

    def __init__(self, entries: int = 16, tracer=None, clock=None) -> None:
        if entries < 1:
            raise ConfigError(f"MSHR entries must be >= 1, got {entries}")
        self.entries = entries
        self._by_line: dict[int, _Entry] = {}
        self.merges = 0
        self.rejections = 0
        self.allocations = 0
        self._tracer = tracer if clock is not None else None
        self._clock = clock

    def __len__(self) -> int:
        return len(self._by_line)

    @property
    def available(self) -> int:
        return self.entries - len(self._by_line)

    def pending(self, line_addr: int) -> bool:
        """Whether a fetch for this line is already in flight."""
        return line_addr in self._by_line

    def register(
        self,
        line_addr: int,
        thread_id: int,
        waiter: Callable[[int], None] | None = None,
    ) -> MSHRStatus:
        """Register a miss; merge if the line is already being fetched."""
        entry = self._by_line.get(line_addr)
        if entry is not None:
            if waiter is not None:
                entry.waiters.append(waiter)
            self.merges += 1
            if self._tracer is not None:
                self._trace("mshr.merge", line_addr, thread_id)
            return MSHRStatus.MERGED
        if len(self._by_line) >= self.entries:
            self.rejections += 1
            if self._tracer is not None:
                self._trace("mshr.full", line_addr, thread_id)
            return MSHRStatus.FULL
        entry = _Entry(line_addr, thread_id)
        if waiter is not None:
            entry.waiters.append(waiter)
        self._by_line[line_addr] = entry
        self.allocations += 1
        if self._tracer is not None:
            self._trace("mshr.alloc", line_addr, thread_id)
        return MSHRStatus.NEW

    def _trace(self, name: str, line_addr: int, thread_id: int) -> None:
        self._tracer.emit(
            self._clock(), name, "cache.mshr", thread_id,
            args={"line": line_addr, "occupancy": len(self._by_line)},
        )

    def initiator(self, line_addr: int) -> int:
        """Thread that allocated the entry (owner of the primary miss)."""
        return self._by_line[line_addr].thread_id

    def mark_dram(self, line_addr: int) -> None:
        """Flag that this miss escalated past the L3 to main memory."""
        self._by_line[line_addr].went_to_dram = True

    def went_to_dram(self, line_addr: int) -> bool:
        return self._by_line[line_addr].went_to_dram

    def clear(self) -> None:
        """Drop every entry and its waiters without invoking them."""
        self._by_line.clear()

    def complete(self, line_addr: int, finish: int) -> list[Callable[[int], None]]:
        """Free the entry and return its waiters (callers invoke them)."""
        entry = self._by_line.pop(line_addr)
        for waiter in entry.waiters:
            waiter(finish)
        return entry.waiters
