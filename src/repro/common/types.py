"""Core shared types: operation classes and the DRAM request record.

These types form the contract between the three simulators: the SMT
core produces :class:`MemRequest` objects (through the cache
hierarchy), the DRAM controller consumes and answers them, and the
thread-aware schedulers read the piggybacked processor state they
carry.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class OpClass(enum.IntEnum):
    """Dynamic instruction classes modelled by the SMT core.

    The classes map to the functional-unit mix of Table 1 of the paper
    (6 IntALU, 6 IntMult, 2 FPALU, 2 FPMult) plus memory and control
    operations.
    """

    INT_ALU = 0
    INT_MULT = 1
    FP_ALU = 2
    FP_MULT = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6

    @property
    def is_memory(self) -> bool:
        """Whether this class accesses the data memory hierarchy."""
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_fp(self) -> bool:
        """Whether this class issues to the floating-point queue."""
        return self in (OpClass.FP_ALU, OpClass.FP_MULT)


class MemAccessType(enum.IntEnum):
    """Direction of a DRAM access.

    ``READ`` covers demand line fills (both load and store misses under
    write-allocate); ``WRITE`` covers dirty write-backs evicted from
    the last-level cache.
    """

    READ = 0
    WRITE = 1


#: Callback invoked when a DRAM request completes.  Receives the
#: completion time in CPU cycles and the request itself.
MemCallback = Callable[[int, "MemRequest"], None]

#: ``req_id`` value of a request not yet admitted to a memory system.
UNASSIGNED_REQUEST_ID = 0


class MemRequest:
    """A single DRAM request (one cache line).

    Carries the thread-state snapshots the paper's thread-aware
    schedulers use (Section 3): the issuing thread's reorder-buffer and
    integer-issue-queue occupancy at the time the miss left the core.
    The paper notes this information is piggybacked with the request
    and may be slightly stale by the time the controller uses it; a
    snapshot models exactly that staleness.

    ``req_id`` is the scheduler tie-breaker and trace key.  It is
    *per-simulation*: requests are constructed with
    :data:`UNASSIGNED_REQUEST_ID` and numbered 1, 2, 3, ... by the
    owning :class:`~repro.dram.system.MemorySystem` when submitted, so
    traces and manifests are identical whether a run is the first or
    the hundredth in its process.  (A process-global counter here once
    made memoized re-runs differ from fresh ones.)  Pass ``req_id``
    explicitly when driving a controller without a memory system.
    """

    __slots__ = (
        "req_id",
        "line_addr",
        "access",
        "is_read",
        "thread_id",
        "arrival",
        "rob_occupancy",
        "iq_occupancy",
        "callback",
        "channel",
        "bank",
        "row",
        "issue_time",
        "finish_time",
        "row_hit",
    )

    def __init__(
        self,
        line_addr: int,
        access: MemAccessType,
        thread_id: int,
        arrival: int,
        rob_occupancy: int = 0,
        iq_occupancy: int = 0,
        callback: Optional[MemCallback] = None,
        req_id: int = UNASSIGNED_REQUEST_ID,
    ) -> None:
        if line_addr < 0:
            raise ValueError(f"line_addr must be non-negative, got {line_addr}")
        if arrival < 0:
            raise ValueError(f"arrival must be non-negative, got {arrival}")
        self.req_id = req_id
        self.line_addr = line_addr
        self.access = access
        #: True for demand fills, False for write-backs.  A slot, not a
        #: property: the controllers and schedulers read it several
        #: times per request.
        self.is_read = access is MemAccessType.READ
        self.thread_id = thread_id
        self.arrival = arrival
        self.rob_occupancy = rob_occupancy
        self.iq_occupancy = iq_occupancy
        self.callback = callback
        # Filled in by the address mapping when the request enters the
        # memory system.
        self.channel: int = -1
        self.bank: int = -1
        self.row: int = -1
        # Filled in by the controller when the request is served.
        self.issue_time: int = -1
        self.finish_time: int = -1
        self.row_hit: bool = False

    def age(self, now: int) -> int:
        """Cycles this request has been waiting at time ``now``."""
        return now - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "R" if self.is_read else "W"
        return (
            f"MemRequest(#{self.req_id} {kind} line={self.line_addr:#x} "
            f"tid={self.thread_id} arr={self.arrival})"
        )
