"""Per-thread pipeline state: in-flight instructions, ROB, history ring.

The dependence model: every dispatched instruction becomes an
:class:`Inflight` node.  Producers are found by backwards distance in a
per-thread ring of recent nodes.  A node whose producers all have known
finish times can be scheduled for issue immediately (its ready time is
the max of its producers' finishes); otherwise it registers itself as a
waiter on each unresolved producer and is scheduled when the last one
resolves.  Loads are the only instructions whose finish time is not
known at issue -- they resolve when the cache hierarchy answers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.types import OpClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.generator import SyntheticStream, Uop

#: Size of the producer-history ring; must exceed the generator's
#: maximum dependence distance (64).
RING_SIZE = 128

#: Stand-in for "unknown, far future" fetch-unblock times.
FOREVER = 1 << 60


class Inflight:
    """One dispatched, not-yet-committed instruction."""

    __slots__ = (
        "thread_id",
        "seq",
        "opc",
        "addr",
        "mispredict",
        "finish",
        "waiters",
        "deps_left",
        "ready_lb",
        "iq_peers",
    )

    def __init__(
        self,
        thread_id: int,
        seq: int,
        opc: OpClass,
        addr: int,
        mispredict: bool,
        ready_lb: int,
    ) -> None:
        self.thread_id = thread_id
        self.seq = seq
        self.opc = opc
        self.addr = addr
        self.mispredict = mispredict
        self.finish: int | None = None
        self.waiters: list | None = None
        self.deps_left = 0
        self.ready_lb = ready_lb
        #: Loads/stores: same-thread integer µops already in the issue
        #: record of the cycle this node's next hierarchy access is
        #: scheduled for (see ``SMTCore._iq_occupancy_seen``).
        self.iq_peers = 0

    def add_waiter(self, waiter) -> None:
        """Register a dependent node on this producer, or, on a
        mispredicted branch, its thread id (fetch reopens when it
        resolves)."""
        if self.waiters is None:
            self.waiters = [waiter]
        else:
            self.waiters.append(waiter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Inflight(t{self.thread_id} #{self.seq} {self.opc.name} "
            f"finish={self.finish})"
        )


class ThreadContext:
    """Architectural and micro-architectural state of one hardware thread."""

    __slots__ = (
        "thread_id",
        "app_name",
        "stream",
        "rob",
        "rob_size",
        "ring",
        "seq",
        "pending_uop",
        "fetch_blocked_until",
        "unissued",
        "iq_int",
        "iq_fp",
        "committed",
        "fetched",
        "warmup_committed",
        "target",
        "finish_cycle",
        "icache_rng",
    )

    def __init__(
        self,
        thread_id: int,
        app_name: str,
        stream: "SyntheticStream",
        rob_size: int,
        icache_rng,
    ) -> None:
        self.thread_id = thread_id
        self.app_name = app_name
        self.stream = stream
        self.rob: deque[Inflight] = deque()
        self.rob_size = rob_size
        self.ring: list[Inflight | None] = [None] * RING_SIZE
        self.seq = 0
        self.pending_uop: "Uop | None" = None
        self.fetch_blocked_until = 0
        #: Dispatched-but-not-issued instructions (ICOUNT metric).
        self.unissued = 0
        #: Per-thread integer / fp issue-queue occupancy (for the
        #: IQ-based DRAM scheduling scheme).
        self.iq_int = 0
        self.iq_fp = 0
        self.committed = 0
        self.fetched = 0
        #: Measurement baseline set when the warm-up phase ends.
        self.warmup_committed = 0
        #: Committed-instruction target (post-warm-up) for this run.
        self.target = 0
        #: Cycle at which the target was reached (None while running).
        self.finish_cycle: int | None = None
        self.icache_rng = icache_rng

    # ------------------------------------------------------------------

    def measured_committed(self) -> int:
        """Instructions committed since the warm-up baseline."""
        return self.committed - self.warmup_committed
