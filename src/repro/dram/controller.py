"""Per-logical-channel DRAM controller.

Each logical channel owns its banks and data bus and schedules pending
requests with a pluggable :class:`~repro.dram.schedulers.Scheduler`.
The model is request-level but captures the timing structure that the
paper's optimizations exploit:

* state-dependent service latency (hit / closed / conflict) from the
  bank row-buffer state and the page mode;
* bank/bus decoupling: the command phase (precharge + activate +
  column access) of one request overlaps the data burst of another on
  a different bank, so the bus pipelines whenever possible;
* a bounded scheduling horizon: the controller never commits the bus
  more than a couple of bursts ahead, so newly arriving requests can
  still be reordered in front of waiting ones — the property access
  scheduling depends on;
* separate read and write queues with read priority and a
  high/low-watermark write-drain mode, the standard way to let reads
  bypass writes without starving write-backs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.events import EventQueue
from repro.common.types import MemRequest
from repro.dram.bank import Bank, PageMode
from repro.dram.geometry import DRAMGeometry
from repro.dram.schedulers import Scheduler
from repro.dram.stats import DRAMStats
from repro.dram.timing import DRAMTiming
from repro.telemetry.registry import NULL_REGISTRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dram.system import MemorySystem


class BaseChannelController:
    """What the request- and command-level controllers share, once:
    read/write queues with drain watermarks, the queue interface,
    telemetry/registry wiring and the sleep/wake plumbing.  What
    differs — bank state, ``pump``, ``_issue``, ``is_row_hit``,
    ``warm_row`` — stays in each subclass; nothing here branches on
    which model it serves.
    """

    #: Write-queue watermarks for drain mode.
    WRITE_DRAIN_HIGH = 16
    WRITE_DRAIN_LOW = 4

    def __init__(
        self,
        channel_id: int,
        geometry: DRAMGeometry,
        timing: DRAMTiming,
        page_mode: PageMode,
        scheduler: Scheduler,
        event_queue: EventQueue,
        stats: DRAMStats,
        system: "MemorySystem",
        telemetry=None,
    ) -> None:
        self.channel_id = channel_id
        self.timing = timing
        self.page_mode = page_mode
        self.scheduler = scheduler
        self.event_queue = event_queue
        self.stats = stats
        self.system = system
        self._tracer = telemetry.tracer if telemetry is not None else None
        registry = (
            telemetry.registry
            if telemetry is not None and telemetry.registry.enabled
            else NULL_REGISTRY
        )
        self._registry = registry
        prefix = f"dram.ch{channel_id}"
        self._c_row_hits = registry.counter(f"{prefix}.row_hits")
        self._c_row_misses = registry.counter(f"{prefix}.row_misses")
        self._c_reads = registry.counter(f"{prefix}.reads")
        self._c_writes = registry.counter(f"{prefix}.writes")
        # Per-request (per-command) metric guard: with telemetry off the
        # counters are null singletons, and the issue path must not pay
        # even the no-op calls.
        self._counting = registry is not NULL_REGISTRY
        self.transfer = timing.transfer_for_gang(geometry.gang)
        #: How far ahead (cycles) the bus may be committed before the
        #: controller stops issuing and waits; keeps scheduling
        #: reactive.  A tight horizon trades some bank-prep overlap for
        #: a late (well-informed) scheduling decision -- reordering
        #: quality is what the paper's schedulers depend on, so the
        #: window stays small (about one data burst committed ahead).
        #: The command-level model holds back column commands only.
        self.horizon = 2 * self.transfer
        self.bus_free_at = 0
        self.reads: list[MemRequest] = []
        self.writes: list[MemRequest] = []
        self._draining = False
        self._next_wake: int | None = None

    def outstanding_for_thread(self, thread_id: int) -> int:
        """Live outstanding-request count (for the request-based scheme)."""
        return self.system.outstanding_for_thread(thread_id)

    # ------------------------------------------------------------------
    # queue interface

    @property
    def pending(self) -> int:
        return len(self.reads) + len(self.writes)

    def enqueue(self, request: MemRequest) -> None:
        """Accept a mapped request; called at controller arrival time."""
        if request.is_read:
            self.reads.append(request)
        else:
            self.writes.append(request)
        self.pump()

    def _select_pool(self) -> list[MemRequest]:
        """Pick which queue to serve from, honouring write watermarks."""
        if len(self.writes) >= self.WRITE_DRAIN_HIGH:
            self._draining = True
        elif self._draining and len(self.writes) <= self.WRITE_DRAIN_LOW:
            self._draining = False
        if self.reads and not self._draining:
            return self.reads
        if self.writes:
            return self.writes
        return self.reads

    # ------------------------------------------------------------------
    # sleep / wake

    def _wake_at(self, time: int) -> None:
        now = self.event_queue.now
        time = max(time, now + 1)
        if self._next_wake is not None and self._next_wake <= time:
            return
        self._next_wake = time
        self.event_queue.schedule(time, self._on_wake, time)

    def _on_wake(self, scheduled_for: int) -> None:
        if self._next_wake == scheduled_for:
            self._next_wake = None
        self.pump()


class ChannelController(BaseChannelController):
    """Scheduler + bank/bus state for one logical channel."""

    def __init__(
        self,
        channel_id: int,
        geometry: DRAMGeometry,
        timing: DRAMTiming,
        page_mode: PageMode,
        *args,
        **kwargs,
    ) -> None:
        super().__init__(
            channel_id, geometry, timing, page_mode, *args, **kwargs
        )
        self.banks = [Bank() for _ in range(geometry.banks_per_logical_channel)]
        # Flattened bank-timing fast path: the three state-dependent
        # service latencies and the page-mode branch are resolved once
        # here (from the timing's precomputed per-page-mode table) so
        # the per-request path is plain attribute arithmetic instead of
        # enum/property dispatch.
        self._open_mode = page_mode is PageMode.OPEN
        lat = timing.service_latency_table(self._open_mode)
        self._lat_hit = lat["hit"]
        self._lat_closed = lat["closed"]
        self._lat_conflict = lat["conflict"]
        self._t_pre = timing.t_pre

    # ------------------------------------------------------------------
    # scheduler context protocol

    def is_row_hit(self, request: MemRequest) -> bool:
        """Whether ``request`` would hit the row buffer right now.

        Schedulers call this once per candidate per pump, so it is
        kept branch-free.
        """
        return (
            self._open_mode
            and self.banks[request.bank].open_row == request.row
        )

    def warm_row(self, bank: int, row: int) -> None:
        """Functional warming: latch ``row`` with no timing or stats.

        No-op under the close page policy (banks are always
        precharged).  No caller in ``src/`` (see
        :meth:`repro.cache.hierarchy.MemoryHierarchy.warm_access`).
        """
        if self._open_mode:
            self.banks[bank].open_row = row

    # ------------------------------------------------------------------
    # scheduling engine

    def pump(self) -> None:
        """Issue as much work as the horizon allows, then sleep.

        The ready list is maintained incrementally across same-cycle
        issues: issuing occupies exactly one bank strictly past ``now``
        (``data_end >= now + transfer > now``) and removes the request
        from its pool, so the recomputed ready set would be the previous
        one minus that bank's requests.  Filtering in place preserves
        pool order, hence scheduler tie-breaks, bit-for-bit; the full
        scan only reruns when ``_select_pool`` switches queues.
        """
        now = self.event_queue.now
        banks = self.banks
        pool: list[MemRequest] | None = None
        ready: list[MemRequest] = []
        while True:
            current = self._select_pool()
            if not current:
                return
            if self.bus_free_at - now > self.horizon:
                # Enough work committed; revisit when the bus drains.
                self._wake_at(self.bus_free_at - self.horizon)
                return
            if current is not pool:
                pool = current
                ready = [r for r in pool if banks[r.bank].free_at <= now]
            if not ready:
                self._wake_at(min(banks[r.bank].free_at for r in pool))
                return
            if self._tracer is not None:
                request, reason = self.scheduler.select_with_reason(
                    ready, now, self
                )
            else:
                request = self.scheduler.select(ready, now, self)
                reason = None
            self._issue(request, now, reason)
            busy = request.bank
            ready = [r for r in ready if r.bank != busy]

    def _issue(
        self, request: MemRequest, now: int, reason: str | None = None
    ) -> None:
        bank = self.banks[request.bank]
        # Classify (hit / closed / conflict) against __init__'s
        # flattened timing, then commit the bank's post-access state.
        row = request.row
        if self._open_mode:
            open_row = bank.open_row
            if open_row == row:
                hit = True
                latency = self._lat_hit
            elif open_row is None:
                hit = False
                latency = self._lat_closed
            else:
                hit = False
                latency = self._lat_conflict
        else:
            hit = False
            latency = self._lat_closed
        data_start = max(now + latency, self.bus_free_at)
        data_end = data_start + self.transfer
        bank.services += 1
        if hit:
            bank.row_hits += 1
        if self._open_mode:
            bank.open_row = row
            bank.free_at = data_end
        else:
            bank.open_row = None
            bank.free_at = data_end + self._t_pre
        self.bus_free_at = data_end
        (self.reads if request.is_read else self.writes).remove(request)
        request.issue_time = now
        request.row_hit = hit
        request.finish_time = (
            data_end + self.timing.ctrl_response if request.is_read else data_end
        )
        self.stats.record_service(request.is_read, hit, request.thread_id)
        if self._counting:
            (self._c_row_hits if hit else self._c_row_misses).add()
            (self._c_reads if request.is_read else self._c_writes).add()
        if self._tracer is not None:
            tracer = self._tracer
            tracer.emit(
                now, "dram.pick", "dram.sched", request.thread_id,
                args={
                    "reason": reason,
                    "scheduler": self.scheduler.name,
                    "channel": self.channel_id,
                    "bank": request.bank,
                    "row": request.row,
                    "hit": hit,
                    "op": "read" if request.is_read else "write",
                },
            )
            tracer.emit(
                data_start, "dram.burst", "dram.bus", request.thread_id,
                dur=self.transfer,
                args={"channel": self.channel_id, "bank": request.bank},
            )
        if request.is_read:
            queue_delay = max(0, now - (request.arrival + self.timing.ctrl_request))
            self.stats.record_read_latency(
                request.finish_time - request.arrival,
                queue_delay,
                request.thread_id,
            )
        self.event_queue.schedule(
            request.finish_time, self.system.complete, request
        )
