"""Per-logical-channel DRAM controller.

Each logical channel owns its banks and data bus and schedules pending
requests with a pluggable :class:`~repro.dram.schedulers.Scheduler`.
One access is the DRAM operations the paper's Section 2 describes --
PRECHARGE, ACTIVATE (row access), READ/WRITE (column access) -- and
the controller models it in one of two ways (``controller_model``):

* ``"request"`` (the default): every request's next command is its
  column command, which folds in the row preparation its bank needs.
  Its start is pushed back by ``t_row`` for a precharged bank, or by
  ``t_pre + t_row`` for a row conflict, and the row is latched.  The
  command bus, tRRD, tRAS, turnaround and refresh never bind.  This is
  several times faster and calibrated against the paper's shapes.
* ``"command"``: PRECHARGE, ACTIVATE and READ/WRITE are issued one per
  pick, with the full bank-state machine and inter-command
  constraints, for fidelity-sensitive studies (command-bus contention,
  tRAS-limited banks):

  * ``tRCD``  ACTIVATE -> column command to the same bank,
  * ``tCAS``  column command -> first data beat,
  * ``tRP``   PRECHARGE -> ACTIVATE,
  * ``tRAS``  minimum ACTIVATE -> PRECHARGE,
  * ``tRRD``  ACTIVATE -> ACTIVATE across banks of one channel,
  * one command per DRAM clock on the shared command bus,
  * data-bus turnaround when the burst direction flips,
  * periodic all-bank refresh (``tREFI``/``tRFC``).

Both models capture the timing structure the paper's optimizations
exploit:

* state-dependent service latency (hit / closed / conflict) from the
  bank row-buffer state and the page mode;
* bank/bus decoupling: the command phase (precharge + activate +
  column access) of one request overlaps the data burst of another on
  a different bank, so the bus pipelines whenever possible;
* a bounded scheduling horizon: the controller never commits the bus
  more than a couple of bursts ahead, so newly arriving requests can
  still be reordered in front of waiting ones -- the property access
  scheduling depends on;
* separate read and write queues with read priority and a
  high/low-watermark write-drain mode, the standard way to let reads
  bypass writes without starving write-backs.

Scheduling is *request-first* in both: the configured scheduler picks
which pending request to advance, and the controller issues that
request's next command (FR-FCFS behaviour emerges from the hit-first
scheduler).  Commands from different requests naturally interleave:
one bank's ACTIVATE proceeds under another's data burst.
"""

from __future__ import annotations

import enum
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


class Command(enum.Enum):
    """DRAM operations (Section 2 of the paper)."""

    PRECHARGE = "precharge"
    ACTIVATE = "activate"
    READ = "read"
    WRITE = "write"

    # Members are singletons compared by identity, so the identity hash
    # is exact; ``Enum.__hash__`` would cost a Python frame on every
    # ``commands_issued`` update.
    __hash__ = object.__hash__


# Bound once: an ``Enum`` class attribute lookup is slow next to a
# module global, and the pump and ``_issue`` test the kind per command.
_PRECHARGE = Command.PRECHARGE
_ACTIVATE = Command.ACTIVATE
_READ = Command.READ
_WRITE = Command.WRITE


class ChannelController:
    """Scheduler + bank/bus state for one logical channel.

    ``model`` is ``"request"`` or ``"command"`` (see the module
    docstring); :class:`~repro.dram.system.MemorySystem` checks it.

    Each controller is its scheduler's
    :class:`~repro.dram.schedulers.SchedulerContext`: ``banks`` and
    ``outstanding``, the memory system's live per-thread
    outstanding-request counts.
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
        model: str = "request",
    ) -> None:
        self.channel_id = channel_id
        self.timing = timing
        self.page_mode = page_mode
        self._open_mode = page_mode is PageMode.OPEN
        #: Whether PRECHARGE and ACTIVATE are commands of their own.
        self.command_level = model == "command"
        self.scheduler = scheduler
        self.event_queue = event_queue
        self.stats = stats
        self.system = system
        self.outstanding = system.outstanding_by_thread
        self._tracer = telemetry.tracer if telemetry is not None else None
        registry = (
            telemetry.registry
            if telemetry is not None and telemetry.registry.enabled
            else NULL_REGISTRY
        )
        prefix = f"dram.ch{channel_id}"
        self._c_row_hits = registry.counter(f"{prefix}.row_hits")
        self._c_row_misses = registry.counter(f"{prefix}.row_misses")
        self._c_reads = registry.counter(f"{prefix}.reads")
        self._c_writes = registry.counter(f"{prefix}.writes")
        self._c_commands = {
            c: registry.counter(f"{prefix}.cmd.{c.value}")
            for c in Command
            if self.command_level
        }
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
        self.banks = [Bank() for _ in range(geometry.banks_per_logical_channel)]
        self.bus_free_at = 0
        self.cmd_free_at = 0
        self.last_activate_at = -(10**9)
        #: Column command of the last data burst (READ/WRITE/None) for
        #: turnaround accounting.
        self.last_burst: Command | None = None
        self.commands_issued: dict[Command, int] = {c: 0 for c in Command}
        self.refreshes = 0
        self._next_refresh_at = (
            timing.t_refi if self.command_level and timing.t_refi else None
        )
        # Trace event name and category per command.
        if self.command_level:
            self._trace_names = {
                _PRECHARGE: "dram.PRE", _ACTIVATE: "dram.ACT",
                _READ: "dram.CAS.read", _WRITE: "dram.CAS.write",
            }
            self._trace_cat = "dram.cmd"
        else:
            self._trace_names = {_READ: "dram.pick", _WRITE: "dram.pick"}
            self._trace_cat = "dram.sched"
        self.reads: list[MemRequest] = []
        self.writes: list[MemRequest] = []
        self._draining = False
        self._next_wake: int | None = None

    # ------------------------------------------------------------------
    # queue interface

    @property
    def pending(self) -> int:
        return len(self.reads) + len(self.writes)

    def enqueue(self, request: MemRequest) -> None:
        """Accept a mapped request; called at controller arrival time."""
        (self.reads if request.is_read else self.writes).append(request)
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
        if time <= now:
            time = now + 1
        if self._next_wake is not None and self._next_wake <= time:
            return
        self._next_wake = time
        self.event_queue.schedule(time, self._on_wake, time)

    def _on_wake(self, scheduled_for: int) -> None:
        if self._next_wake == scheduled_for:
            self._next_wake = None
        self.pump()

    # ------------------------------------------------------------------
    # functional warming

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

    def _maybe_refresh(self, now: int) -> None:
        """All-bank refresh: rows close, banks stall for tRFC.

        ``pump`` calls this once a refresh is due (never in the request
        model, which has no ``_next_refresh_at``).
        """
        done = now + self.timing.t_rfc
        for bank in self.banks:
            bank.open_row = None
            bank.ready_at = max(bank.ready_at, done)
        self.refreshes += 1
        self._next_refresh_at += self.timing.t_refi

    def pump(self) -> None:
        """Issue legal commands now; sleep until the next one is legal.

        A request's next command is its column command if its row is
        open -- and always in the request model -- else ACTIVATE for a
        precharged bank, else PRECHARGE.  Its earliest legal time is
        the latest of its bank's ``ready_at``, the command bus, and one
        bound by command kind: the data-bus horizon for a column
        command, the tRRD window for an ACTIVATE, tRAS and the bank's
        last burst for a PRECHARGE.  The channel-wide bounds only
        change through ``_issue``, so they are read once per scan.  No
        event fires inside ``pump``, so ``now`` is read once; a refresh
        that is not yet due is not a call.
        """
        banks = self.banks
        command_level = self.command_level
        t_rrd = self.timing.t_rrd
        t_ras = self.timing.t_ras
        now = self.event_queue.now
        while True:
            if (
                self._next_refresh_at is not None
                and now >= self._next_refresh_at
            ):
                self._maybe_refresh(now)
            pool = self._select_pool()
            if not pool:
                return
            col_floor = self.bus_free_at - self.horizon
            if col_floor > now and not command_level:
                # Every next command is a column command: enough work
                # is committed, so revisit when the bus drains.
                self._wake_at(col_floor)
                return
            cmd_free = self.cmd_free_at
            act_ok = self.last_activate_at + t_rrd
            ready = []
            earliest_future = None
            for request in pool:
                bank = banks[request.bank]
                at = bank.ready_at
                if command_level:
                    if at < cmd_free:
                        at = cmd_free
                    open_row = bank.open_row
                    if open_row == request.row:  # column command next
                        if at < col_floor:
                            at = col_floor
                    elif open_row is None:  # ACTIVATE next
                        if at < act_ok:
                            at = act_ok
                    else:  # PRECHARGE next
                        if at < bank.activated_at + t_ras:
                            at = bank.activated_at + t_ras
                        if at < bank.burst_done_at:
                            at = bank.burst_done_at
                if at <= now:
                    ready.append(request)
                elif earliest_future is None or at < earliest_future:
                    earliest_future = at
                    if at == cmd_free:
                        # No command is earlier than the command bus,
                        # and cmd_free > now, so nothing is ready.
                        break
            if not ready:
                if earliest_future is not None:
                    self._wake_at(earliest_future)
                return
            if self._tracer is not None:
                request, reason = self.scheduler.select_with_reason(
                    ready, now, self
                )
            else:
                request = self.scheduler.select(ready, now, self)
                reason = None
            open_row = banks[request.bank].open_row
            if open_row == request.row or not command_level:
                command = _READ if request.is_read else _WRITE
            elif open_row is None:
                command = _ACTIVATE
            else:
                command = _PRECHARGE
            self._issue(request, command, now, reason)

    def _trace(
        self,
        request: MemRequest,
        command: Command,
        now: int,
        dur: int,
        reason: str | None,
    ) -> None:
        self._tracer.emit(
            now, self._trace_names[command], self._trace_cat,
            request.thread_id, dur=dur,
            args={
                "channel": self.channel_id,
                "bank": request.bank,
                "row": request.row,
                "req": request.req_id,
                "reason": reason,
                "scheduler": self.scheduler.name,
            },
        )

    def _issue(
        self,
        request: MemRequest,
        command: Command,
        now: int,
        reason: str | None = None,
    ) -> None:
        bank = self.banks[request.bank]
        timing = self.timing
        # A row-buffer hit is a request whose first command is its
        # column command, to an open row: no PRECHARGE or ACTIVATE of
        # its own, issued or folded in.
        first = request.issue_time < 0
        if first:
            request.issue_time = now
        bus_available = self.bus_free_at
        if self.command_level:
            self.cmd_free_at = now + timing.t_cmd
            self.commands_issued[command] += 1
            if self._counting:
                self._c_commands[command].add()
            if command is _PRECHARGE:
                bank.open_row = None
                bank.ready_at = now + timing.t_pre
            elif command is _ACTIVATE:
                bank.open_row = request.row
                bank.ready_at = now + timing.t_row  # tRCD
                bank.activated_at = now
                self.last_activate_at = now
            if command is _PRECHARGE or command is _ACTIVATE:
                if self._tracer is not None:
                    dur = bank.ready_at - now
                    self._trace(request, command, now, dur, reason)
                return
            if self.last_burst is not None and self.last_burst is not command:
                bus_available += timing.t_turnaround
            self.last_burst = command
        # READ / WRITE: schedule the data burst.  Only a request-model
        # column command can find its row not open; it pays for the
        # row preparation here.
        row = request.row
        open_row = bank.open_row
        hit = first and open_row == row
        start = now + timing.t_col
        if open_row != row:
            start += timing.t_row
            if open_row is not None:
                start += timing.t_pre
        data_start = max(start, bus_available)
        data_end = data_start + self.transfer
        self.bus_free_at = data_end
        bank.burst_done_at = data_end
        if self._open_mode:
            bank.open_row = row
            bank.ready_at = data_end
        else:
            # auto-precharge after the burst
            bank.open_row = None
            bank.ready_at = data_end + timing.t_pre
        is_read = request.is_read
        (self.reads if is_read else self.writes).remove(request)
        request.row_hit = hit
        request.finish_time = (
            data_end + timing.ctrl_response if is_read else data_end
        )
        self.stats.record_service(is_read, hit, request.thread_id)
        if self._counting:
            (self._c_row_hits if hit else self._c_row_misses).add()
            (self._c_reads if is_read else self._c_writes).add()
        if self._tracer is not None:
            self._trace(request, command, now, start - now, reason)
            self._tracer.emit(
                data_start, "dram.burst", "dram.bus", request.thread_id,
                dur=self.transfer,
                args={
                    "channel": self.channel_id,
                    "bank": request.bank,
                    "hit": hit,
                    "op": "read" if is_read else "write",
                },
            )
        if is_read:
            queue_delay = max(0, now - (request.arrival + timing.ctrl_request))
            self.stats.record_read_latency(
                request.finish_time - request.arrival,
                queue_delay,
                request.thread_id,
            )
        self.event_queue.schedule(
            request.finish_time, self.system.complete, request
        )
