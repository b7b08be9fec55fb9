"""Command-level DRAM channel controller.

An alternative to the request-level
:class:`~repro.dram.controller.ChannelController` that models the
individual DRAM operations the paper's Section 2 describes — PRECHARGE,
ACTIVATE (row access), READ/WRITE (column access) — with the full
bank-state machine and inter-command constraints:

* ``tRCD``  ACTIVATE -> column command to the same bank,
* ``tCAS``  column command -> first data beat,
* ``tRP``   PRECHARGE -> ACTIVATE,
* ``tRAS``  minimum ACTIVATE -> PRECHARGE,
* ``tRRD``  ACTIVATE -> ACTIVATE across banks of one channel,
* one command per DRAM clock on the shared command bus,
* data-bus turnaround when the burst direction flips,
* periodic all-bank refresh (``tREFI``/``tRFC``).

Scheduling remains *request-first*: the configured scheduler picks
which pending request to advance, and the controller issues that
request's next required command (FR-FCFS behaviour emerges from the
hit-first scheduler).  Commands from different requests naturally
interleave: one bank's ACTIVATE proceeds under another's data burst.

Select with ``SystemConfig(controller_model="command")`` or
``MemorySystem(..., controller_model="command")``.  The request-level
model is the default — it is several times faster and calibrated
against the paper's shapes; this model is for fidelity-sensitive
studies (command-bus contention, tRAS-limited banks).
"""

from __future__ import annotations

import enum

from repro.common.types import MemRequest
from repro.dram.bank import PageMode
from repro.dram.controller import BaseChannelController
from repro.dram.geometry import DRAMGeometry
from repro.dram.timing import DRAMTiming


class Command(enum.Enum):
    """DRAM operations (Section 2 of the paper)."""

    PRECHARGE = "precharge"
    ACTIVATE = "activate"
    READ = "read"
    WRITE = "write"


class _BankState:
    """Full bank state machine for the command-level model."""

    __slots__ = ("open_row", "ready_at", "activated_at", "burst_done_at")

    def __init__(self) -> None:
        self.open_row: int | None = None
        #: When the next command to this bank may start.
        self.ready_at = 0
        #: Time of the last ACTIVATE (for the tRAS constraint).
        self.activated_at = -(10**9)
        #: When the bank's last column burst finishes (a PRECHARGE must
        #: not cut off in-flight data).
        self.burst_done_at = 0


class CommandChannelController(BaseChannelController):
    """Command-level scheduler/state machine for one logical channel.

    Drop-in replacement for
    :class:`~repro.dram.controller.ChannelController`: same queue
    interface (``enqueue``/``pump``), same scheduler-context protocol,
    same statistics hooks — all inherited from the shared base.
    """

    def __init__(
        self,
        channel_id: int,
        geometry: DRAMGeometry,
        timing: DRAMTiming,
        *args,
        **kwargs,
    ) -> None:
        super().__init__(channel_id, geometry, timing, *args, **kwargs)
        self._c_commands = {
            c: self._registry.counter(f"dram.ch{channel_id}.cmd.{c.value}")
            for c in Command
        }
        self.banks = [
            _BankState() for _ in range(geometry.banks_per_logical_channel)
        ]
        self.cmd_free_at = 0
        self.last_activate_at = -(10**9)
        #: Direction of the last data burst ("r"/"w"/None) for
        #: turnaround accounting.
        self.last_burst: str | None = None
        self.commands_issued: dict[Command, int] = {c: 0 for c in Command}
        self.refreshes = 0
        self._next_refresh_at = timing.t_refi if timing.t_refi else None
        #: Requests that already received a PRECHARGE/ACTIVATE from us;
        #: a column command to a request not in this set found its row
        #: already open -- a row-buffer hit.
        self._prepared: set[int] = set()

    # ------------------------------------------------------------------
    # scheduler context protocol

    def is_row_hit(self, request: MemRequest) -> bool:
        return self.banks[request.bank].open_row == request.row

    def warm_row(self, bank: int, row: int) -> None:
        """Functional warming of the row buffer (sampled fast-forward).

        Mirrors :meth:`ChannelController.warm_row`: state only, no
        timing/stats; no-op under the close page policy.
        """
        if self.page_mode is PageMode.OPEN:
            self.banks[bank].open_row = row

    # ------------------------------------------------------------------
    # command legality

    def _next_command(self, request: MemRequest) -> Command:
        """The command this request needs next, given its bank state."""
        bank = self.banks[request.bank]
        if bank.open_row == request.row:
            return Command.READ if request.is_read else Command.WRITE
        if bank.open_row is None:
            return Command.ACTIVATE
        return Command.PRECHARGE

    def _earliest_issue(self, request: MemRequest, command: Command) -> int:
        """Earliest time the command could legally go on the buses."""
        bank = self.banks[request.bank]
        earliest = max(bank.ready_at, self.cmd_free_at)
        if command is Command.ACTIVATE:
            earliest = max(earliest, self.last_activate_at + self.timing.t_rrd)
        elif command is Command.PRECHARGE:
            earliest = max(
                earliest,
                bank.activated_at + self.timing.t_ras,
                bank.burst_done_at,
            )
        else:  # READ / WRITE: respect the bus-commitment horizon
            earliest = max(earliest, self.bus_free_at - self.horizon)
        return earliest

    # ------------------------------------------------------------------
    # scheduling engine

    def _maybe_refresh(self, now: int) -> None:
        """All-bank refresh: rows close, banks stall for tRFC."""
        if self._next_refresh_at is None or now < self._next_refresh_at:
            return
        done = now + self.timing.t_rfc
        for bank in self.banks:
            bank.open_row = None
            bank.ready_at = max(bank.ready_at, done)
        self.refreshes += 1
        self._next_refresh_at += self.timing.t_refi

    def pump(self) -> None:
        """Issue legal commands now; sleep until the next one is legal.

        The legality scan inlines ``_next_command`` +
        ``_earliest_issue`` with the channel-wide bounds (command bus,
        tRRD window, data-bus horizon) hoisted out of the per-request
        loop; they only change through ``_issue``, so one read per scan
        is exact.  Same comparisons, same ``max`` semantics, bit-for-bit
        identical issue order.
        """
        banks = self.banks
        t_rrd = self.timing.t_rrd
        t_ras = self.timing.t_ras
        while True:
            now = self.event_queue.now
            self._maybe_refresh(now)
            pool = self._select_pool()
            if not pool:
                return
            cmd_free = self.cmd_free_at
            act_ok = self.last_activate_at + t_rrd
            col_floor = self.bus_free_at - self.horizon
            ready = []
            earliest_future = None
            for request in pool:
                bank = banks[request.bank]
                open_row = bank.open_row
                at = bank.ready_at
                if at < cmd_free:
                    at = cmd_free
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
            self._issue(request, self._next_command(request), now, reason)

    def _trace_command(
        self,
        name: str,
        request: MemRequest,
        now: int,
        dur: int,
        reason: str | None,
    ) -> None:
        args = {
            "channel": self.channel_id,
            "bank": request.bank,
            "row": request.row,
            "req": request.req_id,
        }
        if reason is not None:
            args["reason"] = reason
            args["scheduler"] = self.scheduler.name
        self._tracer.emit(
            now, name, "dram.cmd", request.thread_id, dur=dur, args=args
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
        self.cmd_free_at = now + timing.t_cmd
        self.commands_issued[command] += 1
        if self._counting:
            self._c_commands[command].add()
        if request.issue_time < 0:
            request.issue_time = now
        if command is Command.PRECHARGE:
            self._prepared.add(request.req_id)
            bank.open_row = None
            bank.ready_at = now + timing.t_pre
            if self._tracer is not None:
                self._trace_command("dram.PRE", request, now, timing.t_pre, reason)
            return
        if command is Command.ACTIVATE:
            self._prepared.add(request.req_id)
            bank.open_row = request.row
            bank.ready_at = now + timing.t_row  # tRCD
            bank.activated_at = now
            self.last_activate_at = now
            if self._tracer is not None:
                self._trace_command("dram.ACT", request, now, timing.t_row, reason)
            return
        # READ / WRITE: schedule the data burst.
        direction = "r" if command is Command.READ else "w"
        bus_available = self.bus_free_at
        if self.last_burst is not None and self.last_burst != direction:
            bus_available += timing.t_turnaround
        data_start = max(now + timing.t_col, bus_available)
        data_end = data_start + self.transfer
        self.bus_free_at = data_end
        self.last_burst = direction
        bank.burst_done_at = data_end
        # Hit iff the row was already open before any command of ours:
        # requests that needed their own PRECHARGE/ACTIVATE are misses.
        hit = request.row_hit = request.req_id not in self._prepared
        self._prepared.discard(request.req_id)
        if self.page_mode is PageMode.OPEN:
            bank.ready_at = data_end
        else:
            # auto-precharge after the burst
            bank.open_row = None
            bank.ready_at = data_end + timing.t_pre
        (self.reads if request.is_read else self.writes).remove(request)
        request.finish_time = (
            data_end + timing.ctrl_response if request.is_read else data_end
        )
        self.stats.record_service(request.is_read, hit, request.thread_id)
        if self._counting:
            (self._c_row_hits if hit else self._c_row_misses).add()
            (self._c_reads if request.is_read else self._c_writes).add()
        if self._tracer is not None:
            name = "dram.CAS.read" if request.is_read else "dram.CAS.write"
            self._trace_command(name, request, now, timing.t_col, reason)
            self._tracer.emit(
                data_start, "dram.burst", "dram.bus", request.thread_id,
                dur=self.transfer,
                args={
                    "channel": self.channel_id,
                    "bank": request.bank,
                    "hit": hit,
                },
            )
        if request.is_read:
            queue_delay = max(0, now - (request.arrival + timing.ctrl_request))
            self.stats.record_read_latency(
                request.finish_time - request.arrival,
                queue_delay,
                request.thread_id,
            )
        self.event_queue.schedule(
            request.finish_time, self.system.complete, request
        )
