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
from repro.dram.controller import BaseChannelController
from repro.dram.geometry import DRAMGeometry
from repro.dram.timing import DRAMTiming


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
    # functional warming

    def warm_row(self, bank: int, row: int) -> None:
        """Functional warming of the row buffer.

        Mirrors :meth:`ChannelController.warm_row`: state only, no
        timing/stats; no-op under the close page policy.  No caller in
        ``src/`` (see
        :meth:`repro.cache.hierarchy.MemoryHierarchy.warm_access`).
        """
        if self._open_mode:
            self.banks[bank].open_row = row

    # ------------------------------------------------------------------
    # scheduling engine

    def _maybe_refresh(self, now: int) -> None:
        """All-bank refresh: rows close, banks stall for tRFC.

        ``pump`` calls this only once a refresh is due; the guard stays
        so the method is safe on its own.
        """
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

        Each command's earliest legal time is the latest of its bank's
        ``ready_at``, the command bus, and one bound by command kind:
        the tRRD window for an ACTIVATE, tRAS and the bank's last burst
        for a PRECHARGE, the data-bus horizon for a column command.
        The channel-wide bounds only change through ``_issue``, so they
        are read once per scan.  No event fires inside ``pump``, so
        ``now`` is read once; a refresh that is not yet due is not a
        call.
        """
        banks = self.banks
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
            if open_row == request.row:
                command = _READ if request.is_read else _WRITE
            elif open_row is None:
                command = _ACTIVATE
            else:
                command = _PRECHARGE
            self._issue(request, command, now, reason)

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
        if command is _PRECHARGE:
            self._prepared.add(request.req_id)
            bank.open_row = None
            bank.ready_at = now + timing.t_pre
            if self._tracer is not None:
                self._trace_command("dram.PRE", request, now, timing.t_pre, reason)
            return
        if command is _ACTIVATE:
            self._prepared.add(request.req_id)
            bank.open_row = request.row
            bank.ready_at = now + timing.t_row  # tRCD
            bank.activated_at = now
            self.last_activate_at = now
            if self._tracer is not None:
                self._trace_command("dram.ACT", request, now, timing.t_row, reason)
            return
        # READ / WRITE: schedule the data burst.
        direction = "r" if command is _READ else "w"
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
        if self._open_mode:
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
