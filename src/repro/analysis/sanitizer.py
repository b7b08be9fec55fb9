"""SimSanitizer: runtime protocol and accounting invariant checking.

The static linter catches nondeterminism *hazards*; this module
catches *violations* as they happen.  A :class:`SimSanitizer` wraps
the live objects of one simulation — the event queue, every DRAM
channel controller (both the request-level and the command-level
model), the MSHR file, and the SMT core — and asserts on every step
the invariants the models are supposed to maintain:

* **Monotonic event time** — the event queue never fires an event
  earlier than one it already fired.
* **DRAM protocol** (command-level model) — tRCD between ACTIVATE and
  a column command, tRP between PRECHARGE and ACTIVATE, tRAS between
  ACTIVATE and PRECHARGE, tRRD between ACTIVATEs of one channel,
  column commands only to the open row, precharges never cutting off
  an in-flight burst.
* **Data-bus integrity** (both models) — bursts on one channel never
  overlap, and (command model) honour the read/write turnaround gap.
* **Accounting** — MSHR allocations and releases balance and the file
  is empty once the system drains (leak detection); outstanding-request
  counts return to zero; the ROB, issue queues, and load/store queues
  never exceed their configured capacity.

The sanitizer only observes: wrapped methods call straight through to
the originals and never change scheduling decisions, so a sanitized
run is bit-identical to a plain one.  Enable it with the
``--sanitize`` CLI flag, ``REPRO_SANITIZE=1`` in the environment, or
the ``sanitizer`` pytest fixture.

Violations are collected (not raised) so one report covers the whole
run; when a telemetry tracer is attached, each violation also lands in
the trace (category ``sanitize``) with the trailing event context that
led up to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import SimulationError
from repro.common.events import EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cpu.core import SMTCore
    from repro.dram.system import MemorySystem


class SanitizerError(SimulationError):
    """Raised when a sanitized run finishes with violations."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to localize it."""

    time: int
    check: str
    detail: str
    context: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        extras = "".join(
            f" {key}={value}" for key, value in sorted(self.context.items())
        )
        return f"[cycle {self.time}] {self.check}: {self.detail}{extras}"


class SanitizedEventQueue(EventQueue):
    """Event queue that checks fire-time monotonicity on every pop.

    Same semantics (and same tie-break behaviour) as
    :class:`~repro.common.events.EventQueue`; the pop loops are
    re-implemented with the monotonicity assertion inline because the
    sanitizer must see every individual pop.
    """

    __slots__ = ("_sanitizer", "_last_fired")

    def __init__(self, sanitizer: "SimSanitizer") -> None:
        super().__init__()
        self._sanitizer = sanitizer
        self._last_fired = 0

    def _check_fire(self, when: int) -> None:
        if when < self._last_fired:
            self._sanitizer.record(
                when,
                "event-time",
                f"event fired at {when} after one fired at "
                f"{self._last_fired}",
            )
        self._last_fired = when

    def _drain(self, time: int) -> int:
        # run_until's empty/early-out path lives in the base class;
        # only the pop loop needs the per-event check.
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= time:
            when, _seq, fn, args = heappop(heap)
            self._check_fire(when)
            self.now = when
            fn(*args)
            fired += 1
        self.now = time
        return fired

    def run_all(self, limit: int = 10_000_000) -> int:
        fired = 0
        heap = self._heap
        while heap:
            when, _seq, fn, args = heappop(heap)
            self._check_fire(when)
            self.now = when
            fn(*args)
            fired += 1
            if fired > limit:
                raise SimulationError(
                    f"event limit {limit} exceeded; runaway loop?"
                )
        return self.now


class _ShadowBank:
    """Independent bank state machine the sanitizer checks against."""

    __slots__ = ("open_row", "act_at", "pre_ready", "rcd_ready", "burst_end")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.act_at = -(10**9)
        self.pre_ready = 0
        self.rcd_ready = 0
        self.burst_end = 0


class SimSanitizer:
    """Collects invariant violations from one simulation run.

    Parameters
    ----------
    tracer:
        Optional :class:`repro.telemetry.EventTracer`; violations are
        emitted into it (category ``sanitize``) together with the
        trailing events that preceded them.
    context_events:
        How many trailing trace events to attach to each violation
        when a tracer is available.
    """

    def __init__(self, tracer: Any = None, context_events: int = 8) -> None:
        self.violations: list[Violation] = []
        self.tracer = tracer
        self.context_events = context_events
        self.checks_run = 0
        self._mshr_allocs = 0
        self._mshr_releases = 0
        self._event_queue: SanitizedEventQueue | None = None
        self._memory: "MemorySystem | None" = None
        self._hierarchy: "MemoryHierarchy | None" = None
        #: ``(component, attribute)`` of every wrapper installed, so
        #: :meth:`finish` can take them off again.
        self._hooks: list[tuple[Any, str]] = []
        self._finished = False

    # ------------------------------------------------------------------
    # violation sink

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(
        self, time: int, check: str, detail: str, **context: Any
    ) -> None:
        """Record one violation (never raises mid-run)."""
        if self.tracer is not None:
            recent = [
                {"t": event.ts, "name": event.name, "cat": event.cat}
                for event in self.tracer.events()[-self.context_events:]
            ]
            context = dict(context, trace_context=recent)
            self.tracer.emit(
                max(0, time), f"sanitize.{check}", "sanitize", -1,
                args={"detail": detail},
            )
        self.violations.append(Violation(time, check, detail, context))

    def report(self) -> str:
        """Multi-line human-readable summary of the run's violations."""
        if not self.violations:
            return (
                f"sanitizer: 0 violations ({self.checks_run} checks run)"
            )
        lines = [
            f"sanitizer: {len(self.violations)} violation(s) "
            f"({self.checks_run} checks run)"
        ]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)

    def raise_if_violations(self) -> None:
        if self.violations:
            raise SanitizerError(self.report())

    # ------------------------------------------------------------------
    # attachment points

    def make_event_queue(self) -> SanitizedEventQueue:
        """The event queue a sanitized system must be built on."""
        self._event_queue = SanitizedEventQueue(self)
        return self._event_queue

    def attach(
        self,
        core: "SMTCore | None" = None,
        memory: "MemorySystem | None" = None,
        hierarchy: "MemoryHierarchy | None" = None,
    ) -> None:
        """Wrap every supported component of a built system."""
        if memory is not None:
            self.attach_memory(memory)
        if hierarchy is not None:
            self.attach_hierarchy(hierarchy)
        if core is not None:
            self.attach_core(core)

    def attach_memory(self, memory: "MemorySystem") -> None:
        self._memory = memory
        for channel in memory.channels:
            if channel.command_level:
                self._watch_command_channel(channel)
            else:
                self._watch_request_channel(channel)

    def attach_hierarchy(self, hierarchy: "MemoryHierarchy") -> None:
        self._hierarchy = hierarchy
        self._watch_mshr(hierarchy.mshr)

    def attach_core(self, core: "SMTCore") -> None:
        self._watch_core(core)

    def _hook(
        self, owner: Any, name: str, wrapper: Callable[..., Any]
    ) -> None:
        """Shadow ``owner``'s method ``name`` with ``wrapper`` until
        :meth:`finish`."""
        setattr(owner, name, wrapper)
        self._hooks.append((owner, name))

    # ------------------------------------------------------------------
    # request-level controller checks

    def _watch_request_channel(self, channel: Any) -> None:
        original: Callable[..., None] = channel._issue

        def checked_issue(
            request: Any, command: Any, now: int, reason: str | None = None
        ) -> None:
            self.checks_run += 1
            bus_before = channel.bus_free_at
            original(request, command, now, reason)
            data_end = channel.bus_free_at
            data_start = data_end - channel.transfer
            ch = channel.channel_id
            if data_start < bus_before:
                self.record(
                    now, "bus-overlap",
                    f"burst [{data_start}, {data_end}) overlaps bus "
                    f"committed until {bus_before}",
                    channel=ch, bank=request.bank,
                )
            if data_start < now:
                self.record(
                    now, "bus-overlap",
                    f"burst starts at {data_start}, before issue at {now}",
                    channel=ch, bank=request.bank,
                )
            if request.issue_time != now:
                self.record(
                    now, "accounting",
                    f"request #{request.req_id} issue_time "
                    f"{request.issue_time} != issue cycle {now}",
                    channel=ch,
                )
            if request.finish_time < data_end:
                self.record(
                    now, "accounting",
                    f"request #{request.req_id} finishes at "
                    f"{request.finish_time}, before its burst ends at "
                    f"{data_end}",
                    channel=ch,
                )
            bank = channel.banks[request.bank]
            if bank.ready_at < now:
                self.record(
                    now, "bank-state",
                    f"bank ready_at {bank.ready_at} regressed behind "
                    f"issue cycle {now}",
                    channel=ch, bank=request.bank,
                )
            if request in channel.reads or request in channel.writes:
                self.record(
                    now, "accounting",
                    f"request #{request.req_id} still queued after issue",
                    channel=ch,
                )

        self._hook(channel, "_issue", checked_issue)

    # ------------------------------------------------------------------
    # command-level controller checks

    def _watch_command_channel(self, channel: Any) -> None:
        from repro.dram.bank import PageMode
        from repro.dram.controller import Command

        timing = channel.timing
        shadows = [_ShadowBank() for _ in channel.banks]
        last_act = -(10**9)
        last_cmd = -(10**9)
        burst_end = 0
        burst_dir: str | None = None
        original: Callable[..., None] = channel._issue
        original_refresh: Callable[[int], None] = channel._maybe_refresh
        ch = channel.channel_id

        def checked_issue(
            request: Any, command: Any, now: int, reason: str | None = None
        ) -> None:
            nonlocal last_act, last_cmd, burst_end, burst_dir
            self.checks_run += 1
            shadow = shadows[request.bank]
            bank_ctx = {"channel": ch, "bank": request.bank}
            if now < last_cmd:
                self.record(
                    now, "command-time",
                    f"command issued at {now} after one at {last_cmd}",
                    **bank_ctx,
                )
            last_cmd = now
            if command is Command.ACTIVATE:
                if shadow.open_row is not None:
                    self.record(
                        now, "protocol",
                        f"ACTIVATE to bank with row {shadow.open_row} "
                        f"still open",
                        **bank_ctx,
                    )
                if now < shadow.pre_ready:
                    self.record(
                        now, "tRP",
                        f"ACTIVATE at {now} before precharge completes "
                        f"at {shadow.pre_ready}",
                        **bank_ctx,
                    )
                if now < last_act + timing.t_rrd:
                    self.record(
                        now, "tRRD",
                        f"ACTIVATE at {now}, previous channel ACTIVATE "
                        f"at {last_act} (tRRD={timing.t_rrd})",
                        **bank_ctx,
                    )
            elif command is Command.PRECHARGE:
                if shadow.open_row is None:
                    self.record(
                        now, "protocol", "PRECHARGE to a closed bank",
                        **bank_ctx,
                    )
                if now < shadow.act_at + timing.t_ras:
                    self.record(
                        now, "tRAS",
                        f"PRECHARGE at {now}, bank activated at "
                        f"{shadow.act_at} (tRAS={timing.t_ras})",
                        **bank_ctx,
                    )
                if now < shadow.burst_end:
                    self.record(
                        now, "protocol",
                        f"PRECHARGE at {now} cuts off burst ending at "
                        f"{shadow.burst_end}",
                        **bank_ctx,
                    )
            else:  # READ / WRITE
                if shadow.open_row != request.row:
                    self.record(
                        now, "protocol",
                        f"column command to row {request.row}, bank has "
                        f"{'row ' + str(shadow.open_row) if shadow.open_row is not None else 'no row'} open",
                        **bank_ctx,
                    )
                if now < shadow.rcd_ready:
                    self.record(
                        now, "tRCD",
                        f"column command at {now} before tRCD satisfied "
                        f"at {shadow.rcd_ready}",
                        **bank_ctx,
                    )
            original(request, command, now, reason)
            # Mirror the command's effect onto the shadow state.
            if command is Command.ACTIVATE:
                shadow.open_row = request.row
                shadow.act_at = now
                shadow.rcd_ready = now + timing.t_row
                last_act = now
            elif command is Command.PRECHARGE:
                shadow.open_row = None
                shadow.pre_ready = now + timing.t_pre
            else:
                data_end = channel.bus_free_at
                data_start = data_end - channel.transfer
                direction = "r" if command is Command.READ else "w"
                gap = 0
                if burst_dir is not None and burst_dir != direction:
                    gap = timing.t_turnaround
                if data_start < burst_end:
                    self.record(
                        now, "bus-overlap",
                        f"burst [{data_start}, {data_end}) overlaps "
                        f"previous burst ending at {burst_end}",
                        **bank_ctx,
                    )
                elif data_start < burst_end + gap:
                    self.record(
                        now, "turnaround",
                        f"burst at {data_start} inside the "
                        f"{gap}-cycle turnaround after {burst_end}",
                        **bank_ctx,
                    )
                burst_end = data_end
                burst_dir = direction
                shadow.burst_end = data_end
                if channel.page_mode is PageMode.CLOSE:
                    shadow.open_row = None
                    shadow.pre_ready = data_end + timing.t_pre
                    if data_end < shadow.act_at + timing.t_ras:
                        self.record(
                            now, "tRAS",
                            f"auto-precharge at {data_end}, bank "
                            f"activated at {shadow.act_at} "
                            f"(tRAS={timing.t_ras})",
                            **bank_ctx,
                        )

        def checked_refresh(now: int) -> None:
            before = channel.refreshes
            original_refresh(now)
            if channel.refreshes != before:
                for shadow, bank in zip(shadows, channel.banks):
                    shadow.open_row = None
                    shadow.pre_ready = max(shadow.pre_ready, bank.ready_at)

        self._hook(channel, "_issue", checked_issue)
        self._hook(channel, "_maybe_refresh", checked_refresh)

    # ------------------------------------------------------------------
    # MSHR accounting

    def _watch_mshr(self, mshr: Any) -> None:
        from repro.cache.mshr import MSHRStatus

        original_register = mshr.register
        original_complete = mshr.complete

        def checked_register(
            line_addr: int, thread_id: int, waiter: Any = None
        ) -> Any:
            self.checks_run += 1
            status = original_register(line_addr, thread_id, waiter)
            if status is MSHRStatus.NEW:
                self._mshr_allocs += 1
            if len(mshr) > mshr.entries:
                self.record(
                    self._now(), "mshr",
                    f"occupancy {len(mshr)} exceeds capacity "
                    f"{mshr.entries}",
                )
            return status

        def checked_complete(line_addr: int, finish: int) -> Any:
            self.checks_run += 1
            if not mshr.pending(line_addr):
                self.record(
                    finish, "mshr",
                    f"completion for line {line_addr:#x} without a live "
                    f"entry",
                )
            self._mshr_releases += 1
            return original_complete(line_addr, finish)

        self._hook(mshr, "register", checked_register)
        self._hook(mshr, "complete", checked_complete)

    # ------------------------------------------------------------------
    # core occupancy

    def _watch_core(self, core: "SMTCore") -> None:
        """Check occupancies after every cycle's fetch stage.

        ROB, issue-queue and load/store-queue occupancy only rises
        inside fetch, so an overflow is still there when the stage
        ends.  The issue queues drain a whole cycle's record at a time
        (see ``repro.cpu.core``), so the same hook checks that the
        shared counters and the per-thread ones the batching updates
        side by side still agree.
        """
        params = core.params
        original_fetch: Callable[[int], int] = core._fetch

        def checked_fetch(cycle: int) -> int:
            fetched = original_fetch(cycle)
            self.checks_run += 1
            for t in core.threads:
                if len(t.rob) > params.rob_size:
                    self.record(
                        cycle, "rob",
                        f"thread {t.thread_id} ROB occupancy {len(t.rob)} "
                        f"exceeds capacity {params.rob_size}",
                    )
            if core.int_iq_used > params.int_iq_size:
                self.record(
                    cycle, "iq",
                    f"integer IQ occupancy {core.int_iq_used} exceeds "
                    f"capacity {params.int_iq_size}",
                )
            if core.fp_iq_used > params.fp_iq_size:
                self.record(
                    cycle, "iq",
                    f"FP IQ occupancy {core.fp_iq_used} exceeds "
                    f"capacity {params.fp_iq_size}",
                )
            if core.lq_used > params.lq_size or core.sq_used > params.sq_size:
                self.record(
                    cycle, "lsq",
                    f"LSQ occupancy {core.lq_used}/{core.sq_used} exceeds "
                    f"capacity {params.lq_size}/{params.sq_size}",
                )
            iq_int = sum(t.iq_int for t in core.threads)
            iq_fp = sum(t.iq_fp for t in core.threads)
            unissued = sum(t.unissued for t in core.threads)
            if (
                core.int_iq_used != iq_int
                or core.fp_iq_used != iq_fp
                or unissued != iq_int + iq_fp
                or min(
                    min(t.iq_int, t.iq_fp, t.unissued) for t in core.threads
                ) < 0
            ):
                self.record(
                    cycle, "iq-conservation",
                    f"shared IQ counters {core.int_iq_used}/"
                    f"{core.fp_iq_used} vs per-thread sums {iq_int}/"
                    f"{iq_fp}, {unissued} unissued",
                )
            return fetched

        self._hook(core, "_fetch", checked_fetch)

    # ------------------------------------------------------------------
    # drain / finish

    def _now(self) -> int:
        return self._event_queue.now if self._event_queue is not None else 0

    def finish(self, event_queue: EventQueue | None = None) -> None:
        """Drain the system and run the end-of-run balance checks.

        Call this *after* the run's results have been captured: the
        drain fires every still-pending event (completing in-flight
        misses) so leak detection can tell "in flight" apart from
        "leaked".  Afterwards the sanitizer lets go of the system: its
        wrappers come off and it keeps only what it found.  Idempotent.
        """
        if self._finished:
            return
        self._finished = True
        queue = event_queue or self._event_queue
        if queue is not None:
            queue.run_all()
        now = queue.now if queue is not None else 0
        hierarchy = self._hierarchy
        if hierarchy is not None:
            live = len(hierarchy.mshr)
            if live:
                self.record(
                    now, "mshr-leak",
                    f"{live} MSHR entr{'y' if live == 1 else 'ies'} still "
                    f"allocated after drain",
                )
            if self._mshr_allocs != self._mshr_releases:
                self.record(
                    now, "mshr-leak",
                    f"allocate/release imbalance: {self._mshr_allocs} "
                    f"allocations vs {self._mshr_releases} releases",
                )
        memory = self._memory
        if memory is not None:
            if memory.outstanding_total != 0:
                self.record(
                    now, "outstanding",
                    f"{memory.outstanding_total} DRAM requests still "
                    f"outstanding after drain",
                )
            for channel in memory.channels:
                if channel.pending:
                    self.record(
                        now, "outstanding",
                        f"{channel.pending} requests still queued in "
                        f"channel {channel.channel_id} after drain",
                    )
        # Detach: each wrapper closes over the component it shadows and
        # the checking queue holds this sanitizer, reference cycles that
        # would keep the finished system alive for the cyclic collector.
        for owner, name in self._hooks:
            delattr(owner, name)
        self._hooks.clear()
        self._event_queue = None
        self._memory = None
        self._hierarchy = None
