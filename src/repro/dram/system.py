"""The memory-system facade: mapping, controllers, and concurrency stats.

:class:`MemorySystem` is the single entry point the cache hierarchy
talks to.  It maps each line address to a (channel, bank, row)
location, forwards the request to the owning channel controller after
the fixed controller-side latency, tracks outstanding-request
concurrency for Figures 4/5, and invokes the request callback when the
data returns.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.common.types import (
    UNASSIGNED_REQUEST_ID,
    MemAccessType,
    MemRequest,
)
from repro.dram.bank import PageMode
from repro.dram.command_controller import CommandChannelController
from repro.dram.controller import ChannelController
from repro.dram.geometry import DRAMGeometry, ddr_geometry, rdram_geometry
from repro.dram.mapping import AddressMapping, make_mapping
from repro.dram.schedulers import Scheduler, make_scheduler
from repro.dram.stats import DRAMStats
from repro.dram.timing import DRAMTiming, ddr_timing, rdram_timing


class MemorySystem:
    """A complete multi-channel DRAM memory system.

    Parameters
    ----------
    event_queue:
        The simulation's shared event queue.
    geometry, timing:
        Physical organization and channel timing; use the
        :meth:`ddr` / :meth:`rdram` factories for the paper's systems.
    mapping:
        ``"page"`` or ``"xor"`` (Section 5.4), or a pre-built
        :class:`AddressMapping`.
    page_mode:
        Open or close row-buffer policy.
    scheduler:
        Scheduler name (see :func:`repro.dram.schedulers.make_scheduler`)
        or instance.  Each logical channel gets the same policy object;
        schedulers are stateless so sharing is safe.
    controller_model:
        ``"request"`` (default, fast, calibrated) or ``"command"``
        (explicit PRECHARGE/ACTIVATE/READ/WRITE commands with full
        inter-command constraints; see
        :mod:`repro.dram.command_controller`).
    """

    def __init__(
        self,
        event_queue: EventQueue,
        geometry: DRAMGeometry,
        timing: DRAMTiming,
        mapping: str | AddressMapping = "page",
        page_mode: PageMode = PageMode.OPEN,
        scheduler: str | Scheduler = "hit-first",
        controller_model: str = "request",
        telemetry=None,
    ) -> None:
        self.event_queue = event_queue
        self.geometry = geometry
        self.timing = timing
        if isinstance(mapping, str):
            mapping = make_mapping(mapping, geometry)
        elif mapping.geometry is not geometry:
            raise ConfigError("mapping was built for a different geometry")
        self.mapping = mapping
        self.page_mode = page_mode
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.scheduler = scheduler
        if controller_model == "request":
            controller_cls = ChannelController
        elif controller_model == "command":
            controller_cls = CommandChannelController
        else:
            raise ConfigError(
                f"controller_model must be request|command, "
                f"got {controller_model!r}"
            )
        self.controller_model = controller_model
        self.telemetry = telemetry
        self.stats = DRAMStats()
        self.channels = [
            controller_cls(
                channel_id=i,
                geometry=geometry,
                timing=timing,
                page_mode=page_mode,
                scheduler=scheduler,
                event_queue=event_queue,
                stats=self.stats,
                system=self,
                telemetry=telemetry,
            )
            for i in range(geometry.logical_channels)
        ]
        self._outstanding_total = 0
        self._outstanding_by_thread: dict[int, int] = {}
        #: Per-simulation request-ID counter (see MemRequest.req_id):
        #: owned here so run N in a process is bit-identical to run 1.
        self._req_seq = 0

    # ------------------------------------------------------------------
    # factories for the paper's two systems

    @classmethod
    def ddr(
        cls,
        event_queue: EventQueue,
        channels: int = 2,
        gang: int = 1,
        mapping: str = "page",
        page_mode: PageMode = PageMode.OPEN,
        scheduler: str | Scheduler = "hit-first",
        controller_model: str = "request",
        telemetry=None,
    ) -> "MemorySystem":
        """Multi-channel DDR SDRAM system (Table 1 defaults)."""
        return cls(
            event_queue,
            geometry=ddr_geometry(physical_channels=channels, gang=gang),
            timing=ddr_timing(),
            mapping=mapping,
            page_mode=page_mode,
            scheduler=scheduler,
            controller_model=controller_model,
            telemetry=telemetry,
        )

    @classmethod
    def rdram(
        cls,
        event_queue: EventQueue,
        channels: int = 2,
        gang: int = 1,
        mapping: str = "page",
        page_mode: PageMode = PageMode.OPEN,
        scheduler: str | Scheduler = "hit-first",
        controller_model: str = "request",
        telemetry=None,
    ) -> "MemorySystem":
        """Multi-channel Direct Rambus system (32 banks/chip)."""
        return cls(
            event_queue,
            geometry=rdram_geometry(physical_channels=channels, gang=gang),
            timing=rdram_timing(),
            mapping=mapping,
            page_mode=page_mode,
            scheduler=scheduler,
            controller_model=controller_model,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # request interface

    def submit(self, request: MemRequest) -> None:
        """Accept a request at ``request.arrival`` (current event time)."""
        now = self.event_queue.now
        if request.req_id == UNASSIGNED_REQUEST_ID:
            self._req_seq += 1
            request.req_id = self._req_seq
        mapped = self.mapping.map_line(request.line_addr)
        request.channel, request.bank, request.row = mapped
        self._outstanding_total += 1
        per_thread = self._outstanding_by_thread
        per_thread[request.thread_id] = per_thread.get(request.thread_id, 0) + 1
        self._observe_concurrency(now)
        controller = self.channels[request.channel]
        self.event_queue.schedule(
            now + self.timing.ctrl_request, controller.enqueue, request
        )

    def read(
        self, line_addr: int, thread_id: int, callback=None, rob_occupancy: int = 0,
        iq_occupancy: int = 0,
    ) -> MemRequest:
        """Convenience wrapper: build and submit a read request now."""
        request = MemRequest(
            line_addr,
            MemAccessType.READ,
            thread_id,
            arrival=self.event_queue.now,
            rob_occupancy=rob_occupancy,
            iq_occupancy=iq_occupancy,
            callback=callback,
        )
        self.submit(request)
        return request

    def write(self, line_addr: int, thread_id: int, callback=None) -> MemRequest:
        """Convenience wrapper: build and submit a write-back now."""
        request = MemRequest(
            line_addr,
            MemAccessType.WRITE,
            thread_id,
            arrival=self.event_queue.now,
            callback=callback,
        )
        self.submit(request)
        return request

    def warm_line(self, line_addr: int) -> None:
        """Functional warming: open ``line_addr``'s row, nothing else.

        The row buffer of the owning bank is latched (open page mode
        only), but no request is queued, no timing advances, and no
        statistics are recorded.  No caller in ``src/`` (see
        :meth:`repro.cache.hierarchy.MemoryHierarchy.warm_access`).
        """
        channel, bank, row = self.mapping.map_line(line_addr)
        self.channels[channel].warm_row(bank, row)

    def complete(self, request: MemRequest) -> None:
        """Called by a controller when a request's data movement is done."""
        now = self.event_queue.now
        self._outstanding_total -= 1
        per_thread = self._outstanding_by_thread
        remaining = per_thread[request.thread_id] - 1
        if remaining:
            per_thread[request.thread_id] = remaining
        else:
            del per_thread[request.thread_id]
        self._observe_concurrency(now)
        if request.callback is not None:
            request.callback(now, request)

    # ------------------------------------------------------------------
    # state queries

    def outstanding_for_thread(self, thread_id: int) -> int:
        """Outstanding DRAM requests for one thread (request-based scheme)."""
        return self._outstanding_by_thread.get(thread_id, 0)

    @property
    def outstanding_total(self) -> int:
        return self._outstanding_total

    @property
    def busy(self) -> bool:
        return self._outstanding_total > 0

    # ------------------------------------------------------------------
    # statistics plumbing

    def _observe_concurrency(self, now: int) -> None:
        total = self._outstanding_total
        self.stats.outstanding.observe(now, total)
        threads = len(self._outstanding_by_thread) if total >= 2 else 0
        self.stats.thread_concurrency.observe(now, threads)

    def reset_stats(self) -> None:
        """Discard statistics gathered so far (used after cache warm-up).

        The concurrency collectors restart from the *current* state so
        time-weighting stays correct across the reset boundary.
        """
        now = self.event_queue.now
        fresh = DRAMStats()
        self.stats = fresh
        for channel in self.channels:
            channel.stats = fresh
        self._observe_concurrency(now)

    def finish(self, now: int | None = None) -> DRAMStats:
        """Close time-weighted collectors and return the stats bundle."""
        self.stats.finish(self.event_queue.now if now is None else now)
        return self.stats
