"""The three-level cache hierarchy glueing the SMT core to DRAM.

Timing model (Table 1): L1D hit = 1 cycle, L2 = 10 cycles, L3 = 20
cycles, all pipelined; a load that misses everywhere pays
``1 + 10 + 20`` cycles of lookup before its DRAM request leaves the
chip.  Misses are tracked in a 16-entry MSHR file that merges
same-line misses and applies back-pressure (``RETRY``) when full.

The ``perfect_l1/l2/l3`` switches implement the CPI-breakdown
methodology of Section 4.2: a *perfect* level always hits, so e.g.
``perfect_l3=True`` is the paper's "infinitely large L3 cache" system
used as the reference point of Figure 3.

Simplifications (documented in DESIGN.md): write-backs to a level that
no longer holds the line are dropped rather than allocated; store
misses that find the MSHR file full skip their line fetch (counted in
``store_bypasses``); instruction fetch misses are modelled
stochastically inside the core rather than through this hierarchy
(SPEC CPU2000 instruction working sets are small).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.common.types import MemAccessType, MemRequest
from repro.cache.cache import SetAssocCache
from repro.cache.mshr import MSHRFile
from repro.cache.prefetch import PrefetchQuota, StridePrefetcher
from repro.cache.tlb import TLB
from repro.dram.system import MemorySystem


class _Sentinel:
    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Returned by :meth:`MemoryHierarchy.load` when the access missed and
#: the callback will be invoked once data arrives.
PENDING = _Sentinel("PENDING")
#: Returned when the MSHR file is full; the core must retry later.
RETRY = _Sentinel("RETRY")


@dataclass(frozen=True)
class HierarchyParams:
    """Sizes and latencies of the hierarchy (Table 1 defaults).

    ``scale`` divides every cache size (keeping associativity and line
    size); it is used together with the workload footprint scale to run
    the paper's experiments at tractable instruction budgets while
    preserving the footprint-to-capacity ratios.
    """

    line_bytes: int = 64
    l1_size: int = 64 * 1024
    l1_assoc: int = 2
    l1_latency: int = 1
    l2_size: int = 512 * 1024
    l2_assoc: int = 2
    l2_latency: int = 10
    l3_size: int = 4 * 1024 * 1024
    l3_assoc: int = 4
    l3_latency: int = 20
    mshr_entries: int = 16
    tlb_entries: int = 128
    tlb_page_bytes: int = 8192
    tlb_penalty: int = 30
    perfect_l1: bool = False
    perfect_l2: bool = False
    perfect_l3: bool = False
    #: Enable the stride prefetcher (Table 1's prefetch MSHRs).  Off
    #: by default: the workload profiles are calibrated without it.
    prefetch: bool = False
    prefetch_degree: int = 2
    prefetch_mshr_entries: int = 4
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")
        for name in ("l1_latency", "l2_latency", "l3_latency"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def scaled_size(self, size: int, assoc: int) -> int:
        """Divide a cache size by ``scale`` without going below one set."""
        return max(size // self.scale, assoc * self.line_bytes)


@dataclass
class HierarchySnapshot:
    """Point-in-time summary of hierarchy statistics."""

    l1d_hit_rate: float = 0.0
    l2_hit_rate: float = 0.0
    l3_hit_rate: float = 0.0
    dtlb_hit_rate: float = 0.0
    loads: int = 0
    stores: int = 0
    dram_reads_issued: int = 0
    mshr_merges: int = 0
    mshr_rejections: int = 0
    store_bypasses: int = 0
    prefetch_fills: int = 0
    prefetch_dram_reads: int = 0
    dram_loads_per_thread: dict[int, int] = field(default_factory=dict)


class MemoryHierarchy:
    """L1D + L2 + L3 + TLB in front of a :class:`MemorySystem`.

    The instruction-side L1 is modelled inside the core (see module
    docstring); this class serves data accesses only.
    """

    def __init__(
        self,
        params: HierarchyParams,
        event_queue: EventQueue,
        memory: MemorySystem | None,
        translator=None,
        telemetry=None,
    ) -> None:
        if memory is None and not params.perfect_l3:
            raise ConfigError("a MemorySystem is required unless perfect_l3 is set")
        self.params = params
        self.event_queue = event_queue
        self.memory = memory
        #: Optional :class:`repro.os.vm.VirtualMemory`; when set, the
        #: addresses the core presents are virtual and are translated
        #: here (the TLB models the cost of exactly this translation).
        self.translator = translator
        p = params
        self.l1d = SetAssocCache(
            "L1D", p.scaled_size(p.l1_size, p.l1_assoc), p.l1_assoc, p.line_bytes
        )
        self.l2 = SetAssocCache(
            "L2", p.scaled_size(p.l2_size, p.l2_assoc), p.l2_assoc, p.line_bytes
        )
        self.l3 = SetAssocCache(
            "L3", p.scaled_size(p.l3_size, p.l3_assoc), p.l3_assoc, p.line_bytes
        )
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None:
            self.mshr = MSHRFile(
                p.mshr_entries, tracer=tracer,
                clock=lambda: event_queue.now,
            )
        else:
            self.mshr = MSHRFile(p.mshr_entries)
        self.dtlb = TLB(p.tlb_entries, p.tlb_page_bytes, p.tlb_penalty)
        if p.prefetch and not p.perfect_l1:
            self.prefetcher = StridePrefetcher(
                degree=p.prefetch_degree,
                lines_per_page=max(1, p.tlb_page_bytes // p.line_bytes),
            )
            self.prefetch_quota = PrefetchQuota(p.prefetch_mshr_entries)
        else:
            self.prefetcher = None
            self.prefetch_quota = None
        self.prefetch_fills = 0
        self.prefetch_dram_reads = 0
        self.loads = 0
        self.stores = 0
        self.store_bypasses = 0
        self.dram_reads_issued = 0
        self._dram_loads_per_thread: dict[int, int] = {}
        # Per-thread outstanding *distinct line* misses, used by the
        # DG / DWarn (L1-level) and Fetch-Stall (L2-level) policies.
        self._l1_miss_lines: dict[int, int] = {}
        self._l2_miss_lines: dict[int, int] = {}
        #: Monotonic change counter for ``_l2_miss_lines``.  The fast
        #: engine's stalled-window kernel uses it to tell, in O(1),
        #: whether an event batch touched the fetch policies' gating
        #: state (see repro.engine.fast).
        self.l2_miss_version = 0

    # ------------------------------------------------------------------
    # fetch-policy state queries

    def outstanding_l1_misses(self, thread_id: int) -> int:
        """Distinct lines this thread is waiting on (missed L1)."""
        return self._l1_miss_lines.get(thread_id, 0)

    def outstanding_l2_misses(self, thread_id: int) -> int:
        """Distinct lines this thread is waiting on that missed L2."""
        return self._l2_miss_lines.get(thread_id, 0)

    # ------------------------------------------------------------------
    # core-facing access interface

    def load(
        self,
        addr: int,
        thread_id: int,
        now: int,
        rob_occupancy: int = 0,
        iq_occupancy: int = 0,
        callback=None,
    ):
        """Start a load; returns a completion cycle, PENDING, or RETRY.

        ``callback(finish_cycle)`` fires when a PENDING load's data
        arrives.  RETRY means the MSHR file is full and nothing was
        changed -- the core should re-issue the load later.
        """
        self.loads += 1
        penalty = self.dtlb.access(addr)
        if self.translator is not None:
            addr = self.translator.translate(thread_id, addr)
        t0 = now + penalty
        if self.params.perfect_l1:
            return t0 + self.params.l1_latency
        line = addr // self.params.line_bytes
        if self.mshr.pending(line):
            self.mshr.register(line, thread_id, callback)
            return PENDING
        if self.mshr.available == 0 and not self.l1d.probe(line):
            self.loads -= 1  # not an architected access yet; will retry
            self.mshr.rejections += 1
            return RETRY
        # One scan of the set decides hit or miss; a miss has an MSHR
        # entry waiting (a rejected load must leave no trace, hence the
        # probe above when the file is full).
        hit, writeback = self.l1d.access(line)
        if hit:
            return t0 + self.params.l1_latency
        if writeback is not None:
            self.l2.mark_dirty_if_present(writeback)
        self.mshr.register(line, thread_id, callback)
        self._l1_miss_lines[thread_id] = self._l1_miss_lines.get(thread_id, 0) + 1
        probe_at = t0 + self.params.l1_latency + self.params.l2_latency
        self.event_queue.schedule(
            probe_at, self._probe_l2, line, thread_id, rob_occupancy, iq_occupancy
        )
        if self.prefetcher is not None:
            self._train_prefetcher(thread_id, line, now)
        return PENDING

    def store(
        self,
        addr: int,
        thread_id: int,
        now: int,
        rob_occupancy: int = 0,
        iq_occupancy: int = 0,
    ) -> int:
        """Perform a store; returns its (posted) completion cycle.

        Stores retire into the store buffer immediately; the returned
        cycle only orders the store in the pipeline.  Misses still
        fetch the line (write-allocate) and generate DRAM traffic.
        """
        self.stores += 1
        penalty = self.dtlb.access(addr)
        if self.translator is not None:
            addr = self.translator.translate(thread_id, addr)
        t0 = now + penalty
        done = t0 + self.params.l1_latency
        if self.params.perfect_l1:
            return done
        line = addr // self.params.line_bytes
        if self.mshr.pending(line):
            # Line already being fetched: piggyback the write intent.
            self.l1d.mark_dirty_if_present(line)
            return done
        hit, writeback = self.l1d.access(line, write=True)
        if hit:
            return done
        if writeback is not None:
            self.l2.mark_dirty_if_present(writeback)
        if self.mshr.available == 0:
            # Write buffer absorbs the store without a fetch.
            self.store_bypasses += 1
            return done
        self.mshr.register(line, thread_id, None)
        self._l1_miss_lines[thread_id] = self._l1_miss_lines.get(thread_id, 0) + 1
        probe_at = t0 + self.params.l1_latency + self.params.l2_latency
        self.event_queue.schedule(
            probe_at, self._probe_l2, line, thread_id, rob_occupancy, iq_occupancy
        )
        return done

    # ------------------------------------------------------------------
    # functional warming (no caller in src/)

    def warm_access(self, addr: int, thread_id: int, write: bool = False) -> bool:
        """Advance cache/TLB/row-buffer state for one access, timelessly.

        This method and the stat-less path under it have no caller in
        ``src/``; they remain only because ``bench/trace.py`` wraps
        ``MemoryHierarchy.warm_access`` by name, and go with the next
        change to ``bench/``.

        Walks the same TLB -> translate -> L1D -> L2 -> L3 -> DRAM-row
        path as :meth:`load`/:meth:`store`, using the stat-less
        ``touch`` variants, so the warmed contents are what timed
        accesses would have built.  Returns whether the access missed
        all cache levels and reached DRAM.  Differences from the timed
        path, by design:

        * no statistics, no events, no MSHR allocation -- lines already
          pending in the MSHR (left over from the previous detailed
          window) are skipped, exactly as a merged miss would be;
        * the whole miss path resolves instantly (simulated time does
          not advance);
        * L3 write-backs are dropped instead of queued to DRAM -- only
          the victim bank's row buffer would change, and the row state
          is warmed by the demand stream anyway.
        """
        self.dtlb.touch(addr)
        if self.translator is not None:
            addr = self.translator.translate(thread_id, addr)
        if self.params.perfect_l1:
            return False
        line = addr // self.params.line_bytes
        if self.mshr.pending(line):
            if write:
                self.l1d.mark_dirty_if_present(line)
            return False
        hit, writeback = self.l1d.touch(line, write=write)
        if writeback is not None:
            self.l2.mark_dirty_if_present(writeback)
        if hit or self.params.perfect_l2:
            return False
        hit, writeback = self.l2.touch(line)
        if writeback is not None:
            self.l3.mark_dirty_if_present(writeback)
        if hit or self.params.perfect_l3:
            return False
        hit, _writeback = self.l3.touch(line)  # dirty victims dropped
        if hit:
            return False
        self.memory.warm_line(line)
        return True

    # ------------------------------------------------------------------
    # miss path (event-driven)

    def _probe_l2(
        self, line: int, thread_id: int, rob_occupancy: int, iq_occupancy: int
    ) -> None:
        now = self.event_queue.now
        if self.params.perfect_l2:
            self._complete(line, now)
            return
        hit, writeback = self.l2.access(line)
        if writeback is not None:
            self.l3.mark_dirty_if_present(writeback)
        if hit:
            self._complete(line, now)
            return
        self.mshr.mark_dram(line)  # past the L2: long-latency for Fetch-Stall
        self._l2_miss_lines[thread_id] = self._l2_miss_lines.get(thread_id, 0) + 1
        self.l2_miss_version += 1
        self.event_queue.schedule(
            now + self.params.l3_latency,
            self._probe_l3,
            line,
            thread_id,
            rob_occupancy,
            iq_occupancy,
        )

    def _probe_l3(
        self, line: int, thread_id: int, rob_occupancy: int, iq_occupancy: int
    ) -> None:
        now = self.event_queue.now
        if self.params.perfect_l3:
            self._complete(line, now)
            return
        hit, writeback = self.l3.access(line)
        if writeback is not None:
            self.memory.write(writeback, thread_id)
        if hit:
            self._complete(line, now)
            return
        self.dram_reads_issued += 1
        self._dram_loads_per_thread[thread_id] = (
            self._dram_loads_per_thread.get(thread_id, 0) + 1
        )
        request = MemRequest(
            line,
            MemAccessType.READ,
            thread_id,
            arrival=now,
            rob_occupancy=rob_occupancy,
            iq_occupancy=iq_occupancy,
            callback=self._on_dram_fill,
        )
        self.memory.submit(request)

    def _on_dram_fill(self, finish: int, request: MemRequest) -> None:
        self._complete(request.line_addr, finish)

    def _complete(self, line: int, finish: int) -> None:
        initiator = self.mshr.initiator(line)
        if self.mshr.went_to_dram(line):
            self._decrement(self._l2_miss_lines, initiator)
            self.l2_miss_version += 1
        self._decrement(self._l1_miss_lines, initiator)
        self.mshr.complete(line, finish)

    @staticmethod
    def _decrement(counter: dict[int, int], thread_id: int) -> None:
        remaining = counter.get(thread_id, 0) - 1
        if remaining > 0:
            counter[thread_id] = remaining
        else:
            counter.pop(thread_id, None)

    # ------------------------------------------------------------------
    # prefetch path (parallel to the demand miss path; bounded by the
    # small prefetch MSHR quota, never blocking demand traffic)

    def _train_prefetcher(self, thread_id: int, line: int, now: int) -> None:
        for target in self.prefetcher.train(thread_id, line):
            if self.l1d.probe(target) or self.mshr.pending(target):
                continue
            if not self.prefetch_quota.try_acquire(target):
                continue
            probe_at = now + self.params.l1_latency + self.params.l2_latency
            self.event_queue.schedule(
                probe_at, self._prefetch_probe_l2, target, thread_id
            )

    def _prefetch_probe_l2(self, line: int, thread_id: int) -> None:
        now = self.event_queue.now
        if self.params.perfect_l2:
            self._prefetch_fill(line)
            return
        hit, writeback = self.l2.access(line)
        if writeback is not None:
            self.l3.mark_dirty_if_present(writeback)
        if hit:
            self._prefetch_fill(line)
            return
        self.event_queue.schedule(
            now + self.params.l3_latency, self._prefetch_probe_l3,
            line, thread_id,
        )

    def _prefetch_probe_l3(self, line: int, thread_id: int) -> None:
        if self.params.perfect_l3:
            self._prefetch_fill(line)
            return
        hit, writeback = self.l3.access(line)
        if writeback is not None:
            self.memory.write(writeback, thread_id)
        if hit:
            self._prefetch_fill(line)
            return
        self.prefetch_dram_reads += 1
        request = MemRequest(
            line,
            MemAccessType.READ,
            thread_id,
            arrival=self.event_queue.now,
            callback=lambda t, r: self._prefetch_fill(r.line_addr),
        )
        self.memory.submit(request)

    def _prefetch_fill(self, line: int) -> None:
        hit, writeback = self.l1d.access(line)
        if writeback is not None:
            self.l2.mark_dirty_if_present(writeback)
        self.prefetch_fills += 1
        self.prefetch_quota.release(line)

    def close(self) -> None:
        """Drop the misses still in flight at the end of a run.

        Their waiters are core callbacks, and the core holds this
        hierarchy, so a pending entry would keep the whole finished
        simulation alive until the cyclic collector ran.
        """
        self.mshr.clear()

    # ------------------------------------------------------------------
    # statistics

    def snapshot(self) -> HierarchySnapshot:
        return HierarchySnapshot(
            l1d_hit_rate=self.l1d.stats.rate,
            l2_hit_rate=self.l2.stats.rate,
            l3_hit_rate=self.l3.stats.rate,
            dtlb_hit_rate=self.dtlb.stats.rate,
            loads=self.loads,
            stores=self.stores,
            dram_reads_issued=self.dram_reads_issued,
            mshr_merges=self.mshr.merges,
            mshr_rejections=self.mshr.rejections,
            store_bypasses=self.store_bypasses,
            prefetch_fills=self.prefetch_fills,
            prefetch_dram_reads=self.prefetch_dram_reads,
            dram_loads_per_thread=dict(self._dram_loads_per_thread),
        )

    def reset_stats(self) -> None:
        """Clear counters after warm-up; cache contents are kept."""
        from repro.common.stats import RateCounter

        self.l1d.stats = RateCounter()
        self.l2.stats = RateCounter()
        self.l3.stats = RateCounter()
        self.dtlb.stats = RateCounter()
        self.loads = 0
        self.stores = 0
        self.store_bypasses = 0
        self.dram_reads_issued = 0
        self._dram_loads_per_thread = {}
        self.mshr.merges = 0
        self.mshr.rejections = 0
        self.mshr.allocations = 0
        self.prefetch_fills = 0
        self.prefetch_dram_reads = 0
        if self.memory is not None:
            self.memory.reset_stats()
