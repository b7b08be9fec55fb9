"""The SMT core simulation loop.

One :class:`SMTCore` owns a set of :class:`ThreadContext` objects and
drives the whole simulation: it advances the cycle counter, pumps the
shared event queue (which runs the cache and DRAM models), commits
completed instructions in order per thread, and fetches/dispatches new
instructions under the configured fetch policy.

Modelling approach (see DESIGN.md): dependences are resolved at
dispatch; issue-bandwidth contention is charged through per-cycle
*issue records* (at most 8 integer + 4 floating-point µops issue per
cycle); loads touch the memory hierarchy *at their issue time* so their
latency reflects live cache/DRAM contention.  Shared issue queues,
shared load/store queues, per-thread ROBs, MSHR back-pressure,
branch-mispredict fetch redirect and per-thread fetch gating give the
resource-clog behaviour the paper's fetch policies and thread-aware
schedulers act on.

Issue records.  The record of cycle *c* is the pair of thread-id lists
``(integer queue, FP queue)`` of the µops that issue in *c*.  The
lists' lengths are the cycle's issue-slot occupancy, so scheduling a
µop means appending it to the first record at or after its ready time
whose list is shorter than the issue width.  One *marker* event per
record, scheduled when the record is created, releases all its members
from the issue queues when the cycle arrives.  A non-memory µop has no
event of its own — its finish time is known the moment it is scheduled
— while loads and stores keep one, because they must interleave with
cache and DRAM events in scheduling order.  Three invariants keep this
bit-identical to one release event per µop (``docs/performance.md``
spells them out): a marker sits on the heap at every cycle a release
event would have, so the set of ticked cycles is unchanged; a load,
store or MSHR retry reports the issue-queue occupancy it would have
seen had the same-cycle members scheduled after it not left yet; and a
µop scheduled into the cycle being pumped joins that cycle's record
whether or not its marker has already fired.

The main loop skips idle stretches: when no thread can fetch (blocked
or ROB-full) the clock jumps to the next event / unblock / commit
time, which makes memory-bound multiprogrammed runs tractable in pure
Python.

This class is the only owner of the per-µop path (fetch, dispatch,
issue, resolve, commit) and is itself the ``reference`` engine.  The
``fast`` engine (:class:`repro.engine.fast.FastSMTCore`) subclasses it
to add two strategies and nothing else: a ``_stalled_window`` kernel
the phase loop calls when a cycle dispatched nothing, and memoized µop
streams.  A hot-path change made here therefore runs under every
engine, and the engine oracle compares kernel + memo against
tick-every-cycle + fresh generation of the *same* code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError, SimulationError
from repro.common.events import EventQueue
from repro.common.rng import DeterministicRng
from repro.common.types import OpClass
from repro.cache.hierarchy import PENDING, RETRY, MemoryHierarchy
from repro.cpu.branch import BranchTargetBuffer, HybridPredictor
from repro.cpu.fetch import (
    WINDOW_SAFE_POLICIES,
    FetchPolicy,
    make_fetch_policy,
)
from repro.cpu.stats import CoreResult, ThreadResult
from repro.cpu.thread import FOREVER, RING_SIZE, Inflight, ThreadContext
from repro.workloads.generator import SyntheticStream, Uop

# Op classes are tested by identity on the per-µop path (an enum
# property call per µop is measurable).
_FP_ALU = OpClass.FP_ALU
_FP_MULT = OpClass.FP_MULT
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH


@dataclass(frozen=True)
class CoreParams:
    """Pipeline parameters (Table 1 defaults)."""

    fetch_width: int = 8
    fetch_threads: int = 2
    commit_width: int = 8
    int_issue_width: int = 8
    fp_issue_width: int = 4
    int_iq_size: int = 64
    fp_iq_size: int = 32
    rob_size: int = 256
    lq_size: int = 64
    sq_size: int = 64
    #: Fetch-to-issue depth of the 11-stage pipeline.
    frontend_latency: int = 6
    mispredict_penalty: int = 9
    #: Fetch stall charged when an instruction-fetch group misses L1I.
    icache_miss_penalty: int = 12
    #: Re-issue delay for loads bounced by a full MSHR file.
    retry_delay: int = 4
    #: False (default): branches use the workload's pre-drawn
    #: stochastic mispredict flags.  True: run the Table 1 hybrid
    #: predictor + BTB (repro.cpu.branch) on the generator's branch
    #: sites, so mispredicts emerge from prediction.
    branch_predictor: bool = False
    #: Record a (cycle, per-thread committed) sample every this many
    #: cycles for phase/timeline analysis; 0 (default) disables.
    sample_interval: int = 0
    #: Execution latencies by op class.
    latencies: dict = field(
        default_factory=lambda: {
            OpClass.INT_ALU: 1,
            OpClass.INT_MULT: 7,
            OpClass.FP_ALU: 4,
            OpClass.FP_MULT: 4,
            OpClass.BRANCH: 1,
        }
    )

    def __post_init__(self) -> None:
        for name in (
            "fetch_width",
            "fetch_threads",
            "commit_width",
            "int_issue_width",
            "fp_issue_width",
            "int_iq_size",
            "fp_iq_size",
            "rob_size",
            "lq_size",
            "sq_size",
            # Dispatch must issue strictly ahead of the cycle being
            # fetched; only an event joins the current cycle's record.
            "frontend_latency",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


class SMTCore:
    """Cycle-level simultaneous-multithreading core."""

    #: Occupancy-sampling period when telemetry is on but the caller
    #: did not request an explicit ``sample_interval``.
    _TELEMETRY_SAMPLE_INTERVAL = 128

    def __init__(
        self,
        params: CoreParams,
        event_queue: EventQueue,
        hierarchy: MemoryHierarchy,
        fetch_policy: str | FetchPolicy,
        workloads: list[tuple[str, SyntheticStream]],
        icache_rngs: list | None = None,
        telemetry=None,
    ) -> None:
        if not workloads:
            raise ConfigError("at least one thread is required")
        self.params = params
        self.event_queue = event_queue
        self.hierarchy = hierarchy
        if isinstance(fetch_policy, str):
            fetch_policy = make_fetch_policy(fetch_policy)
        self.fetch_policy = fetch_policy
        if icache_rngs is None:
            # Same Mersenne-Twister seeds the old raw-random default
            # used, so standalone cores reproduce historical runs;
            # build_system always passes seed-derived children instead.
            icache_rngs = [
                DeterministicRng(97 + i, tag=f"icache:default:{i}")
                for i in range(len(workloads))
            ]
        self.threads = [
            ThreadContext(i, name, stream, params.rob_size, icache_rngs[i])
            for i, (name, stream) in enumerate(workloads)
        ]
        #: Per-thread bound-method/constant tables, indexed by thread
        #: id: loop invariants every fetch visit would otherwise
        #: re-derive (attribute walk + bound-method creation).
        self._t_miss_rate = [
            t.stream.profile.icache_miss_rate for t in self.threads
        ]
        self._t_rng = [t.icache_rng.random for t in self.threads]
        self._t_next = [t.stream.next_uop for t in self.threads]
        #: Bumped by every event-side mutator of fetch-visible core
        #: state (issue-queue drains, finish-time resolution and the
        #: fetch unblocks it triggers).  Together with the hierarchy's
        #: ``l2_miss_version`` it lets a stalled-window kernel reuse a
        #: window derivation across event batches in O(1).
        self._fe_version = 0
        #: Issue records, cycle -> (integer-queue thread ids, FP-queue
        #: thread ids): who leaves the issue queues in that cycle (see
        #: the module docstring).  Holds every cycle still to come plus
        #: the latest one already released.
        self._issue_records: dict[int, tuple[list[int], list[int]]] = {}
        #: Cycle of the latest released record and its integer members;
        #: loads and stores read them to report the issue-queue
        #: occupancy a per-µop release order would have shown.
        self._released_cycle = -1
        self._released_ints: list[int] = []
        self.int_iq_used = 0
        self.fp_iq_used = 0
        self.lq_used = 0
        self.sq_used = 0
        self.cycle = 0
        self._commit_ptr = 0
        self._unfinished = 0
        self._measuring = False
        self._latency = params.latencies
        # Issue-coverage tracking (the paper's "% of cycles the
        # processor can issue at least one integer instruction").
        # Records are released in time order, so counting distinct
        # issue cycles is a single comparison.
        self._last_int_issue_cycle = -1
        self._int_issue_cycles = 0
        #: Optional repro.telemetry.Telemetry session (None = disabled).
        self.telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        registry = (
            telemetry.registry
            if telemetry is not None and telemetry.registry.enabled
            else None
        )
        self._registry = registry
        if registry is not None:
            ids = [t.thread_id for t in self.threads]
            self._s_committed = [
                registry.series(f"cpu.t{i}.committed") for i in ids
            ]
            self._h_rob = [
                registry.histogram(f"cpu.t{i}.rob_occupancy") for i in ids
            ]
            self._h_int_iq = registry.histogram("cpu.iq.int_occupancy")
        #: Timeline samples: (cycle, committed-per-thread tuple).
        self.timeline: list[tuple[int, tuple[int, ...]]] = []
        #: Effective sampling period: the explicit ``sample_interval``
        #: wins; a live registry turns sampling on at a default period
        #: (occupancy histograms need periodic observation).
        self._sample_every = params.sample_interval
        if registry is not None and not self._sample_every:
            self._sample_every = self._TELEMETRY_SAMPLE_INTERVAL
        self._next_sample = self._sample_every or None
        if params.branch_predictor:
            self._predictors = [HybridPredictor() for _ in self.threads]
            self._btbs = [BranchTargetBuffer() for _ in self.threads]
        else:
            self._predictors = None
            self._btbs = None
        #: Thread-cycles lost in the front end, by cause; every
        #: (thread, cycle) pair gets exactly one disposition, so the
        #: causes plus dispatched thread-cycles sum to
        #: cycles * num_threads.  Skipped (idle-jumped) cycles are
        #: attributed from the state that caused the jump.
        self.stall_cycles = {
            "fetch_blocked": 0,   # mispredict redirect / I-cache miss
            "rob_full": 0,
            "resource_full": 0,   # selected, but IQ/LSQ had no room
            "not_selected": 0,    # eligible, but policy/ports passed it
        }
        #: Dispatch-attempt rejections by resource (event counts,
        #: not thread-cycles; one stalled cycle can retry many times).
        self.dispatch_rejections = {"iq": 0, "lsq": 0}

    # ------------------------------------------------------------------
    # public driver

    def run(
        self,
        instructions_per_thread: int,
        warmup_instructions: int = 0,
        max_cycles: int = 1_000_000_000,
    ) -> CoreResult:
        """Simulate until every thread commits its instruction budget.

        A thread that reaches its budget keeps running (so contention
        on shared resources persists) but its IPC is measured at the
        cycle the budget was reached.  ``warmup_instructions`` are
        committed per thread first with statistics discarded, so caches
        and row buffers reflect steady state.
        """
        if instructions_per_thread < 1:
            raise ConfigError("instructions_per_thread must be >= 1")
        if warmup_instructions:
            self._run_phase(warmup_instructions, max_cycles)
            self.hierarchy.reset_stats()
        start = self.cycle
        issue_cycles_base = self._int_issue_cycles
        stall_base = dict(self.stall_cycles)
        rejection_base = dict(self.dispatch_rejections)
        self._run_phase(instructions_per_thread, max_cycles)
        snapshot = self.hierarchy.snapshot()
        results = []
        reached_all = True
        for t in self.threads:
            end = t.finish_cycle if t.finish_cycle is not None else self.cycle
            if t.finish_cycle is None:
                reached_all = False
            committed = min(t.measured_committed(), t.target)
            results.append(
                ThreadResult(
                    thread_id=t.thread_id,
                    app_name=t.app_name,
                    committed=committed,
                    cycles=max(1, end - start),
                    dram_accesses=snapshot.dram_loads_per_thread.get(
                        t.thread_id, 0
                    ),
                )
            )
        cycles = self.cycle - start
        coverage = min(
            1.0, (self._int_issue_cycles - issue_cycles_base) / max(1, cycles)
        )
        stalls = {k: v - stall_base[k] for k, v in self.stall_cycles.items()}
        rejections = {
            k: v - rejection_base[k]
            for k, v in self.dispatch_rejections.items()
        }
        registry = self._registry
        if registry is not None:
            registry.counter("cpu.cycles").add(cycles)
            registry.gauge("cpu.int_issue_coverage").set(coverage)
            registry.add_counters("cpu.stall", stalls)
            registry.add_counters("cpu.dispatch_reject", rejections)
            for r in results:
                prefix = f"cpu.t{r.thread_id}"
                registry.counter(f"{prefix}.instructions").add(r.committed)
                registry.counter(f"{prefix}.dram_accesses").add(
                    r.dram_accesses
                )
                registry.gauge(f"{prefix}.ipc").set(r.committed / r.cycles)
        return CoreResult(
            cycles=cycles,
            threads=tuple(results),
            reached_all_targets=reached_all,
            fetch_policy=self.fetch_policy.name,
            extra={
                "int_issue_coverage": coverage,
                "stall_cycles": stalls,
                "dispatch_rejections": rejections,
            },
        )

    # ------------------------------------------------------------------
    # phase loop

    def _run_phase(self, per_thread_target: int, max_cycles: int) -> None:
        for t in self.threads:
            t.warmup_committed = t.committed
            t.target = per_thread_target
            t.finish_cycle = None
        self._unfinished = len(self.threads)
        deadline = self.cycle + max_cycles
        # The tick sequence is inlined with pre-bound callables: this
        # loop runs once per simulated cycle, so even the attribute
        # lookups of `self.event_queue.run_until` are measurable.
        # `self.cycle` itself must be re-read every iteration because
        # `_maybe_skip` jumps it.
        event_queue = self.event_queue
        run_until = event_queue.run_until
        # The heap list is peeked directly (its identity is stable;
        # heappush mutates in place): most cycles have no due event,
        # and a method call per cycle just to discover that is the
        # single largest fixed cost of the loop.
        heap = event_queue._heap
        commit = self._commit
        fetch = self._fetch
        maybe_skip = self._maybe_skip
        sampling = self._next_sample is not None
        # The stalled-window kernel is a strategy a subclass supplies
        # (repro.engine.fast); this class — the reference engine — has
        # none and ticks every cycle.  A tracer also rules it out
        # (gate/miss events are per-cycle observables a skipped cycle
        # would lose), as does a fetch policy whose ordering the kernel
        # cannot hoist out of a window.
        stalled_window = getattr(self, "_stalled_window", None)
        kernel_ok = (
            stalled_window is not None
            and self._tracer is None
            and type(self.fetch_policy) in WINDOW_SAFE_POLICIES
        )
        while self._unfinished and self.cycle < deadline:
            cycle = self.cycle
            if heap and heap[0][0] <= cycle:
                run_until(cycle)
            else:
                event_queue.now = cycle
            commit(cycle)
            fetched = fetch(cycle)
            if sampling and cycle >= self._next_sample:
                self._sample(cycle)
                self._next_sample = cycle + self._sample_every
            cycle += 1
            self.cycle = cycle
            if self._unfinished:
                if not fetched and kernel_ok and stalled_window(deadline):
                    # Events due at the (new) current cycle were already
                    # pumped in stall mode; _maybe_skip never jumps over
                    # due events, but it would observe post-event state
                    # a tick-every-cycle run never shows it here — tick
                    # the cycle directly.
                    continue
                maybe_skip()
        if sampling:
            # Trailing partial-interval sample: short runs would
            # otherwise lose every instruction committed after the last
            # periodic sample (see metrics.timeline.interval_ipcs).
            self._sample(self.cycle)

    def _sample(self, cycle: int) -> None:
        """Record one timeline/occupancy observation at ``cycle``."""
        if self.params.sample_interval:
            self.timeline.append(
                (cycle, tuple(t.committed for t in self.threads))
            )
        if self._registry is not None:
            for i, t in enumerate(self.threads):
                self._s_committed[i].record(cycle, t.committed)
                self._h_rob[i].observe(len(t.rob))
            self._h_int_iq.observe(self.int_iq_used)

    def _tick(self) -> None:
        """One un-inlined simulation cycle (kept for tests/tools; the
        phase loop above inlines this sequence)."""
        cycle = self.cycle
        self.event_queue.run_until(cycle)
        self._commit(cycle)
        self._fetch(cycle)
        if self._next_sample is not None and cycle >= self._next_sample:
            self._sample(cycle)
            self._next_sample = cycle + self._sample_every
        self.cycle = cycle + 1

    def _maybe_skip(self) -> None:
        """Jump the clock when no thread can make front-end progress."""
        cycle = self.cycle
        threads = self.threads
        for t in threads:
            if t.fetch_blocked_until <= cycle and not t.rob_full:
                return
        candidates = []
        next_event = self.event_queue.peek_time()
        if next_event is not None:
            candidates.append(next_event)
        for t in threads:
            if not t.rob_full and t.fetch_blocked_until < FOREVER:
                candidates.append(t.fetch_blocked_until)
            if t.rob:
                head = t.rob[0]
                if head.finish is not None:
                    candidates.append(head.finish)
        if not candidates:
            raise SimulationError(
                f"deadlock at cycle {cycle}: all threads blocked with no "
                f"pending events"
            )
        target = min(candidates)
        if target > cycle:
            skipped = target - cycle
            stalls = self.stall_cycles
            for t in threads:
                if t.fetch_blocked_until > cycle:
                    stalls["fetch_blocked"] += skipped
                else:  # the only other way into a skip
                    stalls["rob_full"] += skipped
            self.cycle = target

    # ------------------------------------------------------------------
    # commit stage

    def _commit(self, cycle: int) -> None:
        budget = self.params.commit_width
        threads = self.threads
        n = len(threads)
        start = self._commit_ptr
        load_op = OpClass.LOAD
        store_op = OpClass.STORE
        for i in range(n):
            if not budget:
                break
            t = threads[(start + i) % n]
            rob = t.rob
            while budget and rob:
                head = rob[0]
                finish = head.finish
                if finish is None or finish > cycle:
                    break
                rob.popleft()
                budget -= 1
                t.committed += 1
                opc = head.opc
                if opc is load_op:
                    self.lq_used -= 1
                elif opc is store_op:
                    self.sq_used -= 1
                if (
                    t.finish_cycle is None
                    and t.committed - t.warmup_committed >= t.target
                ):
                    t.finish_cycle = cycle
                    self._unfinished -= 1
        self._commit_ptr = (start + 1) % n

    # ------------------------------------------------------------------
    # fetch / dispatch stage

    @property
    def tracer(self):
        """The live event tracer, or None (fetch policies emit
        gate events through this)."""
        return self._tracer

    def _fetch(self, cycle: int) -> int:
        """Fetch, rename and dispatch for one cycle; returns the number
        of µops dispatched (the phase loop uses zero as the cue that a
        stalled window may have opened).

        Per thread in policy order: µops are taken from the stream
        until the fetch width is used, a shared resource (issue queue,
        load/store queue) has no room for the next one — it waits in
        ``pending_uop`` and nothing changes — the ROB fills, or a
        mispredicted branch redirects the front end.
        """
        params = self.params
        stalls = self.stall_cycles
        eligible = []
        for t in self.threads:
            if t.fetch_blocked_until > cycle:
                stalls["fetch_blocked"] += 1
            elif len(t.rob) >= t.rob_size:
                stalls["rob_full"] += 1
            else:
                eligible.append(t)
        if not eligible:
            return 0
        order = self.fetch_policy.order(eligible, self, cycle)
        fetch_width = params.fetch_width
        fetch_threads = params.fetch_threads
        icache_penalty = params.icache_miss_penalty
        int_iq_size = params.int_iq_size
        fp_iq_size = params.fp_iq_size
        lq_size = params.lq_size
        sq_size = params.sq_size
        ready_lb = cycle + params.frontend_latency
        rejections = self.dispatch_rejections
        schedule_issue = self._schedule_issue
        miss_rates = self._t_miss_rate
        rngs = self._t_rng
        nexts = self._t_next
        fetched = 0
        threads_used = 0
        dispatched_threads = set()
        resource_stalled: set[int] = set()
        for t in order:
            if threads_used >= fetch_threads:
                break
            if fetched >= fetch_width:
                break
            tid = t.thread_id
            miss_rate = miss_rates[tid]
            if miss_rate and rngs[tid]() < miss_rate:
                t.fetch_blocked_until = cycle + icache_penalty
                if self._tracer is not None:
                    self._tracer.emit(
                        cycle, "fetch.icache_miss", "cpu.fetch", tid,
                        dur=icache_penalty,
                    )
                threads_used += 1
                continue
            taken = 0
            stream_next = nexts[tid]
            rob = t.rob
            rob_size = t.rob_size
            ring = t.ring
            while fetched < fetch_width and taken < fetch_width:
                uop = t.pending_uop
                if uop is None:
                    uop = stream_next()
                opc = uop.opc
                is_fp = opc is _FP_ALU or opc is _FP_MULT
                if is_fp:
                    key = "iq" if self.fp_iq_used >= fp_iq_size else None
                elif self.int_iq_used >= int_iq_size:
                    key = "iq"
                elif opc is _LOAD and self.lq_used >= lq_size:
                    key = "lsq"
                elif opc is _STORE and self.sq_used >= sq_size:
                    key = "lsq"
                else:
                    key = None
                if key is not None:
                    rejections[key] += 1
                    t.pending_uop = uop
                    if not taken:
                        resource_stalled.add(tid)
                    break
                t.pending_uop = None
                mispredicted = (
                    opc is _BRANCH and self._branch_mispredicted(t, uop)
                )
                seq = t.seq
                node = Inflight(tid, seq, opc, uop.addr, mispredicted, ready_lb)
                dep1 = uop.dep1
                if dep1:
                    producer = t.producer(dep1)
                    if producer is not None:
                        finish = producer.finish
                        if finish is None:
                            node.deps_left += 1
                            producer.add_waiter(node)
                        elif finish > node.ready_lb:
                            node.ready_lb = finish
                dep2 = uop.dep2
                if dep2:
                    producer = t.producer(dep2)
                    if producer is not None:
                        finish = producer.finish
                        if finish is None:
                            node.deps_left += 1
                            producer.add_waiter(node)
                        elif finish > node.ready_lb:
                            node.ready_lb = finish
                ring[seq % RING_SIZE] = node
                t.seq = seq + 1
                rob.append(node)
                t.fetched += 1
                t.unissued += 1
                if is_fp:
                    self.fp_iq_used += 1
                    t.iq_fp += 1
                else:
                    self.int_iq_used += 1
                    t.iq_int += 1
                    if opc is _LOAD:
                        self.lq_used += 1
                    elif opc is _STORE:
                        self.sq_used += 1
                fetched += 1
                taken += 1
                if mispredicted:
                    # Fetch stops until the branch resolves; its
                    # thread id, as the waiter, tells ``_resolve`` to
                    # reopen it after the refill penalty.
                    t.fetch_blocked_until = FOREVER
                    node.add_waiter(tid)
                    if self._tracer is not None:
                        self._tracer.emit(
                            cycle, "fetch.redirect", "cpu.fetch", tid,
                            args={"reason": "branch-mispredict"},
                        )
                if node.deps_left == 0:
                    schedule_issue(node)
                if mispredicted:
                    break  # redirect: nothing behind the branch is fetched
                if len(rob) >= rob_size:
                    break
            if taken:
                threads_used += 1
                dispatched_threads.add(tid)
        for t in eligible:
            tid = t.thread_id
            if tid in dispatched_threads:
                continue
            if tid in resource_stalled:
                stalls["resource_full"] += 1
            else:
                stalls["not_selected"] += 1
        return fetched

    def _branch_mispredicted(self, t: ThreadContext, uop: Uop) -> bool:
        """Resolve whether this branch redirects the front end."""
        if self._predictors is None or not uop.pc:
            return uop.mispredict
        mispredicted = self._predictors[t.thread_id].update(uop.pc, uop.taken)
        if uop.taken and not self._btbs[t.thread_id].lookup_and_update(uop.pc):
            mispredicted = True  # unknown target: redirect anyway
        return mispredicted

    # ------------------------------------------------------------------
    # issue / execute

    def _schedule_issue(self, node: Inflight) -> None:
        """All of ``node``'s producers have known finish times: give it
        the first free issue slot at or after its ready time."""
        opc = node.opc
        event_queue = self.event_queue
        now = event_queue.now
        issue = node.ready_lb
        if now > issue:
            issue = now
        params = self.params
        if opc is _FP_ALU or opc is _FP_MULT:
            lane = 1
            width = params.fp_issue_width
        else:
            lane = 0
            width = params.int_issue_width
        records = self._issue_records
        record = records.get(issue)
        while record is not None and len(record[lane]) >= width:
            issue += 1
            record = records.get(issue)
        if record is None:
            record = records[issue] = ([], [])
            if issue > now:
                event_queue.schedule(issue, self._release_record, issue, record)
            else:
                # Only reachable from inside an event (dispatch issues
                # at least ``frontend_latency`` ahead): the cycle is
                # being pumped, so a marker would fire in this very
                # drain; the record is born released instead.
                self._retire_record(issue, record)
        tid = node.thread_id
        members = record[lane]
        if opc is _LOAD or opc is _STORE:
            node.iq_peers = members.count(tid)
        members.append(tid)
        if issue == self._released_cycle:
            # Joined the record of the cycle being pumped after its
            # release: nothing is left to wait for.
            self._leave_issue_queue(tid, lane, issue)
        if opc is _LOAD:
            event_queue.schedule(issue, self._try_load, node, 1)
        elif opc is _STORE:
            event_queue.schedule(issue, self._issue_store, node)
        elif node.waiters is None:
            self._fe_version += 1
            node.finish = issue + self._latency[opc]
        else:
            self._resolve(node, issue + self._latency[opc])

    def _release_record(
        self, cycle: int, record: tuple[list[int], list[int]]
    ) -> None:
        """Marker event of one issue record: ``cycle`` has arrived and
        every member leaves its issue queue."""
        self._fe_version += 1
        threads = self.threads
        ints, fps = record
        if ints:
            self.int_iq_used -= len(ints)
            for tid in ints:
                t = threads[tid]
                t.unissued -= 1
                t.iq_int -= 1
            self._last_int_issue_cycle = cycle
            self._int_issue_cycles += 1
        if fps:
            self.fp_iq_used -= len(fps)
            for tid in fps:
                t = threads[tid]
                t.unissued -= 1
                t.iq_fp -= 1
        self._retire_record(cycle, record)

    def _retire_record(
        self, cycle: int, record: tuple[list[int], list[int]]
    ) -> None:
        """``record`` becomes the latest released one.  It stays
        readable (slot occupancy of the current cycle, same-cycle
        members for the occupancy loads report) until its successor
        drops it here."""
        self._issue_records.pop(self._released_cycle, None)
        self._released_cycle = cycle
        self._released_ints = record[0]

    def _leave_issue_queue(self, tid: int, lane: int, cycle: int) -> None:
        """One µop leaves the integer (``lane`` 0) or FP issue queue."""
        self._fe_version += 1
        t = self.threads[tid]
        t.unissued -= 1
        if lane:
            self.fp_iq_used -= 1
            t.iq_fp -= 1
        else:
            self.int_iq_used -= 1
            t.iq_int -= 1
            if cycle != self._last_int_issue_cycle:
                self._last_int_issue_cycle = cycle
                self._int_issue_cycles += 1

    def _iq_occupancy_seen(
        self, t: ThreadContext, node: Inflight, member: int, now: int
    ) -> int:
        """Integer issue-queue occupancy of ``t`` as a load, store or
        retry firing now observes it (the IQ-based scheduler's input).

        A record releases its members together, but inside a cycle
        events fire in scheduling order: a same-thread µop scheduled
        into this cycle *after* ``node``'s event was would still be in
        the queue when that event fires.  ``node.iq_peers`` counted the
        same-thread members the record held then, so the difference to
        the count now (less ``node`` itself when it is a ``member``) is
        added back.  A retry that fires before its cycle's marker — the
        record was created after the retry was scheduled — sees the
        live value.
        """
        occupancy = t.iq_int
        if now == self._released_cycle:
            occupancy += (
                self._released_ints.count(t.thread_id)
                - node.iq_peers - member
            )
        return occupancy

    def _try_load(self, node: Inflight, member: int = 0) -> None:
        """Send a load to the hierarchy: at its issue cycle (``member``
        of that cycle's record) and again after each MSHR rejection."""
        t = self.threads[node.thread_id]
        now = self.event_queue.now
        result = self.hierarchy.load(
            node.addr,
            t.thread_id,
            now,
            rob_occupancy=len(t.rob),
            iq_occupancy=self._iq_occupancy_seen(t, node, member, now),
            callback=lambda finish, node=node: self._resolve(node, finish),
        )
        if result is RETRY:
            retry_at = now + self.params.retry_delay
            record = self._issue_records.get(retry_at)
            node.iq_peers = (
                record[0].count(t.thread_id) if record is not None else 0
            )
            self.event_queue.schedule(retry_at, self._try_load, node)
        elif result is not PENDING:
            self._resolve(node, result)

    def _issue_store(self, node: Inflight) -> None:
        t = self.threads[node.thread_id]
        now = self.event_queue.now
        done = self.hierarchy.store(
            node.addr,
            t.thread_id,
            now,
            rob_occupancy=len(t.rob),
            iq_occupancy=self._iq_occupancy_seen(t, node, 1, now),
        )
        self._resolve(node, done)

    # ------------------------------------------------------------------
    # completion plumbing

    def _resolve(self, node: Inflight, finish: int) -> None:
        """The node's finish time became known; wake its dependents."""
        self._fe_version += 1
        node.finish = finish
        waiters = node.waiters
        if waiters:
            node.waiters = None
            for waiter in waiters:
                if waiter.__class__ is Inflight:
                    if finish > waiter.ready_lb:
                        waiter.ready_lb = finish
                    waiter.deps_left -= 1
                    if waiter.deps_left == 0:
                        self._schedule_issue(waiter)
                else:
                    # A mispredicted branch's thread id (an int, not a
                    # closure over the thread, so a finished run's ROB
                    # holds no reference cycle).
                    self.threads[waiter].fetch_blocked_until = (
                        finish + self.params.mispredict_penalty
                    )
