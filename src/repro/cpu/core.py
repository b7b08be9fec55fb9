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
issue, resolve, commit).  Two shortcuts change how fast it gets there
and nothing else; :attr:`SMTCore.shortcuts` gates both, and only a
differential test switches it off.

**The stalled-window kernel.**  Profiling the tick-every-cycle loop on
the paper's memory-bound mixes shows 81-90% of ticked cycles fetch
nothing: every eligible thread holds a µop that a full shared resource
(issue queue or load/store queue) keeps rejecting, while the DRAM
system grinds through the misses that will eventually free those
resources.  Ticking still pays the full cycle each time — commit walk,
eligibility scan, policy sort, dispatch attempt — only to change
almost nothing.  When a cycle dispatches nothing the phase loop calls
:meth:`SMTCore._stalled_window`, which proves that, until some future
cycle ``W``, no per-cycle observable can change:

* no event fires (the event-queue heap's head is ``>= W``),
* no thread's ROB head reaches its finish time (commit is a no-op),
* no blocked thread unblocks and no eligible thread's dispatch can
  start succeeding (the rejecting resource only drains via events),
* no telemetry/timeline sample falls due.

Inside the window the only state ticking would advance is (a) each
fetch-attempted thread's I-cache RNG stream — one draw per thread per
cycle, in fetch-policy order, bounded by the fetch-thread cap — and
(b) the per-cycle stall/rejection accounting and the commit
round-robin pointer.  The kernel performs exactly the RNG draws
ticking would (so the streams stay aligned bit-for-bit), accumulates
the accounting in closed form, and advances the clock.  An I-cache
miss inside the window ends it: that one cycle is replayed faithfully
(miss penalties, fetch-thread cap, per-thread disposition) and control
returns to the normal loop.  Anything the kernel cannot prove safe
falls back to normal ticking; the phase loop never enters it with an
event tracer attached (gate events are per-cycle observables) or
under a fetch policy outside ``WINDOW_SAFE_POLICIES``.

**The stream memo.**  Generated µop streams are memoized process-wide
and replayed by index on repeat runs (:mod:`repro.engine.fast`).

``tests/engine/test_golden.py`` runs every golden job with the
shortcuts on and with them off against the same committed digests,
so the two must stay bit-identical: every result field, every RNG
draw, every stall counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.common.errors import ConfigError, SimulationError
from repro.common.events import EventQueue
from repro.common.rng import DeterministicRng
from repro.common.types import OpClass
from repro.cache.hierarchy import PENDING, RETRY, MemoryHierarchy
from repro.cpu.branch import BranchTargetBuffer, HybridPredictor
from repro.cpu.fetch import (
    WINDOW_SAFE_POLICIES,
    FetchPolicy,
    RoundRobinPolicy,
    make_fetch_policy,
)
from repro.cpu.stats import CoreResult, ThreadResult
from repro.cpu.thread import FOREVER, RING_SIZE, Inflight, ThreadContext
from repro.engine.fast import _shared_stream
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

    #: Run the stalled-window kernel and the stream memo (see the
    #: module docstring).  Both are bit-identical to ticking every
    #: cycle on freshly generated µops; only a differential test (and
    #: ``repro.engine.oracle.compare_engines``) turns this off.
    shortcuts = True

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
        if self.shortcuts:
            # Wrapped before the per-thread tables below bind
            # ``next_uop``, so they bind the replay views.
            workloads = [
                (name, _shared_stream(stream)) for name, stream in workloads
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
        #: The ``CoreParams`` fields ``_fetch`` reads, in one tuple.
        self._fetch_params = (
            params.fetch_width,
            params.fetch_threads,
            params.icache_miss_penalty,
            params.int_iq_size,
            params.fp_iq_size,
            params.lq_size,
            params.sq_size,
            params.frontend_latency,
        )
        self._commit_width = params.commit_width
        self._int_issue_width = params.int_issue_width
        self._fp_issue_width = params.fp_issue_width
        #: ``_commit_orders[p]``: the threads in commit order when the
        #: round-robin pointer is ``p``.
        self._commit_orders = [
            self.threads[p:] + self.threads[:p]
            for p in range(len(self.threads))
        ]
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
        #: The live event tracer, or None (fetch policies emit gate
        #: events through it).
        self.tracer = telemetry.tracer if telemetry is not None else None
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
        # The stalled-window kernel runs unless the shortcuts are off.
        # A tracer rules it out (gate/miss events are per-cycle
        # observables a skipped cycle would lose), as does a fetch
        # policy whose ordering the kernel cannot hoist out of a window.
        stalled_window = self._stalled_window
        kernel_ok = (
            self.shortcuts
            and self.tracer is None
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
            if t.fetch_blocked_until <= cycle and len(t.rob) < t.rob_size:
                return
        candidates = []
        next_event = self.event_queue.peek_time()
        if next_event is not None:
            candidates.append(next_event)
        for t in threads:
            if len(t.rob) < t.rob_size and t.fetch_blocked_until < FOREVER:
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
    # stalled-window kernel

    def _reject_key(self, uop: Uop) -> str | None:
        """Which rejection counter a dispatch of ``uop`` would bump now.

        Mirrors the resource checks of the dispatch loop in
        :meth:`_fetch`, in order (FP IQ / int IQ, then LQ / SQ), for a
        thread whose ROB is not full.  ``None`` means the
        dispatch would *succeed* — the caller must not treat the thread
        as stalled.
        """
        opc = uop.opc
        params = self.params
        if opc is _FP_ALU or opc is _FP_MULT:
            return "iq" if self.fp_iq_used >= params.fp_iq_size else None
        if self.int_iq_used >= params.int_iq_size:
            return "iq"
        if opc is _LOAD and self.lq_used >= params.lq_size:
            return "lsq"
        if opc is _STORE and self.sq_used >= params.sq_size:
            return "lsq"
        return None

    def _stalled_window(self, deadline: int) -> bool:
        """Advance across windows where no front-end progress is possible.

        Reproduces the per-cycle observable effects of ticking every
        cycle — RNG draws, stall/rejection accounting, commit-pointer
        rotation, ``event_queue.now`` — exactly, then jumps the clock.
        Stays in stall mode across event batches: when a window ends
        because an event falls due, the events are pumped here (exactly
        what a tick would do first at that cycle) and the
        window re-proven from the post-event state, so long memory
        stalls cost one window derivation per event batch instead of a
        full tick per cycle.  A derivation is even *reused* across
        batches when the pumped events provably touched none of its
        inputs: every event-side mutator of fetch-visible state bumps a
        version counter (``_fe_version`` here, ``l2_miss_version`` on
        the hierarchy), so DRAM-internal batches — bus wake-ups,
        controller pumps, MSHR retries — cost one integer compare.
        Returns True when at least one cycle was replaced; the caller's
        loop handles whatever ended stall mode.

        Returns True when events due at the *current* cycle were fired
        here without that cycle being replaced: the caller must then
        tick the cycle immediately instead of running ``_maybe_skip``
        (which would observe post-event state a ticked cycle's skip
        check never sees; with events due now it never jumps anyway).
        """
        event_queue = self.event_queue
        heap = event_queue._heap
        run_until = event_queue.run_until
        threads = self.threads
        nthreads = len(threads)
        stalls = self.stall_cycles
        rejections = self.dispatch_rejections
        params = self.params
        icache_penalty = params.icache_miss_penalty
        fetch_threads = params.fetch_threads
        policy = self.fetch_policy
        rotate = type(policy) is RoundRobinPolicy
        reject_key = self._reject_key
        hierarchy = self.hierarchy
        next_sample = self._next_sample  # frozen: only ticks sample
        miss_rates = self._t_miss_rate
        rngs = self._t_rng

        # Cached derivation, valid while the combined version counter
        # matches (no event mutated fetch-visible state — both counters
        # are monotonic, so the sum is change-equivalent) and the clock
        # stays short of ``base_end`` (the first cycle at which a
        # *non-event* input — unblock, commit, sample — changes).
        seen_version = -1
        base_end = 0
        blocked_n = robfull_n = n_order = n_eligible = 0
        rej_iq = rej_lsq = 0
        attempts: list | None = None
        stochastic = False
        single_scan = scans = rotations = None

        while True:
            cycle0 = self.cycle
            pumped = False
            if cycle0 >= deadline:
                return False
            if heap and heap[0][0] <= cycle0:
                # A tick at cycle0 starts by firing these;
                # fire them now so the window is proven against the
                # post-event state (occupancies, finish times).
                run_until(cycle0)
                pumped = True
            version = self._fe_version + hierarchy.l2_miss_version
            if version != seen_version or cycle0 >= base_end:
                seen_version = -1
                window_end = deadline
                blocked_n = 0
                robfull_n = 0
                eligible = []
                for t in threads:
                    fbu = t.fetch_blocked_until
                    if fbu > cycle0:
                        blocked_n += 1
                        if fbu < FOREVER and fbu < window_end:
                            window_end = fbu  # unblocks: classes change
                    elif len(t.rob) >= t.rob_size:
                        robfull_n += 1
                    else:
                        eligible.append(t)
                    rob = t.rob
                    if rob:
                        finish = rob[0].finish
                        if finish is not None and finish < window_end:
                            window_end = finish  # commit becomes possible
                if not eligible:
                    return pumped  # _maybe_skip's regime, not ours
                if next_sample is not None and next_sample < window_end:
                    window_end = next_sample
                if window_end <= cycle0:
                    return pumped
                order = policy.order(eligible, self, cycle0)
                rej_iq = 0
                rej_lsq = 0
                attempts = []
                stochastic = False
                stalled = True
                for t in order:
                    uop = t.pending_uop
                    if uop is None:
                        # The thread would fetch a fresh µop whose
                        # resource needs we cannot know without
                        # consuming the stream.
                        stalled = False
                        break
                    key = reject_key(uop)
                    if key is None:
                        stalled = False  # dispatch would succeed
                        break
                    if key == "iq":
                        rej_iq += 1
                    else:
                        rej_lsq += 1
                    tid = t.thread_id
                    mr = miss_rates[tid]
                    if mr:
                        stochastic = True
                    attempts.append((t, mr, rngs[tid], key))
                if not stalled:
                    return pumped
                n_order = len(attempts)
                n_eligible = len(eligible)
                single_scan = scans = rotations = None
                if stochastic:
                    # Round-robin rotates thread priority with the
                    # cycle number; draw order within a cycle does not
                    # matter for the per-thread RNG streams, but the
                    # fetch-thread cap on a miss cycle binds by
                    # position, so the true per-rotation order is kept.
                    if rotate and n_order > 1:
                        rotations = [
                            sorted(
                                attempts,
                                key=lambda a, s=s: (
                                    (a[0].thread_id - s) % nthreads
                                ),
                            )
                            for s in range(nthreads)
                        ]
                        scans = [
                            [
                                (rnd, mr, j)
                                for j, (_t, mr, rnd, _key) in enumerate(rot)
                                if mr
                            ]
                            for rot in rotations
                        ]
                    else:
                        single_scan = [
                            (rnd, mr, j)
                            for j, (_t, mr, rnd, _key) in enumerate(attempts)
                            if mr
                        ]
                base_end = window_end
                seen_version = version
            window_end = base_end
            if heap and heap[0][0] < window_end:
                window_end = heap[0][0]
            if window_end <= cycle0:
                # An event at cycle0 was pumped above, so the head is
                # beyond cycle0; this window is simply empty.
                return pumped

            # --- replay the window's cycles ------------------------------
            # (No stochastic thread: nobody can miss the I-cache and
            # the window is pure arithmetic.)
            miss_cycle = -1
            if single_scan is not None and len(single_scan) == 1:
                # One stochastic stream: scan it thread-major in a
                # tight loop (the other attempts never draw).
                rnd1, mr1, miss_at = single_scan[0]
                k = cycle0
                while k < window_end and rnd1() >= mr1:
                    k += 1
                if k < window_end:
                    miss_cycle = k
                    att = attempts
            elif stochastic:
                for k in range(cycle0, window_end):
                    scan = (
                        single_scan
                        if single_scan is not None
                        else scans[k % nthreads]
                    )
                    miss_at = -1
                    for rnd, mr, j in scan:
                        if rnd() < mr:
                            miss_at = j
                            break
                    if miss_at >= 0:
                        miss_cycle = k
                        att = (
                            attempts
                            if single_scan is not None
                            else rotations[k % nthreads]
                        )
                        break
            if miss_cycle >= 0:
                # -- miss cycle: replay its bookkeeping exactly --
                unblock = miss_cycle + icache_penalty
                att[miss_at][0].fetch_blocked_until = unblock
                used = 1
                # Threads ahead of the miss attempted and failed.
                failed_keys = [att[j][3] for j in range(miss_at)]
                for j in range(miss_at + 1, n_order):
                    if used >= fetch_threads:
                        break
                    t2, mr2, rnd2, key2 = att[j]
                    if mr2 and rnd2() < mr2:
                        t2.fetch_blocked_until = unblock
                        used += 1
                    else:
                        failed_keys.append(key2)
                span = miss_cycle + 1 - cycle0
            else:
                span = window_end - cycle0

            # --- flush accounting for the replayed span ------------------
            # Miss-free cycles: every ordered thread attempts and is
            # rejected; eligible threads the policy gated out are "not
            # selected"; blocked / ROB-full threads accrue their
            # per-cycle disposition.  The miss cycle (if any) differs
            # only in who reached a dispatch attempt.
            plain = span - 1 if miss_cycle >= 0 else span
            stalls["fetch_blocked"] += span * blocked_n
            stalls["rob_full"] += span * robfull_n
            stalls["resource_full"] += plain * n_order
            stalls["not_selected"] += plain * (n_eligible - n_order)
            if rej_iq:
                rejections["iq"] += plain * rej_iq
            if rej_lsq:
                rejections["lsq"] += plain * rej_lsq
            if miss_cycle >= 0:
                stalls["resource_full"] += len(failed_keys)
                stalls["not_selected"] += n_eligible - len(failed_keys)
                for key2 in failed_keys:
                    rejections[key2] += 1
                # The replay itself just blocked the missing thread(s)
                # — a fetch-visible change no event-side counter saw.
                seen_version = -1
            self._commit_ptr = (self._commit_ptr + span) % nthreads
            new_cycle = cycle0 + span
            self.cycle = new_cycle
            event_queue.now = new_cycle - 1
            # Loop: if stall persists past window_end (event batch due,
            # miss blocked one thread, ...), the next iteration proves
            # and replays the next window; anything else returns.

    # ------------------------------------------------------------------
    # commit stage

    def _commit(self, cycle: int) -> None:
        """Retire up to ``commit_width`` finished ROB heads, visiting
        the threads round-robin from ``_commit_ptr``.

        Per thread the run of finished heads is popped in one loop and
        the thread's counters, its target check and the shared
        load/store-queue occupancies are updated once: a thread reaches
        its target in this cycle whether it is noticed after the µop
        that reached it or after the visit.
        """
        budget = self._commit_width
        start = self._commit_ptr
        loads = stores = 0
        for t in self._commit_orders[start]:
            rob = t.rob
            done = 0
            while done < budget and rob:
                head = rob[0]
                finish = head.finish
                if finish is None or finish > cycle:
                    break
                rob.popleft()
                done += 1
                opc = head.opc
                if opc is _LOAD:
                    loads += 1
                elif opc is _STORE:
                    stores += 1
            if done:
                t.committed += done
                if (
                    t.finish_cycle is None
                    and t.committed - t.warmup_committed >= t.target
                ):
                    t.finish_cycle = cycle
                    self._unfinished -= 1
                budget -= done
                if not budget:
                    break
        if loads:
            self.lq_used -= loads
        if stores:
            self.sq_used -= stores
        self._commit_ptr = (start + 1) % len(self._commit_orders)

    # ------------------------------------------------------------------
    # fetch / dispatch stage

    def _fetch(self, cycle: int) -> int:
        """Fetch, rename and dispatch for one cycle; returns the number
        of µops dispatched (the phase loop uses zero as the cue that a
        stalled window may have opened).

        Per thread in policy order: µops are taken from the stream
        until the fetch width is used, a shared resource (issue queue,
        load/store queue) has no room for the next one — it waits in
        ``pending_uop`` and nothing changes — the ROB fills, or a
        mispredicted branch redirects the front end.

        Bookkeeping is paid per thread visit, not per µop.  The shared
        occupancies (``int_iq_used``, ``fp_iq_used``, ``lq_used``,
        ``sq_used``) are read into locals once the policy has ordered
        the threads, and written back once before the return.  That is
        exact because nothing called in between reads or writes them
        (the sanitizer's ``iq-conservation`` check, run after every
        fetch stage, would see a lost update): dispatch issues
        at least ``frontend_latency`` cycles ahead, so no event it
        schedules fires before the return, and the one call that
        changes core state on the spot — ``_schedule_issue`` resolving
        a mispredicted branch — touches only ``fetch_blocked_until``
        and ``_fe_version``.  A change that calls out of the loop into
        anything that can fire an event or read an occupancy must write
        them back first.  A thread's sequence number is a local too,
        and its ``fetched``, ``unissued``, ``iq_int`` and ``iq_fp``
        take one ``+=`` each after its visit.  The stall dispositions
        are counted in locals and added once per call.
        """
        stalls = self.stall_cycles
        eligible = []
        blocked = rob_full = 0
        for t in self.threads:
            if t.fetch_blocked_until > cycle:
                blocked += 1
            elif len(t.rob) >= t.rob_size:
                rob_full += 1
            else:
                eligible.append(t)
        if blocked:
            stalls["fetch_blocked"] += blocked
        if rob_full:
            stalls["rob_full"] += rob_full
        if not eligible:
            return 0
        order = self.fetch_policy.order(eligible, self, cycle)
        (
            fetch_width,
            fetch_threads,
            icache_penalty,
            int_iq_size,
            fp_iq_size,
            lq_size,
            sq_size,
            frontend_latency,
        ) = self._fetch_params
        ready_lb = cycle + frontend_latency
        rejections = self.dispatch_rejections
        schedule_issue = self._schedule_issue
        predictors = self._predictors
        tracer = self.tracer
        miss_rates = self._t_miss_rate
        rngs = self._t_rng
        nexts = self._t_next
        ring_size = RING_SIZE
        int_iq_used = self.int_iq_used
        fp_iq_used = self.fp_iq_used
        lq_used = self.lq_used
        sq_used = self.sq_used
        fetched = 0
        threads_used = 0
        dispatched = 0
        resource_full = 0
        for t in order:
            if threads_used >= fetch_threads:
                break
            if fetched >= fetch_width:
                break
            tid = t.thread_id
            miss_rate = miss_rates[tid]
            if miss_rate and rngs[tid]() < miss_rate:
                t.fetch_blocked_until = cycle + icache_penalty
                if tracer is not None:
                    tracer.emit(
                        cycle, "fetch.icache_miss", "cpu.fetch", tid,
                        dur=icache_penalty,
                    )
                threads_used += 1
                continue
            stream_next = nexts[tid]
            rob = t.rob
            ring = t.ring
            seq = t.seq
            # The visit ends at the fetch width or when the ROB fills.
            limit = fetch_width - fetched
            room = t.rob_size - len(rob)
            if room < limit:
                limit = room
            taken = 0
            fp_taken = 0
            uop = t.pending_uop
            if uop is None:
                uop = stream_next()
            else:
                t.pending_uop = None
            while True:
                # Claim the µop's queue entries, or name the full one.
                opc = uop.opc
                key = None
                if opc is _FP_ALU or opc is _FP_MULT:
                    if fp_iq_used < fp_iq_size:
                        fp_iq_used += 1
                        fp_taken += 1
                    else:
                        key = "iq"
                elif int_iq_used >= int_iq_size:
                    key = "iq"
                elif opc is _LOAD:
                    if lq_used < lq_size:
                        lq_used += 1
                        int_iq_used += 1
                    else:
                        key = "lsq"
                elif opc is _STORE:
                    if sq_used < sq_size:
                        sq_used += 1
                        int_iq_used += 1
                    else:
                        key = "lsq"
                else:
                    int_iq_used += 1
                if key is not None:
                    rejections[key] += 1
                    t.pending_uop = uop
                    break
                if opc is not _BRANCH:
                    mispredicted = False
                elif predictors is None:
                    mispredicted = uop.mispredict
                else:
                    mispredicted = self._branch_mispredicted(t, uop)
                node = Inflight(tid, seq, opc, uop.addr, mispredicted, ready_lb)
                # Producers by backwards distance in the ring; one that
                # aged out of it (or lies before sequence 0) has long
                # finished and adds no wait.
                deps = 0
                lb = ready_lb
                dep1 = uop.dep1
                if dep1:
                    back = seq - dep1
                    producer = ring[back % ring_size]
                    if producer is not None and producer.seq == back:
                        finish = producer.finish
                        if finish is None:
                            deps = 1
                            waiters = producer.waiters
                            if waiters is None:
                                producer.waiters = [node]
                            else:
                                waiters.append(node)
                        elif finish > lb:
                            lb = finish
                dep2 = uop.dep2
                if dep2:
                    back = seq - dep2
                    producer = ring[back % ring_size]
                    if producer is not None and producer.seq == back:
                        finish = producer.finish
                        if finish is None:
                            deps += 1
                            waiters = producer.waiters
                            if waiters is None:
                                producer.waiters = [node]
                            else:
                                waiters.append(node)
                        elif finish > lb:
                            lb = finish
                if deps:
                    node.deps_left = deps
                if lb > ready_lb:
                    node.ready_lb = lb
                ring[seq % ring_size] = node
                seq += 1
                rob.append(node)
                taken += 1
                if mispredicted:
                    # Fetch stops until the branch resolves; its
                    # thread id, as the waiter, tells ``_resolve`` to
                    # reopen it after the refill penalty.
                    t.fetch_blocked_until = FOREVER
                    node.add_waiter(tid)
                    if tracer is not None:
                        tracer.emit(
                            cycle, "fetch.redirect", "cpu.fetch", tid,
                            args={"reason": "branch-mispredict"},
                        )
                    if not deps:
                        schedule_issue(node)
                    break  # redirect: nothing behind the branch is fetched
                if not deps:
                    schedule_issue(node)
                if taken >= limit:
                    break
                uop = stream_next()
            if taken:
                t.seq = seq
                t.fetched += taken
                t.unissued += taken
                t.iq_fp += fp_taken
                t.iq_int += taken - fp_taken
                fetched += taken
                threads_used += 1
                dispatched += 1
            else:
                # Only a full shared resource ends a visit before the
                # first µop.
                resource_full += 1
        self.int_iq_used = int_iq_used
        self.fp_iq_used = fp_iq_used
        self.lq_used = lq_used
        self.sq_used = sq_used
        if resource_full:
            stalls["resource_full"] += resource_full
        # Eligible threads the policy left out, the fetch-thread cap or
        # width cut off, or the I-cache missed on.
        not_selected = len(eligible) - dispatched - resource_full
        if not_selected:
            stalls["not_selected"] += not_selected
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
        if opc is _FP_ALU or opc is _FP_MULT:
            lane = 1
            width = self._fp_issue_width
        else:
            lane = 0
            width = self._int_issue_width
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
            callback=partial(self._resolve, node),
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
