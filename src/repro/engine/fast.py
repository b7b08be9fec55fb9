"""The fast execution engine: a stalled-window kernel and a stream memo.

:class:`FastSMTCore` *is* :class:`repro.cpu.core.SMTCore` — the same
fetch, dispatch, issue, resolve and commit code, the same phase loop —
plus the two strategies this module owns and nothing else:

**The stalled-window kernel.**  Profiling the tick-every-cycle loop on
the paper's memory-bound mixes shows 81-90% of ticked cycles fetch
nothing: every eligible thread holds a µop that a full shared resource
(issue queue or load/store queue) keeps rejecting, while the DRAM
system grinds through the misses that will eventually free those
resources.  Ticking still pays the full cycle each time — commit walk,
eligibility scan, policy sort, dispatch attempt — only to change
almost nothing.  When a cycle dispatches nothing the phase loop calls
:meth:`FastSMTCore._stalled_window`, which proves that, until some
future cycle ``W``, no per-cycle observable can change:

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
and replayed by index on repeat runs (see "shared µop streams" below).

The ``reference`` engine is :class:`SMTCore` itself — no kernel, no
memo — so ``repro.engine.oracle`` and the ``engine-diff`` CI lane
compare kernel + memo against tick-every-cycle + fresh generation, and
that comparison is what enforces bit-identity.
"""

from __future__ import annotations

from typing import Any

from repro.cpu.core import _FP_ALU, _FP_MULT, _LOAD, _STORE, SMTCore
from repro.cpu.fetch import RoundRobinPolicy
from repro.cpu.thread import FOREVER


# ----------------------------------------------------------------------
# shared µop streams
#
# A SyntheticStream's output is a pure function of its constructor
# inputs: the (singleton) AppProfile, thread id, scale, and the exact
# initial RNG state.  Experiment sweeps re-run identical streams many
# times — figure 10 replays every mix and every single-thread baseline
# once per scheduler — so the fast engine memoizes generated µops
# process-wide, keyed by those constructor inputs.  Uop objects are
# immutable after construction (the core wraps them in Inflight nodes,
# and the generator already hands out one shared object per distinct
# compute µop), so the cached objects are shared directly; a repeat run
# replays the recorded prefix by list index and only falls back to the
# original generator when it runs longer than any previous run with
# the same key.

#: key -> [uops_so_far, backing_generator]; the backing generator is
#: the *first* stream seen for the key, kept so the list can be
#: extended from its exact mid-stream state.
_STREAM_MEMO: dict = {}

#: Stop admitting new streams once the memo holds this many µops;
#: existing entries keep serving.  Measured as peak RSS with the cap
#: at 0 against the default (scale 8, seed 2005, CPython 3.11 on
#: x86-64), a memoized µop costs 42 B on the 2/4/8-ILP mixes and 77 B
#: on figure 10's MEM mixes at 2,400 instructions (107 B and 128 B
#: when every compute µop was its own object), so the cap bounds the
#: memo at roughly 85-155 MB.
_STREAM_MEMO_CAP = 2_000_000


class _SharedStream:
    """Replay view over a memoized µop stream (see above)."""

    __slots__ = ("_entry", "_uops", "_pos", "_backing", "profile")

    def __init__(self, entry: tuple[list[Any], Any], backing: Any) -> None:
        self._entry = entry
        self._uops = entry[0]
        self._pos = 0
        self._backing = backing
        self.profile = backing.profile

    def next_uop(self) -> Any:
        pos = self._pos
        uops = self._uops
        if pos >= len(uops):
            uops.append(self._entry[1].next_uop())
        self._pos = pos + 1
        return uops[pos]

    def footprint(self) -> Any:
        # Region layout is fixed at construction, identical for every
        # stream instance with this memo key.
        return self._backing.footprint()


def _shared_stream(stream: Any) -> Any:
    """Wrap ``stream`` in a memoized replay view (or pass through)."""
    try:
        # AppProfile is a frozen dataclass: hashing by value keeps the
        # key deterministic (no id()) and still exact — two streams
        # with equal constructor inputs are behaviorally identical.
        key = (
            stream.profile,
            stream.thread_id,
            stream.scale,
            stream._rng.getstate(),
        )
        hash(key)
    except (AttributeError, TypeError):  # trace/custom streams: no memo
        return stream
    entry = _STREAM_MEMO.get(key)
    if entry is None:
        if sum(len(e[0]) for e in _STREAM_MEMO.values()) >= _STREAM_MEMO_CAP:
            return stream
        entry = ([], stream)
        _STREAM_MEMO[key] = entry
    return _SharedStream(entry, stream)


class FastSMTCore(SMTCore):
    """:class:`SMTCore` plus the stalled-window kernel and memoized
    streams.

    Every per-µop method, the phase loop, statistics and results are
    inherited unchanged; only how the clock crosses stalled stretches
    and where µops come from differ, and both differences are
    observationally null (see the module docstring and
    ``docs/performance.md`` for the proof obligations).
    """

    def __init__(
        self,
        params: Any,
        event_queue: Any,
        hierarchy: Any,
        fetch_policy: Any,
        workloads: list[tuple[str, Any]],
        *args: Any,
        **kwargs: Any,
    ) -> None:
        # Wrapped *before* the base class builds its per-thread
        # bound-method tables, so those bind the replay views.
        super().__init__(
            params,
            event_queue,
            hierarchy,
            fetch_policy,
            [(name, _shared_stream(stream)) for name, stream in workloads],
            *args,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # stalled-window kernel

    def _reject_key(self, uop: Any) -> str | None:
        """Which rejection counter a dispatch of ``uop`` would bump now.

        Mirrors the resource checks of the dispatch loop in
        :meth:`SMTCore._fetch`, in order (FP IQ / int IQ, then LQ /
        SQ), for a thread whose ROB is not full.  ``None`` means the
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

        Reproduces the per-cycle observable effects of the reference
        loop — RNG draws, stall/rejection accounting, commit-pointer
        rotation, ``event_queue.now`` — exactly, then jumps the clock.
        Stays in stall mode across event batches: when a window ends
        because an event falls due, the events are pumped here (exactly
        what the reference tick would do first at that cycle) and the
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
        (which would observe post-event state the reference's skip
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
                # The reference tick at cycle0 starts by firing these;
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
