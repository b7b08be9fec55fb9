"""The sampled execution engine: detailed windows + functional fast-forward.

SimPoint-style statistical sampling for the growth path the ROADMAP's
``[speed]`` item names: instead of simulating every instruction cycle
by cycle, :class:`SampledSMTCore` alternates

* **detailed windows** — full cycle-accurate simulation, reusing
  :class:`~repro.engine.fast.FastSMTCore`'s stalled-window kernel
  unchanged, during which CPI, DRAM traffic, and stall accounting are
  *measured*; and
* **fast-forward regions** — every thread's µop stream is advanced
  functionally: caches, TLBs, and DRAM row buffers stay warm through
  the hierarchy's stat-less ``warm_access``/``warm_line`` path and the
  branch predictor keeps training, while the per-cycle pipeline, bus,
  and scheduler work is skipped entirely.  Simulated time does **not**
  advance during fast-forward (the region is timeless), which keeps the
  event queue, issue records, and outstanding MSHR entries coherent
  with the next detailed window.

Estimation mirrors the reference's measurement semantics (a *crossing*
estimator): each thread's nominal stream progress — window commits,
run-ahead included, plus fast-forward skips — accumulates until it
crosses the instruction budget, and the estimated cycle total at that
crossing is the thread's result, exactly as the reference records
``finish_cycle``.  Threads advance through fast-forward regions at
their own estimated rates (mirroring real run-ahead), and each
region's cycles are charged at the symmetric-neighborhood mean CPI of
the surrounding detailed windows, with a DRAM-miss-rate regression
adjustment once enough windows exist.  The per-window CPI population
yields a confidence interval via
:class:`repro.experiments.repeat.MetricSummary`'s machinery.

Sampled results are therefore **estimates**: deterministic (same seed
and sampling parameters give byte-identical output) but *not*
bit-identical to the reference/fast engines, and excluded from the
bit-identity contract.  The engine-diff oracle checks them in its
bounded-error mode instead (``repro engine-diff --baseline reference
--candidate sampled --tolerance ...``); see ``docs/performance.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigError
from repro.cpu.core import _BRANCH, _LOAD, _STORE
from repro.cpu.stats import CoreResult, ThreadResult
from repro.engine.fast import FastSMTCore


@dataclass(frozen=True)
class SamplingParams:
    """Knobs of the sampled engine's window schedule.

    The schedule is periodic: ``detail_instructions`` measured in full
    detail, then ``ff_instructions`` fast-forwarded, then
    ``window_warmup`` detailed-but-discarded instructions to refill the
    pipeline/queues before the next measured window.  The global
    warm-up phase is handled the same way: all but its last
    ``window_warmup`` instructions are fast-forwarded.

    ``ff_instructions=0`` degenerates to full detail in windowed form
    (estimates equal measurements exactly).  These parameters change
    the (estimated) results, so they are part of the config cache key
    whenever the sampled engine is selected.
    """

    #: Instructions measured per detailed window, per thread.  Window
    #: CPI in memory-bound mixes is heavy-tailed (rare long-stall
    #: bursts), so short windows systematically under-sample the tail;
    #: 2000 is the smallest size that measured unbiased in practice.
    detail_instructions: int = 2000
    #: Instructions fast-forwarded between windows, for the pacing
    #: (slowest-remaining) thread; other threads advance through the
    #: same estimated wall time at their own rates.
    ff_instructions: int = 18000
    #: Detailed-but-discarded instructions after each fast-forward
    #: region (pipeline/queue refill before measurement resumes).
    window_warmup: int = 1000
    #: Fast-forward gaps are charged at the mean CPI of up to this many
    #: detailed windows on *each* side (symmetric, so a linear drift in
    #: the system's CPI cancels); larger values damp per-window noise
    #: at the cost of locality.
    gap_smoothing: int = 2

    def __post_init__(self) -> None:
        if self.detail_instructions < 1:
            raise ConfigError(
                f"detail_instructions must be >= 1, "
                f"got {self.detail_instructions}"
            )
        if self.ff_instructions < 0:
            raise ConfigError(
                f"ff_instructions must be >= 0, got {self.ff_instructions}"
            )
        if self.window_warmup < 0:
            raise ConfigError(
                f"window_warmup must be >= 0, got {self.window_warmup}"
            )
        if self.gap_smoothing < 1:
            raise ConfigError(
                f"gap_smoothing must be >= 1, got {self.gap_smoothing}"
            )

    def cache_key(self) -> tuple:
        return (
            self.detail_instructions,
            self.ff_instructions,
            self.window_warmup,
            self.gap_smoothing,
        )


class SampledSMTCore(FastSMTCore):
    """Statistically sampled :class:`~repro.cpu.core.SMTCore`.

    Inherits :class:`FastSMTCore`'s construction and detailed-window
    machinery wholesale (detailed windows run the same cycle-skipping
    kernel); only :meth:`run` differs, replacing the single measured
    phase with the window/fast-forward schedule and extrapolation.
    """

    def __init__(self, *args: Any, sampling: SamplingParams | None = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.sampling = sampling if sampling is not None else SamplingParams()

    # ------------------------------------------------------------------
    # functional fast-forward

    #: Instructions each thread advances per round of the interleaved
    #: fast-forward loop.  Fine enough that shared-cache LRU order
    #: reflects the real temporal interleaving of the threads (warming
    #: one thread's whole region at a time would leave its entire
    #: working set most-recent and make it race in the next window),
    #: coarse enough to keep the loop overhead negligible.
    _FF_CHUNK = 64

    #: Minimum window population before the gap-CPI predictor trusts
    #: an OLS slope over the flat symmetric mean (see :meth:`run`).
    _REGRESSION_MIN_WINDOWS = 8

    def _fast_forward(self, counts: list[int]) -> list[int]:
        """Advance thread ``i`` by ``counts[i]`` instructions, timelessly.

        Returns the per-thread count of loads that missed every cache
        level and reached DRAM — the covariate of the gap-CPI
        predictor (see :meth:`run`).

        Consumes the threads' µop streams in program order (starting
        with any µop the last detailed window left pending),
        interleaved proportionally in chunks (see ``_FF_CHUNK``) so
        shared cache/row-buffer state sees the threads' accesses in
        realistic relative order — a fast thread's stream drains
        correspondingly faster than a slow one's through the whole
        region, just as it would under real execution.  Loads/stores
        warm the data-side hierarchy and resolved branches train the
        predictor/BTB.  No cycles pass, no events fire, no statistics
        are recorded.
        """
        misses = [0] * len(counts)
        total = max(counts, default=0)
        if total <= 0:
            return misses
        nexts = self._t_next
        warm = self.hierarchy.warm_access
        predictors = self._predictors
        btbs = self._btbs
        rounds = -(-total // self._FF_CHUNK)
        plan = []
        for t in self.threads:
            tid = t.thread_id
            plan.append([
                tid,
                nexts[tid],
                predictors[tid] if predictors is not None else None,
                btbs[tid] if btbs is not None else None,
                t.pending_uop,
                0,  # instructions consumed so far
            ])
        for r in range(1, rounds + 1):
            for slot, st in enumerate(plan):
                goal = counts[slot] * r // rounds
                step = goal - st[5]
                if step <= 0:
                    continue
                tid, stream_next, predictor, btb, uop, _ = st
                for _ in range(step):
                    if uop is None:
                        uop = stream_next()
                    opc = uop.opc
                    if opc is _LOAD:
                        if warm(uop.addr, tid):
                            misses[slot] += 1
                    elif opc is _STORE:
                        # Write-allocate: a store missing every level
                        # fetches its line from DRAM just like a load,
                        # so it joins the region's DRAM-miss tally.
                        if warm(uop.addr, tid, write=True):
                            misses[slot] += 1
                    elif (
                        predictor is not None and opc is _BRANCH and uop.pc
                    ):
                        predictor.update(uop.pc, uop.taken)
                        if uop.taken:
                            btb.lookup_and_update(uop.pc)
                    uop = None
                st[4] = uop
                st[5] = goal
        for t, st in zip(self.threads, plan):
            t.pending_uop = st[4]
        return misses

    # ------------------------------------------------------------------
    # public driver

    def run(
        self,
        instructions_per_thread: int,
        warmup_instructions: int = 0,
        max_cycles: int = 1_000_000_000,
    ) -> CoreResult:
        """Estimate the full run from sampled detailed windows.

        Mirrors :meth:`SMTCore.run`'s result shape: per-thread
        ``cycles`` (and the core-wide total) are measured cycles plus
        the extrapolated cost of the fast-forwarded instructions at the
        preceding window's CPI; ``dram_accesses`` are the measured
        window traffic plus the warm-path load misses observed while
        fast-forwarding (each is a load that missed every cache level,
        i.e. would have gone to DRAM in the timed model).
        ``extra["sampling"]`` records the window schedule and the CPI
        confidence interval.
        """
        # Local import: repeat -> runner -> config -> engine package
        # would otherwise be circular at module-import time.
        from repro.experiments.repeat import MetricSummary

        if instructions_per_thread < 1:
            raise ConfigError("instructions_per_thread must be >= 1")
        p = self.sampling
        detail = p.detail_instructions
        ff = p.ff_instructions
        wwarm = p.window_warmup

        threads = self.threads
        n = len(threads)
        budget = instructions_per_thread
        # Per-thread CPI estimates (commits per wall cycle, inverted),
        # refreshed by every detailed window; they set the *relative
        # rates* at which the threads' streams advance through
        # fast-forward regions.  In real execution every thread runs
        # continuously, so while the slowest thread covers a region's
        # nominal instructions, a faster thread covers proportionally
        # more of its own stream (the reference's warm-up run-ahead is
        # exactly this effect); skipping all streams in lock-step would
        # measure every later window at badly mis-aligned positions.
        cpi_est = [1.0] * n

        if warmup_instructions:
            if ff > 0:
                # Fast-forward the bulk of the warm-up (it exists to
                # warm caches/row buffers, exactly what the functional
                # path does).  A short detailed probe first establishes
                # the threads' relative rates, then the skip advances
                # the slowest thread to the warm tail and the others
                # proportionally further; the last window_warmup
                # instructions run in detail to refill the pipeline.
                tail = min(warmup_instructions, wwarm)
                probe = min(detail, max(0, warmup_instructions - tail))
                probe_commits = [0] * n
                if probe:
                    c0 = self.cycle
                    committed0 = [t.committed for t in threads]
                    self._run_phase(probe, max_cycles)
                    wall = max(1, self.cycle - c0)
                    probe_commits = [
                        max(1, t.committed - committed0[i])
                        for i, t in enumerate(threads)
                    ]
                    cpi_est = [wall / c for c in probe_commits]
                slow = max(range(n), key=lambda i: cpi_est[i])
                skip = warmup_instructions - tail - probe_commits[slow]
                if skip > 0:
                    wall_skip = skip * cpi_est[slow]
                    self._fast_forward(
                        [
                            max(0, round(wall_skip / cpi_est[i]))
                            for i in range(n)
                        ]
                    )
                if tail:
                    self._run_phase(tail, max_cycles)
            else:
                self._run_phase(warmup_instructions, max_cycles)
            self.hierarchy.reset_stats()

        base = self._measurement_base()
        # Crossing estimator.  The reference measures thread i over its
        # *own* first-``budget``-commits interval — a transient average
        # (the simulated system drifts as footprints grow), so a
        # sampled estimate must preserve that interval structure, not
        # average over the whole run.  We therefore track each thread's
        # nominal stream progress (window commits — run-ahead included,
        # those are real budget instructions — plus fast-forward skips)
        # and accumulate estimated cycles until progress crosses the
        # budget; the cycle total at the crossing *is* the thread's
        # cycles estimate, exactly as the reference records
        # ``finish_cycle`` at its target crossing.  Fast-forward gaps
        # are charged at the mean of the surrounding two windows' CPIs
        # (centered extrapolation cancels the first-order drift a
        # trailing-window extrapolation would systematically lag).
        progress = [0] * n         # nominal instructions advanced
        walls = [0.0] * n          # window cycles up to the crossing
        crossed = [False] * n
        commit_acc = [0] * n       # pre-crossing window commits
        dram_acc = [0] * n         # pre-crossing window DRAM loads
        ff_dram = [0.0] * n        # warm-path DRAM misses across gaps
        win_cpis: list[list[float]] = []  # per window: per-thread CPI
        win_x: list[list[float]] = []     # per window: DRAM loads/instr
        win_pos: list[list[int]] = []     # per window: progress at start
        # Gap charging is deferred to the end of the run: a gap's
        # nominal instructions advance ``progress`` immediately (so
        # window targets see the true remainder), but its cycles are
        # charged only once the whole window-CPI series is known, at
        # the mean CPI of up to ``gap_smoothing`` windows on each side.
        # Each record is (index of the window after the gap, per-thread
        # instructions to charge — zero for already-crossed threads —
        # and the per-thread warm DRAM-miss rate across the region).
        gap_recs: list[tuple[int, list[int], list[float]]] = []
        window_cpis: list[float] = []  # aggregate wall CPI per window
        measured = 0               # scheduled window instructions/thread
        skipped = 0                # gap instructions (pacing thread)
        reached_all = True

        ratio = [1.0] * n  # last window's commits per target instruction
        while not all(crossed):
            r_max = max(
                budget - progress[i] for i in range(n) if not crossed[i]
            )
            detail_w = min(detail, r_max)
            # Per-thread targets: a thread whose remaining budget is
            # within reach of this window (predicted from its last
            # run-ahead ratio, with slack) gets exactly that remainder
            # as its target, so its finish_cycle records the *exact*
            # budget-crossing cycle — no interpolation error.  Distant
            # and already-crossed threads run at the window target.
            targets = [detail_w] * n
            for i in range(n):
                if crossed[i]:
                    continue
                left = budget - progress[i]
                if left <= detail_w or left <= 1.5 * ratio[i] * detail_w:
                    targets[i] = left
            win_pos.append(list(progress))
            c0 = self.cycle
            committed0 = [t.committed for t in threads]
            dram0 = dict(self.hierarchy._dram_loads_per_thread)
            self._target_override = targets
            try:
                self._run_phase(detail_w, max_cycles)
            finally:
                self._target_override = None
            wall = max(1, self.cycle - c0)
            c1 = self.cycle
            dram1 = self.hierarchy._dram_loads_per_thread
            commits = [
                max(1, t.committed - committed0[i])
                for i, t in enumerate(threads)
            ]
            drams = [
                dram1.get(t.thread_id, 0) - dram0.get(t.thread_id, 0)
                for t in threads
            ]
            win_cpis.append([wall / c for c in commits])
            win_x.append(
                [drams[i] / commits[i] for i in range(n)]
            )
            tail_rows = win_cpis[-min(p.gap_smoothing, len(win_cpis)):]
            cpi_est = [
                sum(row[i] for row in tail_rows) / len(tail_rows)
                for i in range(n)
            ]
            window_cpis.append(wall / detail_w)
            measured += detail_w
            if any(t.finish_cycle is None for t in threads):
                reached_all = False  # hit max_cycles mid-window
            # Settle this window's commits.
            for i in range(n):
                if crossed[i]:
                    continue
                left = budget - progress[i]
                t = threads[i]
                if commits[i] >= left:
                    if targets[i] == left and t.finish_cycle is not None:
                        # Target was the exact remainder: finish_cycle
                        # IS the crossing cycle.
                        walls[i] += t.finish_cycle - c0
                    else:
                        # Crossed via run-ahead past a window target
                        # (the reach prediction missed): finish_cycle
                        # marks the target commit, the remainder is
                        # interpolated over the run-ahead tail.
                        f = (
                            t.finish_cycle
                            if t.finish_cycle is not None
                            else c1
                        )
                        ahead = commits[i] - targets[i]
                        walls[i] += (f - c0) + (
                            (c1 - f) * (left - targets[i]) / ahead
                            if ahead
                            else 0.0
                        )
                    progress[i] = budget
                    crossed[i] = True
                else:
                    walls[i] += wall
                    progress[i] += commits[i]
                    ratio[i] = commits[i] / detail_w
                commit_acc[i] += commits[i]
                dram_acc[i] += drams[i]
            if all(crossed) or not reached_all:
                break
            # The pacing thread — the one with the most estimated wall
            # time left — defines the gap: it skips ff instructions
            # (less one full detailed window, so it always ends inside
            # a measured window) and the gap's wall duration is that
            # skip at its estimated CPI.  Every other thread's stream
            # advances through the same wall duration at its own rate.
            pace = max(
                (i for i in range(n) if not crossed[i]),
                key=lambda i: (budget - progress[i]) * cpi_est[i],
            )
            ff_w = min(ff, max(0, budget - progress[pace] - detail))
            if not ff_w:
                continue
            wall_gap = ff_w * cpi_est[pace]
            counts = [
                max(0, round(wall_gap / cpi_est[i])) for i in range(n)
            ]
            counts[pace] = ff_w
            ff_misses = self._fast_forward(counts)
            gxs = [
                ff_misses[i] / counts[i] if counts[i] else 0.0
                for i in range(n)
            ]
            skipped += ff_w
            warm_commits = [0] * n
            if wwarm:
                # Refill the pipeline/queues in detail, discarded:
                # absorbs the burst-commit of pre-fast-forward ROB
                # contents and rebuilds queue contention before
                # measurement resumes.  Its commits are real budget
                # instructions, so they join the gap's nominal length.
                committed0 = [t.committed for t in threads]
                self._run_phase(wwarm, max_cycles)
                if any(t.finish_cycle is None for t in threads):
                    reached_all = False
                    break
                warm_commits = [
                    t.committed - committed0[i]
                    for i, t in enumerate(threads)
                ]
            glens = [0] * n
            for i in range(n):
                if crossed[i]:
                    continue
                g = counts[i] + warm_commits[i]
                left = budget - progress[i]
                if g >= left:
                    # The crossing falls inside this gap: charge only
                    # the remainder.
                    glens[i] = left
                    progress[i] = budget
                    crossed[i] = True
                else:
                    glens[i] = g
                    progress[i] += g
                # Gap DRAM traffic: the warm path already counted each
                # all-levels load miss; prorate by the charged fraction
                # so instructions past the crossing don't count (the
                # reference stops a thread's tally at its crossing).
                ff_dram[i] += ff_misses[i] * (
                    glens[i] / max(1, counts[i] + warm_commits[i])
                )
            gap_recs.append((len(win_cpis), glens, gxs))

        # Charge every gap at a symmetric-neighborhood mean CPI with a
        # miss-rate regression adjustment.  A gap between windows w-1
        # and w starts from, per thread, the mean CPI over windows
        # [w-k, w+k) with k clamped to what exists on both sides —
        # symmetric, so a linear drift in CPI cancels; k>1 damps
        # single-window noise, which a gap (typically several windows
        # long) would otherwise amplify.  The mean is then shifted by
        # the thread's fitted CPI-per-DRAM-miss-rate slope times how
        # far the gap's own (functionally warmed) miss rate sits from
        # the neighborhood's: window-CPI fluctuations in memory-bound
        # mixes are mostly miss-rate driven, and the warm path observes
        # the gap's miss rate directly, so the regression explains
        # variance a flat mean would turn into estimation error.
        k_max = p.gap_smoothing
        n_win = len(win_cpis)
        charged = [0.0] * n
        # The slope fit needs a real population behind it: on a handful
        # of windows OLS chases noise and the "adjustment" amplifies
        # exactly the fluctuations the symmetric mean damps.
        slopes = [0.0] * n
        for i in range(n):
            if n_win < self._REGRESSION_MIN_WINDOWS:
                break
            xs = [row[i] for row in win_x]
            ys = [row[i] for row in win_cpis]
            mx = sum(xs) / n_win
            my = sum(ys) / n_win
            vx = sum((x - mx) ** 2 for x in xs)
            if vx > 0.0:
                slopes[i] = (
                    sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / vx
                )
        for w, glens, gxs in gap_recs:
            k = min(k_max, w, n_win - w)
            lo, hi = (w - k, w + k) if k else (max(0, w - k_max), w)
            span = range(lo, hi)
            for i in range(n):
                if glens[i]:
                    mean_y = sum(win_cpis[j][i] for j in span) / len(span)
                    mean_x = sum(win_x[j][i] for j in span) / len(span)
                    pred = mean_y + slopes[i] * (gxs[i] - mean_x)
                    ys = [row[i] for row in win_cpis]
                    # Guard extrapolation: a gap should not be charged
                    # far outside the observed window-CPI range.
                    pred = min(max(pred, 0.5 * min(ys)), 1.5 * max(ys))
                    charged[i] += glens[i] * pred

        # Window-level diagnostics, kept for tests and tooling.
        self.win_cpis = win_cpis
        self.win_pos = win_pos

        snapshot = self.hierarchy.snapshot()
        results = []
        for i, t in enumerate(threads):
            if crossed[i]:
                committed = budget
            else:  # hit max_cycles: report what was actually observed
                committed = min(progress[i], budget)
            results.append(
                ThreadResult(
                    thread_id=t.thread_id,
                    app_name=t.app_name,
                    committed=committed,
                    cycles=max(1, round(walls[i] + charged[i])),
                    dram_accesses=round(dram_acc[i] + ff_dram[i]),
                )
            )
        # The run ends when the slowest thread crosses its budget; the
        # reference loop notices completion one cycle after the final
        # commit, so a finished run reports last-crossing + 1.
        total_cycles = max(r.cycles for r in results) + (1 if reached_all else 0)
        summary = MetricSummary("window_cpi", tuple(window_cpis))
        nw = len(window_cpis)
        ci95_rel = (
            1.96 * summary.stdev / math.sqrt(nw) / summary.mean
            if nw > 1 and summary.mean
            else 0.0
        )
        return self._result(
            base,
            total_cycles,
            results,
            reached_all,
            sampling={
                "windows": nw,
                "detail_instructions": detail,
                "ff_instructions": ff,
                "window_warmup": wwarm,
                "gap_smoothing": p.gap_smoothing,
                "measured_instructions": measured,
                "measured_fraction": measured / max(1, measured + skipped),
                "cpi_mean": summary.mean,
                "cpi_stdev": summary.stdev,
                "cpi_ci95_rel": ci95_rel,
            },
        )
