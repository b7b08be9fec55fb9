"""The four workloads: set-up, the timed body, and the untimed checks.

Each workload is one class with the same four steps, driven by
``bench/run.py`` inside a fresh child process per pass:

``setup(seed, smoke)``
    everything a user pays before the first timed operation that is
    *not* the work itself: imports, input generation from the seed,
    server/store start.  Counted in ``setup_s``.
``run(tracer)``
    the timed body.  Only generated inputs reach the program
    (``SystemConfig(seed=...)``, request traces); the seed itself never
    does.  One load-generating thread, closed loop.
``finish()``
    collects results and runs the correctness checks, outside the timed
    region and with the tracer already removed.
``teardown()``
    stops whatever ``setup`` started.

``repro`` is imported inside each ``setup`` on purpose: a pass imports
only what its journey needs, so ``setup_s`` and ``peak_rss_mb`` of
``dram_direct_rw`` do not carry the service stack.

Budgets are sized so one pass takes roughly 5-10 s of host CPU here
and several passes fit the driver's ``--seconds`` window; ``--smoke``
divides budgets and request counts by ten.

Full-system workloads start with prewarmed caches (``build_system``
calls ``prewarm``); ``dram_direct_rw`` starts with every DRAM row
closed.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import random
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"

#: EXPERIMENTS.md, figure 10: the paper's weighted speedup over FCFS on
#: the MEM mixes for the three thread-aware schemes.
_PAPER_FIG10 = {
    ("2-MEM", "request-based"): 1.298, ("4-MEM", "request-based"): 1.074,
    ("8-MEM", "request-based"): 1.035, ("2-MEM", "rob-based"): 1.140,
    ("4-MEM", "rob-based"): 1.026, ("8-MEM", "rob-based"): 1.025,
    ("2-MEM", "iq-based"): 1.259, ("4-MEM", "iq-based"): 1.220,
    ("8-MEM", "iq-based"): 1.018,
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class Workload:
    """Shared bookkeeping; see the module docstring for the steps."""

    name = ""

    def __init__(self) -> None:
        #: Host latency of each operation, ms.
        self.op_ms: list[float] = []
        #: Operations and checks attempted / failed, and which failed.
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Simulated kilo-operations and the CPU seconds that produced
        #: them (None: the whole pass).
        self.work_k = 0.0
        self.work_cpu_s: float | None = None
        #: Simulated counters for the per-layer table.
        self.sim: dict[str, float] = {}
        self.sim_stats_digest = ""

    def check(self, what: str, passed: bool) -> None:
        """One operation outcome or invariant; a violation is a failure."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(what)

    def teardown(self) -> None:
        pass

    # -- shared helpers for the full-system workloads ------------------

    def _account_results(self, results) -> None:
        """Fold simulated MixResults into counters, checks and digest."""
        rows = []
        totals = dict.fromkeys((
            "cpu.sim_cycles", "cpu.instr_committed", "cache.loads",
            "cache.stores", "cache.mshr_merges", "cache.mshr_rejections",
            "dram.reads", "dram.writes",
        ), 0)
        row_hits = row_total = latency = queue_delay = 0
        rates = {"l1d": [], "l2": [], "l3": []}
        for result in results:
            core, snap, dram = result.core, result.hierarchy, result.dram
            # Baselines carry their stretched budget in their own config.
            budget = result.config.instructions_per_thread
            self.check(
                f"{'+'.join(result.apps)}/{result.config.scheduler}"
                f"/{result.config.fetch_policy}: all threads reached budget",
                core.reached_all_targets
                and all(t.committed >= budget for t in core.threads),
            )
            totals["cpu.sim_cycles"] += core.cycles
            totals["cpu.instr_committed"] += core.total_committed
            totals["cache.loads"] += snap.loads
            totals["cache.stores"] += snap.stores
            totals["cache.mshr_merges"] += snap.mshr_merges
            totals["cache.mshr_rejections"] += snap.mshr_rejections
            rates["l1d"].append(snap.l1d_hit_rate)
            rates["l2"].append(snap.l2_hit_rate)
            rates["l3"].append(snap.l3_hit_rate)
            row = [
                result.apps, result.config.scheduler,
                result.config.fetch_policy, core.cycles,
                [(t.committed, t.cycles, t.dram_accesses)
                 for t in core.threads],
                snap.loads, snap.stores, snap.dram_reads_issued,
                snap.mshr_merges, snap.mshr_rejections,
            ]
            if dram is not None:
                totals["dram.reads"] += dram.reads
                totals["dram.writes"] += dram.writes
                row_hits += dram.row_buffer.hits
                row_total += dram.row_buffer.total
                latency += dram.read_latency_sum
                queue_delay += dram.read_queue_delay_sum
                row += [dram.reads, dram.writes, dram.row_buffer.hits,
                        dram.read_latency_sum, dram.read_queue_delay_sum]
            rows.append(row)
        reads = totals["dram.reads"]
        self.sim.update(totals)
        self.sim.update({
            f"cache.{level}_hit_rate": statistics.fmean(values)
            for level, values in rates.items() if values
        })
        self.sim.update({
            "dram.row_hit_rate": row_hits / row_total if row_total else 0.0,
            "dram.avg_read_latency_cycles": latency / reads if reads else 0.0,
            "dram.avg_read_queue_delay_cycles": (
                queue_delay / reads if reads else 0.0
            ),
        })
        self.sim_stats_digest = _digest(rows)

    def _check_figure(self, figure) -> None:
        fcfs = figure.headers.index("fcfs")
        self.check(
            "figure rows finite, FCFS column exactly 1.0",
            all(
                row[fcfs] == 1.0
                and all(math.isfinite(v) for v in row[1:])
                for row in figure.rows
            ),
        )

    def check_oracle(self) -> None:
        """One engine-oracle spot check per run (first pass only)."""
        from repro.engine.oracle import compare_engines
        from repro.experiments.config import SystemConfig
        from repro.workloads.mixes import MIXES

        report = compare_engines(
            SystemConfig(scale=8, instructions_per_thread=1000,
                         warmup_instructions=250, seed=self.seed),
            MIXES["2-MEM"].apps,
        )
        self.check("engine oracle: 2-MEM reference == fast",
                   not report.divergences)


def _fig_config(seed: int, smoke: bool):
    from repro.experiments.config import SystemConfig

    budget = 60 if smoke else 600
    return SystemConfig(
        scale=8, instructions_per_thread=budget,
        warmup_instructions=budget // 4, seed=seed,
    )


class Fig10Cold(Workload):
    """ROADMAP's first journey: a cold ``repro fig10``.

    ``figure10`` over all six mixes and six schedulers plus the
    single-thread baselines, default (fast) engine, serial ``Runner``,
    no disk cache.  Same shape as ``BENCH_engine.json``'s
    ``fig10_end_to_end`` at a smaller instruction budget, so several
    cold passes fit one run.
    """

    name = "fig10_cold"

    def setup(self, seed: int, smoke: bool) -> None:
        from repro.experiments import figures
        from repro.experiments.runner import Runner

        self.seed = seed
        self.figures = figures
        self.config = _fig_config(seed, smoke)
        self.runner = Runner()

    def run(self, tracer) -> None:
        self.figure = self.figures.figure10(
            config=self.config, runner=self.runner
        )

    def finish(self) -> None:
        from repro.service.jobs import campaign_jobs

        simulated = [
            r for r in self.runner.records if r.source == "simulated"
        ]
        self.op_ms = [r.wall_time_s * 1e3 for r in simulated]
        # Memo hits: every job was simulated inside the timed region.
        results = self.runner.run_many(campaign_jobs("fig10", self.config))
        self.check("every planned job was simulated exactly once",
                   len(results) == len(simulated))
        self._account_results(results)
        self._check_figure(self.figure)
        self.work_k = self.sim["cpu.instr_committed"] / 1e3
        cells = {
            (row[0], scheduler): value
            for row in self.figure.rows
            for scheduler, value in zip(self.figure.headers[1:], row[1:])
        }
        self.sim["metrics.fig10_paper_gap"] = statistics.fmean(
            abs(cells[cell] - paper) for cell, paper in _PAPER_FIG10.items()
        )


class IlpUop(Workload):
    """The per-µop path alone: ILP mixes barely touch DRAM.

    2/4/8-ILP under both fetch policies.  µop generation, dispatch /
    wake-up, the slot calendars and L1 hits do essentially all the
    work; DRAM sees a few hundred reads and the fast engine's
    stalled-window kernel never opens.
    """

    name = "ilp_uop"
    MIXES = ("2-ILP", "4-ILP", "8-ILP")
    POLICIES = ("icount", "dwarn")

    def setup(self, seed: int, smoke: bool) -> None:
        from repro.experiments import runner
        from repro.experiments.config import SystemConfig
        from repro.workloads.mixes import MIXES

        self.seed = seed
        self.runner_module = runner
        budget = 600 if smoke else 6000
        config = SystemConfig(
            scale=8, instructions_per_thread=budget,
            warmup_instructions=budget // 4, seed=seed,
        )
        self.jobs = [
            (config.with_(fetch_policy=policy), MIXES[mix].apps)
            for mix in self.MIXES for policy in self.POLICIES
        ]

    def run(self, tracer) -> None:
        run_mix = self.runner_module.run_mix
        self.results = []
        for config, apps in self.jobs:
            t0 = time.perf_counter()
            self.results.append(run_mix(config, apps))
            self.op_ms.append((time.perf_counter() - t0) * 1e3)

    def finish(self) -> None:
        self._account_results(self.results)
        self.work_k = self.sim["cpu.instr_committed"] / 1e3


class DramDirectRW(Workload):
    """The DRAM model and the event queue, driven without a core.

    Set-up draws eight per-thread request traces from the seed (60 %
    next-line, 40 % uniform over 2**22 lines, 30 % writes).  The timed
    body replays them closed-loop (four outstanding per thread; the
    completion callback issues the thread's next request) through five
    controller configurations, draining each with ``run_all``.  Unlike
    the full system this sends writes beside reads and exercises the
    command-level controller, RDRAM and close-page mode.
    """

    name = "dram_direct_rw"
    THREADS = 8
    OUTSTANDING = 4
    LINES = 1 << 22
    #: (label, dram type, controller model, scheduler, page mode)
    CONFIGS = (
        ("ddr/request/hit-first", "ddr", "request", "hit-first", "open"),
        ("ddr/request/request-based", "ddr", "request", "request-based",
         "open"),
        ("ddr/command/hit-first", "ddr", "command", "hit-first", "open"),
        ("ddr/command/request-based/close", "ddr", "command",
         "request-based", "close"),
        ("rdram/request/hit-first", "rdram", "request", "hit-first", "open"),
    )

    def setup(self, seed: int, smoke: bool) -> None:
        from repro.common.events import EventQueue
        from repro.dram.bank import PageMode
        from repro.dram.system import MemorySystem

        self.EventQueue, self.MemorySystem = EventQueue, MemorySystem
        self.PageMode = PageMode
        per_thread = 600 if smoke else 6000
        self.traces = []
        for thread in range(self.THREADS):
            rng = random.Random(f"{seed}:dram_direct_rw:{thread}")
            line = rng.randrange(self.LINES)
            trace = []
            for _ in range(per_thread):
                if rng.random() < 0.6:
                    line = (line + 1) % self.LINES
                else:
                    line = rng.randrange(self.LINES)
                trace.append((line, rng.random() < 0.3))
            self.traces.append(trace)
        self.submitted = self.THREADS * per_thread

    def _drive(self, spec, tracer):
        _label, dram_type, model, scheduler, page_mode = spec
        queue = self.EventQueue()
        factory = getattr(self.MemorySystem, dram_type)
        system = factory(
            queue, channels=2, mapping="xor",
            page_mode=self.PageMode.OPEN if page_mode == "open"
            else self.PageMode.CLOSE,
            scheduler=scheduler, controller_model=model,
        )
        cursors = [iter(trace) for trace in self.traces]
        read, write = system.read, system.write

        def issue_next(_now, request):
            thread = request.thread_id
            entry = next(cursors[thread], None)
            if entry is not None:
                line, is_write = entry
                (write if is_write else read)(line, thread, issue_next)

        if tracer is not None:
            issue_next = tracer.hot_wrapper("bench", "issue_next", issue_next)
        for thread, cursor in enumerate(cursors):
            for line, is_write in (next(cursor) for _ in range(self.OUTSTANDING)):
                (write if is_write else read)(line, thread, issue_next)
        queue.run_all()
        return system, system.finish(), len(queue)

    def run(self, tracer) -> None:
        self.outcomes = []
        for spec in self.CONFIGS:
            t0 = time.perf_counter()
            self.outcomes.append(self._drive(spec, tracer))
            self.op_ms.append((time.perf_counter() - t0) * 1e3)

    def check_oracle(self) -> None:
        """No core runs here; nothing for the engine oracle to compare."""

    def finish(self) -> None:
        rows = []
        reads = writes = row_hits = row_total = latency = queue_delay = 0
        for spec, (system, stats, pending) in zip(self.CONFIGS, self.outcomes):
            self.check(
                f"{spec[0]}: requests conserved, queue drained",
                stats.reads + stats.writes == self.submitted
                and system.outstanding_total == 0 and pending == 0,
            )
            reads += stats.reads
            writes += stats.writes
            row_hits += stats.row_buffer.hits
            row_total += stats.row_buffer.total
            latency += stats.read_latency_sum
            queue_delay += stats.read_queue_delay_sum
            rows.append([
                spec[0], stats.reads, stats.writes, stats.row_buffer.hits,
                stats.read_latency_sum, stats.read_queue_delay_sum,
                system.event_queue.now,
            ])
        self.work_k = (reads + writes) / 1e3
        self.sim.update({
            "dram.reads": reads, "dram.writes": writes,
            "dram.row_hit_rate": row_hits / row_total,
            "dram.avg_read_latency_cycles": latency / reads,
            "dram.avg_read_queue_delay_cycles": queue_delay / reads,
        })
        self.sim_stats_digest = _digest(rows)


class ServedCampaign(Workload):
    """ROADMAP's third journey: a served campaign, submit to last byte.

    Set-up starts an in-process ``ResultStore`` (temp dir inside
    ``bench/out``), a ``CampaignScheduler(workers=1)`` and the HTTP
    server.  One closed-loop client then runs figure 10 on three mixes
    through a ``ServiceRunner``: **cold** once (every job is queued,
    leased, simulated, journalled, published, polled for and fetched),
    then **warm** repeatedly with a fresh ``ServiceRunner`` per pass
    (every request is answered from the store / LRU; no simulation).
    """

    name = "served_campaign"
    MIXES = ("2-MIX", "2-MEM", "4-MEM")

    def setup(self, seed: int, smoke: bool) -> None:
        from repro.experiments import figures
        from repro.service.api import make_server
        from repro.service.client import ServiceClient, ServiceRunner
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore

        workload = self

        class TimedClient(ServiceClient):
            """The load generator's stopwatch around each HTTP exchange."""

            def _request(self, path, data=None, headers=None):
                t0 = time.perf_counter()
                try:
                    answer = super()._request(path, data, headers)
                except Exception:
                    workload.failed_requests += 1
                    raise
                finally:
                    workload.op_ms.append((time.perf_counter() - t0) * 1e3)
                return answer

        if hasattr(os, "sched_setaffinity"):
            # One core for the client, handler and scheduler threads.
            # Left free they land on one core or on two at the kernel's
            # whim, and the cross-core wake-ups of the second placement
            # cost about 30 % more CPU and 60 % more request latency
            # for the same requests (measured over ten runs: latency
            # quartile spread 61 % free, 13 % pinned); the GIL
            # serialises the threads either way.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.seed = seed
        self.figures, self.ServiceRunner = figures, ServiceRunner
        self.failed_requests = 0
        self.config = _fig_config(seed, smoke)
        self.warm_passes = 2 if smoke else 15
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="served-", dir=OUT_DIR))
        self.store = ResultStore(self.tmp)
        self.scheduler = CampaignScheduler(self.store, workers=1).start()
        self.server = make_server(self.scheduler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.client = TimedClient(url=self.server.url)

    def _figure(self):
        return self.figures.figure10(
            config=self.config, runner=self.ServiceRunner(self.client),
            mixes=self.MIXES,
        )

    def run(self, tracer) -> None:
        phase = tracer.set_phase if tracer is not None else (lambda name: None)
        phase("cold")
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self.cold_figure = self._figure()
        self.cold_wall_s = time.perf_counter() - wall0
        self.work_cpu_s = time.process_time() - cpu0
        self.cold_requests = len(self.op_ms)
        phase("warm")
        wall0 = time.perf_counter()
        self.warm_figures = [self._figure() for _ in range(self.warm_passes)]
        self.warm_wall_s = time.perf_counter() - wall0
        self.timed_requests = len(self.op_ms)

    def finish(self) -> None:
        from repro.experiments.runner import run_mix
        from repro.service.jobs import campaign_jobs

        warm_ms = self.op_ms[self.cold_requests:]
        self.attempted += self.timed_requests
        self.failed += self.failed_requests
        if self.failed_requests:
            self.failures.append(f"{self.failed_requests} http request(s)")
        jobs = campaign_jobs("fig10", self.config, self.MIXES)
        client = self.client
        results = [
            client.fetch(self.store.key_for(config, apps))
            for config, apps in jobs
        ]
        self._account_results(results)
        self._check_figure(self.cold_figure)
        self.check(
            "warm figures equal the cold figure",
            all(f.rows == self.cold_figure.rows for f in self.warm_figures),
        )
        # A sample of served payloads must be byte-identical to what a
        # local run pickles: the first mix job and the last baseline.
        for config, apps in (jobs[0], jobs[-1]):
            served = client.fetch_bytes(self.store.key_for(config, apps))
            local = pickle.dumps(
                run_mix(config, apps), protocol=pickle.HIGHEST_PROTOCOL
            )
            self.check(f"served bytes == local bytes for {'+'.join(apps)}",
                       served == local)
        # The checks above went through the timed client too.
        del self.op_ms[self.timed_requests:]
        self.work_k = self.sim["cpu.instr_committed"] / 1e3
        percentiles = statistics.quantiles(warm_ms, n=100)
        leases = self.tmp / "service" / "leases.jsonl"
        self.sim.update({
            "service.cold_submit_to_last_byte_s": self.cold_wall_s,
            "service.warm_request_p50_ms": percentiles[49],
            "service.warm_request_p90_ms": percentiles[89],
            "service.warm_request_p99_ms": percentiles[98],
            "service.warm_requests_per_s": len(warm_ms) / self.warm_wall_s,
            "service.lease_records": (
                len(leases.read_text().splitlines()) if leases.exists() else 0
            ),
        })

    def teardown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.scheduler.stop()
        self.thread.join(10)
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (Fig10Cold, IlpUop, DramDirectRW, ServedCampaign)
}
