"""Build-and-run plumbing for experiments.

:func:`run_mix` turns a :class:`~repro.experiments.config.SystemConfig`
plus a list of application names into a complete simulated system
(workload streams -> SMT core -> cache hierarchy -> DRAM), runs it,
and returns a :class:`MixResult`.  A :class:`Runner` is the one path
from a job to its result: in-process memo, optional persistent store,
then fresh simulation, serial or across a process pool.  Single-thread
baseline runs (needed by the weighted-speedup metric) go through it
too, since every figure reuses them across many multiprogrammed runs.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.common.events import EventQueue
from repro.common.rng import child_rng
from repro.cache.hierarchy import HierarchySnapshot, MemoryHierarchy
from repro.cache.prewarm import prewarm
from repro.cpu.core import SMTCore
from repro.cpu.stats import CoreResult
from repro.dram.stats import DRAMStats
from repro.dram.system import MemorySystem
from repro.experiments.config import SystemConfig
from repro.experiments.resilience import (
    JobLog,
    ResilienceStats,
    RetryPolicy,
    execute_jobs,
)
from repro.faults import FaultPlan
from repro.os.vm import VirtualMemory
from repro.metrics.speedup import weighted_speedup
from repro.telemetry import MetricRegistry, Telemetry
from repro.telemetry.manifest import (
    RunManifest,
    RunRecord,
    default_manifest_dir,
    run_id,
)
from repro.workloads.generator import SyntheticStream
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2000 import get_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sanitizer import SimSanitizer


@dataclass
class MixResult:
    """Everything measured from one multiprogrammed run."""

    config: SystemConfig
    apps: tuple[str, ...]
    core: CoreResult
    dram: DRAMStats | None
    hierarchy: HierarchySnapshot
    #: Telemetry registry snapshot (see :mod:`repro.telemetry`); None
    #: when the run executed without a live registry.
    metrics: dict | None = field(default=None, compare=False)

    @property
    def ipcs(self) -> list[float]:
        return [t.ipc for t in self.core.threads]

    @property
    def throughput(self) -> float:
        return self.core.throughput_ipc

    @property
    def row_buffer_miss_rate(self) -> float:
        return self.dram.row_miss_rate if self.dram is not None else 0.0

    @property
    def dram_accesses_per_100_instructions(self) -> float:
        total = self.core.total_committed
        if not total or self.dram is None:
            return 0.0
        reads = sum(t.dram_accesses for t in self.core.threads)
        return 100.0 * reads / total


def build_system(
    config: SystemConfig,
    apps: Sequence[str],
    telemetry: Telemetry | None = None,
    sanitizer: SimSanitizer | None = None,
) -> tuple[SMTCore, MemorySystem | None, MemoryHierarchy]:
    """Construct (but do not run) a full system for the given apps.

    When a :class:`~repro.analysis.sanitizer.SimSanitizer` is given,
    the system is built on its checking event queue and every
    component is wrapped with invariant checks; the wrapping is
    observe-only, so the run stays bit-identical to a plain one.
    """
    event_queue: EventQueue
    if sanitizer is not None:
        event_queue = sanitizer.make_event_queue()
    else:
        event_queue = EventQueue()
    if config.perfect_l3:
        memory = None
    else:
        factory = (
            MemorySystem.ddr if config.dram_type == "ddr"
            else MemorySystem.rdram
        )
        memory = factory(
            event_queue,
            channels=config.channels,
            gang=config.gang,
            mapping=config.mapping,
            page_mode=config.page_mode_enum,
            scheduler=config.scheduler,
            controller_model=config.controller_model,
            telemetry=telemetry,
        )
    translator = None
    if config.vm_policy != "none":
        translator = VirtualMemory(
            policy=config.vm_policy,
            colors=config.channels * 4,  # one color per DDR bank
            num_threads=max(1, len(apps)),
            rng=child_rng(config.seed, "vm"),
        )
    hierarchy = MemoryHierarchy(
        config.hierarchy_params(),
        event_queue,
        memory,
        translator=translator,
        telemetry=telemetry,
    )
    workloads = []
    icache_rngs = []
    for i, app in enumerate(apps):
        stream = SyntheticStream(
            get_profile(app),
            child_rng(config.seed, f"stream:{app}:{i}"),
            thread_id=i,
            scale=config.scale,
        )
        workloads.append((app, stream))
        icache_rngs.append(child_rng(config.seed, f"icache:{app}:{i}"))
    core = SMTCore(
        config.core,
        event_queue,
        hierarchy,
        config.fetch_policy,
        workloads,
        icache_rngs,
        telemetry=telemetry,
    )
    prewarm(hierarchy, [stream.footprint() for _, stream in workloads])
    if sanitizer is not None:
        sanitizer.attach(core=core, memory=memory, hierarchy=hierarchy)
    return core, memory, hierarchy


def new_sanitizer(telemetry: Telemetry | None = None) -> SimSanitizer:
    """A sanitizer for one run, tracing into ``telemetry`` if given.

    The sanitizer is imported here, so a plain run never loads it.
    """
    from repro.analysis.sanitizer import SimSanitizer

    return SimSanitizer(
        tracer=telemetry.tracer if telemetry is not None else None
    )


def sanitize_requested() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def run_mix(
    config: SystemConfig,
    apps: Sequence[str],
    telemetry: Telemetry | None = None,
    sanitizer: SimSanitizer | None = None,
) -> MixResult:
    """Build and run one multiprogrammed mix to completion.

    Pass a :class:`~repro.analysis.sanitizer.SimSanitizer` to check
    protocol/accounting invariants throughout the run (violations
    collect on the sanitizer; inspect or raise as the caller sees
    fit).  Setting ``REPRO_SANITIZE=1`` in the environment sanitizes
    every run with an internally owned sanitizer that *raises*
    :class:`~repro.analysis.sanitizer.SanitizerError` on violations.

    The system is built here and closed before the call returns, or
    raises, so nothing of it outlives the :class:`MixResult`.  A caller
    that drives :func:`build_system` and ``core.run`` itself owns the
    system it built.
    """
    owned_sanitizer = sanitizer is None and sanitize_requested()
    if owned_sanitizer:
        sanitizer = new_sanitizer(telemetry)
    core, memory, hierarchy = build_system(
        config, apps, telemetry, sanitizer=sanitizer
    )
    try:
        result = core.run(
            config.instructions_per_thread,
            warmup_instructions=config.warmup_instructions,
            max_cycles=config.max_cycles,
        )
        dram_stats = memory.finish() if memory is not None else None
        if sanitizer is not None and dram_stats is not None:
            # The end-of-run drain (below) fires leftover events into
            # the live stats object; snapshot it first so sanitized
            # results stay bit-identical to plain ones.
            dram_stats = copy.deepcopy(dram_stats)
        snapshot = hierarchy.snapshot()
        metrics = None
        if telemetry is not None and telemetry.registry.enabled:
            registry = telemetry.registry
            registry.add_counters(
                "cache",
                {
                    "loads": snapshot.loads,
                    "stores": snapshot.stores,
                    "dram_reads_issued": snapshot.dram_reads_issued,
                    "mshr.merges": snapshot.mshr_merges,
                    "mshr.rejections": snapshot.mshr_rejections,
                    "mshr.allocations": hierarchy.mshr.allocations,
                },
            )
            registry.set_gauges(
                "cache",
                {
                    "l1d_hit_rate": snapshot.l1d_hit_rate,
                    "l2_hit_rate": snapshot.l2_hit_rate,
                    "l3_hit_rate": snapshot.l3_hit_rate,
                    "dtlb_hit_rate": snapshot.dtlb_hit_rate,
                },
            )
            if dram_stats is not None:
                registry.set_gauges(
                    "dram", {"row_miss_rate": dram_stats.row_miss_rate}
                )
            metrics = registry.snapshot()
        if sanitizer is not None:
            sanitizer.finish()
            if owned_sanitizer:
                sanitizer.raise_if_violations()
        return MixResult(
            config=config,
            apps=tuple(apps),
            core=result,
            dram=dram_stats,
            hierarchy=snapshot,
            metrics=metrics,
        )
    finally:
        # The system dies with this call: each close drops what ties
        # its owner into a reference cycle, so reference counting frees
        # the machine here instead of a later cyclic-GC pass.
        core.event_queue.close()
        hierarchy.close()
        if memory is not None:
            memory.close()


def _interned(dc):
    """A copy of dataclass ``dc`` with every string field re-interned.

    A config that crossed a process boundary holds fresh (unpickled)
    string objects, while a locally built one holds compile-time
    interned literals shared with the simulator internals.  The values
    are equal either way, but the *object sharing* differs, so pickles
    of the two results differ byte-wise.  Re-interning restores the
    sharing, making pooled and served results byte-identical to serial
    ones.
    """
    changes = {
        f.name: sys.intern(value)
        for f in dataclasses.fields(dc)
        if isinstance(value := getattr(dc, f.name), str)
    }
    return dataclasses.replace(dc, **changes) if changes else dc


def _simulate(
    config: SystemConfig,
    apps: tuple[str, ...],
    collect_metrics: bool = False,
    sanitize: bool = False,
) -> MixResult:
    """Simulate one job: the entry point of every local execution.

    Module-level so it pickles across a process pool.  The job is
    normalized first (see :func:`_interned`), so its result is the same
    bytes in-process, in a pool worker and in the service.
    ``collect_metrics`` gives the run a live metric registry whose
    snapshot rides back on ``MixResult.metrics``; ``sanitize`` runs it
    under a :class:`~repro.analysis.sanitizer.SimSanitizer` that raises
    :class:`~repro.analysis.sanitizer.SanitizerError` on any violation.
    """
    config = _interned(config)
    if config.core is not None:
        config = dataclasses.replace(config, core=_interned(config.core))
    apps = tuple(sys.intern(a) for a in apps)
    telemetry = Telemetry() if collect_metrics else None
    sanitizer = new_sanitizer(telemetry) if sanitize else None
    result = run_mix(config, apps, telemetry=telemetry, sanitizer=sanitizer)
    if sanitizer is not None:
        sanitizer.raise_if_violations()
    return result


def load_or_simulate(
    jobs: Sequence[tuple],
    store=None,
    parallelism: int = 1,
    collect_metrics: bool = False,
    sanitize: bool = False,
    policy: RetryPolicy | None = None,
    journal: JobLog | None = None,
    stats: ResilienceStats | None = None,
    fault_plan: FaultPlan | None = None,
) -> list[tuple[MixResult, str, float]]:
    """Serve distinct ``(config, apps)`` jobs from ``store`` or by simulating.

    Returns ``(result, source, wall_s)`` per job, in job order: source
    ``"disk-cache"`` for a store hit, ``"simulated"`` for a fresh run
    whose ``wall_s`` is the time
    :func:`~repro.experiments.resilience.execute_jobs` measured for it.
    Misses run through that executor (``parallelism`` > 1 fans them
    across a process pool; ``policy``, ``journal``, ``stats`` and
    ``fault_plan`` are documented there), and each fresh result is put
    in ``store`` as it completes, before its completion record, so an
    interruption at any point loses at most in-flight work.  A store
    hit for a job the log records complete counts as resumed in
    ``stats``.
    """
    served: list = [None] * len(jobs)
    misses: list[int] = []
    for i, (config, apps) in enumerate(jobs):
        result = store.get(config, apps) if store is not None else None
        if result is None:
            misses.append(i)
            continue
        served[i] = (result, "disk-cache", 0.0)
        if journal is not None and stats is not None:
            if store.key_for(config, apps) in journal.view["done"]:
                stats.resumed_jobs += 1
    if misses:

        def persist(n: int, result: MixResult, wall_s: float) -> None:
            i = misses[n]
            if store is not None:
                store.put(*jobs[i], result)
            served[i] = (result, "simulated", wall_s)

        execute_jobs(
            [jobs[i] for i in misses],
            partial(
                _simulate, collect_metrics=collect_metrics, sanitize=sanitize
            ),
            parallelism=parallelism,
            policy=policy,
            journal=journal,
            stats=stats,
            fault_plan=fault_plan,
            on_complete=persist,
            keys=(
                [store.key_for(*jobs[i]) for i in misses]
                if store is not None else None
            ),
        )
    return served


class Runner:
    """Caching front-end for experiment drivers.

    Every run — multiprogrammed or single-thread baseline — is memoized
    in-process, keyed by ``(config.cache_key(), apps)``; all runs are
    deterministic given that identity, so a memoized result is
    bit-identical to a fresh one.  :meth:`run_many`, :meth:`run_mix`
    and :meth:`single` all go through :meth:`_serve`, which dedupes,
    answers from the memo, records provenance and hands the misses to
    :meth:`_execute`.  Locally that is :func:`load_or_simulate`: the
    optional persistent ``cache`` (a
    :class:`~repro.service.store.ResultStore`, shared across runners
    and processes), then fresh simulation, serial for ``jobs=1`` and
    across ``jobs`` worker processes otherwise.  Results are collected
    by job index, never by completion order, so every route returns
    the same bytes.

    ``baseline_multiplier`` stretches the instruction budget of
    single-thread baseline runs: weighted speedup divides by the
    baseline IPC, so baseline sampling noise amplifies through every
    WS number; longer (cached, cheap) baselines damp it.

    Fault tolerance: ``retry_policy`` (see
    :class:`~repro.experiments.resilience.RetryPolicy`) adds per-job
    timeouts, retries and pool rebuilds; ``journal`` (a
    :class:`~repro.experiments.resilience.JobLog`) records every
    outcome crash-safely so an interrupted campaign resumes from
    completed work; ``fault_plan`` injects deterministic chaos.  A
    simulation that cannot be recovered raises
    :class:`~repro.common.errors.BatchAborted` (or its timeout/crash
    refinements) carrying the failing job's identity, with the original
    exception as ``__cause__``.  ``runner.resilience`` accumulates
    retry/timeout/crash counters and is folded into the manifest.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        baseline_multiplier: int = 3,
        collect_metrics: bool = False,
        sanitize: bool = False,
        retry_policy: RetryPolicy | None = None,
        journal: JobLog | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if baseline_multiplier < 1:
            raise ValueError("baseline_multiplier must be >= 1")
        #: Worker processes for fresh simulations (1 = serial, in-process).
        self.jobs = jobs
        #: Optional persistent ResultStore behind the memo.
        self.cache = cache
        self.baseline_multiplier = baseline_multiplier
        #: When set, fresh simulations run with a live MetricRegistry
        #: and their snapshots land on ``MixResult.metrics`` and in the
        #: manifest.
        self.collect_metrics = collect_metrics
        #: When set (or REPRO_SANITIZE=1), every fresh simulation runs
        #: under a :class:`~repro.analysis.sanitizer.SimSanitizer` and
        #: fails on any violated invariant.
        self.sanitize = sanitize or sanitize_requested()
        #: Fault-tolerance policy for fresh simulations (None = default).
        self.retry_policy = retry_policy
        #: Crash-safe job log (resume support).
        self.journal = journal
        #: Deterministic fault injection (chaos testing only).
        self.fault_plan = fault_plan
        #: Retry/timeout/crash counters + failure records for this runner.
        self.resilience = ResilienceStats()
        self._memo: dict[tuple, MixResult] = {}
        #: Provenance of every distinct run served, keyed by run id
        #: (first source wins).
        self._records: dict[str, RunRecord] = {}

    def _serve(self, jobs: Sequence) -> list[MixResult]:
        """The one path from ``(config, apps)`` jobs to results, in order.

        Duplicates and memo hits cost nothing; every distinct miss goes
        to :meth:`_execute` in one batch, and its result is memoized
        and recorded with the source and wall time the executor gives.
        """
        normalized = [(config, tuple(apps)) for config, apps in jobs]
        keys = [(config.cache_key(), apps) for config, apps in normalized]
        misses: dict[tuple, tuple] = {}
        for key, job in zip(keys, normalized):
            if key not in self._memo:
                misses.setdefault(key, job)
        if misses:
            served = self._execute(list(misses.values()))
            for (key, (config, apps)), (result, source, wall_s) in zip(
                misses.items(), served
            ):
                self._memo[key] = result
                rid = run_id(config, apps)
                if rid not in self._records:
                    self._records[rid] = RunRecord.from_run(
                        config, apps, source=source, wall_time_s=wall_s
                    )
        return [self._memo[key] for key in keys]

    def _execute(self, jobs: list[tuple]) -> list[tuple[MixResult, str, float]]:
        """Resolve distinct memo misses: ``(result, source, wall_s)`` each."""
        return load_or_simulate(
            jobs,
            self.cache,
            parallelism=self.jobs,
            collect_metrics=self.collect_metrics,
            sanitize=self.sanitize,
            policy=self.retry_policy,
            journal=self.journal,
            stats=self.resilience,
            fault_plan=self.fault_plan,
        )

    # ------------------------------------------------------------------
    # provenance

    @property
    def records(self) -> list[RunRecord]:
        """Run records collected so far, in first-served order."""
        return list(self._records.values())

    def manifest(self) -> RunManifest:
        """Provenance manifest for every run this runner has served.

        When the batch met (and survived) failures, the manifest's
        ``extra["resilience"]`` block records the retry/timeout/crash
        counters and every per-attempt failure, so a sweep's provenance
        says not just what ran but what it recovered from.
        """
        extra = {}
        if self.resilience.eventful:
            extra["resilience"] = self.resilience.as_dict()
        snapshots = [r.metrics for r in self._memo.values() if r.metrics]
        return RunManifest(
            records=self.records,
            metrics=MetricRegistry.merge(snapshots) if snapshots else {},
            workers=self.jobs,
            wall_time_s=sum(r.wall_time_s for r in self._records.values()),
            extra=extra,
        )

    def write_manifest(self, directory=None) -> Path:
        """Write the manifest (see :meth:`manifest`); return its path."""
        target = default_manifest_dir() if directory is None else directory
        return self.manifest().write(target)

    # ------------------------------------------------------------------
    # the driver-facing API

    def run_many(self, jobs: Sequence) -> list[MixResult]:
        """Run a list of ``(config, apps)`` jobs, returning results in order.

        Figure drivers submit their whole job list here before reading
        individual results, so every miss of an experiment runs in one
        batch (one pool fan-out with ``jobs`` > 1).
        """
        return self._serve(jobs)

    def run_mix(self, config: SystemConfig, mix: WorkloadMix | Sequence[str]) -> MixResult:
        apps = mix.apps if isinstance(mix, WorkloadMix) else tuple(mix)
        return self._serve([(config, apps)])[0]

    def baseline_config(self, config: SystemConfig) -> SystemConfig:
        """The (budget-stretched) config a single-thread baseline runs on."""
        return config.with_(
            instructions_per_thread=(
                config.instructions_per_thread * self.baseline_multiplier
            )
        )

    def baseline_job(self, config: SystemConfig, app: str) -> tuple:
        """The ``(config, apps)`` job :meth:`single` would run — lets
        drivers enqueue baselines in a :meth:`run_many` batch."""
        return (self.baseline_config(config), (app,))

    def single(self, config: SystemConfig, app: str) -> MixResult:
        return self._serve([self.baseline_job(config, app)])[0]

    def single_ipc(self, config: SystemConfig, app: str) -> float:
        return self.single(config, app).core.threads[0].ipc

    def weighted_speedup(
        self,
        config: SystemConfig,
        mix: WorkloadMix | Sequence[str],
        mix_result: MixResult | None = None,
    ) -> float:
        """Weighted speedup of a mix against single-thread baselines.

        ``sum_i IPC_multi[i] / IPC_single[i]`` (Tullsen & Brown); the
        single-thread baselines run on the *same* configuration.
        """
        apps = mix.apps if isinstance(mix, WorkloadMix) else tuple(mix)
        if mix_result is None:
            mix_result = self.run_mix(config, apps)
        singles = [self.single_ipc(config, app) for app in apps]
        return weighted_speedup(mix_result.ipcs, singles)
