"""Build-and-run plumbing for experiments.

A :class:`Runner` turns a :class:`~repro.experiments.config.SystemConfig`
plus a list of application names into a complete simulated system
(workload streams -> SMT core -> cache hierarchy -> DRAM), runs it,
and returns a :class:`MixResult`.  Single-thread baseline runs (needed
by the weighted-speedup metric) are cached per configuration, since
every figure reuses them across many multiprogrammed runs.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.sanitizer import SimSanitizer
from repro.common.events import EventQueue
from repro.common.rng import child_rng
from repro.cache.hierarchy import HierarchySnapshot, MemoryHierarchy
from repro.cache.prewarm import prewarm
from repro.cpu.core import SMTCore
from repro.cpu.stats import CoreResult
from repro.dram.stats import DRAMStats
from repro.dram.system import MemorySystem
from repro.engine import core_class
from repro.experiments.config import SystemConfig
from repro.experiments.resilience import (
    ResilienceStats,
    RetryPolicy,
    execute_jobs,
)
from repro.os.vm import VirtualMemory
from repro.metrics.speedup import weighted_speedup
from repro.telemetry import MetricRegistry, Telemetry
from repro.telemetry.manifest import (
    RunManifest,
    RunRecord,
    default_manifest_dir,
    run_id as _run_id,
)
from repro.workloads.generator import SyntheticStream
from repro.workloads.mixes import WorkloadMix
from repro.workloads.spec2000 import get_profile


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
    core_kwargs = {"telemetry": telemetry}
    if config.engine == "sampled":
        core_kwargs["sampling"] = config.sampling
    core = core_class(config.engine)(
        config.core,
        event_queue,
        hierarchy,
        config.fetch_policy,
        workloads,
        icache_rngs,
        **core_kwargs,
    )
    prewarm(hierarchy, [stream.footprint() for _, stream in workloads])
    if sanitizer is not None:
        sanitizer.attach(core=core, memory=memory, hierarchy=hierarchy)
    return core, memory, hierarchy


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
    """
    owned_sanitizer = sanitizer is None and sanitize_requested()
    if owned_sanitizer:
        sanitizer = SimSanitizer(
            tracer=telemetry.tracer if telemetry is not None else None
        )
    core, memory, hierarchy = build_system(
        config, apps, telemetry, sanitizer=sanitizer
    )
    result = core.run(
        config.instructions_per_thread,
        warmup_instructions=config.warmup_instructions,
        max_cycles=config.max_cycles,
    )
    dram_stats = memory.finish() if memory is not None else None
    if sanitizer is not None and dram_stats is not None:
        # The end-of-run drain (below) fires leftover events into the
        # live stats object; snapshot it first so sanitized results
        # stay bit-identical to plain ones.
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


def run_single(config: SystemConfig, app: str) -> MixResult:
    """Run one application alone on the given configuration."""
    return run_mix(config, [app])


class Runner:
    """Caching front-end for experiment drivers.

    Every run — multiprogrammed or single-thread baseline — is memoized
    in-process, keyed by ``(config.cache_key(), apps)``; all runs are
    deterministic given that identity, so a cached result is
    bit-identical to a fresh one.  An optional persistent
    :class:`~repro.experiments.parallel.ResultCache` sits behind the
    memo, so independently constructed runners (separate figure
    drivers, repeat CLI invocations) share baselines and mix results
    across processes.

    ``baseline_multiplier`` stretches the instruction budget of
    single-thread baseline runs: weighted speedup divides by the
    baseline IPC, so baseline sampling noise amplifies through every
    WS number; longer (cached, cheap) baselines damp it.

    Fault tolerance: ``retry_policy`` (see
    :class:`~repro.experiments.resilience.RetryPolicy`) retries
    transient failures of fresh simulations; ``journal`` (a
    :class:`~repro.experiments.resilience.BatchJournal`) records every
    outcome crash-safely so an interrupted campaign resumes from
    completed work; ``fault_plan`` injects deterministic chaos.  When
    any of these are active, unrecoverable failures surface as
    :class:`~repro.common.errors.BatchAborted` (or its timeout/crash
    refinements) carrying the failing job's identity; with none of
    them (the default) execution and error behaviour are exactly as
    before.  ``runner.resilience`` accumulates retry/timeout/crash
    counters either way and is folded into the manifest.
    """

    def __init__(
        self,
        baseline_multiplier: int = 3,
        cache=None,
        collect_metrics: bool = False,
        sanitize: bool = False,
        retry_policy=None,
        fault_plan=None,
        journal=None,
    ) -> None:
        if baseline_multiplier < 1:
            raise ValueError("baseline_multiplier must be >= 1")
        self.baseline_multiplier = baseline_multiplier
        #: Optional persistent ResultCache (see repro.experiments.parallel).
        self.cache = cache
        #: When set, fresh simulations run with a live MetricRegistry
        #: and their snapshots land on ``MixResult.metrics`` and in the
        #: manifest.
        self.collect_metrics = collect_metrics
        #: When set (or REPRO_SANITIZE=1), every fresh simulation runs
        #: under a :class:`~repro.analysis.sanitizer.SimSanitizer` and
        #: raises SanitizerError if any invariant was violated.
        self.sanitize = sanitize or sanitize_requested()
        #: Fault-tolerance policy for fresh simulations (None = default).
        self.retry_policy = retry_policy
        #: Deterministic fault injection (chaos testing only).
        self.fault_plan = fault_plan
        #: Crash-safe batch journal (resume support).
        self.journal = journal
        #: Retry/timeout/crash counters + failure records for this runner.
        self.resilience = ResilienceStats()
        # Route single runs through the resilient executor only when
        # something beyond plain execution was requested, so default
        # runners keep raising original exceptions unwrapped.
        self._resilient = (
            (retry_policy is not None and retry_policy != RetryPolicy())
            or fault_plan is not None
            or journal is not None
        )
        self._results: dict[tuple, MixResult] = {}
        #: Provenance of every distinct run served, keyed by run id
        #: (first source wins -- a later memo hit does not demote a
        #: "simulated" record).
        self._records: dict[str, RunRecord] = {}

    def _record(
        self, config: SystemConfig, apps: tuple[str, ...], source: str,
        wall_time_s: float = 0.0, result: MixResult | None = None,
    ) -> None:
        rid = _run_id(config, apps)
        if rid not in self._records:
            sampling = None
            if result is not None and isinstance(result.core.extra, dict):
                sampling = result.core.extra.get("sampling")
            self._records[rid] = RunRecord.from_run(
                config, apps, source=source, wall_time_s=wall_time_s,
                sampling=sampling,
            )

    def _simulate_once(self, config: SystemConfig, apps: tuple[str, ...]) -> MixResult:
        """One fresh simulation with this runner's telemetry/sanitize setup."""
        telemetry = Telemetry() if self.collect_metrics else None
        if self.sanitize:
            sanitizer = SimSanitizer(
                tracer=telemetry.tracer if telemetry is not None else None
            )
            result = run_mix(
                config, apps, telemetry=telemetry, sanitizer=sanitizer
            )
            sanitizer.raise_if_violations()
            return result
        return run_mix(config, apps, telemetry=telemetry)

    def _cached_run(self, config: SystemConfig, apps: tuple[str, ...]) -> MixResult:
        key = (config.cache_key(), apps)
        result = self._results.get(key)
        if result is not None:
            self._record(config, apps, "memo", result=result)
            return result
        if self.cache is not None:
            result = self.cache.get(config, apps)
            if result is not None:
                self._record(config, apps, "disk-cache", result=result)
                if self.journal is not None and self.journal.completed(
                    _run_id(config, apps)
                ):
                    self.resilience.resumed_jobs += 1
        if result is None:
            start = time.perf_counter()
            if self._resilient:
                result = execute_jobs(
                    [(config, apps)],
                    self._simulate_once,
                    parallelism=1,
                    policy=self.retry_policy,
                    journal=self.journal,
                    stats=self.resilience,
                    fault_plan=self.fault_plan,
                    on_complete=lambda _i, res: (
                        self.cache.put(config, apps, res)
                        if self.cache is not None
                        else None
                    ),
                )[0]
            else:
                result = self._simulate_once(config, apps)
                if self.cache is not None:
                    self.cache.put(config, apps, result)
            self._record(
                config, apps, "simulated", time.perf_counter() - start,
                result=result,
            )
        self._results[key] = result
        return result

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
        snapshots = [
            r.metrics for r in self._results.values() if r.metrics
        ]
        return RunManifest(
            records=self.records,
            metrics=MetricRegistry.merge(snapshots) if snapshots else {},
            wall_time_s=sum(r.wall_time_s for r in self._records.values()),
            extra=extra,
        )

    def write_manifest(self, directory=None) -> Path:
        """Write the manifest (see :meth:`manifest`); return its path."""
        target = default_manifest_dir() if directory is None else directory
        return self.manifest().write(target)

    def run_mix(self, config: SystemConfig, mix: WorkloadMix | Sequence[str]) -> MixResult:
        apps = mix.apps if isinstance(mix, WorkloadMix) else tuple(mix)
        return self._cached_run(config, apps)

    def run_many(self, jobs: Sequence) -> list[MixResult]:
        """Run a list of ``(config, apps)`` jobs, returning results in order.

        The serial reference implementation; every job goes through the
        shared cache, so duplicates cost nothing.
        :class:`~repro.experiments.parallel.ParallelRunner` overrides
        this with a process-pool fan-out — figure drivers submit their
        whole job list here before reading individual results, so one
        runner swap parallelizes every experiment path.
        """
        return [
            self._cached_run(config, tuple(apps)) for config, apps in jobs
        ]

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
        return self._cached_run(self.baseline_config(config), (app,))

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
