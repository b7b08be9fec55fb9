"""repro -- reproduction of "A Performance Comparison of DRAM Memory
System Optimizations for SMT Processors" (Zhu & Zhang, HPCA 2005).

The library simulates a simultaneous-multithreading processor attached
to multi-channel DDR SDRAM / Direct Rambus memory systems and
reproduces the paper's evaluation: fetch-policy comparisons, memory
concurrency analysis, channel organizations, address mappings, and the
paper's thread-aware DRAM access-scheduling schemes.

Quick start::

    from repro import SystemConfig, run_mix, get_mix

    config = SystemConfig()                  # Table 1 baseline
    result = run_mix(config, get_mix("4-MEM").apps)
    print(result.core)                      # per-thread IPC etc.
    print(result.dram.row_hit_rate)

Every figure and ablation is a spec in
:mod:`repro.experiments.figures`, run by
``run_experiment("fig10", config=config)`` or from the command line::

    python -m repro list
    python -m repro fig10 --mixes 2-MEM

Subsystems: :mod:`repro.cpu` (SMT core), :mod:`repro.cache`
(L1/L2/L3 + MSHRs + TLB), :mod:`repro.dram` (channels, banks,
schedulers), :mod:`repro.workloads` (synthetic SPEC2000 profiles),
:mod:`repro.metrics`, :mod:`repro.experiments`.
"""

from repro.experiments.config import SystemConfig
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.resilience import JobLog, RetryPolicy
from repro.experiments.runner import MixResult, Runner, run_mix
from repro.faults import FaultPlan, FaultSpec
from repro.metrics.speedup import harmonic_mean_speedup, weighted_speedup
from repro.telemetry import (
    EventTracer,
    MetricRegistry,
    RunManifest,
    Telemetry,
)
from repro.workloads.mixes import all_mix_names, get_mix
from repro.workloads.spec2000 import get_profile, profile_names

__version__ = "1.1.0"

__all__ = [
    "EXPERIMENTS",
    "EventTracer",
    "FaultPlan",
    "FaultSpec",
    "JobLog",
    "MetricRegistry",
    "MixResult",
    "RetryPolicy",
    "RunManifest",
    "Runner",
    "SystemConfig",
    "Telemetry",
    "all_mix_names",
    "get_mix",
    "get_profile",
    "harmonic_mean_speedup",
    "profile_names",
    "run_experiment",
    "run_mix",
    "weighted_speedup",
    "__version__",
]
