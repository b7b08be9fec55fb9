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

from importlib import import_module
from typing import Any

__version__ = "1.1.0"

#: Each documented name and the module that defines it.  A name is
#: imported on first access (PEP 562), so ``import repro.dram`` loads
#: only what the DRAM model imports, not the experiment harness.
_EXPORTS = {
    "EXPERIMENTS": "repro.experiments.figures",
    "EventTracer": "repro.telemetry.tracer",
    "FaultPlan": "repro.faults",
    "FaultSpec": "repro.faults",
    "JobLog": "repro.experiments.resilience",
    "MetricRegistry": "repro.telemetry.registry",
    "MixResult": "repro.experiments.runner",
    "RetryPolicy": "repro.experiments.resilience",
    "RunManifest": "repro.telemetry.manifest",
    "Runner": "repro.experiments.runner",
    "SystemConfig": "repro.experiments.config",
    "Telemetry": "repro.telemetry",
    "all_mix_names": "repro.workloads.mixes",
    "get_mix": "repro.workloads.mixes",
    "get_profile": "repro.workloads.spec2000",
    "harmonic_mean_speedup": "repro.metrics.speedup",
    "profile_names": "repro.workloads.spec2000",
    "run_experiment": "repro.experiments.figures",
    "run_mix": "repro.experiments.runner",
    "weighted_speedup": "repro.metrics.speedup",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
