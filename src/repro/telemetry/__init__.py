"""repro.telemetry -- unified instrumentation for the simulator.

Three pieces, designed to be wired through every component while
costing near-nothing when disabled:

* :class:`~repro.telemetry.registry.MetricRegistry` -- counters,
  gauges, log-scale histograms, and timeline series registered under a
  shared dotted hierarchy (``cpu.t0.rob_occupancy``,
  ``dram.ch0.row_hits``); the :class:`NullRegistry` fast path hands
  out shared no-op instruments so disabled runs stay bit-identical.
* :class:`~repro.telemetry.tracer.EventTracer` -- a bounded ring
  buffer of structured events (fetch gating, MSHR allocation,
  PRE/ACT/CAS commands, scheduler picks with reasons) exported as
  Chrome-trace/Perfetto JSON or compact JSONL.
* :class:`~repro.telemetry.manifest.RunManifest` -- per-run provenance
  (config hash, seed, workload mix, package version, wall time)
  emitted by the experiment runners and merged deterministically
  across process-pool workers.

Usage::

    from repro import SystemConfig, run_mix
    from repro.telemetry import Telemetry, EventTracer

    tel = Telemetry(tracer=EventTracer())
    result = run_mix(SystemConfig(), ["mcf", "gzip"], telemetry=tel)
    tel.tracer.write_chrome("trace.json")      # open in ui.perfetto.dev
    print(tel.registry.snapshot()["counters"]["dram.ch0.row_hits"])

See ``docs/observability.md`` for the naming scheme and trace schema.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.telemetry.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
    Series,
    prometheus_text,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.tracer import EventTracer

#: Each manifest and tracer name and the submodule that defines it.  A
#: name is imported on first access (PEP 562), so the DRAM model, which
#: needs only the registry, never loads the manifest or tracer code.
_EXPORTS = {
    "EventTracer": "repro.telemetry.tracer",
    "RunManifest": "repro.telemetry.manifest",
    "RunRecord": "repro.telemetry.manifest",
    "TraceEvent": "repro.telemetry.tracer",
    "config_hash": "repro.telemetry.manifest",
    "default_manifest_dir": "repro.telemetry.manifest",
    "load_jsonl": "repro.telemetry.tracer",
    "run_id": "repro.telemetry.manifest",
    "validate_chrome_trace": "repro.telemetry.tracer",
}


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


class Telemetry:
    """One run's telemetry session: a registry plus an optional tracer.

    Components accept ``telemetry=None`` (disabled, the default
    everywhere) or a ``Telemetry`` instance.  ``Telemetry()`` enables
    metrics only; pass ``tracer=EventTracer()`` to also record events.
    """

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        tracer: EventTracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer

    @property
    def enabled(self) -> bool:
        """Whether any sink is live (null registry + no tracer = off)."""
        return self.registry.enabled or self.tracer is not None

    @classmethod
    def disabled(cls) -> "Telemetry":
        """An explicitly-off session (null registry, no tracer)."""
        return cls(registry=NULL_REGISTRY, tracer=None)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


__all__ = [
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "RunManifest",
    "RunRecord",
    "Series",
    "Telemetry",
    "TraceEvent",
    "config_hash",
    "default_manifest_dir",
    "load_jsonl",
    "prometheus_text",
    "run_id",
    "validate_chrome_trace",
]
