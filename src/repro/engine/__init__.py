"""Selectable execution engines for the simulator.

There is one SMT core — :class:`repro.cpu.core.SMTCore` owns the whole
per-µop path (fetch, dispatch, issue, resolve, commit) and the phase
loop — and three engines that drive it:

* ``"reference"`` — :class:`SMTCore` itself: one inlined tick per
  non-idle simulated cycle, µops generated afresh for every run.
* ``"fast"`` — :class:`repro.engine.fast.FastSMTCore`, a subclass that
  adds exactly two strategies and overrides nothing: the
  *stalled-window kernel* (closed-form cycle skipping plus bulk stall
  accounting where no thread can dispatch) and the process-wide *µop
  stream memo*.  It is **bit-identical** to the reference by contract:
  every ``MixResult`` field, every RNG draw, every stall counter.
* ``"sampled"`` — :class:`repro.engine.sampled.SampledSMTCore`, which
  alternates detailed windows (the fast engine) with functional
  fast-forward and *extrapolates* the full-run metrics.  Sampled
  results are deterministic **estimates**: explicitly excluded from
  the bit-identity contract, checked instead against a per-metric
  error bound (see below).  Opt-in only — ``fast`` stays the default.

The contracts are enforced, not assumed: ``repro.engine.oracle`` (and
the ``repro engine-diff`` CLI subcommand / CI lanes) runs engine pairs
over the fig10 sweep — exact mode fails on the first diverging field,
bounded-error mode fails when a metric's relative error exceeds its
tolerance.  Because both exact engines execute the same per-µop code,
the oracle compares kernel + memo against neither; the reference
itself is pinned by the committed golden digests of
``tests/engine/test_golden.py``.  See ``docs/performance.md``.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.cpu.core import SMTCore
from repro.engine.fast import FastSMTCore
from repro.engine.sampled import SampledSMTCore, SamplingParams

#: Engine names accepted by :class:`repro.experiments.config.SystemConfig`.
ENGINE_NAMES = ("reference", "fast", "sampled")

#: Engines whose outputs are bit-identical to the reference by
#: contract; anything else produces estimates and is checked against a
#: tolerance instead (see repro.engine.oracle).
EXACT_ENGINES = ("reference", "fast")

_ENGINES: dict[str, type[SMTCore]] = {
    "reference": SMTCore,
    "fast": FastSMTCore,
    "sampled": SampledSMTCore,
}


def core_class(engine: str) -> type[SMTCore]:
    """The SMT-core class implementing the named engine."""
    try:
        return _ENGINES[engine]
    except KeyError:
        raise ConfigError(
            f"unknown engine {engine!r}; available: {ENGINE_NAMES}"
        ) from None


__all__ = [
    "ENGINE_NAMES",
    "EXACT_ENGINES",
    "FastSMTCore",
    "SampledSMTCore",
    "SamplingParams",
    "core_class",
]
