"""Selectable execution engines for the simulator.

There is one SMT core — :class:`repro.cpu.core.SMTCore` owns the whole
per-µop path (fetch, dispatch, issue, resolve, commit) and the phase
loop — and two engines that drive it:

* ``"reference"`` — :class:`SMTCore` itself: one inlined tick per
  non-idle simulated cycle, µops generated afresh for every run.
* ``"fast"`` — :class:`repro.engine.fast.FastSMTCore`, a subclass that
  adds exactly two strategies and overrides nothing: the
  *stalled-window kernel* (closed-form cycle skipping plus bulk stall
  accounting where no thread can dispatch) and the process-wide *µop
  stream memo*.  It is **bit-identical** to the reference by contract:
  every ``MixResult`` field, every RNG draw, every stall counter.

The contract is enforced, not assumed: ``repro.engine.oracle`` (and
the ``repro engine-diff`` CLI subcommand / CI lane) runs both engines
over the fig10 sweep and fails on the first diverging field.  Because
both engines execute the same per-µop code, the oracle compares
kernel + memo against neither; the reference itself is pinned by the
committed golden digests of ``tests/engine/test_golden.py``.  See
``docs/performance.md``.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.cpu.core import SMTCore
from repro.engine.fast import FastSMTCore

#: Engine names accepted by :class:`repro.experiments.config.SystemConfig`.
ENGINE_NAMES = ("reference", "fast")

_ENGINES: dict[str, type[SMTCore]] = {
    "reference": SMTCore,
    "fast": FastSMTCore,
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
    "FastSMTCore",
    "core_class",
]
