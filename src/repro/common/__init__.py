"""Shared simulation infrastructure.

This package contains the pieces every other subsystem builds on:

* :mod:`repro.common.events` -- the discrete-event queue that drives the
  memory hierarchy and DRAM controllers.
* :mod:`repro.common.stats` -- counters and time-weighted histograms
  used for the paper's Figure 4/5 style distributions.
* :mod:`repro.common.rng` -- deterministic random-number plumbing so a
  given :class:`~repro.experiments.config.SystemConfig` always
  reproduces the same simulation.
* :mod:`repro.common.types` -- enums and the memory-request record
  shared between the CPU, cache, and DRAM models.
"""

from repro.common.errors import ConfigError, ReproError, SimulationError
from repro.common.events import EventQueue
from repro.common.rng import DeterministicRng, child_rng
from repro.common.stats import (
    RateCounter,
    TimeWeightedHistogram,
    WeightedHistogram,
)
from repro.common.types import MemAccessType, MemRequest, OpClass

__all__ = [
    "ConfigError",
    "DeterministicRng",
    "EventQueue",
    "MemAccessType",
    "MemRequest",
    "OpClass",
    "RateCounter",
    "ReproError",
    "SimulationError",
    "TimeWeightedHistogram",
    "WeightedHistogram",
    "child_rng",
]
