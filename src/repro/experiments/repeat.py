"""Multi-seed repetition: means and spreads for noisy measurements.

Short synthetic runs carry sampling noise (EXPERIMENTS.md documents
the variance); any conclusion worth keeping should be checked across
seeds.  :func:`repeat_mix` reruns a configuration under several seeds
and reports mean/min/max/stdev for the interesting metrics;
:func:`compare_configs` does the same for an A/B pair and reports the
per-seed gains (paired comparison, which cancels workload-draw noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.errors import ConfigError
from repro.experiments.config import SystemConfig
from repro.experiments.runner import MixResult, Runner


@dataclass(frozen=True)
class MetricSummary:
    """Mean and spread of one metric across seeds."""

    name: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def stdev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.4f} "
            f"(min {self.minimum:.4f}, max {self.maximum:.4f}, "
            f"sd {self.stdev:.4f}, n={len(self.values)})"
        )


MetricFn = Callable[[MixResult], float]

DEFAULT_METRICS: dict[str, MetricFn] = {
    "throughput": lambda r: r.throughput,
    "row_miss_rate": lambda r: r.row_buffer_miss_rate,
    "dram_per_100": lambda r: r.dram_accesses_per_100_instructions,
}


def repeat_mix(
    config: SystemConfig,
    apps: Sequence[str],
    seeds: Sequence[int] = (1, 2, 3),
    metrics: dict[str, MetricFn] | None = None,
    runner: Runner | None = None,
) -> dict[str, MetricSummary]:
    """Run the mix once per seed; summarize each metric.

    Per-seed runs are independent, so a
    :class:`~repro.experiments.runner.Runner` with ``jobs`` > 1 passed
    as ``runner`` fans them out (and a store-backed runner skips seeds
    it has already simulated).
    """
    if not seeds:
        raise ConfigError("at least one seed is required")
    metrics = metrics or DEFAULT_METRICS
    runner = runner or Runner()
    apps = tuple(apps)
    results = runner.run_many(
        [(config.with_(seed=seed), apps) for seed in seeds]
    )
    collected: dict[str, list[float]] = {name: [] for name in metrics}
    for result in results:
        for name, fn in metrics.items():
            collected[name].append(fn(result))
    return {
        name: MetricSummary(name, tuple(values))
        for name, values in collected.items()
    }


@dataclass(frozen=True)
class PairedComparison:
    """Per-seed paired gains of config B over config A for one metric."""

    metric: str
    gains: tuple[float, ...]  # (b - a) / a per seed

    @property
    def mean_gain(self) -> float:
        return sum(self.gains) / len(self.gains)

    @property
    def wins(self) -> int:
        """Seeds where B beat A."""
        return sum(g > 0 for g in self.gains)

    @property
    def consistent(self) -> bool:
        """All seeds agree on the sign."""
        return all(g > 0 for g in self.gains) or all(
            g < 0 for g in self.gains
        )


def compare_configs(
    config_a: SystemConfig,
    config_b: SystemConfig,
    apps: Sequence[str],
    seeds: Sequence[int] = (1, 2, 3),
    metric: MetricFn | None = None,
    metric_name: str = "throughput",
    runner: Runner | None = None,
) -> PairedComparison:
    """Paired A/B across seeds: same seed, same workload draw, two
    configurations.  Pairing removes the workload-sampling noise that
    dominates unpaired comparisons at small budgets."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    metric = metric or (lambda r: r.throughput)
    runner = runner or Runner()
    apps = tuple(apps)
    results = runner.run_many(
        [(config_a.with_(seed=seed), apps) for seed in seeds]
        + [(config_b.with_(seed=seed), apps) for seed in seeds]
    )
    gains = []
    for i, seed in enumerate(seeds):
        a = metric(results[i])
        b = metric(results[i + len(seeds)])
        if a == 0:
            raise ConfigError(f"metric is zero under config A (seed {seed})")
        gains.append((b - a) / a)
    return PairedComparison(metric=metric_name, gains=tuple(gains))
