"""Differential oracle: prove the fast engine bit-identical.

"Fast is a lie unless the diff lane is green."  The fast engine's
entire value rests on producing *exactly* the reference results; this
module is the instrument that checks it.  It runs the same
configuration under both engines and compares the resulting
:class:`~repro.experiments.runner.MixResult` structures field by
field — every counter, every per-thread statistic, every nested
dataclass — reporting the precise path of the first divergences
instead of a bare boolean.  Floats compare with ``==``: both engines
must perform the same arithmetic on the same values in the same order;
any epsilon would hide a real ordering divergence.

Used three ways:

* ``repro engine-diff`` (CLI) sweeps the fig10 configuration space —
  every memory-bound mix crossed with every scheduler the figure
  plots, plus single-config variations — and exits non-zero on any
  divergence.  CI runs this as its own lane.
* ``tests/engine/test_oracle.py`` runs a reduced sweep in tier-1.
* ad-hoc: ``compare_engines(config, apps)`` for any configuration a
  developer suspects.

Comparisons deliberately bypass the :class:`Runner` result cache:
``SystemConfig.cache_key()`` excludes the engine field (bit-identity
is what *makes* that sharing sound), so a cached result would compare
one engine's output against itself and prove nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.config import SystemConfig
from repro.experiments.figures import FIG10
from repro.experiments.runner import MixResult, run_mix
from repro.workloads.mixes import MIXES

#: Cap on recorded differences per comparison; the first divergence is
#: the one that matters, the rest are usually its echoes.
MAX_DIFFS = 20

#: The fig10 sweep: every memory-bound mix x every scheduler the
#: figure plots (the paper's headline comparison), which exercises
#: both DRAM controller models' wake/sleep paths, all thread-aware
#: scheduler context callbacks, and every fetch-policy gating regime
#: reachable from the default configuration.  Read from the figure's
#: spec, so the oracle sweeps exactly the grid the figure plots.
FIG10_SCHEDULERS: tuple[str, ...] = tuple(
    overrides["scheduler"] for _header, overrides in FIG10.columns
)
FIG10_MIXES: tuple[str, ...] = FIG10.rows

def _with_core(config: SystemConfig, **core_overrides: Any) -> SystemConfig:
    return config.with_(
        core=dataclasses.replace(config.core, **core_overrides)
    )


#: Single-config variations appended to the sweep so the oracle also
#: covers the paths fig10 itself does not reach: the command-level
#: controller, close-page mode, RDRAM timing/geometry, interval
#: sampling, the hybrid branch predictor, and every fetch policy.
#: Each entry maps the base config to the varied one.
EXTRA_VARIATIONS: tuple[tuple[str, object], ...] = (
    ("command-controller", lambda c: c.with_(controller_model="command")),
    ("close-page", lambda c: c.with_(page_mode="close")),
    ("rdram", lambda c: c.with_(dram_type="rdram")),
    ("sampling", lambda c: _with_core(c, sample_interval=200)),
    ("branch-pred", lambda c: _with_core(c, branch_predictor=True)),
    ("round-robin", lambda c: c.with_(fetch_policy="round-robin")),
    ("icount", lambda c: c.with_(fetch_policy="icount")),
    ("stall", lambda c: c.with_(fetch_policy="stall")),
    ("dg", lambda c: c.with_(fetch_policy="dg")),
)


@dataclass(frozen=True)
class Divergence:
    """One differing field between the two engines' results."""

    path: str
    reference: object
    fast: object

    def __str__(self) -> str:
        return f"{self.path}: reference={self.reference!r} fast={self.fast!r}"


@dataclass
class ComparisonReport:
    """Outcome of one config compared across engines."""

    label: str
    config: SystemConfig
    apps: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        if self.identical:
            return f"OK       {self.label}"
        lines = [f"DIVERGED {self.label}"]
        lines.extend(f"    {d}" for d in self.divergences)
        return "\n".join(lines)


def _slot_names(obj: object) -> set[str]:
    """All ``__slots__`` entries across the MRO plus ``__dict__`` keys."""
    names: set[str] = set()
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict:
        names.update(instance_dict)
    return names


def diff_values(a: object, b: object, path: str, out: list[Divergence]) -> None:
    """Structural comparison; append one :class:`Divergence` per leaf.

    Walks dataclasses by field, mappings by key, sequences by index,
    and plain objects by ``__slots__``/``__dict__`` attribute; leaves
    compare with ``==``.  Recorded paths use attribute/index syntax
    (``core.threads[3].dram_accesses``) so a divergence can be
    navigated directly in a debugger.
    """
    if len(out) >= MAX_DIFFS:
        return
    if type(a) is not type(b):
        out.append(Divergence(path, type(a).__name__, type(b).__name__))
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            diff_values(
                getattr(a, f.name), getattr(b, f.name),
                f"{path}.{f.name}", out,
            )
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=repr):
            if key not in a or key not in b:
                out.append(
                    Divergence(
                        f"{path}[{key!r}]",
                        a.get(key, "<absent>"),
                        b.get(key, "<absent>"),
                    )
                )
            else:
                diff_values(a[key], b[key], f"{path}[{key!r}]", out)
        return
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(Divergence(f"len({path})", len(a), len(b)))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            diff_values(x, y, f"{path}[{i}]", out)
        return
    if isinstance(a, (int, float, str, bytes, bool, frozenset, type(None))):
        if a != b:
            out.append(Divergence(path, a, b))
        return
    names = _slot_names(a)
    if not names:
        if a != b:
            out.append(Divergence(path, a, b))
        return
    for name in sorted(names):
        diff_values(
            getattr(a, name, "<unset>"), getattr(b, name, "<unset>"),
            f"{path}.{name}", out,
        )


def diff_results(
    reference: MixResult, fast: MixResult
) -> list[Divergence]:
    """All field-level differences between two runs' results."""
    out: list[Divergence] = []
    diff_values(reference.core, fast.core, "core", out)
    diff_values(reference.dram, fast.dram, "dram", out)
    diff_values(reference.hierarchy, fast.hierarchy, "hierarchy", out)
    return out


def compare_engines(
    config: SystemConfig, apps: Sequence[str], label: str | None = None
) -> ComparisonReport:
    """Run ``config`` under both engines and diff the results.

    The two runs are freshly built simulations (no cache involvement,
    see the module docstring); the reference runs first so a crash in
    the fast engine cannot mask a reference-side failure.
    """
    apps = tuple(apps)
    reference = run_mix(config.with_(engine="reference"), apps)
    fast = run_mix(config.with_(engine="fast"), apps)
    return ComparisonReport(
        label=label or _default_label(config, apps),
        config=config,
        apps=apps,
        divergences=diff_results(reference, fast),
    )


def _default_label(config: SystemConfig, apps: tuple[str, ...]) -> str:
    return (
        f"{len(apps)} threads, {config.fetch_policy}/{config.scheduler}, "
        f"{config.controller_model} controller"
    )


def fig10_sweep_jobs(
    config: SystemConfig | None = None,
    mixes: Sequence[str] | None = None,
) -> list[tuple[str, SystemConfig, tuple[str, ...]]]:
    """The ``(label, config, apps)`` jobs of the full oracle sweep.

    ``mixes`` restricts the figure-10 rows (default: all of them); the
    extra variations run on the last mix of the sweep.
    """
    base = config or SystemConfig()
    mixes = mixes or FIG10_MIXES
    jobs: list[tuple[str, SystemConfig, tuple[str, ...]]] = []
    for mix_name in mixes:
        mix = MIXES[mix_name]
        for scheduler in FIG10_SCHEDULERS:
            jobs.append(
                (
                    f"{mix_name} {scheduler}",
                    base.with_(scheduler=scheduler),
                    mix.apps,
                )
            )
    variation_mix = MIXES[mixes[-1]]
    for label, vary in EXTRA_VARIATIONS:
        jobs.append(
            (f"{variation_mix.name} {label}", vary(base), variation_mix.apps)
        )
    return jobs


def run_fig10_sweep(
    config: SystemConfig | None = None,
    mixes: Sequence[str] | None = None,
    progress: Callable[[ComparisonReport], None] | None = None,
    fail_fast: bool = False,
) -> list[ComparisonReport]:
    """Compare engines across the fig10 sweep (see module docstring).

    ``progress`` (optional) is called with each finished
    :class:`ComparisonReport`; with ``fail_fast`` the sweep stops at
    the first divergence — the mode the CI lane uses, since one broken
    config already invalidates the fast engine.
    """
    reports: list[ComparisonReport] = []
    for label, job_config, apps in fig10_sweep_jobs(config, mixes):
        report = compare_engines(job_config, apps, label=label)
        reports.append(report)
        if progress is not None:
            progress(report)
        if fail_fast and not report.identical:
            break
    return reports


def summarize(reports: Iterable[ComparisonReport]) -> str:
    """One-line verdict over a sweep's reports."""
    reports = list(reports)
    bad = [r for r in reports if not r.identical]
    if not bad:
        return (
            f"engine-diff: {len(reports)} configurations, zero divergence "
            "(fast engine is bit-identical to the reference)"
        )
    return (
        f"engine-diff: {len(bad)} of {len(reports)} configurations "
        "DIVERGED - the fast engine is not trustworthy on this tree"
    )
