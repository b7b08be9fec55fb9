"""Differential oracle: the core's shortcuts against ticking every cycle.

:func:`compare_engines` runs one configuration with
``SMTCore.shortcuts`` off (tick every cycle, generate µops afresh) and
then on (the stalled-window kernel and the stream memo), and compares
the two :class:`~repro.experiments.runner.MixResult` structures field by
field — every counter, every per-thread statistic, every nested
dataclass — reporting the path of the first divergences instead of a
bare boolean.  Floats compare with ``==``: both runs must perform the
same arithmetic on the same values in the same order; any epsilon
would hide a real ordering divergence.

The tier-1 check is ``tests/engine/test_golden.py``, which runs every
golden job in both modes against the same committed digests.  This
module stays because ``bench/workloads.py`` calls
``compare_engines(config, apps).divergences`` once per benchmark run;
drop it with that call.  Comparisons bypass the :class:`Runner` result
cache: ``SystemConfig.cache_key()`` does not hold the shortcuts, so a
cached result would compare one run against itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from repro.cpu.core import SMTCore
from repro.experiments.config import SystemConfig
from repro.experiments.runner import MixResult, run_mix

#: Cap on recorded differences per comparison; the first divergence is
#: the one that matters, the rest are usually its echoes.
MAX_DIFFS = 20


@dataclass(frozen=True)
class Divergence:
    """One differing field: ``reference`` is the shortcut-free run's
    value, ``fast`` the value with the shortcuts on."""

    path: str
    reference: object
    fast: object

    def __str__(self) -> str:
        return f"{self.path}: reference={self.reference!r} fast={self.fast!r}"


@dataclass
class ComparisonReport:
    """Outcome of one config compared with and without the shortcuts."""

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
    """Run ``config`` with the core's shortcuts off, then on, and diff.

    Both runs are freshly built simulations (no cache involvement, see
    the module docstring); the shortcut-free run goes first so a crash
    with the shortcuts on cannot mask a failure without them.  The
    class attribute is restored whatever happens.
    """
    apps = tuple(apps)
    saved = SMTCore.shortcuts
    try:
        SMTCore.shortcuts = False
        reference = run_mix(config, apps)
        SMTCore.shortcuts = True
        fast = run_mix(config, apps)
    finally:
        SMTCore.shortcuts = saved
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
