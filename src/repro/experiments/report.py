"""Rendering experiment results: text tables, CSV, and the markdown report.

Every experiment returns an :class:`ExperimentResult` (structured rows);
this module turns one into an aligned monospace table, CSV, or a
markdown section, all through one cell formatter so the three agree.
``python -m repro report --out report.md`` runs the selected experiments
at one configuration and writes them as a single self-describing
markdown document (:func:`generate_report`); the checked-in
``EXPERIMENTS.md`` adds the paper-vs-measured commentary on top of one
such run.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.experiments.config import SystemConfig
from repro.experiments.runner import Runner


def format_cell(value: object, floatfmt: str = ".3f") -> str:
    """One table cell: floats with ``floatfmt``, everything else as ``str``."""
    return format(value, floatfmt) if isinstance(value, float) else str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    floatfmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    rendered = [[format_cell(value, floatfmt) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for cells in rendered:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
        )
    return "\n".join(lines)


def format_bars(
    data: Mapping[str, float],
    width: int = 40,
    unit: str = "",
    floatfmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render a label -> value mapping as an ASCII bar chart."""
    if not data:
        return "(no data)"
    peak = max(data.values()) or 1.0
    label_w = max(len(k) for k in data)
    lines = [title] if title else []
    for label, value in data.items():
        bar = "#" * max(0, int(round(width * value / peak)))
        lines.append(
            f"{label:<{label_w}}  {format(value, floatfmt):>8}{unit} {bar}"
        )
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Structured result of one reproduced figure."""

    name: str
    description: str
    headers: list[str]
    rows: list[tuple]
    notes: str = ""
    extra: dict = field(default_factory=dict)

    def render(self, floatfmt: str = ".3f") -> str:
        text = format_table(
            self.headers,
            self.rows,
            floatfmt=floatfmt,
            title=f"{self.name}: {self.description}",
        )
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def to_markdown(self) -> str:
        """The result as a markdown section: heading, description, table, notes."""
        lines = [f"## {self.name}", "", self.description, ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "---|" * len(self.headers))
        for row in self.rows:
            lines.append("| " + " | ".join(map(format_cell, row)) + " |")
        if self.notes:
            lines += ["", f"*{self.notes}*"]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Rows as CSV text (header line first)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by header names."""
        return [dict(zip(self.headers, row)) for row in self.rows]


def _config_markdown(config: SystemConfig) -> str:
    fields = [
        ("DRAM", f"{config.channels}-channel {config.dram_type.upper()} "
                 f"({config.organization_name()})"),
        ("mapping / page mode", f"{config.mapping} / {config.page_mode}"),
        ("scheduler", config.scheduler),
        ("fetch policy", config.fetch_policy),
        ("controller model", config.controller_model),
        ("scale", str(config.scale)),
        ("instructions/thread", str(config.instructions_per_thread)),
        ("warm-up", str(config.warmup_instructions)),
        ("seed", str(config.seed)),
    ]
    lines = ["| parameter | value |", "|---|---|"]
    lines += [f"| {k} | {v} |" for k, v in fields]
    return "\n".join(lines)


def generate_report(
    config: SystemConfig | None = None,
    experiments: Sequence[str] | None = None,
    include_ablations: bool = False,
    runner: Runner | None = None,
    progress: Callable[[str], None] | None = None,
) -> str:
    """Run the selected experiments and return the markdown report.

    Without ``experiments`` every figure runs (and every ablation too
    with ``include_ablations``).
    """
    # Imported here: the experiment registry renders through this module.
    from repro.experiments.figures import EXPERIMENTS, REGISTRY, run_experiment

    config = config or SystemConfig()
    runner = runner or Runner()
    known = REGISTRY if include_ablations else EXPERIMENTS
    names = list(experiments) if experiments else list(known)
    unknown = [n for n in names if n not in known]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}")

    parts = [
        "# Reproduction report",
        "",
        "Zhu & Zhang, *A Performance Comparison of DRAM Memory System "
        "Optimizations for SMT Processors* (HPCA 2005) — generated by "
        "the `repro` library.",
        "",
        "## Configuration",
        "",
        _config_markdown(config),
        "",
    ]
    total = 0.0
    for name in names:
        if progress:
            progress(name)
        start = time.perf_counter()
        result = run_experiment(name, config=config, runner=runner)
        seconds = time.perf_counter() - start
        total += seconds
        parts.append(
            f"{result.to_markdown()}\n\n_(generated in {seconds:.1f} s)_\n"
        )
    parts.append(f"---\n\n_total generation time: {total:.1f} s_\n")
    return "\n".join(parts)
