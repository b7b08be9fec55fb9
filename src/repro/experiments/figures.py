"""Every experiment of the evaluation (Section 5), as data.

An experiment is a table.  Rows are Table 2 mixes (applications, for
Figure 1); columns are variants of one :class:`SystemConfig`, given as
``(header, overrides)``; each cell is a value read from a few
simulations -- weighted speedup, throughput, a row-miss rate.  A
:class:`FigureSpec` says exactly that, plus at most three small
functions: the jobs a row needs before its cells, the jobs and value of
one cell, and a finish that shapes the table (normalising, sorting,
padding).

One driver serves all of them.  :func:`plan` derives the complete job
list from a spec; :func:`run_experiment` hands that list to the runner
in one batch and reduces the results it got back, by position, into an
:class:`ExperimentResult`.  The reduction reads nothing the plan does
not contain, so a serial, pooled or remote runner computes the same
table, and a service campaign (``repro.service.jobs.campaign_jobs``) is
the plan itself.

:data:`REGISTRY` maps the command-line names (``"fig1"`` ...
``"fig10"``, ``"coverage"``, ``"abl-*"``) to specs;
:data:`EXPERIMENTS` (the paper's figures and the Section 5.1 statistic)
and :data:`ABLATIONS` are its two halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.config import SystemConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import MixResult, Runner
from repro.metrics.breakdown import cpi_breakdown
from repro.metrics.concurrency import bucket_outstanding, bucket_thread_counts
from repro.metrics.speedup import weighted_speedup
from repro.workloads.mixes import MIXES, all_mix_names
from repro.workloads.spec2000 import PROFILES

Job = tuple[SystemConfig, tuple[str, ...]]
#: Reads one cell's value from its own results and its row's results.
CellValue = Callable[[list[MixResult], list[MixResult]], Any]
#: ``(runner, column config, row apps) -> (the cell's jobs, its value)``.
CellFn = Callable[
    [Runner, SystemConfig, tuple[str, ...]], tuple[list[Job], CellValue]
]
#: ``(runner, experiment config, row apps) -> jobs the row's cells share``.
RowJobsFn = Callable[[Runner, SystemConfig, tuple[str, ...]], list[Job]]
#: ``[(row label, [cell values in column order])]``.
Table = list[tuple[str, list]]
#: ``(spec, table) -> (headers, rows)``.
FinishFn = Callable[["FigureSpec", Table], tuple[list[str], list[tuple]]]


# ---------------------------------------------------------------------------
# cells


def _ipc(result: MixResult) -> float:
    return result.core.threads[0].ipc


def _ws_jobs(
    runner: Runner, config: SystemConfig, apps: tuple[str, ...]
) -> list[Job]:
    """The mix and one single-thread baseline per app, on ``config``."""
    return [(config, apps), *(runner.baseline_job(config, app) for app in apps)]


def _ws(own: list[MixResult]) -> float:
    """Weighted speedup of ``own[0]`` against the baselines after it."""
    return weighted_speedup(own[0].ipcs, [_ipc(r) for r in own[1:]])


def ws_cell(runner: Runner, config: SystemConfig, apps: tuple[str, ...]):
    """Weighted speedup against baselines run on the cell's own config."""
    return _ws_jobs(runner, config, apps), lambda own, _row: _ws(own)


def run_cell(read: Callable[[MixResult], Any]) -> CellFn:
    """One run of the row's mix on the cell's config; ``read`` gives the value."""
    return lambda _runner, config, apps: (
        [(config, apps)], lambda own, _row: read(own[0])
    )


def _pct(fraction: float) -> str:
    return f"{100 * fraction:.1f}%"


def _no_row_jobs(_runner: Runner, _config: SystemConfig, _apps) -> list[Job]:
    return []


# ---------------------------------------------------------------------------
# finishes


def _headers(spec: FigureSpec) -> list[str]:
    return [spec.row_header, *(header for header, _ in spec.columns)]


def as_is(spec: FigureSpec, table: Table) -> tuple[list[str], list[tuple]]:
    """One output column per spec column, values unchanged."""
    return _headers(spec), [(label, *values) for label, values in table]


def normalised(base: Callable[[FigureSpec, int], int | None]) -> FinishFn:
    """Each cell divided by the cell of column ``base(spec, j)`` in its row
    (by 1.0 when there is no such column or its value is zero)."""

    def finish(spec: FigureSpec, table: Table) -> tuple[list[str], list[tuple]]:
        bases = [base(spec, j) for j in range(len(spec.columns))]
        rows = []
        for label, values in table:
            divisors = [(values[b] if b is not None else 0.0) or 1.0 for b in bases]
            rows.append((label, *(v / d for v, d in zip(values, divisors))))
        return _headers(spec), rows

    return finish


def _first_column(_spec: FigureSpec, _j: int) -> int:
    return 0


def _same_channels_1g(spec: FigureSpec, j: int) -> int | None:
    """The independent (xC-1G) column with column ``j``'s channel count."""
    target = {"channels": spec.columns[j][1]["channels"], "gang": 1}
    return next(
        (i for i, (_, overrides) in enumerate(spec.columns) if overrides == target),
        None,
    )


# ---------------------------------------------------------------------------
# the spec and the driver


@dataclass(frozen=True)
class FigureSpec:
    """One experiment: which table to fill and how to read each cell."""

    #: Registry / command-line name, e.g. ``"fig10"``.
    name: str
    #: Table title, e.g. ``"Figure 10"``.
    title: str
    description: str
    #: The one line ``repro list`` and ``--help`` print.
    summary: str
    #: Default rows: Table 2 mix names (application names for Figure 1).
    rows: tuple[str, ...]
    #: ``(header, SystemConfig overrides)`` per column.
    columns: tuple[tuple[str, Mapping[str, Any]], ...]
    cell: CellFn = ws_cell
    row_jobs: RowJobsFn = _no_row_jobs
    finish: FinishFn = as_is
    notes: str = ""
    #: ``"mix"``, or ``"app"`` when each row is one application.
    row_header: str = "mix"

    def row_apps(self, row: str) -> tuple[str, ...]:
        return (row,) if self.row_header == "app" else MIXES[row].apps

    def select_rows(self, mixes: Sequence[str] | None) -> tuple[str, ...]:
        """The rows for a mix subset: the default rows without one, and
        always for application rows (there is no mix to select)."""
        if not mixes or self.row_header == "app":
            return self.rows
        unknown = [m for m in mixes if m not in MIXES]
        if unknown:
            raise KeyError(f"unknown mixes {unknown}; known: {all_mix_names()}")
        return tuple(mixes)


@dataclass(frozen=True)
class Plan:
    """A spec's complete job list and where each cell reads from it."""

    spec: FigureSpec
    jobs: list[Job]
    #: ``[(row label, row jobs, [(cell jobs, cell value)])]`` as slices of ``jobs``.
    layout: list[tuple[str, slice, list[tuple[slice, CellValue]]]]

    def reduce(self, results: list[MixResult]) -> ExperimentResult:
        """The table, from ``results[i]`` being the result of ``jobs[i]``."""
        table = [
            (label, [value(results[own], results[row]) for own, value in cells])
            for label, row, cells in self.layout
        ]
        headers, rows = self.spec.finish(self.spec, table)
        return ExperimentResult(
            name=self.spec.title,
            description=self.spec.description,
            headers=headers,
            rows=rows,
            notes=self.spec.notes,
        )


def plan(
    spec: FigureSpec,
    config: SystemConfig,
    runner: Runner,
    mixes: Sequence[str] | None = None,
) -> Plan:
    """Every job ``spec`` needs, row by row: the row's own jobs, then each
    column's cell.  Duplicates are kept; the runner shares them."""
    jobs: list[Job] = []
    layout = []
    for label in spec.select_rows(mixes):
        apps = spec.row_apps(label)
        start = len(jobs)
        jobs += spec.row_jobs(runner, config, apps)
        row = slice(start, len(jobs))
        cells = []
        for _header, overrides in spec.columns:
            cell_jobs, value = spec.cell(runner, config.with_(**overrides), apps)
            cells.append((slice(len(jobs), len(jobs) + len(cell_jobs)), value))
            jobs += cell_jobs
        layout.append((label, row, cells))
    return Plan(spec, jobs, layout)


def run_experiment(
    experiment: str | FigureSpec,
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Run one experiment (a registry name or a spec) on ``mixes``."""
    if isinstance(experiment, FigureSpec):
        spec = experiment
    elif experiment in REGISTRY:
        spec = REGISTRY[experiment]
    else:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: {sorted(REGISTRY)}"
        )
    runner = runner or Runner()
    planned = plan(spec, config or SystemConfig(), runner, mixes)
    return planned.reduce(runner.run_many(planned.jobs))


# ---------------------------------------------------------------------------
# Figures 1-10 and the Section 5.1 statistic

#: Mixes with meaningful memory behaviour (Figures 7 and 10 drop ILP).
MEMORY_BOUND_MIXES = ("2-MIX", "2-MEM", "4-MIX", "4-MEM", "8-MIX", "8-MEM")
ALL_MIXES = tuple(all_mix_names())
#: One column on the experiment's own configuration.
_ONE_COLUMN = (("base", {}),)


def _cpi_stack(spec: FigureSpec, table: Table) -> tuple[list[str], list[tuple]]:
    breakdowns = sorted(
        (cpi_breakdown(app, *cpis) for app, cpis in table),
        key=lambda b: b.cpi_mem,
    )
    headers = ["app", "CPI_proc", "CPI_L2", "CPI_L3", "CPI_mem", "CPI_total"]
    return headers, [b.as_row() for b in breakdowns]


# Each application runs single-threaded on four systems (real, perfect
# L3, perfect L2, perfect L1); the CPI differences give the
# proc/L2/L3/mem components.  Rows are sorted by rising CPI_mem, as in
# the paper.
FIG1 = FigureSpec(
    name="fig1",
    title="Figure 1",
    description="CPI breakdown of SPEC2000 applications "
    "(sorted by rising CPI_mem)",
    summary="CPI breakdown of the SPEC2000 applications (Figure 1).",
    rows=tuple(sorted(PROFILES)),
    row_header="app",
    columns=(
        ("real", {}),
        ("perfect L3", {"perfect_l3": True}),
        ("perfect L2", {"perfect_l3": True, "perfect_l2": True}),
        ("perfect L1", {"perfect_l3": True, "perfect_l2": True, "perfect_l1": True}),
    ),
    cell=lambda runner, config, apps: (
        [runner.baseline_job(config, apps[0])],
        lambda own, _row: 1.0 / _ipc(own[0]),
    ),
    finish=_cpi_stack,
    notes="MEM applications cluster at the bottom (largest CPI_mem); "
    "mcf should be last.",
)


# Single-thread baselines are shared across policies (a fetch policy
# cannot meaningfully affect a one-thread run), so WS values are
# directly comparable between columns.
FIG2 = FigureSpec(
    name="fig2",
    title="Figure 2",
    description="weighted speedup of four fetch policies "
    "(2-channel DDR SDRAM)",
    summary="Weighted speedup of the four fetch policies (Figure 2).",
    rows=ALL_MIXES,
    columns=tuple(
        (p, {"fetch_policy": p}) for p in ("icount", "stall", "dg", "dwarn")
    ),
    row_jobs=lambda runner, config, apps: [
        runner.baseline_job(config.with_(fetch_policy="icount"), app)
        for app in apps
    ],
    cell=lambda _runner, config, apps: (
        [(config, apps)],
        lambda own, row: weighted_speedup(own[0].ipcs, [_ipc(r) for r in row]),
    ),
    notes="Expected shape: comparable for ILP mixes; the "
    "long-latency-aware policies beat ICOUNT on 8-MIX/8-MEM.",
)


def _fig3_reference(runner: Runner, config: SystemConfig, apps) -> list[Job]:
    reference = config.with_(perfect_l3=True, fetch_policy="icount")
    return [*(runner.baseline_job(reference, app) for app in apps), (reference, apps)]


def _fig3_cell(_runner: Runner, config: SystemConfig, apps):
    def value(own: list[MixResult], row: list[MixResult]) -> str:
        *singles, reference = row
        ipcs = [_ipc(r) for r in singles]
        ws_reference = weighted_speedup(reference.ipcs, ipcs)
        ws = weighted_speedup(own[0].ipcs, ipcs)
        return f"{(100.0 * ws / ws_reference if ws_reference else 0.0):.1f}%"

    return [(config, apps)], value


# Weighted speedup on the real 2-channel system as a percentage of the
# weighted speedup with an infinitely large L3 (ICOUNT), the paper's
# reference point.  Both are computed against the *same* single-thread
# baselines (on the infinite-L3 machine); per-machine baselines would
# cancel the DRAM effect out of the ratio instead of exposing it.
FIG3 = FigureSpec(
    name="fig3",
    title="Figure 3",
    description="weighted speedup relative to the infinite-L3 "
    "reference (=100%)",
    summary="Performance loss due to DRAM accesses (Figure 3).",
    rows=ALL_MIXES,
    columns=tuple((p, {"fetch_policy": p}) for p in ("icount", "dwarn")),
    row_jobs=_fig3_reference,
    cell=_fig3_cell,
    notes="Expected shape: ILP mixes stay near 100%; MEM mixes lose "
    "most of their performance; DWarn recovers more than ICOUNT "
    "on the 8-thread mixes.",
)


_OUTSTANDING_LABELS = ("1", "2-3", "4-7", "8-15", "16+")

FIG4 = FigureSpec(
    name="fig4",
    title="Figure 4",
    description="outstanding memory requests while the DRAM system "
    "is busy (time-weighted)",
    summary="Distribution of outstanding requests while DRAM is busy (Fig. 4).",
    rows=ALL_MIXES,
    columns=_ONE_COLUMN,
    cell=run_cell(lambda r: [
        _pct(v)
        for v in bucket_outstanding(r.dram.busy_outstanding_distribution()).values()
    ]),
    finish=lambda spec, table: (
        [spec.row_header, *_OUTSTANDING_LABELS],
        [(label, *cells) for label, (cells,) in table],
    ),
    notes="Expected shape: MEM mixes concentrate at 8+ outstanding "
    "requests; ILP mixes at 1-2.  An all-zero row means the mix "
    "made no main-memory accesses in the window (ILP mixes "
    "generate ~0.01/100 instructions).",
)


def _pad_threads(spec: FigureSpec, table: Table) -> tuple[list[str], list[tuple]]:
    """One column per thread count up to the widest mix; '-' past a mix's own."""
    width = max(len(cells) for _, (cells,) in table)
    return (
        [spec.row_header, *(str(t) for t in range(1, width + 1))],
        [(label, *cells, *["-"] * (width - len(cells))) for label, (cells,) in table],
    )


FIG5 = FigureSpec(
    name="fig5",
    title="Figure 5",
    description="number of threads with outstanding requests when "
    "multiple requests are present",
    summary="Threads generating concurrent requests (Figure 5).",
    rows=ALL_MIXES,
    columns=_ONE_COLUMN,
    cell=run_cell(lambda r: [
        _pct(v)
        for v in bucket_thread_counts(
            r.dram.thread_concurrency_distribution(), len(r.apps)
        ).values()
    ]),
    finish=_pad_threads,
    notes="Expected shape: for MEM mixes the requests come from "
    "(almost) all threads; for ILP mixes usually from one.  An "
    "all-zero row means the mix never had two requests "
    "outstanding at once.",
)

FIG6 = FigureSpec(
    name="fig6",
    title="Figure 6",
    description="weighted speedup vs channel count, normalized to 2 channels",
    summary="Performance as the number of (independent) channels grows (Fig. 6).",
    rows=ALL_MIXES,
    columns=tuple((f"{n}ch", {"channels": n, "gang": 1}) for n in (2, 4, 8)),
    finish=normalised(_first_column),
    notes="Expected shape: large gains for MEM mixes (bandwidth "
    "bound), negligible for ILP mixes.",
)

# ``xC-yG`` labels the paper's organizations: x channels ganged y at a
# time.  Values are relative to the same-channel-count independent
# (xC-1G) organization, so the cost of ganging reads straight off.
FIG7 = FigureSpec(
    name="fig7",
    title="Figure 7",
    description="channel ganging: WS relative to the independent "
    "(1G) organization with the same channel count",
    summary="Channel ganging organizations (Figure 7).",
    rows=MEMORY_BOUND_MIXES,
    columns=tuple(
        (f"{c}C-{g}G", {"channels": c, "gang": g})
        for c, g in ((2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (8, 1), (8, 2), (8, 4))
    ),
    finish=normalised(_same_channels_1g),
    notes="Expected shape: ganged organizations lose performance on "
    "memory-bound mixes (up to tens of percent).",
)


def _mapping_columns(dram_type: str) -> tuple[tuple[str, Mapping[str, Any]], ...]:
    return tuple(
        (m, {"dram_type": dram_type, "mapping": m}) for m in ("page", "xor")
    )


_row_misses = run_cell(lambda r: _pct(r.row_buffer_miss_rate))

FIG8 = FigureSpec(
    name="fig8",
    title="Figure 8",
    description="row-buffer miss rates under page and XOR mappings "
    "(2-channel DDR SDRAM, 8 banks)",
    summary="Row-buffer miss rates, page vs XOR mapping, DDR SDRAM (Fig. 8).",
    rows=ALL_MIXES,
    columns=_mapping_columns("ddr"),
    cell=_row_misses,
    notes="Expected shape: XOR reduces miss rates moderately; rates "
    "rise with the thread count and stay high for MEM mixes "
    "(few banks).",
)

FIG9 = FigureSpec(
    name="fig9",
    title="Figure 9",
    description="row-buffer miss rates under page and XOR mappings "
    "(2-channel Direct Rambus, 32 banks/chip)",
    summary="Row-buffer miss rates on Direct Rambus (many banks) (Fig. 9).",
    rows=ALL_MIXES,
    columns=_mapping_columns("rdram"),
    cell=_row_misses,
    notes="Expected shape: with many independent banks the XOR "
    "mapping is considerably more effective than on DDR.",
)

# The single-thread-era policies (FCFS, hit-first, age-based) and the
# paper's three thread-aware schemes, normalized to FCFS.
FIG10 = FigureSpec(
    name="fig10",
    title="Figure 10",
    description="DRAM access schedulers: WS normalized to FCFS",
    summary="Thread-aware access scheduling (Figure 10).",
    rows=MEMORY_BOUND_MIXES,
    columns=tuple(
        (s, {"scheduler": s})
        for s in (
            "fcfs", "hit-first", "age-based",
            "request-based", "rob-based", "iq-based",
        )
    ),
    finish=normalised(_first_column),
    notes="Expected shape: thread-aware schemes gain most on MEM "
    "mixes, with the request-based scheme strongest on 2-MEM.",
)

# Section 5.1 explains ICOUNT's loss on 8-MIX with this statistic: under
# DWarn the processor issues at least one integer instruction in 92.2%
# of cycles, under ICOUNT in only 43.8%.
COVERAGE = FigureSpec(
    name="coverage",
    title="Issue coverage (Section 5.1)",
    description="% of cycles with at least one integer instruction issued",
    summary="Integer-issue coverage under different fetch policies.",
    rows=("8-MIX", "8-MEM", "4-MEM"),
    columns=tuple((p, {"fetch_policy": p}) for p in ("icount", "dwarn")),
    cell=run_cell(lambda r: _pct(r.core.int_issue_coverage)),
    notes="Paper (8-MIX): 92.2% under DWarn vs 43.8% under ICOUNT.",
)


# ---------------------------------------------------------------------------
# Ablations: what the modelling choices DESIGN.md documents cost or buy

_ABLATION_MIXES = ("2-MEM", "4-MEM")

ABL_PAGE_MODE = FigureSpec(
    name="abl-page-mode",
    title="Ablation: page mode",
    description="weighted speedup under open vs close page modes",
    summary="Open vs close page mode: WS and row-buffer miss rates.",
    rows=_ABLATION_MIXES,
    columns=tuple((m, {"page_mode": m}) for m in ("open", "close")),
    notes="Open page exploits row-buffer locality; close page "
    "removes the precharge from the conflict path.",
)

# Throughput, not weighted speedup: the WS baselines would shift with
# the MSHR count and cancel the effect under study.
ABL_MSHR = FigureSpec(
    name="abl-mshr",
    title="Ablation: MSHR capacity",
    description="aggregate IPC vs outstanding-miss capacity",
    summary="Performance vs MSHR capacity (memory-level-parallelism cap).",
    rows=_ABLATION_MIXES,
    columns=tuple((f"mshr={n}", {"mshr_entries": n}) for n in (4, 16, 32, 64)),
    cell=run_cell(lambda r: r.throughput),
    notes="Throughput should rise with capacity and saturate; "
    "see DESIGN.md on the combined 32-entry default.",
)

ABL_SCHED_MAPPING = FigureSpec(
    name="abl-sched-mapping",
    title="Ablation: scheduler x mapping",
    description="weighted speedup for scheduler/mapping combinations",
    summary="Interaction grid: {fcfs, hit-first} x {page, xor}.",
    rows=_ABLATION_MIXES,
    columns=tuple(
        (f"{s}+{m}", {"scheduler": s, "mapping": m})
        for s in ("fcfs", "hit-first")
        for m in ("page", "xor")
    ),
    notes="Hit-first exploits the locality the XOR mapping "
    "preserves; the combination should be at least as good as "
    "either alone.",
)

# Section 5.4 calls for mappings that consider inter-thread conflicts;
# color-xor folds thread-color address bits into the bank permutation.
ABL_COLOR_MAPPING = FigureSpec(
    name="abl-color-mapping",
    title="Ablation: thread-color mapping",
    description="row-buffer miss rates; color-xor folds thread bits "
    "into the bank permutation (extension)",
    summary="Row-buffer miss rates of page / xor / color-xor mappings.",
    rows=("4-MEM", "8-MEM"),
    columns=tuple((m, {"mapping": m}) for m in ("page", "xor", "color-xor")),
    cell=_row_misses,
    notes="Section 5.4 calls for mappings that consider conflicts "
    "from multiple threads; color-xor is one such candidate.",
)

ABL_CRITICAL = FigureSpec(
    name="abl-critical",
    title="Ablation: criticality-based scheduling",
    description="WS normalized to FCFS, including the Section 3.1 "
    "criticality policy (extension)",
    summary="The criticality-based policy against the paper's schemes.",
    rows=_ABLATION_MIXES,
    columns=tuple(
        (s, {"scheduler": s})
        for s in ("fcfs", "hit-first", "request-based", "critical-first")
    ),
    finish=normalised(_first_column),
)

# The generator's native disjoint address spaces ("none") against real
# translation layers: bin hopping (what the paper's simulation uses),
# page coloring (banks partitioned between threads), random allocation.
ABL_VM_POLICY = FigureSpec(
    name="abl-vm-policy",
    title="Ablation: VM page allocation",
    description="WS / row-buffer miss rate per allocation policy",
    summary="OS page-allocation policies (Section 5.4's suggested direction).",
    rows=("4-MEM",),
    columns=tuple(
        (p, {"vm_policy": p})
        for p in ("none", "bin-hopping", "page-coloring", "random")
    ),
    cell=lambda runner, config, apps: (
        _ws_jobs(runner, config, apps),
        lambda own, _row: f"{_ws(own):.3f}/{100 * own[0].row_buffer_miss_rate:.0f}%",
    ),
    notes="Page coloring partitions DRAM banks between threads; "
    "Section 5.4 suggests exactly this direction for reducing "
    "inter-thread row conflicts.",
)

# Streaming-heavy MEM mixes (swim/lucas in 4-MEM) should benefit;
# pointer-chasing traffic (mcf) has no stride to learn.
ABL_PREFETCH = FigureSpec(
    name="abl-prefetch",
    title="Ablation: stride prefetcher",
    description="aggregate IPC without/with the Table 1 prefetcher",
    summary="The Table 1 stride prefetcher on vs off.",
    rows=("4-MEM", "2-MIX"),
    columns=(("off", {"prefetch": False}), ("on", {"prefetch": True})),
    cell=run_cell(lambda r: f"{r.throughput:.3f}" + (
        f" ({r.hierarchy.prefetch_fills} fills)" if r.config.prefetch else ""
    )),
)


# ---------------------------------------------------------------------------
# registry

EXPERIMENTS: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (FIG1, FIG2, FIG3, FIG4, FIG5, FIG6, FIG7, FIG8, FIG9, FIG10, COVERAGE)
}
ABLATIONS: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        ABL_PAGE_MODE, ABL_MSHR, ABL_SCHED_MAPPING, ABL_COLOR_MAPPING,
        ABL_CRITICAL, ABL_VM_POLICY, ABL_PREFETCH,
    )
}
REGISTRY: dict[str, FigureSpec] = {**EXPERIMENTS, **ABLATIONS}


def figure10(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 10 by name: the performance ledger (``bench/``) runs and
    traces this callable."""
    return run_experiment(FIG10, config, runner, mixes)
