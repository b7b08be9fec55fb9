"""Every registered experiment at a figure budget, with its paper-shape checks.

Each case regenerates one figure or ablation of the paper at a reduced
instruction budget (the paper uses 100M instructions per thread on a
compiled simulator; the pure-Python reproduction uses the scaled
system described in DESIGN.md) and asserts the shape the paper
reports.  Budgets are chosen so the whole file completes in minutes
while preserving the figures' shapes; one runner serves every case, so
single-thread baselines are shared between figures::

    python -m pytest benchmarks/bench_figures.py -q            # CI lane
    python -m pytest benchmarks/bench_figures.py -s --durations=0
    REPRO_BENCH_INSTRUCTIONS=20000 python -m pytest benchmarks/bench_figures.py -s

``-s`` prints every table; ``--durations`` reports the time each took.
"""

import os

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.figures import REGISTRY, run_experiment
from repro.experiments.runner import Runner
from repro.workloads.mixes import get_mix

BUDGET = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "2500"))

CONFIG = SystemConfig(
    scale=8,  # the calibration scale of the workload profiles
    instructions_per_thread=BUDGET,
    warmup_instructions=max(200, BUDGET // 4),
    seed=2005,  # HPCA 2005
)


@pytest.fixture(scope="module")
def runner() -> Runner:
    return Runner()


def _pct(cell: str) -> float:
    return 0.0 if cell == "-" else float(cell.rstrip("%"))


# ---------------------------------------------------------------------------
# paper shapes, one per registered experiment


def fig1(result):
    # Each app single-threaded on the real system and with perfect
    # L3/L2/L1; the MEM applications (facerec ... mcf) dominate the
    # right of the figure, mcf's CPI_mem the largest by a wide margin.
    by_app = {row[0]: row for row in result.rows}
    # Paper shape: mcf is the most memory-bound application.
    assert result.rows[-1][0] == "mcf"
    # MEM apps have larger CPI_mem than ILP apps.
    assert by_app["swim"][4] > by_app["gzip"][4]
    assert by_app["ammp"][4] > by_app["eon"][4]


def fig2(result):
    # The four policies are comparable on ILP mixes; the long-latency-
    # aware ones (Fetch-Stall, DG, DWarn) beat ICOUNT on 8-thread mixes.
    rows = {row[0]: row for row in result.rows}
    policies = result.headers[1:]
    icount = policies.index("icount") + 1
    dg = policies.index("dg") + 1
    # Paper shape: clog-avoiding policies beat ICOUNT on 8-MIX.
    assert rows["8-MIX"][dg] > rows["8-MIX"][icount]


def fig3(result):
    rows = {row[0]: row for row in result.rows}
    # ILP mixes retain most of the reference performance...
    assert _pct(rows["2-ILP"][2]) > 80.0
    # ...while MEM mixes lose most of it (paper: 2-MEM retains ~27%).
    assert _pct(rows["2-MEM"][2]) < 70.0
    assert _pct(rows["4-MEM"][2]) < 70.0


def fig4(result):
    # Paper: MEM workloads concentrate at 8+ outstanding requests (95.3%
    # above 8 for 4-MEM); ILP workloads sit at 1-2.
    rows = {row[0]: row for row in result.rows}
    labels = result.headers[1:]
    hi = [labels.index("8-15") + 1, labels.index("16+") + 1]
    heavy = lambda row: sum(_pct(row[i]) for i in hi)  # noqa: E731
    # MEM mixes live at >=8 outstanding far more than ILP mixes.
    assert heavy(rows["4-MEM"]) > heavy(rows["4-ILP"]) + 20.0
    # Heavy concurrency grows with thread count for MEM mixes.
    assert heavy(rows["8-MEM"]) >= heavy(rows["2-MEM"])


def fig5(result):
    # Paper: concurrent requests come from (almost) all threads for MEM
    # mixes (76.4%/79.0% from all threads for 2-/4-MEM).
    rows = {row[0]: row for row in result.rows}
    # For 4-MEM, most multi-request time involves >= 3 threads.
    many = _pct(rows["4-MEM"][3]) + _pct(rows["4-MEM"][4])
    assert many > 50.0


def fig6(result):
    # Paper: MEM mixes gain 73.7%-153.8% from quadrupling channels.
    rows = {row[0]: row for row in result.rows}
    # MEM mixes gain substantially from 2 -> 8 channels...
    assert rows["4-MEM"][3] > 1.25
    assert rows["8-MEM"][3] > 1.25
    # ...ILP mixes do not.
    assert rows["2-ILP"][3] < 1.15
    # Channel scaling helps MEM more than ILP.
    assert rows["4-MEM"][3] > rows["4-ILP"][3]


def fig7(result):
    # Paper: 2C-2G loses ~34% on 2-MEM and 8C-4G reaches only ~53% of
    # 8C-1G for 4-MEM.  Independent channels win throughout.
    labels = result.headers[1:]
    rows = {row[0]: row for row in result.rows}
    col = {label: i + 1 for i, label in enumerate(labels)}
    # Ganging both channels of a 2-channel system hurts MEM mixes.
    assert rows["2-MEM"][col["2C-2G"]] < 1.0
    # Fully ganged 8-channel system clearly trails independent.
    assert rows["4-MEM"][col["8C-4G"]] < rows["4-MEM"][col["8C-1G"]]


def fig8(result):
    # Paper: XOR reduces DDR miss rates moderately (40.1% -> 33.4% for
    # 2-MIX), but MEM mixes stay high with only 8 independent banks.
    rows = {row[0]: row for row in result.rows}
    # Miss rates rise with thread count under the page mapping.
    assert _pct(rows["8-MEM"][1]) > _pct(rows["2-MEM"][1])
    # MEM mixes keep substantial miss rates even under XOR (few banks).
    assert _pct(rows["8-MEM"][2]) > 30.0


def fig9(result):
    # Paper: with 32 banks/chip XOR cuts miss rates substantially
    # (48.8% -> 32.2% for 4-MEM), more than on DDR.
    rows = {row[0]: row for row in result.rows}
    # XOR should not hurt, and should help at least one MEM mix.
    improvements = [
        _pct(rows[m][1]) - _pct(rows[m][2])
        for m in ("2-MEM", "4-MEM", "8-MEM")
    ]
    assert max(improvements) > 0.0
    # Many banks -> lower absolute miss rates than the paper's DDR
    # case for the same mixes (cross-check against bank count).
    assert _pct(rows["4-MEM"][2]) < 80.0


def fig10(result):
    # Paper: the single-thread-era policies gain a few percent; the
    # thread-aware schemes gain most on MEM mixes (up to ~30%).
    labels = result.headers[1:]
    rows = {row[0]: row for row in result.rows}
    col = {label: i + 1 for i, label in enumerate(labels)}
    # Thread-aware scheduling helps at least one MEM mix noticeably.
    best_gain = max(
        rows[mix][col[s]]
        for mix in ("2-MEM", "4-MEM", "8-MEM")
        for s in ("request-based", "rob-based", "iq-based")
    )
    assert best_gain > 1.03
    # The request-based scheme beats plain FCFS on 4-MEM.
    assert rows["4-MEM"][col["request-based"]] > 1.0


def coverage(result):
    # Paper: >= 1 integer instruction issues in 92.2% of cycles under
    # DWarn but only 43.8% under ICOUNT (8-MIX).
    rows = {row[0]: row for row in result.rows}
    assert _pct(rows["8-MIX"][2]) >= _pct(rows["8-MIX"][1])


def abl_page_mode(result):
    assert all(row[1] > 0 and row[2] > 0 for row in result.rows)


def abl_mshr(result):
    row = result.rows[0]
    # Severely capped MLP must cost throughput vs the default.
    assert row[1] < max(row[3], row[4])


def abl_sched_mapping(result):
    assert len(result.rows[0]) == 5  # mix + 4 combinations


def abl_color_mapping(result):
    for row in result.rows:
        assert 0.0 <= _pct(row[3]) <= 100.0


def abl_critical(result):
    assert result.rows[0][1] == 1.0  # fcfs normalized to itself


def abl_vm_policy(result):
    assert len(result.rows[0]) == 5


def abl_prefetch(result):
    assert len(result.rows) == 2


#: experiment name -> (mix subset or None for the spec's rows, shape check)
SHAPES = {
    "fig1": (None, fig1),
    "fig2": (None, fig2),
    "fig3": (None, fig3),
    "fig4": (None, fig4),
    "fig5": (None, fig5),
    "fig6": (None, fig6),
    "fig7": (None, fig7),
    "fig8": (None, fig8),
    "fig9": (None, fig9),
    "fig10": (None, fig10),
    "coverage": (None, coverage),
    "abl-page-mode": (None, abl_page_mode),
    "abl-mshr": (("4-MEM",), abl_mshr),
    "abl-sched-mapping": (("4-MEM",), abl_sched_mapping),
    "abl-color-mapping": (None, abl_color_mapping),
    "abl-critical": (("4-MEM",), abl_critical),
    "abl-vm-policy": (None, abl_vm_policy),
    "abl-prefetch": (None, abl_prefetch),
}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_figure(name, runner):
    mixes, check = SHAPES[name]
    result = run_experiment(name, config=CONFIG, runner=runner, mixes=mixes)
    print()
    print(result.render())
    check(result)


def test_controller_model(runner):
    """Request-level vs command-level DRAM controller.

    The request-level model (default) is calibrated and fast; the
    command-level model tracks explicit PRECHARGE/ACTIVATE/READ/WRITE
    commands with tRAS/tRRD/command-bus constraints.  The two must agree
    on the experiment-level outcome within a modest band.
    """
    mix = get_mix("2-MEM")
    out = {}
    for model in ("request", "command"):
        cfg = CONFIG.with_(controller_model=model)
        result = runner.run_mix(cfg, mix)
        out[model] = (
            runner.weighted_speedup(cfg, mix, result),
            result.row_buffer_miss_rate,
            result.dram.avg_read_latency,
        )
    print()
    for model, (ws, miss, lat) in out.items():
        print(f"{model:<8} WS={ws:.3f} row-miss={miss:.1%} "
              f"avg-read-lat={lat:.0f}cy")
    ws_request, ws_command = out["request"][0], out["command"][0]
    assert ws_command == pytest.approx(ws_request, rel=0.35)
