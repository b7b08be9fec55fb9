"""Smoke tests for the figure specs (tiny budgets, subset mixes)."""

from dataclasses import replace

import pytest

from repro.experiments.figures import (
    EXPERIMENTS,
    FIG1,
    FIG6,
    FIG7,
    FIG10,
    run_experiment,
)
from repro.experiments.runner import Runner


@pytest.fixture(scope="module")
def shared_runner():
    return Runner()


class TestRegistry:
    def test_all_ten_figures_registered(self):
        assert sorted(EXPERIMENTS) == [
            "coverage",
            "fig1", "fig10", "fig2", "fig3", "fig4",
            "fig5", "fig6", "fig7", "fig8", "fig9",
        ]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFigure1:
    def test_small_app_subset(self, tiny_config, shared_runner):
        result = run_experiment(
            replace(FIG1, rows=("eon", "mcf")), tiny_config, shared_runner
        )
        assert len(result.rows) == 2
        # sorted by CPI_mem: mcf last
        assert result.rows[-1][0] == "mcf"
        for row in result.rows:
            app, proc, l2, l3, mem, total = row
            assert total == pytest.approx(proc + l2 + l3 + mem)

    def test_mcf_memory_dominated(self, tiny_config, shared_runner):
        result = run_experiment(
            replace(FIG1, rows=("eon", "mcf")), tiny_config, shared_runner
        )
        mcf = next(r for r in result.rows if r[0] == "mcf")
        eon = next(r for r in result.rows if r[0] == "eon")
        assert mcf[4] > eon[4]  # CPI_mem


class TestDistributionFigures:
    def test_figure4_rows_are_distributions(self, tiny_config, shared_runner):
        result = run_experiment("fig4", tiny_config, shared_runner, ["2-MEM"])
        assert result.rows[0][0] == "2-MEM"
        values = [float(v.rstrip("%")) for v in result.rows[0][1:]]
        assert sum(values) == pytest.approx(100.0, abs=0.5)

    def test_figure5_pads_missing_thread_counts(
        self, tiny_config, shared_runner
    ):
        result = run_experiment(
            "fig5", tiny_config, shared_runner, mixes=["2-MEM", "4-MEM"]
        )
        two_mem = result.rows[0]
        assert two_mem[3] == "-"  # no 3-thread bin for a 2-thread mix


class TestSweepFigures:
    def test_figure6_normalized_to_first_column(
        self, tiny_config, shared_runner
    ):
        result = run_experiment(
            replace(FIG6, columns=FIG6.columns[:2]),
            tiny_config, shared_runner, mixes=["2-MEM"],
        )
        assert result.rows[0][1] == pytest.approx(1.0)

    def test_figure7_1g_columns_are_unity(self, tiny_config, shared_runner):
        result = run_experiment(
            replace(FIG7, columns=FIG7.columns[:2]),  # 2C-1G, 2C-2G
            tiny_config, shared_runner, mixes=["2-MEM"],
        )
        row = result.rows[0]
        assert row[1] == pytest.approx(1.0)  # 2C-1G normalized to itself
        assert row[2] > 0

    def test_figure8_has_page_and_xor(self, tiny_config, shared_runner):
        result = run_experiment("fig8", tiny_config, shared_runner, ["2-MEM"])
        assert result.headers == ["mix", "page", "xor"]
        assert result.rows[0][1].endswith("%")

    def test_figure10_fcfs_column_is_unity(self, tiny_config, shared_runner):
        result = run_experiment(
            replace(FIG10, columns=(FIG10.columns[0], FIG10.columns[3])),
            tiny_config, shared_runner, mixes=["2-MEM"],
        )
        assert result.headers == ["mix", "fcfs", "request-based"]
        assert result.rows[0][1] == pytest.approx(1.0)


class TestRendering:
    def test_render_includes_all_rows(self, tiny_config, shared_runner):
        result = run_experiment("fig8", tiny_config, shared_runner, ["2-MEM"])
        text = result.render()
        assert "Figure 8" in text
        assert "2-MEM" in text

    def test_unknown_mix_rejected(self, tiny_config, shared_runner):
        with pytest.raises(KeyError):
            run_experiment("fig4", tiny_config, shared_runner, ["3-MEM"])


class TestMixSubsets:
    def test_no_subset_means_default_rows(self):
        assert FIG10.select_rows(None) == FIG10.rows
        assert FIG10.select_rows([]) == FIG10.rows

    def test_figure1_rows_are_applications(self):
        assert FIG1.select_rows(["2-MEM"]) == FIG1.rows
