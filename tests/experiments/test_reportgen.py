"""Tests for the markdown report generator."""

import pytest

from repro.experiments.report import generate_report
from repro.experiments.runner import Runner


class TestGenerateReport:
    def test_subset_report(self, tiny_config):
        text = generate_report(
            config=tiny_config,
            experiments=["fig8"],
            runner=Runner(),
        )
        assert "# Reproduction report" in text
        assert "## Figure 8" in text
        assert "| mix | page | xor |" in text
        assert "## Configuration" in text
        assert "seed" in text

    def test_progress_callback(self, tiny_config):
        seen = []
        generate_report(
            config=tiny_config,
            experiments=["fig8"],
            runner=Runner(),
            progress=seen.append,
        )
        assert seen == ["fig8"]

    def test_unknown_experiment_rejected(self, tiny_config):
        with pytest.raises(KeyError):
            generate_report(config=tiny_config, experiments=["fig99"])

    def test_ablations_includable(self, tiny_config):
        text = generate_report(
            config=tiny_config,
            experiments=["abl-page-mode"],
            include_ablations=True,
            runner=Runner(),
        )
        assert "page mode" in text

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "r.md"
        code = main([
            "report", "--out", str(out), "--experiments", "fig8",
            "--instructions", "200", "--warmup", "50", "--scale", "32",
        ])
        assert code == 0
        assert out.read_text().startswith("# Reproduction report")
