"""Smoke tests for the ablation specs."""

from dataclasses import replace

import pytest

from repro.experiments.figures import ABL_MSHR, ABLATIONS, run_experiment
from repro.experiments.runner import Runner


@pytest.fixture(scope="module")
def shared_runner():
    return Runner()


class TestRegistry:
    def test_all_ablations_registered(self):
        assert len(ABLATIONS) == 7
        assert all(name.startswith("abl-") for name in ABLATIONS)
        assert "abl-vm-policy" in ABLATIONS
        assert "abl-prefetch" in ABLATIONS


class TestDrivers:
    def test_page_mode(self, tiny_config, shared_runner):
        result = run_experiment(
            "abl-page-mode", tiny_config, shared_runner, mixes=["2-MEM"]
        )
        assert result.headers == ["mix", "open", "close"]
        assert result.rows[0][1] > 0

    def test_mshr(self, tiny_config, shared_runner):
        capacities = tuple(
            column for column in ABL_MSHR.columns
            if column[1]["mshr_entries"] in (4, 32)
        )
        result = run_experiment(
            replace(ABL_MSHR, columns=capacities),
            tiny_config, shared_runner, mixes=["2-MEM"],
        )
        assert result.headers == ["mix", "mshr=4", "mshr=32"]

    def test_scheduler_mapping(self, tiny_config, shared_runner):
        result = run_experiment(
            "abl-sched-mapping", tiny_config, shared_runner, mixes=["2-MEM"]
        )
        assert len(result.rows[0]) == 5

    def test_color_mapping(self, tiny_config, shared_runner):
        result = run_experiment(
            "abl-color-mapping", tiny_config, shared_runner, mixes=["4-MEM"]
        )
        assert result.headers[-1] == "color-xor"
        assert result.rows[0][3].endswith("%")

    def test_critical(self, tiny_config, shared_runner):
        result = run_experiment(
            "abl-critical", tiny_config, shared_runner, mixes=["2-MEM"]
        )
        assert result.rows[0][1] == pytest.approx(1.0)

    def test_vm_policy(self, tiny_config, shared_runner):
        result = run_experiment(
            "abl-vm-policy", tiny_config, shared_runner, mixes=["2-MEM"]
        )
        assert result.headers[1] == "none"
        assert "/" in result.rows[0][1]

    def test_prefetch(self, tiny_config, shared_runner):
        result = run_experiment(
            "abl-prefetch", tiny_config, shared_runner, mixes=["2-MEM"]
        )
        assert result.headers == ["mix", "off", "on"]
