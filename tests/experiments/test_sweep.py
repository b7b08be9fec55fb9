"""Tests for the parameter-sweep utility."""

import pytest

from repro.common.errors import ConfigError
from repro.experiments.runner import Runner
from repro.experiments.sweep import Sweep
from repro.telemetry.manifest import run_id


class TestGrid:
    def test_cartesian_product(self, quick_config):
        sweep = Sweep(
            quick_config,
            axes={"channels": [2, 4], "scheduler": ["fcfs", "hit-first"]},
        )
        grid = sweep.grid()
        assert len(grid) == 4
        assert {"channels": 2, "scheduler": "fcfs"} in grid
        assert {"channels": 4, "scheduler": "hit-first"} in grid

    def test_axis_order_deterministic(self, quick_config):
        sweep = Sweep(quick_config, axes={"channels": [2, 4]})
        assert sweep.grid() == [{"channels": 2}, {"channels": 4}]

    def test_unknown_field_rejected(self, quick_config):
        with pytest.raises(ConfigError):
            Sweep(quick_config, axes={"warp_factor": [9]})

    def test_empty_axes_rejected(self, quick_config):
        with pytest.raises(ConfigError):
            Sweep(quick_config, axes={})
        with pytest.raises(ConfigError):
            Sweep(quick_config, axes={"channels": []})


class TestRun:
    def test_default_metrics(self, quick_config):
        sweep = Sweep(quick_config, axes={"channels": [2, 4]})
        points = sweep.run(["gzip", "mcf"])
        assert len(points) == 2
        for point in points:
            assert point.metrics["weighted_speedup"] > 0
            assert point.metrics["throughput"] > 0
            assert point.config.channels == point.overrides["channels"]

    def test_custom_metrics(self, quick_config):
        sweep = Sweep(quick_config, axes={"mapping": ["page", "xor"]})
        points = sweep.run(
            ["mcf"],
            metrics={"row_miss": lambda r, ctx: r.row_buffer_miss_rate},
        )
        assert all(0.0 <= p.metrics["row_miss"] <= 1.0 for p in points)

    def test_table_output(self, quick_config):
        sweep = Sweep(quick_config, axes={"channels": [2, 4]})
        headers, rows = sweep.table(["gzip"])
        assert headers[0] == "channels"
        assert len(rows) == 2
        assert rows[0][0] == 2

    def test_shared_runner_reuses_baselines(self, quick_config):
        runner = Runner()
        sweep = Sweep(
            quick_config, axes={"scheduler": ["fcfs", "hit-first"]},
            runner=runner,
        )
        sweep.run(["gzip"])
        # both scheduler configs need gzip singles; they were cached
        served = {record.run_id for record in runner.records}
        for scheduler in ("fcfs", "hit-first"):
            cfg = runner.baseline_config(quick_config.with_(scheduler=scheduler))
            assert run_id(cfg, ("gzip",)) in served
