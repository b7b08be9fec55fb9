"""Tests for the differential oracle.

The structural differ is tested on synthetic values (it must *find*
planted divergences — an oracle that can't fail is no oracle), then a
few real configurations prove the core's shortcuts identical to
ticking every cycle.  The full grid runs in ``test_golden.py``, both
ways against committed digests.
"""

from dataclasses import dataclass

import pytest

from repro.cpu.core import SMTCore
from repro.engine.oracle import (
    MAX_DIFFS,
    ComparisonReport,
    Divergence,
    compare_engines,
    diff_values,
)
from repro.experiments.config import SystemConfig
from repro.experiments.figures import FIG10
from repro.workloads.mixes import MIXES
from tests.engine.test_golden import EXTRA_VARIATIONS, fig10_sweep_jobs


def _diffs(a, b):
    out = []
    diff_values(a, b, "x", out)
    return out


@dataclass(frozen=True)
class Inner:
    n: int


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    tags: tuple


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class TestDiffValues:
    def test_equal_structures_produce_no_diffs(self):
        x = Outer("w", Inner(3), (1, 2))
        y = Outer("w", Inner(3), (1, 2))
        assert _diffs(x, y) == []

    def test_nested_dataclass_divergence_has_full_path(self):
        x = Outer("w", Inner(3), ())
        y = Outer("w", Inner(4), ())
        (d,) = _diffs(x, y)
        assert d.path == "x.inner.n"
        assert (d.reference, d.fast) == (3, 4)

    def test_dict_key_sets_compared(self):
        (d,) = _diffs({"a": 1}, {"a": 1, "b": 2})
        assert d.path == "x['b']"
        assert d.reference == "<absent>"

    def test_sequence_length_mismatch_is_one_diff(self):
        (d,) = _diffs([1, 2, 3], [1, 2])
        assert d.path == "len(x)"
        assert (d.reference, d.fast) == (3, 2)

    def test_sequence_elementwise_paths(self):
        (d,) = _diffs((1, 2, 3), (1, 9, 3))
        assert d.path == "x[1]"

    def test_slotted_objects_compared_by_attribute(self):
        (d,) = _diffs(Slotted(1, 2), Slotted(1, 5))
        assert d.path == "x.b"

    def test_type_mismatch_reported_not_crashed(self):
        (d,) = _diffs(1, "1")
        assert (d.reference, d.fast) == ("int", "str")

    def test_floats_compared_exactly(self):
        assert _diffs(0.1 + 0.2, 0.30000000000000004) == []
        assert len(_diffs(0.3, 0.1 + 0.2)) == 1

    def test_diff_cap(self):
        out = _diffs(list(range(100)), [n + 1 for n in range(100)])
        assert len(out) == MAX_DIFFS


class TestReports:
    def test_report_render_ok(self):
        r = ComparisonReport("2-MEM fcfs", SystemConfig(), ("mcf",))
        assert r.identical
        assert "OK" in r.render()

    def test_report_render_divergence(self):
        r = ComparisonReport(
            "2-MEM fcfs", SystemConfig(), ("mcf",),
            divergences=[Divergence("core.cycles", 10, 11)],
        )
        assert not r.identical
        text = r.render()
        assert "DIVERGED" in text and "core.cycles" in text


class TestSweepJobs:
    def test_full_sweep_shape(self):
        jobs = fig10_sweep_jobs(SystemConfig())
        expected = len(FIG10.rows) * len(FIG10.columns) + len(
            EXTRA_VARIATIONS
        )
        assert len(jobs) == expected
        labels = [label for label, _, _ in jobs]
        assert len(set(labels)) == len(labels)  # no silent collisions


def _tiny() -> SystemConfig:
    return SystemConfig(
        scale=32,
        instructions_per_thread=300,
        warmup_instructions=100,
        seed=2005,
    )


class TestRealEngines:
    def test_compare_engines_identical_on_default_config(self):
        report = compare_engines(_tiny(), MIXES["2-MEM"].apps)
        assert report.identical, report.render()

    @pytest.mark.parametrize("scheduler", ["fcfs", "rob-based"])
    def test_reduced_sweep_zero_divergence(self, scheduler):
        report = compare_engines(
            _tiny().with_(scheduler=scheduler), MIXES["2-MIX"].apps
        )
        assert report.identical, report.render()

    def test_compare_engines_restores_the_switch(self, monkeypatch):
        monkeypatch.setattr(SMTCore, "shortcuts", False)
        compare_engines(_tiny(), ("gzip",))
        assert SMTCore.shortcuts is False

    def test_oracle_detects_a_planted_divergence(self):
        """An oracle that cannot fail proves nothing: diff two runs of
        *different* configurations and demand it notices."""
        from repro.engine.oracle import diff_results
        from repro.experiments.runner import run_mix

        a = run_mix(_tiny(), MIXES["2-MEM"].apps)
        b = run_mix(_tiny().with_(scheduler="rob-based"), MIXES["2-MEM"].apps)
        assert diff_results(a, b)
