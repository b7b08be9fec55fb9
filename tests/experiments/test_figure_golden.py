"""Golden digests: every registered experiment, pinned byte for byte.

For each of the 18 experiments in ``REGISTRY`` (the ten figures, the
Section 5.1 coverage statistic and the seven ablations) at a tier-1
budget, through one shared runner, ``figures_golden.json`` holds three
SHA-256 digests:

* ``result`` -- ``render()`` followed by ``to_csv()``: every row, every
  float to the last bit, the headers and the notes;
* ``run_many`` -- the job list handed to ``Runner.run_many``, as ordered
  run ids with duplicates kept (the performance ledger counts
  ``experiments.jobs_planned`` from exactly this list);
* ``campaign`` -- ``campaign_jobs(name, config)``, the deduplicated list
  the service submits (CI addresses its jobs by index).

The digests were generated from the tree in which each figure was still
a hand-written driver, before figures became specs.  The same run also
checks what the driver relies on: one ``run_many`` call per experiment,
and a reduction that reads nothing the plan did not contain.

A digest mismatch means an experiment's output or its plan changed;
regenerate only for an intentional change, and say so::

    PYTHONPATH=src python tests/experiments/test_figure_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.config import SystemConfig
from repro.experiments.figures import REGISTRY, run_experiment
from repro.experiments.runner import Runner
from repro.service.jobs import campaign_jobs
from repro.telemetry.manifest import run_id

GOLDEN_PATH = Path(__file__).with_name("figures_golden.json")

CONFIG = SystemConfig(
    scale=32, instructions_per_thread=200, warmup_instructions=50, seed=2005
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ids(jobs) -> str:
    return "\n".join(run_id(config, tuple(apps)) for config, apps in jobs)


class PinnedRunner(Runner):
    """Records every ``run_many`` plan and flags any result read outside
    ``run_many`` that the plans so far did not contain."""

    def __init__(self) -> None:
        super().__init__()
        self.plans: list[list] = []
        self.unplanned: list[str] = []
        self._inside = False

    def run_many(self, jobs):
        jobs = [(config, tuple(apps)) for config, apps in jobs]
        self.plans.append(jobs)
        self._inside = True
        try:
            return super().run_many(jobs)
        finally:
            self._inside = False

    def _serve(self, jobs):
        if not self._inside:
            planned = {(c.cache_key(), a) for plan in self.plans for c, a in plan}
            for config, apps in jobs:
                if (config.cache_key(), tuple(apps)) not in planned:
                    self.unplanned.append(run_id(config, apps))
        return super()._serve(jobs)


def _measure() -> dict[str, dict]:
    """Run every experiment once through one shared runner."""
    runner = PinnedRunner()
    measured = {}
    for name in REGISTRY:
        runner.plans, runner.unplanned = [], []
        result = run_experiment(name, config=CONFIG, runner=runner)
        campaign = campaign_jobs(name, CONFIG)
        measured[name] = {
            "result": _sha(result.render() + result.to_csv()),
            "run_many": _sha(_ids(runner.plans[0])) if runner.plans else "",
            "campaign": _sha(_ids(campaign)),
            "planned": len(runner.plans[0]) if runner.plans else 0,
            "campaign_jobs": len(campaign),
            "run_many_calls": len(runner.plans),
            "unplanned": list(runner.unplanned),
        }
    return measured


_PINNED = ("result", "run_many", "campaign", "planned", "campaign_jobs")


@pytest.fixture(scope="module")
def measured() -> dict[str, dict]:
    return _measure()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_registry(golden):
    assert sorted(golden) == sorted(REGISTRY)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_experiment_matches_golden(name, measured, golden):
    got = {key: measured[name][key] for key in _PINNED}
    assert got == golden[name]


@pytest.mark.parametrize("name", list(REGISTRY))
def test_one_run_many_and_no_unplanned_reads(name, measured):
    assert measured[name]["run_many_calls"] == 1
    assert measured[name]["unplanned"] == []


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_figure_golden.py --write")
    doc = {
        name: {key: entry[key] for key in _PINNED}
        for name, entry in _measure().items()
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} experiments to {GOLDEN_PATH}")
