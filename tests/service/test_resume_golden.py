"""Golden resume behaviour of the campaign scheduler, three scenarios.

Each scenario drives a real :class:`CampaignScheduler` (one worker)
through an interruption and a ``resume=True`` restart, and records at
every step what an operator can observe:

* per job: ``(state, 0, source)`` from ``job_status`` (the middle
  column counted the scheduler's own retries, which no longer exist;
  it stays so the golden file does not move);
* the ``campaign_status`` document of the scenario's campaign;
* the ``/healthz`` job histogram and queue depth;
* the ordered run ids the scheduler actually simulated.

The scenarios are a fresh campaign then resume, a mid-batch abandon
(the worker wedges inside a simulation and the process is walked away
from) then resume, and a clean stop that leaves a terminal failure (a
batch aborted by a failing simulation) then resume.
``resume_golden.json`` was generated from the tree in which the job
lifecycle was still persisted in four files, before it became one job
log; any change to what a resumed scheduler does shows up as a diff.
Regenerate only for an intentional change::

    PYTHONPATH=src python tests/service/test_resume_golden.py --write
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.config import SystemConfig
from repro.service.api import ServiceApp
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore
from repro.telemetry.manifest import run_id

GOLDEN_PATH = Path(__file__).with_name("resume_golden.json")

# The abandoned worker thread ends by SystemExit, which pytest reports.
pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

CONFIG = SystemConfig(
    scale=32, instructions_per_thread=200, warmup_instructions=50, seed=99
)
CAMPAIGN = ("fig10", ["2-MEM"])
#: Simulations the abandoned worker finishes before it wedges.
ABANDON_AFTER = 5


class _Simulations:
    """Counts (and optionally wedges or fails) every fresh simulation."""

    def __init__(self, wedge_at: int | None = None) -> None:
        self.real = runner_mod._simulate
        self.ids: list[str] = []
        self.wedge_at = wedge_at
        self.wedged = threading.Event()
        self.release = threading.Event()
        #: Run ids whose simulation raises (a non-transient error).
        self.failing: set[str] = set()

    def __call__(self, config, apps, **kwargs):
        if run_id(config, apps) in self.failing:
            raise RuntimeError("simulation failed")
        if self.wedge_at is not None and len(self.ids) == self.wedge_at:
            self.wedge_at = None
            self.wedged.set()
            self.release.wait()
            # Ends the abandoned worker thread without it writing a
            # thing: nothing in the scheduler catches SystemExit.
            raise SystemExit
        self.ids.append(run_id(config, apps))
        return self.real(config, apps, **kwargs)

    def take(self) -> list[str]:
        ids, self.ids = self.ids, []
        return ids


def _observe(scheduler: CampaignScheduler, keys: list[str], cid=None) -> dict:
    jobs = {}
    for key in keys:
        status = scheduler.job_status(key) or {}
        jobs[key] = [status.get("state"), 0, status.get("source", "")]
    health = ServiceApp(scheduler).healthz()[1]
    doc = {
        "jobs": jobs,
        "healthz": {"jobs": health["jobs"], "queue_depth": health["queue_depth"]},
    }
    if cid is not None:
        doc["campaign"] = scheduler.campaign_status(cid)
    return doc


def _resume(store_dir: Path, sims: _Simulations, keys, cid=None) -> dict:
    resumed = CampaignScheduler(ResultStore(store_dir), resume=True)
    steps = {"resumed": _observe(resumed, keys, cid)}
    resumed.start()
    assert resumed.drain(timeout=300)
    resumed.stop()
    steps["finished"] = _observe(resumed, keys, cid)
    steps["simulated"] = sims.take()
    return steps


def _two_jobs() -> list[tuple]:
    return [(CONFIG, ("mcf",)), (CONFIG.with_(scheduler="fcfs"), ("gzip",))]


def fresh_campaign_then_resume(tmp: Path, sims: _Simulations) -> dict:
    store = ResultStore(tmp)
    scheduler = CampaignScheduler(store).start()
    status = scheduler.submit_campaign(CAMPAIGN[0], CONFIG, mixes=CAMPAIGN[1])
    cid, keys = status["campaign"], sorted(status["states"])
    assert scheduler.drain(timeout=300)
    scheduler.stop()
    steps = {"first": _observe(scheduler, keys, cid), "first_simulated": sims.take()}
    steps.update(_resume(tmp, sims, keys, cid))
    return steps


def abandoned_batch_then_resume(tmp: Path, sims: _Simulations) -> dict:
    sims.wedge_at = ABANDON_AFTER
    store = ResultStore(tmp)
    scheduler = CampaignScheduler(store).start()
    try:
        status = scheduler.submit_campaign(
            CAMPAIGN[0], CONFIG, mixes=CAMPAIGN[1]
        )
        cid, keys = status["campaign"], sorted(status["states"])
        assert sims.wedged.wait(300)
        steps = {
            "abandoned": _observe(scheduler, keys, cid),
            "abandoned_simulated": sims.take(),
        }
        steps.update(_resume(tmp, sims, keys, cid))
    finally:
        sims.release.set()
        if scheduler._thread is not None:
            scheduler._thread.join(30)
    return steps


def terminal_failure_then_resume(tmp: Path, sims: _Simulations) -> dict:
    store = ResultStore(tmp)
    jobs = _two_jobs()
    keys = [store.key_for(config, apps) for config, apps in jobs]
    # The failing job is submitted second: the first one completes
    # before the failure aborts the batch.
    sims.failing.add(run_id(*jobs[0]))
    scheduler = CampaignScheduler(store)
    for config, apps in reversed(jobs):
        scheduler.submit_job(config, apps)
    scheduler.start()
    assert scheduler.drain(timeout=300)
    scheduler.stop()
    sims.failing.clear()
    steps = {"stopped": _observe(scheduler, keys), "stopped_simulated": sims.take()}
    steps.update(_resume(tmp, sims, keys))
    return steps


SCENARIOS = (
    fresh_campaign_then_resume,
    abandoned_batch_then_resume,
    terminal_failure_then_resume,
)


def _measure() -> dict:
    doc = {}
    for scenario in SCENARIOS:
        sims = _Simulations()
        runner_mod._simulate = sims
        try:
            with tempfile.TemporaryDirectory() as tmp:
                doc[scenario.__name__] = scenario(Path(tmp), sims)
        finally:
            runner_mod._simulate = sims.real
    return doc


def test_resume_behaviour_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = json.loads(json.dumps(_measure()))
    for name in golden:
        assert measured[name] == golden[name], name
    assert set(measured) == set(golden)


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_resume_golden.py --write")
    GOLDEN_PATH.write_text(json.dumps(_measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} scenarios to {GOLDEN_PATH}")
