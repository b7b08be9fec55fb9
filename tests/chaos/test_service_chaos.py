"""End-to-end chaos harness: kill the service three ways mid-campaign.

The acceptance scenario from the hardening work: one seeded fault plan
takes out a pool worker (job-scope ``sigkill``), the scheduler thread
(service-scope ``exception`` — the API stays up, read-only), and then
the API daemon itself (external ``kill -9``) at three distinct points
in a fig10 campaign.  A ``--resume`` restart must finish the campaign
such that

* the recovered store is **byte-identical** to an uninterrupted run,
* the job log proves every job executed **exactly once** (one
  ``release/done`` per key, however many retries and restarts it
  took), and
* the API **served read-only traffic** throughout the scheduler
  outage (warm reads and warm submits answered, cold submits shed
  with ``503 + Retry-After``).

The whole scenario runs once in a module fixture against real
``repro serve`` subprocesses; the tests assert one criterion each so
a failure names the property that broke.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.config import SystemConfig
from repro.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec

pytestmark = pytest.mark.chaos


MIXES = ["2-MEM"]
WORKER_KILL_INDEX = 1  # early: recovered inside the first batch
SCHEDULER_KILL_INDEX = 8  # mid-campaign: several results already landed


@pytest.fixture(scope="module")
def config() -> SystemConfig:
    return SystemConfig(
        scale=32,
        instructions_per_thread=300,
        warmup_instructions=100,
        seed=99,
    )


def _roundtrip(config: SystemConfig) -> SystemConfig:
    """The codec round-trip every served job goes through."""
    from repro.service.jobs import config_from_dict, config_to_dict

    return config_from_dict(config_to_dict(config))


def _campaign(config: SystemConfig):
    from repro.service.jobs import campaign_jobs

    return campaign_jobs("fig10", _roundtrip(config), mixes=MIXES)


def _serve_env(tmp: Path, plan_path: Path | None) -> dict:
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_MANIFEST_DIR": str(tmp / "manifests")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, *filter(None, [env.get("PYTHONPATH")])]
    )
    if plan_path is None:
        env.pop(FAULT_PLAN_ENV, None)
    else:
        env[FAULT_PLAN_ENV] = str(plan_path)
    return env


def _start_serve(
    store: Path, tmp: Path, *, resume: bool, plan_path: Path | None
) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--store", str(store), "--workers", "2",
        "--timeout", "30",
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_serve_env(tmp, plan_path),
    )


def _wait_ready(store: Path, proc: subprocess.Popen, timeout: float = 60.0):
    """Poll until the daemon advertises itself and answers /healthz."""
    from repro.service.client import ServiceClient, ServiceError

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, _ = proc.communicate()
            raise AssertionError(f"serve died during startup:\n{out}")
        info = store / "service" / "server.json"
        if info.exists():
            try:
                url = json.loads(info.read_text())["url"]
                probe = ServiceClient(url, retries=0)
                if probe.health().get("status") in ("ok", "read-only"):
                    return url
            except (ServiceError, ValueError, KeyError, OSError):
                pass
        time.sleep(0.2)
    raise AssertionError("serve never became ready")


def _stop_hard(proc: subprocess.Popen) -> str:
    """kill -9 (the 'API killed' fault point) and collect its output."""
    proc.kill()
    out, _ = proc.communicate(timeout=30)
    return out


def _events(path: Path) -> list[dict]:
    events = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events


@pytest.fixture(scope="module")
def reference(tmp_path_factory, config):
    """The uninterrupted run: same campaign, no faults, in one process."""
    from repro.service.scheduler import CampaignScheduler
    from repro.service.store import ResultStore

    tmp = tmp_path_factory.mktemp("chaos-ref")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_MANIFEST_DIR", str(tmp / "manifests"))
    store = ResultStore(tmp / "store")
    scheduler = CampaignScheduler(store, workers=2)
    scheduler.start()
    try:
        status = scheduler.submit_campaign(
            "fig10", _roundtrip(config), mixes=MIXES
        )
        cid = status["campaign"]
        deadline = time.monotonic() + 600
        while not scheduler.campaign_status(cid)["complete"]:
            assert scheduler.healthy, "reference scheduler crashed"
            assert time.monotonic() < deadline, "reference run timed out"
            time.sleep(0.2)
    finally:
        scheduler.stop()
        mp.undo()
    return {
        "cid": cid,
        "bytes": {
            key: store.path_for_key(key).read_bytes() for key in store.keys()
        },
    }


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory, config, reference):
    """Run the full kill-worker / kill-scheduler / kill-API scenario."""
    from repro.service.client import ServiceClient, ServiceUnavailable
    from repro.service.store import ResultStore
    from repro.telemetry.manifest import run_id

    tmp = tmp_path_factory.mktemp("chaos-svc")
    store = tmp / "store"
    jobs = _campaign(config)
    assert len(jobs) > SCHEDULER_KILL_INDEX
    keys = [
        ResultStore(store).key_for(job_config, apps)
        for job_config, apps in jobs
    ]

    plan = FaultPlan(
        specs=(
            # Fault point 1: SIGKILL a pool worker on this job's first
            # attempt (recovered in-batch: pool rebuild + retry).
            FaultSpec(
                kind="sigkill",
                job=run_id(*jobs[WORKER_KILL_INDEX]),
                attempt=0,
                scope="job",
            ),
            # Fault point 2: crash the scheduler thread as this job is
            # dispatched.  The HTTP daemon survives — read-only mode.
            FaultSpec(
                kind="exception",
                job=run_id(*jobs[SCHEDULER_KILL_INDEX]),
                attempt=0,
                scope="service",
            ),
        ),
        seed=1905,
    )
    plan_path = plan.write(tmp / "fault-plan.json")

    observed: dict = {"keys": keys}

    # ------------------------------------------------------------- gen 1
    proc = _start_serve(store, tmp, resume=False, plan_path=plan_path)
    try:
        url = _wait_ready(store, proc)
        client = ServiceClient(url, store_dir=store, seed=7)
        status = client.submit_campaign("fig10", config, mixes=MIXES)
        observed["cid"] = status["campaign"]
        observed["jobs_submitted"] = status["jobs"]

        # Wait for fault point 2 to fire: /healthz flips to read-only.
        deadline = time.monotonic() + 300
        while True:
            assert proc.poll() is None, "daemon died before scheduler crash"
            health = client.health()
            if health.get("status") == "read-only":
                break
            assert time.monotonic() < deadline, (
                f"scheduler never crashed; last health: {health}"
            )
            time.sleep(0.2)
        observed["outage_health"] = health

        # The scheduler is down.  Prove the API still serves:
        done_keys = [
            key for key in keys
            if client.result(key).get("state") == "done"
        ]
        observed["outage_done_keys"] = done_keys
        if done_keys:
            observed["outage_warm_bytes"] = client.fetch_bytes(done_keys[0])
            observed["outage_warm_submit"] = client.submit(
                *next(
                    (jc, apps) for (jc, apps), key in zip(jobs, keys)
                    if key == done_keys[0]
                )
            )
        # The last job in the campaign is genuinely cold: dispatch is
        # windowed in queue order and the scheduler died at
        # SCHEDULER_KILL_INDEX, so it was never dispatched at all.
        cold = jobs[-1]
        assert keys[-1] not in set(done_keys)
        noretry = ServiceClient(url, retries=0)
        with pytest.raises(ServiceUnavailable) as shed:
            noretry.submit(*cold)
        observed["outage_shed_retry_after"] = shed.value.retry_after_s
        observed["outage_health_after"] = client.health()
    finally:
        # Fault point 3: kill -9 the API daemon itself.
        observed["gen1_output"] = _stop_hard(proc)
    (store / "service" / "server.json").unlink(missing_ok=True)

    # ------------------------------------------------------------- gen 2
    proc = _start_serve(store, tmp, resume=True, plan_path=None)
    try:
        url = _wait_ready(store, proc)
        client = ServiceClient(url, store_dir=store, seed=7)
        observed["final_campaign"] = client.wait_campaign(
            observed["cid"], timeout=600
        )
        observed["final_health"] = client.health()
    except BaseException:
        _stop_hard(proc)
        raise
    else:
        proc.send_signal(signal.SIGTERM)
        observed["gen2_output"], _ = proc.communicate(timeout=120)

    observed["store_bytes"] = {
        key: ResultStore(store).path_for_key(key).read_bytes()
        for key in ResultStore(store).keys()
    }
    observed["lease_events"] = _events(store / "service" / "jobs.jsonl")
    observed["queue_events"] = observed["lease_events"]
    return observed


class TestByteIdentity:
    def test_recovered_store_is_byte_identical(self, reference, chaos_run):
        """Three kill -9s later, the store matches the clean run exactly."""
        assert set(chaos_run["store_bytes"]) == set(reference["bytes"])
        for key, expected in reference["bytes"].items():
            assert chaos_run["store_bytes"][key] == expected, (
                f"payload for {key[:16]} diverged from the clean run"
            )

    def test_campaign_completed_after_resume(self, chaos_run):
        final = chaos_run["final_campaign"]
        assert final["complete"]
        assert final["counts"] == {"done": chaos_run["jobs_submitted"]}
        assert chaos_run["cid"] == final["campaign"]

    def test_same_campaign_as_reference(self, reference, chaos_run):
        assert chaos_run["cid"] == reference["cid"]


class TestExactlyOnce:
    def test_every_job_completed_exactly_once(self, chaos_run):
        """The job log's release/done count is 1 for every key."""
        completions: dict[str, int] = {}
        for event in chaos_run["lease_events"]:
            if event.get("event") == "release" and event.get("outcome") == "done":
                completions[event["key"]] = completions.get(event["key"], 0) + 1
        assert completions == {key: 1 for key in chaos_run["keys"]}


class TestReadOnlyOutage:
    def test_health_reported_read_only(self, chaos_run):
        health = chaos_run["outage_health"]
        assert health["status"] == "read-only"
        assert health["supervision"]["scheduler_crashes"] >= 1

    def test_warm_reads_served_during_outage(self, chaos_run):
        assert chaos_run["outage_done_keys"], (
            "no results had landed before the crash — the fault fired "
            "too early to prove anything about warm reads"
        )
        assert chaos_run["outage_warm_bytes"]
        assert chaos_run["outage_warm_submit"]["state"] == "done"

    def test_cold_submits_shed_with_retry_after(self, chaos_run):
        assert chaos_run["outage_shed_retry_after"] is not None
        after = chaos_run["outage_health_after"]
        assert after["supervision"]["read_only_rejections"] >= 1


class TestRecoveryBookkeeping:
    def test_fault_plan_was_loaded_by_gen1(self, chaos_run):
        assert "[fault plan loaded" in chaos_run["gen1_output"]

    def test_gen2_shutdown_record_is_clean(self, chaos_run):
        shutdowns = [
            event for event in chaos_run["queue_events"]
            if event.get("event") == "shutdown"
        ]
        assert shutdowns, "graceful stop wrote no shutdown record"
        final = shutdowns[-1]
        assert final["clean"] is True
        assert set(final["done"]) == set(chaos_run["keys"])
        assert not final.get("failed")

    def test_gen2_reports_supervision_counters(self, chaos_run):
        lines = [
            line for line in chaos_run["gen2_output"].splitlines()
            if line.startswith("[supervision] ")
        ]
        assert lines, "serve did not print its supervision summary"
        stats = json.loads(lines[-1].removeprefix("[supervision] "))
        assert set(stats) == {
            "scheduler_crashes", "shed", "read_only_rejections",
            "deadline_rejections",
        }
