"""Campaign scheduler: the daemon half of simulation-as-a-service.

:class:`CampaignScheduler` accepts job specs — single ``(config,
apps)`` simulations or whole figure/ablation campaigns expanded by
:func:`~repro.service.jobs.campaign_jobs` — and drives them to
completion against a shared :class:`~repro.service.store.ResultStore`.

Design:

* **Exactly-once enqueue.**  Submission is keyed by the store's
  content-addressed key and serialized under one lock: a key already
  present in the store answers ``done`` without touching the queue; a
  key already queued or running answers with the existing ticket; only
  a genuinely new key appends an ``enqueue`` record.  N concurrent
  cache misses for the same key therefore enqueue one job, and the log
  carries exactly one completion for it.
* **One persisted job log.**  Every enqueue (with the full job spec,
  so the log is self-contained), campaign, requeue, completion and
  shutdown is a record in the fsynced, append-only
  ``service/jobs.jsonl`` (a
  :class:`~repro.experiments.resilience.JobLog`); the worker drains in
  submission order.  On ``resume=True`` the log is replayed: jobs
  whose key is already in the store are registered as done (with the
  completion record a kill between publish and record swallowed),
  terminal failures stay failed, and the rest re-queue in their
  original order — the scheduler process can be killed at any instant
  and restarted without losing or duplicating work.
* **One failure path.**  Batches execute through
  :func:`~repro.experiments.runner.load_or_simulate`, the function a
  local :class:`~repro.experiments.runner.Runner` hands its misses to,
  with the store, a :class:`~repro.experiments.resilience.RetryPolicy`
  and the job log: inside a batch, the executor's per-job watchdog,
  bounded retries and pool rebuilds recover hangs and crashes, and
  results are bit-identical to a local run of the same job list
  because they *are* the same code path.  A batch the executor gives
  up on requeues its unfinished jobs, bounded by ``max_requeues``; a
  ``kill -9`` is recovered by ``--resume``'s replay.  A worker-thread
  crash flips :attr:`crashed` so the API degrades to read-only, and
  fails its in-flight jobs non-terminally so ``--resume`` re-runs them.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.common.errors import JobFailureError
from repro.experiments.config import SystemConfig
from repro.experiments.resilience import (
    JobLog,
    ResilienceStats,
    RetryPolicy,
)
from repro.experiments.runner import load_or_simulate
from repro.faults import FaultPlan
from repro.service.jobs import JobSpec, campaign_id, campaign_jobs
from repro.service.store import ResultStore
from repro.telemetry.manifest import RunManifest, RunRecord

log = logging.getLogger("repro.service.scheduler")

#: Job lifecycle states reported by the scheduler and the API.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class SupervisionStats:
    """Counters for what the scheduler and its API survived.

    Mirrored into the scheduler's manifest (``extra["supervision"]``)
    and the ``/healthz`` document, so an operator — or the chaos
    harness — can see what a deployment went through.
    """

    requeues: int = 0
    scheduler_crashes: int = 0
    shed: int = 0
    read_only_rejections: int = 0
    deadline_rejections: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def eventful(self) -> bool:
        return any(self.as_dict().values())


class _Job:
    """Scheduler-side state of one deduplicated job."""

    __slots__ = (
        "spec", "key", "state", "detail", "source", "wall_s",
        "requeues", "terminal",
    )

    def __init__(self, spec: JobSpec, key: str) -> None:
        self.spec = spec
        self.key = key
        self.state = "queued"
        self.detail = ""
        self.source = ""
        self.wall_s = 0.0
        #: Times an aborted batch put this job back on the queue.
        self.requeues = 0
        #: A terminal failure (budget exhausted) is a log record and
        #: survives --resume, however the process ended; a
        #: circumstantial one (scheduler crash) re-runs instead.
        self.terminal = False

    def record(self, event: str, **fields) -> dict:
        """A job-log record about this job."""
        return {"event": event, "key": self.key, "run": self.spec.run_id,
                **fields}

    def status(self) -> dict:
        doc = {
            "key": self.key,
            "run_id": self.spec.run_id,
            "state": self.state,
            "apps": list(self.spec.apps),
        }
        if self.source:
            doc["source"] = self.source
        if self.detail:
            doc["detail"] = self.detail
        if self.requeues:
            doc["requeues"] = self.requeues
        return doc


class CampaignScheduler:
    """Owns the queue, the worker loop, and campaign bookkeeping.

    Parameters
    ----------
    store:
        The shared result store (also used as the workers' cache).
    workers:
        Process-pool width for batch execution; ``1`` runs batches
        serially inside the scheduler thread.
    policy:
        Fault-tolerance policy for the workers (default: fail fast).
    resume:
        Replay ``service/jobs.jsonl`` and continue an interrupted
        deployment instead of starting fresh.
    max_requeues:
        How many times an aborted batch's job may re-queue before it
        is marked failed.
    fault_plan:
        Deterministic fault injection for the batches (chaos testing
        only; also reachable via ``REPRO_FAULT_PLAN`` through the
        ``repro serve`` CLI).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        resume: bool = False,
        max_requeues: int = 1,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.max_requeues = max_requeues
        self.fault_plan = fault_plan
        self.joblog = JobLog(
            store.cache_dir / "service" / "jobs.jsonl", resume=resume
        )
        self.stats = ResilienceStats()
        self.sup_stats = SupervisionStats()
        self._cond = threading.Condition(threading.RLock())
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[str] = deque()
        self._records: dict[str, RunRecord] = {}
        self._thread: threading.Thread | None = None
        self._stop = False
        self._crashed = False
        #: Completed-batch counter (diagnostics / tests).
        self.batches = 0
        if resume:
            self._resume()

    def _resume(self) -> None:
        """Rebuild the jobs and the queue from the replayed log.

        A kill can land between a result's publish and its completion
        record (separate fsyncs).  The store entry is proof the job
        ran, so each such job gets the record the kill swallowed --
        one group commit -- and the exactly-once proof
        (:meth:`JobLog.completions`) counts it.  A spec this version
        cannot decode stays out of the queue, with a warning naming it.
        """
        view = self.joblog.view
        with self.joblog.group():
            for key, doc in view["submitted"].items():
                try:
                    spec = JobSpec.from_dict(doc)
                except (KeyError, TypeError, ValueError) as exc:
                    log.warning(
                        "resume: cannot decode job %s, not resumed: %s",
                        key, exc,
                    )
                    continue
                job = _Job(spec, key)
                job.requeues = view["requeues"].get(key, 0)
                self._jobs[key] = job
                if self.store.has(key):
                    self._finish(job, "store")
                    # Dropped by the log if the completion is there.
                    self.joblog.append(job.record("release", outcome="done"))
                elif key in view["terminal"]:
                    # The previous deployment already burned this job's
                    # requeue budget; don't silently re-run it.
                    job.state = "failed"
                    job.detail = view["terminal"][key]
                    job.terminal = True
                else:
                    self._queue.append(key)
        if self._queue:
            log.info(
                "resumed queue: %d job(s) pending, %d already complete",
                len(self._queue),
                sum(1 for j in self._jobs.values() if j.state == "done"),
            )

    # ------------------------------------------------------------------
    # submission (exactly-once)

    def _finish(self, job: _Job, source: str, wall_s: float = 0.0) -> None:
        job.state = "done"
        job.source = source
        job.wall_s = wall_s
        rid = job.spec.run_id
        if rid not in self._records:
            self._records[rid] = RunRecord.from_run(
                job.spec.config, job.spec.apps,
                source=source, wall_time_s=wall_s,
            )

    def submit_job(self, config: SystemConfig, apps: Sequence[str]) -> dict:
        """Submit one job; returns its status ticket.

        The whole check-then-enqueue sequence holds the scheduler lock,
        which is what makes the enqueue exactly-once under concurrent
        submissions of the same key.
        """
        spec = JobSpec.of(config, apps)
        key = self.store.key_for(config, spec.apps)
        with self._cond:
            job = self._jobs.get(key)
            if job is not None and job.state in ("queued", "running", "done"):
                return job.status()
            if job is None and self.store.has(key):
                job = _Job(spec, key)
                self._jobs[key] = job
                self._finish(job, "store")
                return job.status()
            # New key, or an explicit resubmission of a failed job.
            if job is None:
                job = _Job(spec, key)
                self._jobs[key] = job
            job.state = "queued"
            job.detail = ""
            job.terminal = False
            job.requeues = 0
            self.joblog.append(job.record("enqueue", job=spec.to_dict()))
            self._queue.append(key)
            self._cond.notify_all()
            return job.status()

    def submit_campaign(
        self,
        experiment: str,
        config: SystemConfig | None = None,
        mixes: Sequence[str] | None = None,
    ) -> dict:
        """Expand a figure/ablation into jobs and submit them all.

        The campaign record and its enqueues are one group commit.
        """
        jobs = campaign_jobs(experiment, config, mixes)
        cid = campaign_id(experiment, jobs)
        keys = [self.store.key_for(c, a) for c, a in jobs]
        with self._cond, self.joblog.group():
            if cid not in self.joblog.view["campaigns"]:
                self.joblog.append(
                    {
                        "event": "campaign",
                        "campaign": cid,
                        "experiment": experiment,
                        "mixes": list(mixes) if mixes else None,
                        "keys": keys,
                    }
                )
            for job_config, apps in jobs:
                self.submit_job(job_config, apps)
        return self.campaign_status(cid)

    # ------------------------------------------------------------------
    # queries

    def job_status(self, key: str) -> dict | None:
        with self._cond:
            job = self._jobs.get(key)
            if job is not None:
                return job.status()
        if self.store.has(key):
            return {"key": key, "state": "done", "source": "store"}
        return None

    def campaign_status(self, cid: str) -> dict | None:
        with self._cond:
            campaign = self.joblog.view["campaigns"].get(cid)
            if campaign is None:
                return None
            states = {}
            for key in campaign["keys"]:
                job = self._jobs.get(key)
                if job is not None:
                    states[key] = job.state
                else:
                    states[key] = "done" if self.store.has(key) else "unknown"
        counts = {state: 0 for state in (*JOB_STATES, "unknown")}
        for state in states.values():
            counts[state] += 1
        return {
            "campaign": cid,
            "experiment": campaign["experiment"],
            "mixes": campaign["mixes"],
            "jobs": len(campaign["keys"]),
            "counts": {k: v for k, v in counts.items() if v},
            "complete": counts["done"] == len(campaign["keys"]),
            "states": states,
        }

    def record_for(self, rid: str) -> RunRecord | None:
        with self._cond:
            return self._records.get(rid)

    def manifest(self) -> RunManifest:
        """Provenance manifest of everything this scheduler has served."""
        with self._cond:
            records = list(self._records.values())
        extra = {}
        if self.stats.eventful:
            extra["resilience"] = self.stats.as_dict()
        if self.sup_stats.eventful:
            extra["supervision"] = self.sup_stats.as_dict()
        return RunManifest(
            records=records,
            workers=self.workers,
            wall_time_s=sum(r.wall_time_s for r in records),
            extra=extra,
        )

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue) + sum(
                1 for j in self._jobs.values() if j.state == "running"
            )

    # ------------------------------------------------------------------
    # the worker loop

    def _requeue(self, job: _Job, why: str) -> None:
        """Put an aborted batch's job back on the queue (caller holds lock)."""
        job.requeues += 1
        job.state = "queued"
        job.detail = why
        self.sup_stats.requeues += 1
        self.joblog.append(job.record("requeue", requeues=job.requeues))
        self._queue.append(job.key)

    def _fail(self, job: _Job, detail: str) -> None:
        """Fail a job terminally (caller holds lock); the record is what
        keeps it failed across --resume."""
        job.state = "failed"
        job.detail = detail
        job.terminal = True
        self.joblog.append(
            job.record("release", outcome="failed", detail=detail)
        )

    def _run_batch(self, keys: list[str]) -> None:
        jobs = [
            (self._jobs[key].spec.config, self._jobs[key].spec.apps)
            for key in keys
        ]
        try:
            served = load_or_simulate(
                jobs,
                self.store,
                parallelism=self.workers,
                policy=self.policy,
                journal=self.joblog,
                stats=self.stats,
                fault_plan=self.fault_plan,
            )
        except JobFailureError as exc:
            detail = str(exc)
            requeued = 0
            # The abort is charged to the job it names; a failure no
            # job of the batch owns is charged to all of them.
            culprits = {
                key for key in keys
                if self._jobs[key].spec.run_id == exc.job_id
            } or set(keys)
            with self._cond, self.joblog.group():
                for key in keys:
                    job = self._jobs[key]
                    if self.store.has(key):
                        self._finish(job, "service")
                    elif key not in culprits:
                        # Cut short by a batch-mate: back on the queue
                        # with no record, so it stays pending in the log.
                        job.state = "queued"
                        self._queue.append(key)
                        requeued += 1
                    elif job.requeues < self.max_requeues:
                        self._requeue(job, detail)
                        requeued += 1
                    else:
                        self._fail(job, detail)
                if requeued:
                    self._cond.notify_all()
            log.warning(
                "batch of %d job(s) aborted (%d requeued): %s",
                len(keys), requeued, detail,
            )
            return
        with self._cond:
            for key, (_, _, wall_s) in zip(keys, served):
                self._finish(self._jobs[key], "service", wall_s)

    def _loop(self) -> None:
        try:
            self._loop_inner()
        except Exception:
            # Anything escaping the batch handler is a scheduler crash:
            # flag it so the API degrades to read-only, and settle the
            # in-flight jobs now (nothing will land from this thread
            # again).  The failure is not terminal: --resume re-runs it.
            log.exception("scheduler worker thread crashed")
            with self._cond:
                self._crashed = True
                self.sup_stats.scheduler_crashes += 1
                for job in self._jobs.values():
                    if job.state != "running":
                        continue
                    if self.store.has(job.key):
                        self._finish(job, "service")
                    else:
                        job.state = "failed"
                        job.detail = "scheduler crashed with the job in flight"
                self._cond.notify_all()

    def _loop_inner(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait(0.5)
                if self._stop and not self._queue:
                    return
                keys = list(self._queue)
                self._queue.clear()
                for key in keys:
                    self._jobs[key].state = "running"
            self._run_batch(keys)
            with self._cond:
                self.batches += 1
                self._cond.notify_all()

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def healthy(self) -> bool:
        """Whether the scheduler can still accept and run work."""
        return not self._crashed and not self._stop

    def state_counts(self) -> dict[str, int]:
        """Job-state histogram for health reporting."""
        with self._cond:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def start(self) -> "CampaignScheduler":
        if self._thread is None:
            self._stop = False
            self._thread = threading.Thread(
                target=self._loop, name="repro-scheduler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        clean = True
        if self._thread is not None:
            self._thread.join(timeout)
            clean = not self._thread.is_alive()
            if clean:
                self._thread = None
        with self._cond:
            # The shutdown record names the work that finished (or
            # terminally failed).
            jobs = sorted(self._jobs.values(), key=lambda j: j.key)
            done = [j.key for j in jobs if j.state == "done"]
            failed = {
                j.key: j.detail for j in jobs
                if j.state == "failed" and j.terminal
            }
            if clean or done or failed:
                self.joblog.append(
                    {
                        "event": "shutdown",
                        "clean": clean,
                        "done": done,
                        "failed": failed,
                    }
                )
        if clean:
            # A wedged worker thread may still be writing; leave the
            # log open rather than hand it a closed file.
            self.joblog.close()
        else:
            log.warning(
                "scheduler thread did not stop within %.1fs; "
                "shutdown record written, log left open", timeout or 0.0
            )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until nothing is queued or running; True on success."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while True:
                busy = bool(self._queue) or any(
                    j.state in ("queued", "running")
                    for j in self._jobs.values()
                )
                if not busy:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining if remaining is not None else 0.5)

    def __enter__(self) -> "CampaignScheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["JOB_STATES", "CampaignScheduler", "SupervisionStats"]
