"""Lease-based job supervision for the campaign scheduler.

The scheduler trusts its worker machinery: a batch that wedges
(a hung pool worker with no timeout policy, an OOM-killed process
whose pool never surfaces the break, a scheduler thread stuck in a
syscall) holds its jobs in ``running`` forever, and a ``kill -9`` of
the whole service orphans every in-flight job until someone notices.
This module closes that gap with one mechanism — the **lease**:

* Every job entering execution is granted a persisted lease: a
  ``grant`` record in the job log (``service/jobs.jsonl``, see
  :class:`~repro.experiments.resilience.JobLog`) naming the job key,
  its run id, the holding batch, and the attempt number, plus an
  in-memory heartbeat deadline.
* Progress is the heartbeat.  The :class:`Supervisor` thread watches
  the content-addressed store: a lease whose result has landed is
  released; any landing renews every sibling lease (a batch that is
  completing jobs is alive, however slow).
* A lease that outlives its deadline with no progress anywhere means
  the worker is wedged.  The supervisor *reclaims* it: a ``reclaim``
  record is written, the wedged worker processes are killed (the
  scheduler's callback), and the job re-queues with its attempt
  history — so a hang converges to the same recovery path a crash or
  an OOM kill already takes (broken pool → rebuild → retry).
* A ``kill -9`` of the whole service leaves ``grant`` records with no
  ``release``.  On ``resume=True`` those orphans are detected,
  logged as reclaimed, and counted — and because the replay re-runs
  exactly the jobs whose results are not in the store, a resumed
  scheduler never double-runs or orphans a job.

The log is the exactly-once proof: for any recovered deployment,
:meth:`~repro.experiments.resilience.JobLog.completions` must map
every job key to exactly one ``release``/``done`` record, however
many grants, reclaims, and process deaths happened in between.  The
chaos suite asserts this.

Determinism note: lease records carry durations and attempt counts,
never wall-clock timestamps — deadlines live only in memory (monotonic
clock) and are meaningless across processes, so nothing
nondeterministic is persisted.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.experiments.resilience import JobLog

log = logging.getLogger("repro.service.supervision")

#: Default heartbeat budget: a batch must complete *some* job (or be
#: explicitly renewed) this often or it is considered wedged.
DEFAULT_LEASE_S = 30.0

#: Terminal outcomes a release record may carry.
RELEASE_OUTCOMES = ("done", "failed", "requeued", "shutdown")


@dataclass
class Lease:
    """One in-flight job's liveness contract (in-memory view)."""

    key: str
    run_id: str
    holder: str
    attempt: int
    lease_s: float
    #: Monotonic heartbeat deadline; renewals push it forward.
    deadline: float

    def renew(self, now: float) -> None:
        self.deadline = now + self.lease_s

    def expired(self, now: float) -> bool:
        return now >= self.deadline

    def record(self, event: str, **fields) -> dict:
        """A job-log record about this lease."""
        return {
            "event": event,
            "key": self.key,
            "run": self.run_id,
            "holder": self.holder,
            "attempt": self.attempt,
            **fields,
        }


@dataclass
class SupervisionStats:
    """Counters for everything the supervision layer did.

    Mirrored into the scheduler's manifest (``extra["supervision"]``)
    and the ``/healthz`` document, so an operator — or the chaos
    harness — can see what a deployment survived.
    """

    granted: int = 0
    released: int = 0
    renewals: int = 0
    reclaimed: int = 0
    orphans_recovered: int = 0
    worker_kills: int = 0
    requeues: int = 0
    scheduler_crashes: int = 0
    shed: int = 0
    read_only_rejections: int = 0
    deadline_rejections: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def eventful(self) -> bool:
        """Whether anything beyond plain grant/release happened."""
        plain = {"granted", "released", "renewals"}
        return any(v for k, v in self.as_dict().items() if k not in plain)


class LeaseLog:
    """The in-memory lease table, writing through the job log.

    Deadlines and renewals live only here; every ``grant``, ``release``
    and ``reclaim`` is a record in the :class:`JobLog`, so the durable
    lease history is :meth:`JobLog.records` and its open grants are
    :attr:`JobLog.view`'s.  Constructed over a resumed log, the table
    resolves every orphaned grant (one the killed process never
    released): if ``has_result`` says the job's result landed, the
    orphan gets the completion record the crash swallowed -- the store
    entry is proof the job ran, and without the record the
    exactly-once proof (:meth:`JobLog.completions`) would undercount
    it.  Orphans with no result are reclaimed with
    ``reason="orphaned"`` so the scheduler re-runs them.
    """

    def __init__(
        self,
        joblog: JobLog,
        stats: SupervisionStats | None = None,
        has_result: Callable[[str], bool] | None = None,
    ) -> None:
        self.joblog = joblog
        self.stats = stats if stats is not None else SupervisionStats()
        self._active: dict[str, Lease] = {}
        grants = joblog.view["open_grants"]
        orphans = sorted(grants)
        completed = 0
        with joblog.group():
            for key in orphans:
                g = grants[key]
                self._active[key] = Lease(
                    key, g["run"], g["holder"], g["attempt"], g["lease_s"],
                    deadline=0.0,
                )
                if has_result is not None and has_result(key):
                    # The killed process wrote this result but died
                    # before its completion record (the store write and
                    # the record are separate fsyncs).
                    self.release(key, "done")
                    completed += 1
                else:
                    self.reclaim(key, "orphaned")
                self.stats.orphans_recovered += 1
        if orphans:
            log.warning(
                "recovered %d orphaned lease(s) from the previous "
                "deployment (%d already had results)",
                len(orphans),
                completed,
            )

    # ------------------------------------------------------------------
    # the lease lifecycle

    def grant(
        self,
        key: str,
        run_id: str,
        holder: str,
        attempt: int,
        lease_s: float = DEFAULT_LEASE_S,
        now: float | None = None,
    ) -> Lease:
        """Grant (or re-grant) the lease for one in-flight job."""
        now = time.monotonic() if now is None else now
        lease = Lease(key, run_id, holder, attempt, lease_s, now + lease_s)
        self._active[key] = lease
        # Built from the arguments, not the lease: its deadline is a
        # clock reading and must never reach the log.
        self.joblog.append({"event": "grant", "key": key, "run": run_id,
                            "holder": holder, "attempt": attempt,
                            "lease_s": lease_s})
        self.stats.granted += 1
        return lease

    def renew(self, key: str, now: float | None = None) -> bool:
        """Heartbeat: push the lease deadline forward (in-memory only)."""
        lease = self._active.get(key)
        if lease is None:
            return False
        lease.renew(time.monotonic() if now is None else now)
        self.stats.renewals += 1
        return True

    def renew_all(self, now: float | None = None) -> int:
        now = time.monotonic() if now is None else now
        for lease in self._active.values():
            lease.renew(now)
            self.stats.renewals += 1
        return len(self._active)

    def release(self, key: str, outcome: str = "done", **fields) -> bool:
        """Release an active lease; False if no lease is held for ``key``.

        ``done`` is the job's completion record, which the log keeps
        only if the executor has not written it already.
        """
        if outcome not in RELEASE_OUTCOMES:
            raise ValueError(f"unknown release outcome {outcome!r}")
        lease = self._active.pop(key, None)
        if lease is None:
            return False
        self.joblog.append(lease.record("release", outcome=outcome, **fields))
        self.stats.released += 1
        return True

    def reclaim(self, key: str, reason: str) -> Lease | None:
        """Forcibly take back an active lease (the holder is wedged/dead)."""
        lease = self._active.pop(key, None)
        if lease is None:
            return None
        self.joblog.append(lease.record("reclaim", reason=reason))
        self.stats.reclaimed += 1
        return lease

    # ------------------------------------------------------------------
    # queries

    def active(self) -> dict[str, Lease]:
        return dict(self._active)

    def held(self, key: str) -> bool:
        return key in self._active

    def expired(self, now: float | None = None) -> list[Lease]:
        now = time.monotonic() if now is None else now
        return [
            self._active[key]
            for key in sorted(self._active)
            if self._active[key].expired(now)
        ]

    def states(self) -> dict:
        """Lease-state summary for health/readiness reporting."""
        return {
            "held": len(self._active),
            "granted": self.stats.granted,
            "released": self.stats.released,
            "reclaimed": self.stats.reclaimed,
            "orphans_recovered": self.stats.orphans_recovered,
        }


class Supervisor:
    """The scheduler's watchdog thread.

    Periodically, under the scheduler's lock:

    1. releases leases whose results have landed in the store (landing
       *is* the heartbeat);
    2. renews every remaining lease if anything landed this tick — a
       slow batch that is making progress is healthy;
    3. reclaims leases past their deadline and hands them to
       ``on_expired`` (the scheduler kills the wedged workers and
       requeues the jobs);
    4. if the scheduler thread itself has crashed, reclaims everything
       (nothing will ever land) so lease state reflects reality while
       the API degrades to read-only.

    All dependencies are injected, so the supervisor is unit-testable
    with plain callables — no scheduler required.
    """

    def __init__(
        self,
        leases: LeaseLog,
        cond: threading.Condition,
        has_result: Callable[[str], bool],
        on_expired: Callable[[list[Lease]], None],
        is_crashed: Callable[[], bool] = lambda: False,
        on_landed: Callable[[str], None] | None = None,
        poll_s: float = 0.25,
    ) -> None:
        self.leases = leases
        self.cond = cond
        self.has_result = has_result
        self.on_expired = on_expired
        self.is_crashed = is_crashed
        self.on_landed = on_landed
        self.poll_s = poll_s
        self.ticks = 0
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    def tick(self, now: float | None = None) -> list[Lease]:
        """One supervision pass; returns the leases reclaimed (if any)."""
        now = time.monotonic() if now is None else now
        # Everything one pass releases or reclaims is one commit.
        with self.cond, self.leases.joblog.group():
            self.ticks += 1
            active = self.leases.active()
            landed = [
                key for key in sorted(active) if self.has_result(key)
            ]
            for key in landed:
                self.leases.release(key, "done")
                if self.on_landed is not None:
                    self.on_landed(key)
            if landed:
                # Progress anywhere proves the worker is alive; give
                # every sibling a fresh heartbeat window.
                self.leases.renew_all(now)
                self.cond.notify_all()
            if self.is_crashed():
                doomed = sorted(self.leases.active())
                reason = "scheduler-crashed"
            else:
                doomed = [lease.key for lease in self.leases.expired(now)]
                reason = "lease-expired"
            reclaimed = [self.leases.reclaim(key, reason) for key in doomed]
        if reclaimed:
            # Outside the lock: the callback may kill processes and
            # mutate scheduler state under its own locking discipline.
            self.on_expired(reclaimed)
        return reclaimed

    def _loop(self) -> None:
        while not self._wake.wait(self.poll_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive watchdog
                log.exception("supervisor tick failed")

    def start(self) -> "Supervisor":
        if self._thread is None:
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None


def kill_worker_processes() -> int:
    """SIGKILL every live child worker process; returns the body count.

    The wedged-worker reclamation path: pool workers are the only
    child processes a scheduler owns, and killing them converges a
    hang onto the exact recovery path an OOM kill already takes —
    ``BrokenProcessPool`` → pool rebuild → bounded retry.
    """
    import multiprocessing

    killed = 0
    for proc in multiprocessing.active_children():
        try:
            proc.kill()
            killed += 1
        except Exception:  # pragma: no cover - already-dead race
            pass
    return killed


__all__ = [
    "DEFAULT_LEASE_S",
    "Lease",
    "LeaseLog",
    "RELEASE_OUTCOMES",
    "Supervisor",
    "SupervisionStats",
    "kill_worker_processes",
]
