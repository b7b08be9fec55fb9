"""Fault-tolerant batch execution for the experiment engine.

The paper's evaluation is built from large sweeps of independent
``(config, apps)`` simulations (Figures 5-14, Table 2 mixes x
configurations).  ``Runner.run_many`` fans those across a process pool;
this module makes that fan-out survive the failures a multi-hour
campaign actually meets:

* **Per-job wall-clock timeouts** — a watchdog in the parent tracks a
  deadline for every in-flight pooled job; a hung worker is detected,
  the pool is torn down (a stuck worker cannot be cancelled any other
  way), and the job is retried or the batch aborted with
  :class:`~repro.common.errors.SimulationTimeout`.  Jobs are submitted
  in windows of at most ``parallelism`` so a queued job's clock never
  starts before it runs.
* **Bounded retries with deterministic backoff** — timeouts, worker
  crashes, and *transient* exceptions (anything whose ``transient``
  attribute is true, e.g. :class:`repro.faults.InjectedFault`) are
  retried up to ``RetryPolicy.retries`` times; every attempt leaves a
  :class:`~repro.common.errors.JobFailure` record in the stats and the
  job log.  Backoff is derived from the job's content identity, not a
  wall-clock RNG, so reruns pause identically.
* **Broken-pool recovery** — a worker that dies (OOM-kill, segfault,
  injected ``os._exit``) breaks the whole ``ProcessPoolExecutor``; the
  executor rebuilds the pool and resubmits unfinished work, and after
  ``max_pool_rebuilds`` rebuilds degrades gracefully to serial
  in-process execution so a pathological environment still completes.
* **One crash-safe job log** — :class:`JobLog`, an append-only,
  fsynced JSONL file whose records are the job state machine for both
  a local ``--resume`` batch and the campaign service.  A completion is
  written only *after* the result is durably in the ResultStore, and
  every view a restart needs (pending queue, campaigns, terminal
  failures, completions) is one :func:`replay` of it.

Determinism: recovery never changes results.  A retried or resumed job
re-runs the same deterministic simulation and the caller collects
results by submission index, so a batch that lost workers, timed out,
or was killed and resumed is bit-identical to an undisturbed one — the
chaos suite (``tests/chaos``) asserts exactly this.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import (
    BatchAborted,
    JobFailure,
    JobFailureError,
    SimulationTimeout,
    WorkerCrashed,
)
from repro.common.rng import derive_seed
from repro.faults import FaultPlan, InjectedCrash
from repro.telemetry.manifest import config_hash, run_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

log = logging.getLogger("repro.experiments.resilience")

#: Job log schema version (bump on an incompatible record change).
JOB_LOG_SCHEMA = 1


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor fights for each job.

    The default policy — no retries, no timeout — makes the executor
    behave exactly like the plain engine: first failure propagates.
    """

    #: Extra attempts after the first (0 = fail fast).
    retries: int = 0
    #: Per-job wall-clock budget in seconds; ``None`` disables the
    #: watchdog.  Enforced for pooled execution only — a serial job
    #: runs in-process and cannot be preempted.
    timeout_s: float | None = None
    #: First retry waits this long, doubling per attempt, plus a
    #: deterministic (content-derived) jitter fraction.  0 = no wait.
    backoff_base_s: float = 0.0
    #: Pool rebuilds tolerated before degrading to serial execution.
    max_pool_rebuilds: int = 2

    def backoff_s(self, job_id: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        base = self.backoff_base_s * (2 ** (attempt - 1))
        jitter = (derive_seed(0, f"{job_id}:backoff:{attempt}") % 1024) / 1024.0
        return base * (1.0 + jitter)


@dataclass
class ResilienceStats:
    """Counters and per-attempt failure records for one batch (or runner).

    Mirrored into the run manifest (``extra["resilience"]``) so a
    sweep's provenance says not just what ran but what it survived.
    """

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    injected_faults: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: Jobs served from the log + store on a resumed batch.
    resumed_jobs: int = 0
    failures: list[JobFailure] = field(default_factory=list)

    def counters(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "failures"
        }

    @property
    def eventful(self) -> bool:
        """Whether anything beyond plain execution happened."""
        return any(self.counters().values()) or bool(self.failures)

    def as_dict(self) -> dict:
        return {
            **self.counters(),
            "failures": [f.as_dict() for f in self.failures],
        }


#: Every view :func:`replay` derives from a job log.
VIEWS = ("submitted", "pending", "campaigns", "terminal", "done")


def replay(records, view: dict | None = None) -> dict[str, dict]:
    """Fold job-log records, in order, into every view a restart needs.

    Each view is a dict keyed by job key: ``submitted`` (the job spec
    of its first ``enqueue``, in submission order), ``pending`` (the
    submitted jobs neither done nor terminally failed, in order),
    ``terminal`` (the detail of a terminal failure not since
    resubmitted) and ``done`` (the number of completion records);
    ``campaigns`` is keyed by campaign id.  Passing ``view`` folds the
    records into it.  Events no view needs are skipped, which is how
    logs written with ``grant``/``reclaim``/``requeue`` records and
    ``requeued``/``shutdown`` releases still replay.
    """
    if view is None:
        view = {name: {} for name in VIEWS}
    for record in records:
        event, key = record.get("event"), record.get("key")
        if event == "campaign":
            view["campaigns"].setdefault(
                record["campaign"],
                {k: record.get(k) for k in ("experiment", "mixes", "keys")},
            )
        elif not isinstance(key, str):
            continue
        elif event == "enqueue":
            view["submitted"].setdefault(key, record.get("job"))
            view["terminal"].pop(key, None)
            if key not in view["done"]:
                view["pending"].setdefault(key)
        elif event == "release":
            outcome = record.get("outcome")
            if outcome == "done":
                view["done"][key] = view["done"].get(key, 0) + 1
            elif outcome == "failed":
                view["terminal"][key] = str(record.get("detail", ""))
            if outcome in ("done", "failed"):
                view["pending"].pop(key, None)
    return view


def parse_records(data: bytes) -> list[dict]:
    """Every whole record of a job log's bytes, in order.

    A record is whole once its newline is written.  Anything after the
    last newline, or a line that does not parse, is the torn write a
    crash interrupted; the event it described never durably happened,
    so it is skipped.
    """
    records = []
    for line in data[: data.rfind(b"\n") + 1].splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


class JobLog:
    """The one append-only, crash-safe JSONL record of job lifecycles.

    Its records are the state machine of a local ``--resume`` batch and
    of the campaign service alike (the record table is in
    ``docs/robustness.md``); job records carry both ``key`` (store key)
    and ``run`` (run id).  :attr:`view` is :func:`replay` of everything
    written so far, kept current in memory by :meth:`append`.

    :meth:`append` is one write and one fsync, however many records it
    is given; records appended inside :meth:`group` share one.  A job's
    completion (``release``/``done``) is appended only after its result
    is durable in the store, and only once.

    ``resume=True`` replays an existing file, cuts off a torn final
    line so the next record starts on a line of its own, and appends;
    otherwise the file is truncated for a fresh start.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        self.path = Path(path).expanduser()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._buffer: list[str] | None = None
        self._handle = open(self.path, "ab")
        data = self.path.read_bytes() if resume else b""
        data = data[: data.rfind(b"\n") + 1]
        self._handle.truncate(len(data))
        self.view = replay(parse_records(data))
        if not data:
            self.append({"event": "log-start", "schema": JOB_LOG_SCHEMA})

    def append(self, *records: dict) -> None:
        """Durably append ``records``: one write, one fsync.

        A second completion for a key is dropped: executor and resume
        may each see a result land, the first one writes.
        """
        with self._lock:
            kept = []
            for record in records:
                if record.get("outcome") == "done" and (
                    record["key"] in self.view["done"]
                ):
                    continue
                replay([record], self.view)
                kept.append(record)
            text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in kept)
            if not text:
                return
            if self._buffer is not None:
                self._buffer.append(text)
            else:
                self._write(text)

    def _write(self, text: str) -> None:
        self._handle.write(text.encode())
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @contextmanager
    def group(self):
        """Group-commit every :meth:`append` inside the block."""
        with self._lock:
            if self._buffer is not None:  # nested: the outer group commits
                yield
                return
            self._buffer = []
            try:
                yield
            finally:
                text, self._buffer = "".join(self._buffer), None
                if text:
                    self._write(text)

    def records(self) -> list[dict]:
        """Every durable record, in order (parsed from disk)."""
        return parse_records(self.path.read_bytes())

    def completions(self) -> dict[str, int]:
        """``key -> completion records`` over the whole durable log.

        For a correctly recovered deployment every executed job maps to
        exactly ``1`` -- the chaos harness's exactly-once assertion.
        """
        return replay(self.records())["done"]

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JobLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# worker entry point


def _attempt_in_worker(
    simulate: Callable,
    plan: FaultPlan | None,
    job_id: str,
    attempt: int,
    config: Any,
    apps: tuple[str, ...],
):
    """Pool-worker wrapper: fire any planned fault, then simulate.

    Module-level so it pickles; ``simulate`` must itself pickle
    (``repro.experiments.runner._simulate``, possibly behind a
    :func:`functools.partial`).
    """
    if plan is not None:
        plan.maybe_fire(job_id, apps, attempt, in_worker=True)
    return simulate(config, apps)


# ----------------------------------------------------------------------
# the executor


class _JobState:
    """Bookkeeping for one deduplicated job inside ``execute_jobs``."""

    __slots__ = (
        "index", "config", "apps", "job_id", "key", "cfg_hash", "attempts",
    )

    def __init__(
        self, index: int, config: Any, apps: tuple[str, ...], key: str | None
    ) -> None:
        self.index = index
        self.config = config
        self.apps = apps
        self.job_id = run_id(config, apps)
        self.key = key if key is not None else self.job_id
        self.cfg_hash = config_hash(config)
        self.attempts = 0  # failed attempts so far


def wait(futures, timeout: float | None):
    """Block until one of ``futures`` completes or ``timeout`` passes.

    ``concurrent.futures`` is imported here and in the pool round, so a
    serial batch never loads it.
    """
    from concurrent.futures import FIRST_COMPLETED
    from concurrent.futures import wait as wait_futures

    return wait_futures(futures, timeout=timeout, return_when=FIRST_COMPLETED)


def execute_jobs(
    jobs: Sequence[tuple],
    simulate: Callable,
    parallelism: int = 1,
    policy: RetryPolicy | None = None,
    journal: JobLog | None = None,
    stats: ResilienceStats | None = None,
    fault_plan: FaultPlan | None = None,
    on_complete: Callable[[int, Any, float], None] | None = None,
    keys: Sequence[str] | None = None,
) -> list:
    """Run ``jobs`` (a deduplicated ``(config, apps)`` list) to completion.

    Returns results in job order.  ``on_complete(index, result, wall_s)``
    fires as soon as a job's result exists — *before* its completion
    record in ``journal`` — with the wall time its successful attempt
    took, so callers persist results (the store) ahead of the record; a
    crash between the two re-simulates one job instead of trusting a
    log entry with no backing data.  ``keys`` are the jobs' store keys,
    which their log records carry (default: the run ids).

    Raises :class:`~repro.common.errors.SimulationTimeout`,
    :class:`~repro.common.errors.WorkerCrashed`, or
    :class:`~repro.common.errors.BatchAborted` (all carrying the
    failing job's identity and the per-attempt failure records) when a
    job cannot be recovered within the policy.  ``KeyboardInterrupt``
    cancels pending work, logs the interruption, and propagates — the
    log plus the store make the batch resumable.
    """
    policy = policy if policy is not None else RetryPolicy()
    stats = stats if stats is not None else ResilienceStats()
    states = [
        _JobState(i, config, tuple(apps), keys[i] if keys else None)
        for i, (config, apps) in enumerate(jobs)
    ]
    results: list = [None] * len(states)
    pending: set[int] = set(range(len(states)))

    # ------------------------------------------------------------------
    # shared outcome handling

    def note(event: str, state: _JobState | None = None, **fields) -> None:
        if journal is not None:
            if state is not None:
                fields.update(key=state.key, run=state.job_id)
            journal.append({"event": event, **fields})

    def finish(state: _JobState, result: Any, source: str, wall_s: float) -> None:
        results[state.index] = result
        pending.discard(state.index)
        if on_complete is not None:
            on_complete(state.index, result, wall_s)
        note(
            "release", state, outcome="done", attempts=state.attempts + 1,
            source=source, wall_s=round(wall_s, 6),
        )

    def fail(state: _JobState, kind: str, detail: str, cause: BaseException | None,
             retryable: bool) -> bool:
        """Record one failed attempt; True if the job should be retried."""
        state.attempts += 1
        failure = JobFailure(
            job_id=state.job_id,
            config_hash=state.cfg_hash,
            apps=state.apps,
            attempt=state.attempts,
            kind=kind,
            detail=detail,
        )
        stats.failures.append(failure)
        if kind == "timeout":
            stats.timeouts += 1
        elif kind == "crash":
            stats.worker_crashes += 1
        elif kind == "injected":
            stats.injected_faults += 1
        note(
            "failure", state, attempt=failure.attempt, kind=kind, detail=detail
        )
        log.warning(
            "job %s (apps=%s) attempt %d failed: %s: %s",
            state.job_id[:16], ",".join(state.apps), state.attempts, kind, detail,
        )
        if retryable and state.attempts <= policy.retries:
            stats.retries += 1
            delay = policy.backoff_s(state.job_id, state.attempts)
            if delay > 0:
                time.sleep(delay)
            return True
        note("abort", state, kind=kind)
        error_cls = {
            "timeout": SimulationTimeout,
            "crash": WorkerCrashed,
        }.get(kind, BatchAborted)
        verb = {
            "timeout": "timed out",
            "crash": "crashed",
        }.get(kind, f"failed ({detail})" if detail else "failed")
        raise error_cls(
            f"batch aborted: job {verb} on attempt {state.attempts} "
            f"(policy allows {policy.retries} retries)",
            job_id=state.job_id,
            config_hash=state.cfg_hash,
            apps=state.apps,
            attempts=state.attempts,
            failures=tuple(stats.failures),
        ) from cause

    def classify(exc: BaseException) -> tuple[str, bool]:
        """Map an exception to (failure kind, retryable)."""
        if isinstance(exc, InjectedCrash):
            return "crash", True
        if getattr(exc, "transient", False):
            return "injected", True
        return "exception", False

    # ------------------------------------------------------------------
    # serial execution (parallelism == 1, or the degraded fallback)

    def run_serial() -> None:
        queue = deque(sorted(pending))
        while queue:
            state = states[queue.popleft()]
            if fault_plan is not None:
                # Service-scope faults fire in (and may kill or crash)
                # the owning process itself — deliberately outside the
                # per-job retry handling below.
                fault_plan.maybe_fire_service(
                    state.job_id, state.apps, state.attempts
                )
            try:
                if fault_plan is not None:
                    fault_plan.maybe_fire(
                        state.job_id, state.apps, state.attempts, in_worker=False
                    )
                start = time.perf_counter()
                result = simulate(state.config, state.apps)
                finish(state, result, "serial", time.perf_counter() - start)
            except KeyboardInterrupt:
                note("interrupted", state)
                raise
            except Exception as exc:
                kind, retryable = classify(exc)
                if fail(state, kind, str(exc), exc, retryable):
                    queue.appendleft(state.index)  # retry before moving on

    # ------------------------------------------------------------------
    # pooled execution

    def kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear down a pool that holds a hung worker.

        A running task cannot be cancelled through the executor API, so
        the watchdog terminates the worker processes directly (a
        CPython implementation detail, guarded accordingly) and
        abandons the pool object.
        """
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    rebuilds = 0  # this batch only; stats accumulate across batches

    def run_pool_round() -> None:
        """One pool lifetime: submit pending work, harvest until done or broken.

        Leaves unresolved jobs in ``pending``; the outer loop rebuilds
        the pool (or falls back to serial) for whatever remains.
        """
        nonlocal rebuilds
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        workers = min(parallelism, len(pending))
        pool = ProcessPoolExecutor(max_workers=workers)
        queue = deque(sorted(pending))
        inflight: dict = {}  # future -> (state, deadline, start)
        broken = False
        killed = False
        try:
            while queue or inflight:
                # Windowed submission: a job's timeout clock must not
                # start while it is still queued behind busy workers.
                while queue and len(inflight) < workers:
                    state = states[queue.popleft()]
                    if fault_plan is not None:
                        # Dispatch-time, in the owning process: this is
                        # where a service-scope sigkill takes the whole
                        # daemon down mid-campaign.
                        fault_plan.maybe_fire_service(
                            state.job_id, state.apps, state.attempts
                        )
                    future = pool.submit(
                        _attempt_in_worker,
                        simulate,
                        fault_plan,
                        state.job_id,
                        state.attempts,
                        state.config,
                        state.apps,
                    )
                    deadline = (
                        time.monotonic() + policy.timeout_s
                        if policy.timeout_s is not None
                        else None
                    )
                    inflight[future] = (state, deadline, time.perf_counter())
                wait_s = None
                deadlines = [d for (_, d, _) in inflight.values() if d is not None]
                if deadlines:
                    wait_s = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(set(inflight), wait_s)
                for future in sorted(done, key=lambda f: inflight[f][0].index):
                    state, _, start = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        if fail(
                            state, "crash",
                            "worker process died (process pool broken)",
                            None, retryable=True,
                        ):
                            pass  # stays in pending; outer loop resubmits
                    except KeyboardInterrupt:  # pragma: no cover - defensive
                        raise
                    except Exception as exc:
                        kind, retryable = classify(exc)
                        if fail(state, kind, str(exc), exc, retryable):
                            queue.append(state.index)
                        continue
                    else:
                        finish(state, result, "pool", time.perf_counter() - start)
                if broken:
                    # Remaining in-flight futures are doomed too; their
                    # jobs stay pending for the rebuilt pool (without
                    # consuming an attempt — the crash was charged to
                    # the futures that already surfaced it).
                    rebuilds += 1
                    stats.pool_rebuilds += 1
                    note("pool-rebuild", reason="broken")
                    return
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline, _) in inflight.items()
                    if deadline is not None and now >= deadline
                    and not future.done()
                ]
                if expired:
                    for future in sorted(
                        expired, key=lambda f: inflight[f][0].index
                    ):
                        state, _, _ = inflight.pop(future)
                        fail(
                            state, "timeout",
                            f"exceeded {policy.timeout_s:.3f}s wall-clock budget",
                            None, retryable=True,
                        )
                    # The hung workers hold pool slots hostage; kill the
                    # pool and let the outer loop rebuild for everything
                    # still pending (in-flight innocents are requeued
                    # without consuming an attempt).
                    rebuilds += 1
                    stats.pool_rebuilds += 1
                    note("pool-rebuild", reason="timeout")
                    kill_pool(pool)
                    killed = True
                    return
        except KeyboardInterrupt:
            for future in inflight:
                future.cancel()
            note("interrupted")
            kill_pool(pool)
            killed = True
            raise
        except JobFailureError:
            kill_pool(pool)
            killed = True
            raise
        finally:
            if not killed:
                # Clean completion joins the workers; a broken pool's
                # processes are already gone, so don't block on them.
                pool.shutdown(wait=not broken, cancel_futures=True)

    # ------------------------------------------------------------------

    if parallelism > 1 and len(pending) > 1:
        while pending:
            if rebuilds > policy.max_pool_rebuilds:
                stats.serial_fallbacks += 1
                note("serial-fallback", remaining=len(pending))
                log.warning(
                    "process pool broke %d times; finishing %d job(s) serially",
                    rebuilds, len(pending),
                )
                break
            run_pool_round()
    if pending:
        run_serial()
    return results
