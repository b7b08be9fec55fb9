"""Deterministic fault injection for the experiment engine.

The resilience layer (``repro.experiments.resilience``) promises that a
batch survives worker crashes, hangs, transient exceptions, and corrupt
cache entries.  This module is the harness that *proves* it: a
:class:`FaultPlan` describes, deterministically, which jobs fail in
which way on which attempt, and the chaos test suite (``tests/chaos``)
asserts that every recovery path produces results bit-identical to a
clean run.

Determinism is the whole point.  A fault either targets an explicit job
(by app tuple or run-id prefix) or fires probabilistically — but the
"probability" is derived from :func:`repro.common.rng.child_rng` seeded
with the plan seed and the job's content-derived identity, so the same
plan over the same job set always injects the same faults, regardless
of execution order, worker count, or how many times the batch is rerun.

Fault kinds
-----------
``exception``
    Raise :class:`InjectedFault` (marked ``transient``, so the
    resilience layer retries it) before the simulation starts.
``crash``
    In a pool worker: ``os._exit`` — the process dies without cleanup,
    breaking the pool exactly like a segfault or OOM kill would.  In
    the parent process (serial execution), raise
    :class:`InjectedCrash` instead, which the executor treats as a
    retryable crash.
``hang``
    Sleep for ``seconds`` (default far longer than any sane timeout),
    exercising the per-job watchdog.
``delay``
    Sleep for ``seconds`` and then run normally — latency without
    failure, for shaking out ordering assumptions.
``sigkill``
    ``kill -9`` semantics: the process hosting the fault dies by
    ``SIGKILL`` — no cleanup, no atexit, no Python teardown.  In a
    pool worker this is the harshest worker death available; with
    ``scope="service"`` it kills the *owning* process (the scheduler
    daemon, and with it the HTTP API), which is how the chaos-service
    harness deterministically murders a live deployment mid-campaign.

Fault *scope* selects where a spec fires.  ``scope="job"`` (the
default) fires at the top of a job attempt, inside the pool worker
when pooled.  ``scope="service"`` fires in the owning process at the
moment the matching job is about to be dispatched — the knob for
killing, hanging, or crashing the scheduler/API process itself at a
deterministic point in a campaign.

Cache-corruption helpers (:func:`corrupt_cache_entry`) truncate,
garbage, or type-confuse a persistent ``ResultStore`` entry in place so
tests can exercise the quarantine path.

A plan can be shipped to a CLI invocation through the
``REPRO_FAULT_PLAN`` environment variable (a path to a JSON plan file,
see :meth:`FaultPlan.to_json`); the CI chaos lane uses this to abort a
real ``fig10`` sweep mid-flight and prove ``--resume`` restores it.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from repro.common.errors import ReproError
from repro.common.rng import child_rng

#: Environment variable naming a JSON fault-plan file (CLI chaos runs).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_KINDS = ("exception", "crash", "hang", "delay", "sigkill")

_SCOPES = ("job", "service")


class InjectedFault(ReproError):
    """A deliberately injected, *transient* failure.

    The resilience layer retries any exception whose ``transient``
    attribute is true; real simulator bugs don't set it, so they abort
    the batch immediately instead of burning retries.
    """

    transient = True


class InjectedCrash(InjectedFault):
    """Serial-execution stand-in for a worker crash (can't kill the parent)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what kind, which job, which attempt.

    ``job`` matches a run-id prefix, ``apps`` an exact app tuple;
    leaving both ``None`` targets every job.  ``attempt`` is the
    0-based attempt the fault fires on (``None`` = every attempt —
    beware: an every-attempt fatal fault makes a job unrecoverable,
    which is occasionally exactly what a test wants).  ``rate`` < 1
    makes the fault probabilistic, decided deterministically from the
    plan seed and job identity.  ``scope`` is ``"job"`` (fires where
    the job attempt runs) or ``"service"`` (fires in the owning
    process as the job is dispatched — kills/hangs the daemon itself).
    """

    kind: str
    job: str | None = None
    apps: tuple[str, ...] | None = None
    attempt: int | None = 0
    rate: float = 1.0
    seconds: float = 30.0
    exit_code: int = 23
    scope: str = "job"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.scope not in _SCOPES:
            raise ValueError(
                f"unknown fault scope {self.scope!r}; expected one of {_SCOPES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def should_fire(
        self, plan_seed: int, job_id: str, apps: Sequence[str], attempt: int
    ) -> bool:
        if self.attempt is not None and attempt != self.attempt:
            return False
        if self.apps is not None and tuple(apps) != tuple(self.apps):
            return False
        if self.job is not None and not job_id.startswith(self.job):
            return False
        if self.rate < 1.0:
            draw = child_rng(
                plan_seed, f"fault:{self.kind}:{job_id}:{attempt}"
            ).random()
            if draw >= self.rate:
                return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into a batch.

    Plans are immutable, picklable (they travel to pool workers), and
    JSON-serializable (they travel to CLI subprocesses via
    ``REPRO_FAULT_PLAN``).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def seeded(
        cls,
        seed: int,
        kinds: Sequence[str] = ("exception",),
        rate: float = 0.25,
        attempt: int | None = 0,
        seconds: float = 30.0,
    ) -> "FaultPlan":
        """A plan that hits a deterministic ``rate`` fraction of jobs.

        Each kind draws independently per job, so a job can suffer more
        than one fault kind across attempts; the draw depends only on
        ``(seed, kind, job identity, attempt)``.
        """
        specs = tuple(
            FaultSpec(kind=kind, rate=rate, attempt=attempt, seconds=seconds)
            for kind in kinds
        )
        return cls(specs=specs, seed=seed)

    # ------------------------------------------------------------------
    # firing

    def pick(
        self,
        job_id: str,
        apps: Sequence[str],
        attempt: int,
        scope: str = "job",
    ) -> FaultSpec | None:
        """The first ``scope`` spec that fires for this job/attempt."""
        for spec in self.specs:
            if spec.scope != scope:
                continue
            if spec.should_fire(self.seed, job_id, apps, attempt):
                return spec
        return None

    def maybe_fire(
        self,
        job_id: str,
        apps: Sequence[str],
        attempt: int,
        in_worker: bool,
    ) -> None:
        """Inject the planned job-scope fault for this job/attempt, if any.

        Called by the resilience executor at the top of every job
        attempt — in the pool worker for pooled execution, in the
        parent for serial execution (where ``crash`` and ``sigkill``
        degrade to :class:`InjectedCrash` because killing the parent
        would take the whole batch down, journal and all).
        """
        spec = self.pick(job_id, apps, attempt)
        if spec is None:
            return
        detail = f"{spec.kind} fault (job {job_id[:16]}, attempt {attempt})"
        if spec.kind == "exception":
            raise InjectedFault(f"injected {detail}")
        if spec.kind in ("crash", "sigkill"):
            if in_worker:
                if spec.kind == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(spec.exit_code)
            raise InjectedCrash(f"injected {detail}")
        if spec.kind in ("hang", "delay"):
            time.sleep(spec.seconds)

    def maybe_fire_service(
        self, job_id: str, apps: Sequence[str], attempt: int
    ) -> None:
        """Inject the planned ``scope="service"`` fault, if any.

        Called by the resilience executor *in the owning process* as a
        job is dispatched, whatever the execution mode — the hook the
        chaos-service harness uses to kill the scheduler daemon (and
        its HTTP API) at a deterministic point in a campaign.
        ``sigkill`` is taken literally here: the process dies by
        SIGKILL mid-batch, exactly like an external ``kill -9``.
        """
        spec = self.pick(job_id, apps, attempt, scope="service")
        if spec is None:
            return
        detail = (
            f"service-scope {spec.kind} fault "
            f"(job {job_id[:16]}, attempt {attempt})"
        )
        if spec.kind == "exception":
            raise InjectedFault(f"injected {detail}")
        if spec.kind == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "crash":
            os._exit(spec.exit_code)
        if spec.kind in ("hang", "delay"):
            time.sleep(spec.seconds)

    # ------------------------------------------------------------------
    # serialization (CLI chaos runs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "specs": [asdict(spec) for spec in self.specs],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        specs = []
        for raw in data.get("specs", []):
            if raw.get("apps") is not None:
                raw = {**raw, "apps": tuple(raw["apps"])}
            specs.append(FaultSpec(**raw))
        return cls(specs=tuple(specs), seed=int(data.get("seed", 0)))

    def write(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())


def plan_from_env() -> FaultPlan | None:
    """The fault plan named by ``REPRO_FAULT_PLAN``, if any.

    Read once per batch by the CLI layer; library callers pass plans
    explicitly.
    """
    path = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not path:
        return None
    return FaultPlan.from_file(path)


# ----------------------------------------------------------------------
# cache-corruption injection


def corrupt_cache_entry(cache, config, apps, mode: str = "garbage") -> Path:
    """Damage one persistent-cache entry in place; returns its path.

    Modes: ``garbage`` (overwrite with non-pickle bytes), ``truncate``
    (cut the pickle short, as a host crash without fsync would),
    ``empty`` (zero-length file), ``wrong-type`` (a valid pickle of the
    wrong payload type, republished through the store so its digest
    checks out — exercises the schema check, not the digest or the
    pickle parser).  The entry must exist.
    """
    path = cache.path_for(config, apps)
    data = path.read_bytes()
    if mode == "garbage":
        path.write_bytes(b"\x00garbage, not a pickle\x00")
    elif mode == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "empty":
        path.write_bytes(b"")
    elif mode == "wrong-type":
        path.unlink()
        cache.publish(
            path.stem,
            pickle.dumps({"schema": "not-a-MixResult"}, protocol=pickle.HIGHEST_PROTOCOL),
        )
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path


__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "corrupt_cache_entry",
    "plan_from_env",
]
