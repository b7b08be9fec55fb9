"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.

Batch-execution failures (:class:`SimulationTimeout`,
:class:`WorkerCrashed`, :class:`BatchAborted`) share the
:class:`JobFailureError` base and always carry the failing job's
identity — config hash, app tuple, attempt count — plus the per-attempt
:class:`JobFailure` records collected before the batch gave up, so an
aborted multi-hour sweep is diagnosable (and resumable) from the
exception alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """An invalid or inconsistent configuration was supplied.

    Raised eagerly at construction time (e.g. a channel gang that does
    not divide the physical channel count, a cache whose size is not a
    multiple of ``line_size * associativity``) so misconfigurations are
    reported before any simulation work happens.  It is a
    ``ValueError`` too, so code that rejects bad input (the service's
    job decoding) rejects a bad configuration the same way.
    """


class SimulationError(ReproError):
    """An internal invariant was violated while a simulation ran.

    Seeing this exception means a bug in the simulator itself (an event
    scheduled in the past, a bank issued a command while busy), never a
    user mistake.
    """


@dataclass(frozen=True)
class JobFailure:
    """One failed attempt of one batch job (see ``repro.experiments.resilience``).

    A job may fail several times before it either succeeds (a retry
    recovered it) or aborts the batch; every attempt leaves one of
    these records in the resilience stats, the batch journal, and on
    the aborting exception.
    """

    #: Content-derived run id (``repro.telemetry.run_id``).
    job_id: str
    #: Stable hash of the job's configuration.
    config_hash: str
    #: Application tuple of the failing mix.
    apps: tuple[str, ...]
    #: 1-based attempt number that failed.
    attempt: int
    #: ``timeout`` | ``crash`` | ``injected`` | ``exception``.
    kind: str
    detail: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "job_id": self.job_id,
            "config_hash": self.config_hash,
            "apps": list(self.apps),
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class JobFailureError(ReproError):
    """Base of batch-execution failures; carries the failing job's identity.

    ``failures`` holds every per-attempt :class:`JobFailure` the batch
    recorded up to the abort (not just the final one), so post-mortems
    see the whole retry history.
    """

    message: str
    job_id: str = ""
    config_hash: str = ""
    apps: tuple[str, ...] = ()
    attempts: int = 0
    failures: tuple[JobFailure, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__init__(self.message)

    def __str__(self) -> str:
        identity = ""
        if self.apps:
            identity = (
                f" [job {self.job_id[:16]} apps={','.join(self.apps)}"
                f" config={self.config_hash[:12]}"
                f" after {self.attempts} attempt(s)]"
            )
        return f"{self.message}{identity}"


class SimulationTimeout(JobFailureError):
    """A job exceeded its wall-clock budget on every allowed attempt."""


class WorkerCrashed(JobFailureError):
    """A worker process died (or the process pool broke) and retries ran out."""


class BatchAborted(JobFailureError):
    """A batch gave up: a job raised a non-retryable error or exhausted retries."""
