"""Job and campaign specifications: the service's wire format.

A job is ``(SystemConfig, apps)`` — exactly what ``run_many`` takes —
serialized to plain JSON so it can cross an HTTP boundary and land in
a persisted queue.  The codec round-trips every field (including
nested :class:`~repro.cpu.core.CoreParams` and its enum-keyed latency
table), so a config rebuilt from JSON has the *same*
``config.cache_key()`` — and therefore the same store key and run id —
as the original: a job submitted remotely is bit-for-bit the job a
local runner would have executed.

A campaign is a whole figure/ablation worth of jobs: exactly the job
list the experiment's driver hands to ``run_many``
(:func:`repro.experiments.figures.plan`), deduplicated, so a campaign
cannot drift from the figure it serves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass
from typing import Sequence

from repro.common.types import OpClass
from repro.cpu.core import CoreParams
from repro.experiments.config import SystemConfig, field_dict
from repro.experiments.figures import REGISTRY, plan
from repro.experiments.runner import Runner
from repro.telemetry.manifest import run_id

#: Default capacity (results) of the API's in-memory warm-path LRU.
#: Kept here rather than in :mod:`repro.service.api` so the CLI parser
#: can show it without loading the HTTP stack.
DEFAULT_LRU_ENTRIES = 256


def config_to_dict(config: SystemConfig) -> dict:
    """Serialize a :class:`SystemConfig` to JSON-safe builtins."""
    doc = field_dict(config)
    doc["core"] = core = field_dict(config.core)
    core["latencies"] = {
        op.name: latency for op, latency in config.core.latencies.items()
    }
    return doc


def _intern_strings(doc: dict) -> dict:
    """Intern every string value (JSON produces fresh objects).

    A config field rebuilt from JSON would otherwise hold an equal-but-
    distinct string from the compile-time-interned literal the
    simulator uses internally, which changes pickle memo sharing — and
    the served payload bytes — without changing any value.
    """
    return {
        key: sys.intern(value) if isinstance(value, str) else value
        for key, value in doc.items()
    }


def config_from_dict(doc: dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    Unknown fields raise ``ValueError`` (protocol drift must be loud,
    not silently dropped — a dropped field would silently change the
    job's identity).  Missing fields take their defaults, so clients
    may send sparse override dicts.  The one exception is ``engine``,
    which every config written before the engine choice was removed
    carries: both of its values named the same exact simulation, so it
    is dropped (any other value still fails).
    """
    doc = _intern_strings(doc)
    engine = doc.pop("engine", "fast")
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    core_doc = doc.pop("core", None)
    known = {f.name for f in dataclasses.fields(SystemConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown SystemConfig field(s): {', '.join(unknown)}")
    if core_doc is not None:
        core_doc = _intern_strings(core_doc)
        core_known = {f.name for f in dataclasses.fields(CoreParams)}
        core_unknown = sorted(set(core_doc) - core_known)
        if core_unknown:
            raise ValueError(
                f"unknown CoreParams field(s): {', '.join(core_unknown)}"
            )
        latencies = core_doc.pop("latencies", None)
        if latencies is not None:
            unknown_ops = sorted(set(latencies) - {op.name for op in OpClass})
            if unknown_ops:
                raise ValueError(
                    f"unknown latency op class(es): {', '.join(unknown_ops)}"
                )
            # Rebuild in OpClass definition order, not wire order: dict
            # insertion order feeds the pickled bytes, and the served
            # payload must be bit-identical to a locally built config's.
            core_doc["latencies"] = {
                op: latencies[op.name] for op in OpClass
                if op.name in latencies
            }
        doc["core"] = CoreParams(**core_doc)
    return SystemConfig(**doc)


@dataclass(frozen=True)
class JobSpec:
    """One simulation job as it travels through queue and API."""

    config: SystemConfig
    apps: tuple[str, ...]

    @classmethod
    def of(cls, config: SystemConfig, apps: Sequence[str]) -> "JobSpec":
        return cls(config=config, apps=tuple(apps))

    @property
    def run_id(self) -> str:
        """The telemetry/journal identity of this job."""
        return run_id(self.config, self.apps)

    def to_dict(self) -> dict:
        return {"config": config_to_dict(self.config), "apps": list(self.apps)}

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        apps = doc.get("apps")
        if not apps or not all(isinstance(a, str) for a in apps):
            raise ValueError("job spec needs a non-empty list of app names")
        return cls(
            config=config_from_dict(doc.get("config") or {}),
            apps=tuple(sys.intern(a) for a in apps),
        )


# ----------------------------------------------------------------------
# campaign expansion


def campaign_names() -> list[str]:
    """Every experiment/ablation name a campaign may reference."""
    return sorted(REGISTRY)


def campaign_jobs(
    experiment: str,
    config: SystemConfig | None = None,
    mixes: Sequence[str] | None = None,
) -> list[tuple[SystemConfig, tuple[str, ...]]]:
    """Expand one figure/ablation into its full deduplicated job list."""
    if experiment not in REGISTRY:
        raise KeyError(
            f"unknown campaign experiment {experiment!r}; "
            f"known: {', '.join(campaign_names())}"
        )
    planned = plan(REGISTRY[experiment], config or SystemConfig(), Runner(), mixes)
    seen: set[tuple] = set()
    jobs = []
    for job_config, apps in planned.jobs:
        identity = (job_config.cache_key(), apps)
        if identity not in seen:
            seen.add(identity)
            jobs.append((job_config, apps))
    return jobs


def campaign_id(
    experiment: str, jobs: Sequence[tuple[SystemConfig, tuple[str, ...]]]
) -> str:
    """Content-derived campaign identity: stable for the same job set."""
    ids = sorted(run_id(config, apps) for config, apps in jobs)
    return hashlib.sha256(
        "\n".join([experiment, *ids]).encode()
    ).hexdigest()[:16]


__all__ = [
    "DEFAULT_LRU_ENTRIES",
    "JobSpec",
    "campaign_id",
    "campaign_jobs",
    "campaign_names",
    "config_from_dict",
    "config_to_dict",
]
