"""Trace recording and replay.

The paper drives its simulators with instruction traces (SimPoint
clips); this module provides the equivalent plumbing for the synthetic
workloads so experiments can be decoupled from generation:

* :class:`TraceWriter` / :func:`record_trace` — capture any µop stream
  (synthetic or hand-built) into a compact text format.
* :class:`TraceStream` — replay a recorded trace as a drop-in
  workload stream for :class:`~repro.cpu.core.SMTCore` (loops back to
  the start when exhausted, like the endless synthetic streams).
* :func:`extract_memory_trace` — reduce a µop stream to its memory
  accesses, for the memory-only driver in
  :mod:`repro.experiments.tracedriven`.

Format: one µop per line, ``opclass[,field=value...]``; ``#`` lines
are comments.  Fields: ``a`` (byte address, hex), ``d1``/``d2``
(dependence distances), ``m`` (mispredicted branch flag); the numeric
ones must be non-negative integers, or loading raises
:class:`~repro.common.errors.ConfigError` naming the field.  A header
comment records the source profile name so replays keep I-cache
behaviour.
"""

from __future__ import annotations

import io
from typing import Iterable, TextIO

from repro.common.errors import ConfigError
from repro.common.types import OpClass
from repro.workloads.generator import Uop
from repro.workloads.profile import AppProfile, Region
from repro.workloads.spec2000 import PROFILES

_OPC_NAMES = {op.name: op for op in OpClass}


class TraceWriter:
    """Streams µops into a trace file."""

    def __init__(self, handle: TextIO, profile_name: str = "trace") -> None:
        self._handle = handle
        self.count = 0
        handle.write(f"# repro-trace v1 profile={profile_name}\n")

    def write(self, uop: Uop) -> None:
        parts = [uop.opc.name]
        if uop.opc.is_memory:
            parts.append(f"a={uop.addr:x}")
        if uop.dep1:
            parts.append(f"d1={uop.dep1}")
        if uop.dep2:
            parts.append(f"d2={uop.dep2}")
        if uop.mispredict:
            parts.append("m=1")
        self._handle.write(",".join(parts) + "\n")
        self.count += 1


def record_trace(
    stream, count: int, handle: TextIO, profile_name: str | None = None
) -> int:
    """Record ``count`` µops from ``stream`` into ``handle``."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    name = profile_name or getattr(
        getattr(stream, "profile", None), "name", "trace"
    )
    writer = TraceWriter(handle, name)
    for _ in range(count):
        writer.write(stream.next_uop())
    return writer.count


def _field_int(key: str, value: str, base: int = 10) -> int:
    """The non-negative integer a trace field holds."""
    try:
        number = int(value, base)
    except ValueError:
        raise ConfigError(
            f"trace field {key}={value!r} is not an integer"
        ) from None
    if number < 0:
        raise ConfigError(f"trace field {key}={value!r} is negative")
    return number


def _parse_line(line: str) -> Uop:
    parts = line.split(",")
    try:
        opc = _OPC_NAMES[parts[0]]
    except KeyError:
        raise ConfigError(f"unknown op class {parts[0]!r} in trace") from None
    addr = 0
    dep1 = dep2 = 0
    mispredict = False
    for field in parts[1:]:
        key, _, value = field.partition("=")
        if key == "a":
            addr = _field_int(key, value, 16)
        elif key == "d1":
            dep1 = _field_int(key, value)
        elif key == "d2":
            dep2 = _field_int(key, value)
        elif key == "m":
            mispredict = value == "1"
        else:
            raise ConfigError(f"unknown trace field {key!r}")
    return Uop(opc, addr, dep1, dep2, mispredict)


def load_trace(handle: TextIO) -> tuple[list[Uop], str]:
    """Parse a trace; returns (µops, source profile name)."""
    profile_name = "trace"
    uops = []
    for raw in handle:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("profile="):
                    profile_name = token.split("=", 1)[1]
            continue
        uops.append(_parse_line(line))
    if not uops:
        raise ConfigError("trace contains no instructions")
    return uops, profile_name


_FALLBACK_PROFILE = AppProfile(
    name="trace",
    category="MID",
    mem_frac=0.3,
    store_frac=0.3,
    branch_frac=0.1,
    mispredict_rate=0.05,
    fp_frac=0.0,
    regions=(Region(size_lines=1024, weight=1.0),),
)


class TraceStream:
    """Replays a recorded trace as an endless workload stream.

    Exposes the same interface as
    :class:`~repro.workloads.generator.SyntheticStream` (``next_uop``,
    ``profile``, ``generated``), so the SMT core accepts it directly.
    The trace loops when exhausted; the ``profile`` attribute (used by
    the core for I-cache behaviour) is resolved from the recorded
    profile name when known.
    """

    def __init__(self, uops: list[Uop], profile_name: str = "trace") -> None:
        if not uops:
            raise ConfigError("trace must contain at least one µop")
        self._uops = uops
        self._index = 0
        self.generated = 0
        self.profile = PROFILES.get(profile_name, _FALLBACK_PROFILE)

    @classmethod
    def from_file(cls, path) -> "TraceStream":
        with open(path) as handle:
            uops, profile_name = load_trace(handle)
        return cls(uops, profile_name)

    @classmethod
    def from_text(cls, text: str) -> "TraceStream":
        uops, profile_name = load_trace(io.StringIO(text))
        return cls(uops, profile_name)

    def __len__(self) -> int:
        return len(self._uops)

    def next_uop(self) -> Uop:
        uop = self._uops[self._index]
        self._index += 1
        if self._index >= len(self._uops):
            self._index = 0
        self.generated += 1
        return uop

    def footprint(self) -> list:
        """Traces carry no region metadata; nothing to pre-warm."""
        return []


def extract_memory_trace(uops: Iterable[Uop]) -> list[tuple[int, bool]]:
    """Reduce µops to (byte address, is_store) memory accesses."""
    return [
        (uop.addr, uop.opc is OpClass.STORE)
        for uop in uops
        if uop.opc.is_memory
    ]
