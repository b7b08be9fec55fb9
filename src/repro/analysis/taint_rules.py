"""Determinism taint model: sources, sanitizers, and the TNT sink.

The dataflow pass (:mod:`repro.analysis.dataflow`) tracks values from
*nondeterminism sources* to *determinism sinks* — places whose inputs
must be a pure function of the simulation configuration.  The one sink
family kept is the job log (TNT003): ``--resume`` and the service
replay its records, so a clock reading in one is a recovery that
depends on when it ran.  (Result bytes, the other such contract, are
pinned end to end by the pickled-digest goldens instead.)  This module
is the catalog both ends consult:

* ``_SOURCE_CALLS`` / :func:`match_source` — calls that mint a
  nondeterministic value (wall clock, raw RNG, pids, uuids, ``id()``,
  environment and host-name reads, unsorted filesystem listings).
  Iteration over a set expression is handled structurally by the
  extractor and tagged with the ``set-order`` kind.
* :data:`ORDER_KINDS` / :data:`SANITIZERS` — *order*-nondeterminism
  (listing order, set order) is laundered by ``sorted()`` and by
  order-insensitive reductions (``len``/``min``/``max``); value
  nondeterminism (a timestamp) survives any amount of sorting, so
  sanitizers only clear the order kinds.
* :data:`SINKS` / :func:`match_sink` — calls whose arguments become
  part of a deterministic contract.  Sinks are matched by callable
  name plus a receiver/class hint (there is no type inference):
  ``append`` only counts when called on something whose spelling — or
  whose enclosing class — mentions a job log or journal.

Unlike the per-line DET rules, a TNT finding carries the whole
source→sink path; codes are per *sink family*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.linter import Severity

# ---------------------------------------------------------------------------
# sources

#: Taint kinds whose hazard is *ordering*, not the value itself; these
#: are cleared by sanitizers, value kinds are not.
ORDER_KINDS = frozenset({"fs-order", "set-order"})

#: Dotted call name -> taint kind for exact matches.
_SOURCE_CALLS: dict[str, str] = {
    "time.time": "wall-clock",
    "time.time_ns": "wall-clock",
    "time.monotonic": "wall-clock",
    "time.monotonic_ns": "wall-clock",
    "datetime.now": "wall-clock",
    "datetime.utcnow": "wall-clock",
    "datetime.today": "wall-clock",
    "datetime.datetime.now": "wall-clock",
    "datetime.datetime.utcnow": "wall-clock",
    "datetime.datetime.today": "wall-clock",
    "datetime.date.today": "wall-clock",
    "date.today": "wall-clock",
    "os.getpid": "process-id",
    "os.getppid": "process-id",
    "threading.get_ident": "process-id",
    "uuid.uuid1": "uuid",
    "uuid.uuid4": "uuid",
    "os.getenv": "environment",
    "os.environ.get": "environment",
    "os.environb.get": "environment",
    "socket.gethostname": "environment",
    "platform.node": "environment",
    "os.listdir": "fs-order",
    "os.scandir": "fs-order",
    "glob.glob": "fs-order",
    "glob.iglob": "fs-order",
    "id": "memory-address",
}

#: Method names that yield filesystem-ordered listings on any receiver.
_LISTING_METHODS = frozenset({"glob", "iglob", "rglob", "iterdir"})

#: ``random.*`` prefix (module-level RNG) and ``secrets.*``.
_SOURCE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("random.", "raw-rng"),
    ("secrets.", "raw-rng"),
)


def match_source(dotted: str | None) -> str | None:
    """Taint kind minted by a call to ``dotted``, or None."""
    if dotted is None:
        return None
    kind = _SOURCE_CALLS.get(dotted)
    if kind is not None:
        return kind
    for prefix, prefix_kind in _SOURCE_PREFIXES:
        if dotted.startswith(prefix):
            return prefix_kind
    simple = dotted.rsplit(".", 1)[-1]
    if simple in _LISTING_METHODS and "." in dotted:
        return "fs-order"
    return None


#: Calls through which ORDER_KINDS taint does not propagate: sorting
#: fixes the order, counting/extrema ignore it.  Value kinds pass
#: through untouched (``sorted([time.time()])`` is still wall-clock).
SANITIZERS = frozenset({"sorted", "len", "min", "max"})

# ---------------------------------------------------------------------------
# sinks


@dataclass(frozen=True)
class Sink:
    """One determinism sink: a callable whose arguments must be pure.

    ``name`` is the call's last dotted component; ``hints`` are
    lowercase substrings, at least one of which must appear in the
    receiver expression *or* the enclosing class name.
    """

    code: str
    name: str
    hints: tuple[str, ...]
    what: str  # human description of the sink family


#: TNT rule codes -> (summary, severity of value-kind findings).
TNT_RULES: dict[str, tuple[str, Severity]] = {
    "TNT003": (
        "nondeterministic value flows into a job-log record",
        Severity.ERROR,
    ),
}

SINKS: tuple[Sink, ...] = (
    # TNT003 — job-log records (replayed on --resume): every record,
    # from the executor or the scheduler, is written by JobLog.append.
    # Bug class: a clock reading, pid or listing order persisted into a
    # record that recovery replays (a terminal failure's record carries
    # its detail, never a timestamp).
    Sink("TNT003", "append", ("joblog", "journal"), "job-log record"),
)


def match_sink(
    dotted: str, receiver: str, class_name: str | None
) -> Sink | None:
    """The sink a call to ``dotted`` hits, if any.

    ``receiver`` is the unparsed expression the method was called on
    (empty for plain calls); ``class_name`` is the enclosing class of
    the *calling* function, which lets ``self.append(...)`` inside
    ``JobLog`` match the ``joblog`` hint.
    """
    simple = dotted.rsplit(".", 1)[-1]
    for sink in SINKS:
        if sink.name != simple:
            continue
        context = f"{receiver} {class_name or ''}".lower()
        if any(hint in context for hint in sink.hints):
            return sink
    return None


def severity_for(code: str, kind: str) -> Severity:
    """Finding severity: order-kind taints are heuristic warnings."""
    base = TNT_RULES[code][1]
    if kind in ORDER_KINDS:
        return Severity.WARNING
    return base


__all__ = [
    "ORDER_KINDS",
    "SANITIZERS",
    "SINKS",
    "Sink",
    "TNT_RULES",
    "match_sink",
    "match_source",
    "severity_for",
]
