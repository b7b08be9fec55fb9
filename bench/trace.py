"""Outside-in tracer: spans and counts at the layers' public entry points.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
replaces, at class or module level and *before any simulator object is
built*, the public entry points of each layer (the repo's packages:
``workloads``, ``engine``, ``cpu``, ``cache``, ``dram``, ``common``,
``experiments``, ``service``) with recording wrappers;
:meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper:

* **coarse** spans (a job, ``run_mix``, ``core.run``, one HTTP request)
  are kept individually with name, start, end, parent and the
  content-derived job key (``repro.service.store.job_key``) as the
  identifier spans of one job share;
* **hot** boundaries (per µop, per cache access, per event) are
  aggregated as ``count`` + ``self_ns`` per (phase, layer, name,
  enclosing job).

A span's self time is its duration minus the part its child spans
cover, so the self times of everything recorded on a thread add up to
the duration of that thread's top-level spans.  The clock is
``time.perf_counter_ns`` read inside the owning thread: with the single
load-generating thread the benchmark uses this is host CPU time plus
whatever the thread waited (sleeps in the client's poll loop, GIL waits
in ``served_campaign``); ``*.self_s`` metrics are labelled accordingly
in ``bench/README.md``.

``EventQueue.schedule`` is special: its wrapper tags the scheduled
callback with the package that owns it, so the time an event takes when
it fires lands on ``dram`` / ``cache`` / ``cpu`` and only the heap work
stays on ``common``.

Spans stay in memory; :meth:`Tracer.dump` writes them once, at exit.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

_clock = time.perf_counter_ns

#: Reporting order of the layers (the repo's packages, outside in).
LAYERS = (
    "bench", "service", "experiments", "cpu", "engine", "workloads",
    "cache", "dram", "common", "other",
)

#: Packages whose event callbacks are charged to another layer: the
#: fast engine's core methods are the cpu core; address translation
#: runs on behalf of the cache hierarchy.
_EVENT_LAYER_ALIAS = {"engine": "cpu", "os": "cache"}


class Span(NamedTuple):
    """One coarse span (times from ``perf_counter_ns``)."""

    id: int
    parent: int | None
    layer: str
    name: str
    job: str | None
    detail: object
    thread: int
    phase: str
    start_ns: int
    end_ns: int
    self_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _State:
    """One thread's recording state."""

    __slots__ = ("stack", "acc", "job", "parent")

    def __init__(self) -> None:
        #: Frames ``[child_ns]``; the bottom frame absorbs the duration
        #: of the thread's top-level spans.
        self.stack: list[list[int]] = [[0]]
        #: (layer, name) -> [count, self_ns] under the current job.
        self.acc: dict[tuple[str, str], list[int]] = {}
        self.job: str | None = None
        self.parent: int | None = None


class _Local(threading.local):
    def __init__(self, tracer: "Tracer") -> None:
        self.st = _State()
        with tracer._lock:
            tracer._states.append(self.st)


def _event_layer(fn) -> str:
    owner = getattr(fn, "__self__", None)
    module = (
        type(owner).__module__ if owner is not None
        else getattr(fn, "__module__", None) or ""
    )
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "bench"
    layer = _EVENT_LAYER_ALIAS.get(parts[1], parts[1])
    return layer if layer in LAYERS else "other"


class Tracer:
    """Records spans and counts; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: list[_State] = []
        self._local = _Local(self)
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: Label stamped on everything recorded; ``run.py`` switches it
        #: from "setup" to "run", ``served_campaign`` to "cold"/"warm".
        self.phase = "setup"
        self.spans: list[Span] = []
        #: (phase, layer, name, job) -> [count, self_ns].
        self.hot: dict[tuple, list[int]] = {}

    # ------------------------------------------------------------------
    # recording

    def _merge(self, acc: dict, job: str | None) -> None:
        phase = self.phase
        with self._lock:
            for (layer, name), (count, self_ns) in acc.items():
                slot = self.hot.setdefault((phase, layer, name, job), [0, 0])
                slot[0] += count
                slot[1] += self_ns

    def _flush(self) -> None:
        """Fold every thread's open accumulators into :attr:`hot`.

        Only called while the other threads are idle (between phases,
        at the end of the pass).
        """
        for st in list(self._states):
            acc, st.acc = st.acc, {}
            self._merge(acc, st.job)

    def set_phase(self, phase: str) -> None:
        self._flush()
        self.phase = phase

    def hot_wrapper(self, layer: str, name: str, fn, observe=None):
        """Aggregate calls of ``fn`` as count + self time.

        ``observe(result)`` may return one extra counter increment
        ``(name, n)`` (recorded as a zero-time hot entry), or None.
        """
        key = (layer, name)
        local = self._local

        def wrapper(*args, **kwargs):
            st = local.st
            stack = st.stack
            frame = [0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                stack[-1][0] += dt
                slot = st.acc.get(key)
                if slot is None:
                    slot = st.acc[key] = [0, 0]
                slot[0] += 1
                slot[1] += dt - frame[0]
            if observe is not None:
                extra = observe(result)
                if extra is not None:
                    slot = st.acc.get((layer, extra[0]))
                    if slot is None:
                        slot = st.acc[(layer, extra[0])] = [0, 0]
                    slot[0] += extra[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def coarse_wrapper(self, layer: str, name: str, fn, job_of=None,
                       detail_of=None):
        """Keep every call of ``fn`` as an individual span.

        ``job_of(args, kwargs)`` names the job the span belongs to; a
        span that names one scopes the hot aggregates beneath it to
        that job.  Spans without one inherit the enclosing job.
        """

        def wrapper(*args, **kwargs):
            job = job_of(args, kwargs) if job_of is not None else None
            detail = detail_of(args, kwargs) if detail_of is not None else None
            with self.span(layer, name, job, detail):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, layer: str, name: str, job: str | None = None,
             detail=None):
        st = self._local.st
        span_id = next(self._ids)
        parent, st.parent = st.parent, span_id
        scoped = job is not None
        if scoped:
            saved_acc, saved_job = st.acc, st.job
            st.acc, st.job = {}, job
        else:
            job = st.job
        frame = [0]
        st.stack.append(frame)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            st.stack.pop()
            st.stack[-1][0] += t1 - t0
            st.parent = parent
            if scoped:
                self._merge(st.acc, job)
                st.acc, st.job = saved_acc, saved_job
            self.spans.append(Span(
                span_id, parent, layer, name, job, detail,
                threading.get_ident(), self.phase, t0, t1,
                (t1 - t0) - frame[0],
            ))

    def _schedule_wrapper(self, schedule):
        """``EventQueue.schedule`` with owner-tagged callbacks."""
        owners: dict[object, str] = {}
        push = self.hot_wrapper("common", "schedule", schedule)
        hot = self.hot_wrapper

        def wrapper(queue, when, fn, *args):
            func = getattr(fn, "__func__", fn)
            layer = owners.get(func)
            if layer is None:
                layer = owners[func] = _event_layer(fn)
            push(queue, when, hot(layer, "event", fn), *args)

        wrapper.__wrapped__ = schedule
        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _patch_attr(self, owner, attr: str, make) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace a module-level function wherever ``repro`` bound it.

        ``from x import f`` copies the reference, so every ``repro``
        module holding the original is patched, not just its home.
        """
        original = getattr(importlib.import_module(module_name), attr)
        replacement = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._patches.append((module, key, original))

    def install(self) -> "Tracer":
        """Wrap every layer's entry points.  Call before building anything."""
        import os
        import pickle

        from repro.cache.hierarchy import MemoryHierarchy
        from repro.common.events import EventQueue
        from repro.dram.system import MemorySystem
        from repro.engine import core_class
        from repro.engine.fast import _SharedStream
        from repro.experiments.runner import Runner
        from repro.service.api import ServiceApp
        from repro.service.client import ServiceClient, ServiceRunner
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore, job_key
        from repro.workloads.generator import SyntheticStream

        hot, coarse = self.hot_wrapper, self.coarse_wrapper

        def hot_method(cls, attr, layer, name, observe=None):
            self._patch_attr(
                cls, attr, lambda fn: hot(layer, name, fn, observe)
            )

        def job_from_config(args, kwargs):
            # (config, apps, ...) possibly behind a ``self``.
            for i, arg in enumerate(args[:2]):
                if hasattr(arg, "cache_key"):
                    return job_key(arg, tuple(args[i + 1]))
            return None

        hot_method(SyntheticStream, "next_uop", "workloads", "next_uop")
        hot_method(_SharedStream, "next_uop", "engine", "replay")
        for attr in ("load", "store", "warm_access"):
            hot_method(MemoryHierarchy, attr, "cache", attr)
        self._patch_function(
            "repro.cache.prewarm", "prewarm",
            lambda fn: hot("cache", "prewarm", fn),
        )
        for attr in ("submit", "read", "write", "finish"):
            hot_method(MemorySystem, attr, "dram", attr)
        self._patch_attr(EventQueue, "schedule", self._schedule_wrapper)
        hot_method(
            EventQueue, "run_until", "common", "run_until",
            lambda fired: None if fired else ("run_until_empty", 1),
        )
        hot_method(EventQueue, "run_all", "common", "run_all")

        core = core_class("fast")
        owner = next(c for c in core.__mro__ if "run" in vars(c))
        self._patch_attr(
            owner, "run", lambda fn: coarse("cpu", "core.run", fn)
        )

        self._patch_function(
            "repro.experiments.runner", "build_system",
            lambda fn: coarse("experiments", "build_system", fn),
        )
        self._patch_function(
            "repro.experiments.runner", "run_mix",
            lambda fn: coarse(
                "experiments", "run_mix", fn, job_from_config,
                lambda args, kwargs: "+".join(args[1]),
            ),
        )
        self._patch_function(
            "repro.experiments.figures", "figure10",
            lambda fn: coarse("experiments", "figure10", fn),
        )
        for runner_class in (Runner, ServiceRunner):
            self._patch_attr(
                runner_class, "run_many",
                lambda fn: coarse(
                    "experiments", "run_many", fn,
                    detail_of=lambda args, kwargs: len(args[1]),
                ),
            )

        hot_method(ResultStore, "publish", "service", "store.publish")
        hot_method(ResultStore, "get_bytes", "service", "store.get_bytes")
        self._patch_attr(
            CampaignScheduler, "submit_job",
            lambda fn: coarse(
                "service", "scheduler.submit_job", fn, job_from_config
            ),
        )

        def key_in_path(args, kwargs):
            parts = [p for p in args[1].split("/") if p]
            if len(parts) >= 2 and parts[0] == "results":
                return parts[1]
            return None

        self._patch_attr(
            ServiceApp, "handle_get",
            lambda fn: coarse("service", "http.get", fn, key_in_path),
        )
        self._patch_attr(
            ServiceApp, "handle_post",
            lambda fn: coarse("service", "http.post", fn),
        )
        self._patch_attr(
            ServiceClient, "submit",
            lambda fn: coarse("service", "client.submit", fn, job_from_config),
        )
        for attr in ("wait_job", "fetch"):
            self._patch_attr(
                ServiceClient, attr,
                lambda fn, attr=attr: coarse(
                    "service", f"client.{attr}", fn,
                    lambda args, kwargs: args[1],
                ),
            )
        hot_method(
            ServiceClient, "result", "service", "client.poll",
            lambda status: (
                ("poll_useful", 1)
                if status.get("state") in ("done", "failed") else None
            ),
        )
        hot_method(
            ServiceClient, "fetch_bytes", "service", "client.fetch_bytes",
            lambda data: ("payload_bytes", len(data)),
        )
        self._patch_attr(
            pickle, "dumps", lambda fn: hot("service", "pickle.dumps", fn)
        )
        self._patch_attr(
            pickle, "loads", lambda fn: hot("service", "pickle.loads", fn)
        )
        self._patch_attr(os, "fsync", lambda fn: hot("service", "fsync", fn))
        return self

    def uninstall(self) -> None:
        """Restore every original; afterwards no wrapper is reachable."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._flush()

    # ------------------------------------------------------------------
    # reading back

    def calls(self) -> int:
        """Wrapper invocations recorded so far (spans + hot counts)."""
        self._flush()
        return len(self.spans) + sum(slot[0] for slot in self.hot.values())

    def top_level_ns(self) -> int:
        return sum(st.stack[0][0] for st in self._states)

    def hot_total(self, layer: str, name: str) -> tuple[int, int]:
        """(count, self_ns) over all phases and jobs."""
        count = self_ns = 0
        for (_, lyr, nm, _), slot in self.hot.items():
            if lyr == layer and nm == name:
                count += slot[0]
                self_ns += slot[1]
        return count, self_ns

    def spans_named(self, layer: str, name: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer and s.name == name]

    def self_seconds(self) -> dict[str, dict[str, float]]:
        """phase -> layer -> self seconds (spans and hot aggregates)."""
        table: dict[str, dict[str, float]] = {}
        for (phase, layer, _, _), slot in self.hot.items():
            row = table.setdefault(phase, {})
            row[layer] = row.get(layer, 0.0) + slot[1] / 1e9
        for span in self.spans:
            row = table.setdefault(span.phase, {})
            row[span.layer] = row.get(span.layer, 0.0) + span.self_ns / 1e9
        return table

    def dump(self, path: Path, workload: str) -> None:
        self._flush()
        doc = {
            "workload": workload,
            "clock": "perf_counter_ns",
            "top_level_ns": self.top_level_ns(),
            "self_seconds": self.self_seconds(),
            "span_fields": Span._fields,
            "spans": self.spans,
            "hot_fields": [
                "phase", "layer", "name", "job", "count", "self_ns",
            ],
            "hot": [
                [*key, *slot] for key, slot in sorted(
                    self.hot.items(), key=lambda kv: tuple(map(str, kv[0]))
                )
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def _p50_ms(spans: list[Span]) -> float:
    if not spans:
        return 0.0
    return statistics.median(s.seconds * 1e3 for s in spans)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics that come from the trace alone.

    The rest (hit rates, simulated cycles, DRAM latencies) are counts
    the simulated results carry; ``bench/workloads.py`` adds those.
    """
    tracer._flush()
    seconds = {layer: 0.0 for layer in LAYERS}
    for row in tracer.self_seconds().values():
        for layer, value in row.items():
            seconds[layer] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def span_seconds(layer: str, name: str) -> float:
        return sum(s.seconds for s in tracer.spans_named(layer, name))

    generated, _ = tracer.hot_total("workloads", "next_uop")
    replayed, _ = tracer.hot_total("engine", "replay")
    loads, load_ns = tracer.hot_total("cache", "load")
    stores, store_ns = tracer.hot_total("cache", "store")
    _, prewarm_ns = tracer.hot_total("cache", "prewarm")
    submits, _ = tracer.hot_total("dram", "submit")
    scheduled, _ = tracer.hot_total("common", "schedule")
    run_until, _ = tracer.hot_total("common", "run_until")
    run_until_empty, _ = tracer.hot_total("common", "run_until_empty")
    fired = sum(
        slot[0] for key, slot in tracer.hot.items() if key[2] == "event"
    )
    run_mix = tracer.spans_named("experiments", "run_mix")
    run_many = tracer.spans_named("experiments", "run_many")
    handled = (
        tracer.spans_named("service", "http.get")
        + tracer.spans_named("service", "http.post")
    )
    polls, _ = tracer.hot_total("service", "client.poll")
    useful, _ = tracer.hot_total("service", "poll_useful")
    fsyncs, fsync_ns = tracer.hot_total("service", "fsync")
    enqueued = {
        s.job: s.start_ns for s in tracer.spans_named(
            "service", "scheduler.submit_job"
        )
    }
    queue_wait_ns = sum(
        s.start_ns - enqueued[s.job] for s in run_mix if s.job in enqueued
    )
    metrics = {
        "workloads.uops_generated": generated,
        "workloads.self_s": seconds["workloads"],
        "workloads.ns_per_uop": ratio(seconds["workloads"] * 1e9, generated),
        "engine.uops_replayed": replayed,
        "engine.stream_memo_hit_ratio": (
            1.0 - generated / replayed if replayed else 0.0
        ),
        "cpu.self_s": seconds["cpu"],
        "cache.self_s": seconds["cache"],
        "cache.ns_per_access": ratio(load_ns + store_ns, loads + stores),
        "cache.prewarm_s": prewarm_ns / 1e9,
        "dram.self_s": seconds["dram"],
        "dram.ns_per_request": ratio(seconds["dram"] * 1e9, submits),
        "common.events_scheduled": scheduled,
        "common.events_fired": fired,
        "common.run_until_calls": run_until,
        "common.run_until_empty_ratio": ratio(run_until_empty, run_until),
        "common.self_s": seconds["common"],
        "common.ns_per_event": ratio(seconds["common"] * 1e9, fired),
        "experiments.jobs_planned": sum(s.detail for s in run_many),
        "experiments.jobs_simulated": len(run_mix),
        "experiments.build_system_s": span_seconds(
            "experiments", "build_system"
        ),
        "experiments.self_s": seconds["experiments"],
        "service.http_requests": len(handled),
        "service.submit_ms_p50": _p50_ms(
            tracer.spans_named("service", "client.submit")
        ),
        "service.fetch_ms_p50": _p50_ms(
            tracer.spans_named("service", "client.fetch")
        ),
        "service.poll_requests": polls,
        "service.poll_useful_ratio": ratio(useful, polls),
        "service.handler_self_s": sum(s.self_ns for s in handled) / 1e9,
        "service.store_publish_s": tracer.hot_total(
            "service", "store.publish")[1] / 1e9,
        "service.store_read_s": tracer.hot_total(
            "service", "store.get_bytes")[1] / 1e9,
        "service.pickle_dumps_s": tracer.hot_total(
            "service", "pickle.dumps")[1] / 1e9,
        "service.pickle_loads_s": tracer.hot_total(
            "service", "pickle.loads")[1] / 1e9,
        "service.payload_bytes": tracer.hot_total(
            "service", "payload_bytes")[0],
        "service.fsyncs": fsyncs,
        "service.fsync_s": fsync_ns / 1e9,
        "service.queue_wait_s_sum": queue_wait_ns / 1e9,
        "service.simulate_s": (
            span_seconds("experiments", "run_mix") if handled else 0.0
        ),
    }
    if run_many:
        metrics["experiments.memo_hits"] = (
            metrics["experiments.jobs_planned"] - len(run_mix)
        )
    # Host seconds per figure-10 mix; single-application jobs are the
    # weighted-speedup baselines.
    from repro.workloads.mixes import MIXES

    mix_of = {"+".join(mix.apps): name for name, mix in MIXES.items()}
    for span in run_mix:
        key = f"experiments.host_s.{mix_of.get(span.detail, 'baselines')}"
        metrics[key] = metrics.get(key, 0.0) + span.seconds
    return metrics
