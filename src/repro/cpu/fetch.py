"""Instruction-fetch policies (Section 5.1 of the paper).

All policies return an ordered list of threads to fetch from this
cycle; the core takes up to two threads and eight instructions total
(the ``.2.8`` configurations the paper uses).

* **ICOUNT** (Tullsen et al.): highest priority to the thread with the
  fewest instructions in the front end / issue queues.
* **Fetch-Stall** (Tullsen & Brown): stop fetching from threads with
  outstanding L2 misses, but always keep at least one thread eligible.
* **DG** (El-Moursy & Albonesi): block fetch from threads with
  outstanding data-cache (L1D) misses.
* **DWarn** (Cazorla et al., the paper's baseline): threads with
  outstanding data-cache misses are not blocked, only *deprioritized*
  -- they form a second group behind miss-free threads; ICOUNT orders
  each group.
* **Round-robin**: the simple baseline ICOUNT was shown to beat.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, List

from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cpu.core import SMTCore
    from repro.cpu.thread import ThreadContext


class FetchPolicy:
    """Orders fetch-eligible threads; earlier entries fetch first."""

    name = "base"

    def order(
        self, eligible: List["ThreadContext"], core: "SMTCore", cycle: int
    ) -> List["ThreadContext"]:
        raise NotImplementedError

    def _trace_gate(
        self, tracer, cycle: int, threads, reason: str
    ) -> None:
        """Record that this policy gated ``threads`` out of fetching.

        Only called when a tracer is attached (callers hoist the
        null check — ``order`` runs every cycle and must pay nothing
        for disabled telemetry); gating decisions are exactly what the
        paper's fetch policies differ on, so they are first-class
        trace events.
        """
        for t in threads:
            tracer.emit(
                cycle, "fetch.gate", "cpu.fetch", t.thread_id,
                args={"policy": self.name, "reason": reason},
            )


#: ICOUNT priority key: fewest in-flight unissued µops, thread id as
#: the tie-break.  An attrgetter (C-level) because every ICOUNT-family
#: policy evaluates it per eligible thread per cycle.
_icount_key = operator.attrgetter("unissued", "thread_id")


class RoundRobinPolicy(FetchPolicy):
    """Rotate thread priority every cycle."""

    name = "round-robin"

    def order(self, eligible, core, cycle):
        if not eligible:
            return []
        n = len(core.threads)
        start = cycle % n
        return sorted(
            eligible, key=lambda t: (t.thread_id - start) % n
        )


class ICountPolicy(FetchPolicy):
    """Fewest in-flight (dispatched, unissued) instructions first."""

    name = "icount"

    def order(self, eligible, core, cycle):
        return sorted(eligible, key=_icount_key)


class FetchStallPolicy(FetchPolicy):
    """Gate threads with outstanding L2 misses; keep one eligible."""

    name = "stall"

    def order(self, eligible, core, cycle):
        # Direct map lookup (== outstanding_l2_misses): this runs per
        # eligible thread per cycle on the fetch hot path.
        l2_misses = core.hierarchy._l2_miss_lines.get
        clean = [t for t in eligible if not l2_misses(t.thread_id)]
        if clean:
            tracer = core.tracer
            if tracer is not None and len(clean) < len(eligible):
                self._trace_gate(
                    tracer, cycle,
                    [t for t in eligible if t not in clean], "l2-miss",
                )
            return sorted(clean, key=_icount_key)
        if not eligible:
            return []
        # All threads have long-latency misses: keep exactly one
        # (the least-loaded) fetching so the pipeline never drains.
        keep = min(eligible, key=_icount_key)
        tracer = core.tracer
        if tracer is not None:
            self._trace_gate(
                tracer, cycle, [t for t in eligible if t is not keep], "l2-miss"
            )
        return [keep]


class DGPolicy(FetchPolicy):
    """Block fetch from threads with outstanding data-cache misses.

    El-Moursy & Albonesi gate on L1 data-cache misses; with real
    workloads those are rare enough (~5-10%) that the gate only trips
    on meaningful events.  Our synthetic streams have much lower L1
    hit rates by construction, so gating on L1 misses would block
    every thread almost always.  We gate on misses that went past the
    L2 instead -- the same long-latency events the policy is meant to
    catch (see DESIGN.md, substitutions).
    """

    name = "dg"

    def order(self, eligible, core, cycle):
        l2_misses = core.hierarchy._l2_miss_lines.get
        clean = [t for t in eligible if not l2_misses(t.thread_id)]
        tracer = core.tracer
        if tracer is not None and len(clean) < len(eligible):
            self._trace_gate(
                tracer, cycle,
                [t for t in eligible if t not in clean], "dcache-miss",
            )
        return sorted(clean, key=_icount_key)


class DWarnPolicy(FetchPolicy):
    """Deprioritize (don't block) threads with data-cache misses.

    Warned = has a miss outstanding past the L2, for the same reason
    as :class:`DGPolicy` (see its docstring).  Two adaptations of the
    published policy to this model:

    * clean threads always outrank warned ones, ICOUNT inside each
      group (as published);
    * warned threads only fetch while the shared integer issue queue
      has headroom.  Cazorla et al. report DWarn keeps the processor
      able to issue on >90% of cycles where ICOUNT clogs; in this
      model a fetch *ordering* alone cannot achieve that once every
      thread is warned, so the "lower priority" of warned threads is
      realized as back-pressure against filling the queue with
      miss-dependent instructions.
    """

    name = "dwarn"

    #: Warned threads stop fetching above this int-IQ occupancy.
    iq_pressure_threshold = 0.75

    def order(self, eligible, core, cycle):
        l2_misses = core.hierarchy._l2_miss_lines.get
        clean = []
        warned = []
        for t in eligible:
            if l2_misses(t.thread_id):
                warned.append(t)
            else:
                clean.append(t)
        clean.sort(key=_icount_key)
        limit = self.iq_pressure_threshold * core.params.int_iq_size
        if core.int_iq_used >= limit:
            tracer = core.tracer
            if clean:
                if tracer is not None and warned:
                    self._trace_gate(tracer, cycle, warned, "iq-pressure")
                return clean
            # Never drain the pipeline completely: least-loaded
            # warned thread stays eligible.
            if not warned:
                return []
            keep = min(warned, key=_icount_key)
            if tracer is not None:
                self._trace_gate(
                    tracer, cycle, [t for t in warned if t is not keep],
                    "iq-pressure",
                )
            return [keep]
        warned.sort(key=_icount_key)
        return clean + warned


_POLICIES: dict[str, Callable[[], FetchPolicy]] = {
    "round-robin": RoundRobinPolicy,
    "icount": ICountPolicy,
    "stall": FetchStallPolicy,
    "dg": DGPolicy,
    "dwarn": DWarnPolicy,
}

#: Policy classes whose ordering is a pure function of state that
#: cannot change while no event fires and nothing dispatches (thread
#: ids, ``unissued`` counts, outstanding-miss sets, IQ occupancy), so a
#: stalled-window kernel may derive it once per window.  Round-robin
#: also reads the cycle number; the kernel handles that with
#: per-rotation attempt tables.  Matched by exact type: an unknown
#: (user-supplied) policy, subclass or not, is ticked one cycle at a
#: time.
WINDOW_SAFE_POLICIES = (
    RoundRobinPolicy,
    ICountPolicy,
    FetchStallPolicy,
    DGPolicy,
    DWarnPolicy,
)


def fetch_policy_names() -> list[str]:
    """Names accepted by :func:`make_fetch_policy`, in a stable order."""
    return list(_POLICIES)


def make_fetch_policy(name: str) -> FetchPolicy:
    """Construct a fetch policy by name (e.g. ``"dwarn"``)."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fetch policy {name!r}; available: {sorted(_POLICIES)}"
        ) from None
    return factory()
