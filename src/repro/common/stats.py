"""Statistics primitives: counters and (time-)weighted histograms.

The paper reports two distribution-style results that need care to
reproduce faithfully:

* Figure 4 -- "distribution of the number of outstanding memory
  requests *when the DRAM system is busy*", and
* Figure 5 -- "distribution of the number of threads that generate
  outstanding requests *when multiple requests are presented*".

Both are distributions over *time*, not over requests, so the natural
collector is a histogram whose weights are the number of cycles spent
in each state: :class:`TimeWeightedHistogram`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping


class RateCounter:
    """A hits/total counter with a safe rate accessor.

    >>> c = RateCounter()
    >>> c.record(True); c.record(False); c.record(False)
    >>> round(c.rate, 3)
    0.333
    """

    __slots__ = ("hits", "total")

    def __init__(self) -> None:
        self.hits = 0
        self.total = 0

    def record(self, hit: bool, count: int = 1) -> None:
        self.total += count
        if hit:
            self.hits += count

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def rate(self) -> float:
        """Hit fraction; 0.0 when nothing was recorded."""
        return self.hits / self.total if self.total else 0.0

    @property
    def miss_rate(self) -> float:
        """Miss fraction; 0.0 when nothing was recorded."""
        return 1.0 - self.rate if self.total else 0.0

    def merge(self, other: "RateCounter") -> None:
        self.hits += other.hits
        self.total += other.total

    def __repr__(self) -> str:  # pragma: no cover
        return f"RateCounter(hits={self.hits}, total={self.total})"


class WeightedHistogram:
    """Histogram over integer bins with float weights."""

    __slots__ = ("_bins",)

    def __init__(self) -> None:
        self._bins: Dict[int, float] = {}

    def add(self, bin_value: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        if weight:
            self._bins[bin_value] = self._bins.get(bin_value, 0.0) + weight

    @property
    def total_weight(self) -> float:
        return sum(self._bins.values())

    def as_dict(self) -> Dict[int, float]:
        """Raw bin -> weight mapping (a copy)."""
        return dict(self._bins)

    def normalized(self) -> Dict[int, float]:
        """Bin -> probability mapping (empty if no weight recorded)."""
        total = self.total_weight
        if not total:
            return {}
        return {b: w / total for b, w in sorted(self._bins.items())}

    def probability_at_least(self, threshold: int) -> float:
        """P(bin >= threshold) under the normalized distribution."""
        total = self.total_weight
        if not total:
            return 0.0
        heavy = sum(w for b, w in self._bins.items() if b >= threshold)
        return heavy / total

    def mean(self) -> float:
        total = self.total_weight
        if not total:
            return 0.0
        return sum(b * w for b, w in self._bins.items()) / total

    def bucketed(self, edges: Iterable[int]) -> Dict[str, float]:
        """Group bins into labelled ranges for figure-style reporting.

        ``edges`` are ascending inclusive lower bounds; e.g.
        ``edges=(1, 2, 4, 8, 16)`` produces buckets labelled
        ``"1"``, ``"2-3"``, ``"4-7"``, ``"8-15"``, ``"16+"``.
        """
        edges = sorted(edges)
        if not edges:
            raise ValueError("edges must be non-empty")
        labels = []
        for i, lo in enumerate(edges):
            if i + 1 < len(edges):
                hi = edges[i + 1] - 1
                labels.append(str(lo) if hi == lo else f"{lo}-{hi}")
            else:
                labels.append(f"{lo}+")
        result = {label: 0.0 for label in labels}
        total = self.total_weight
        if not total:
            return result
        for b, w in self._bins.items():
            for i in range(len(edges) - 1, -1, -1):
                if b >= edges[i]:
                    result[labels[i]] += w / total
                    break
        return result

    def merge(self, other: "WeightedHistogram") -> None:
        for b, w in other._bins.items():
            self.add(b, w)


class TimeWeightedHistogram(WeightedHistogram):
    """Histogram that integrates a piecewise-constant signal over time.

    Call :meth:`observe` whenever the tracked value changes; the time
    elapsed since the previous observation is credited to the previous
    value.  Call :meth:`finish` at the end of the run to credit the
    final segment.

    >>> h = TimeWeightedHistogram()
    >>> h.observe(0, 3)    # value becomes 3 at t=0
    >>> h.observe(10, 5)   # value was 3 during [0, 10)
    >>> h.finish(15)       # value was 5 during [10, 15)
    >>> h.as_dict()
    {3: 10.0, 5: 5.0}
    """

    __slots__ = ("_last_time", "_last_value")

    def __init__(self) -> None:
        super().__init__()
        self._last_time: int | None = None
        self._last_value: int = 0

    def observe(self, time: int, value: int) -> None:
        """The tracked value becomes ``value`` at ``time``.

        Credits the elapsed segment to the bins itself rather than
        through :meth:`add`: the memory system observes twice per
        request submitted and twice per request completed, and the
        weight here is never negative.
        """
        last = self._last_time
        if last is not None:
            if time < last:
                raise ValueError(f"observation at {time} before previous {last}")
            if time != last:
                bins = self._bins
                prev = self._last_value
                bins[prev] = bins.get(prev, 0.0) + float(time - last)
        self._last_time = time
        self._last_value = value

    def finish(self, time: int) -> None:
        """Credit the final segment ending at ``time``."""
        if self._last_time is not None and time > self._last_time:
            self.add(self._last_value, float(time - self._last_time))
            self._last_time = time


def format_distribution(dist: Mapping[str, float], width: int = 40) -> str:
    """ASCII rendering of a labelled distribution (for reports).

    >>> print(format_distribution({"1": 0.5, "2+": 0.5}, width=4))
    1   50.0% ##
    2+  50.0% ##
    """
    if not dist:
        return "(empty)"
    label_w = max(len(k) for k in dist)
    lines = []
    for label, frac in dist.items():
        bar = "#" * int(round(frac * width))
        lines.append(f"{label:<{label_w}} {frac * 100:5.1f}% {bar}")
    return "\n".join(lines)
