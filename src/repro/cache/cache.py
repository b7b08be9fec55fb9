"""A set-associative, write-back, write-allocate cache with true LRU.

Operates on cache-line addresses (byte address // line size); the
hierarchy does the division once so every level shares the same line
granularity (64 B, Table 1).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.errors import ConfigError
from repro.common.stats import RateCounter


class AccessResult(NamedTuple):
    """Outcome of one cache access.

    ``writeback`` is the line address of a dirty victim evicted to make
    room (``None`` when the access hit or the victim was clean).
    """

    hit: bool
    writeback: int | None


#: The two outcomes that carry no address, shared by every access.
_HIT = AccessResult(True, None)
_CLEAN_MISS = AccessResult(False, None)


class SetAssocCache:
    """True-LRU set-associative cache over line addresses.

    Each set is a list of ``[tag, dirty]`` entries ordered LRU-first;
    associativities in this project are small (2/4-way) so list scans
    beat fancier structures.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError("cache size, associativity and line size must be > 0")
        if size_bytes % (assoc * line_bytes):
            raise ConfigError(
                f"{name}: size {size_bytes} not a multiple of "
                f"assoc*line ({assoc}*{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        self._sets: list[list[list]] = [[] for _ in range(self.num_sets)]
        self.stats = RateCounter()

    # ------------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def probe(self, line_addr: int) -> bool:
        """Check presence without touching LRU state or statistics."""
        tag = line_addr // self.num_sets
        return any(entry[0] == tag for entry in self._sets[self.set_index(line_addr)])

    def access(self, line_addr: int, write: bool = False) -> AccessResult:
        """Perform one access, allocating on miss (write-allocate).

        On a hit the line moves to MRU (and picks up the dirty bit for
        writes).  On a miss the line is inserted and the LRU victim
        evicted; a dirty victim's address is returned for write-back.
        """
        num_sets = self.num_sets
        index = line_addr % num_sets
        tag = line_addr // num_sets
        entries = self._sets[index]
        stats = self.stats
        stats.total += 1
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                if entry is not entries[-1]:
                    del entries[i]
                    entries.append(entry)
                if write:
                    entry[1] = True
                stats.hits += 1
                return _HIT
        victim_dirty = False
        if len(entries) >= self.assoc:
            victim_tag, victim_dirty = entries.pop(0)
        entries.append([tag, write])
        if victim_dirty:
            return AccessResult(False, victim_tag * num_sets + index)
        return _CLEAN_MISS

    def touch(self, line_addr: int, write: bool = False) -> AccessResult:
        """Functional warming: :meth:`access` without statistics.

        Same LRU movement, allocation, and write-back surfacing as
        ``access`` so warmed contents are exactly what a timed access
        would have left behind -- but the hit/miss counters are not
        recorded, keeping measured-window hit rates uncontaminated.
        Used by the sampled engine's fast-forward path.
        """
        index = self.set_index(line_addr)
        tag = line_addr // self.num_sets
        entries = self._sets[index]
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                del entries[i]
                entries.append(entry)
                if write:
                    entry[1] = True
                return AccessResult(True, None)
        writeback = None
        if len(entries) >= self.assoc:
            victim_tag, victim_dirty = entries.pop(0)
            if victim_dirty:
                writeback = victim_tag * self.num_sets + index
        entries.append([tag, write])
        return AccessResult(False, writeback)

    def mark_dirty_if_present(self, line_addr: int) -> bool:
        """Absorb a write-back from an upper level without allocating.

        Returns whether the line was present (and is now dirty).  Lost
        write-backs to absent lines are an accepted simplification --
        with an inclusive hierarchy they are rare.
        """
        index = self.set_index(line_addr)
        tag = line_addr // self.num_sets
        for entry in self._sets[index]:
            if entry[0] == tag:
                entry[1] = True
                return True
        return False

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (returns whether it was present)."""
        index = self.set_index(line_addr)
        tag = line_addr // self.num_sets
        entries = self._sets[index]
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                del entries[i]
                return True
        return False

    # ------------------------------------------------------------------

    @property
    def lines_resident(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.assoc}-way)"
        )
