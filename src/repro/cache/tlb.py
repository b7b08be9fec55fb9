"""A simple fully-associative LRU TLB (Table 1: 128-entry I/D TLBs).

Misses add a fixed refill penalty to the access that triggered them;
page-table walks are not modelled beyond that fixed cost.  Virtual
pages are mapped to physical pages sequentially per thread ("bin
hopping", which the paper also uses), so the TLB model only needs page
numbers.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.errors import ConfigError
from repro.common.stats import RateCounter


class TLB:
    """Fully-associative translation buffer with true LRU replacement."""

    def __init__(
        self,
        entries: int = 128,
        page_bytes: int = 8192,
        miss_penalty: int = 30,
    ) -> None:
        if entries < 1:
            raise ConfigError(f"TLB entries must be >= 1, got {entries}")
        if page_bytes < 1 or page_bytes & (page_bytes - 1):
            raise ConfigError(f"page_bytes must be a power of two, got {page_bytes}")
        if miss_penalty < 0:
            raise ConfigError(f"miss_penalty must be >= 0, got {miss_penalty}")
        self.entries = entries
        self.page_bytes = page_bytes
        self.miss_penalty = miss_penalty
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.stats = RateCounter()

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns the added penalty (0 on a hit)."""
        page = addr // self.page_bytes
        pages = self._pages
        stats = self.stats
        stats.total += 1
        if page in pages:
            pages.move_to_end(page)
            stats.hits += 1
            return 0
        pages[page] = None
        if len(pages) > self.entries:
            pages.popitem(last=False)
        return self.miss_penalty

    def touch(self, addr: int) -> None:
        """Functional warming: :meth:`access` without stats or penalty.

        Same LRU movement and refill, so the resident set matches what
        timed accesses would have built.  No caller in ``src/`` (see
        :meth:`repro.cache.hierarchy.MemoryHierarchy.warm_access`).
        """
        page = addr // self.page_bytes
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            return
        pages[page] = None
        if len(pages) > self.entries:
            pages.popitem(last=False)

    @property
    def resident(self) -> int:
        return len(self._pages)
