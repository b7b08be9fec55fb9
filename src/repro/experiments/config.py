"""System configuration: one object describing a full simulated system.

Defaults reproduce Table 1 of the paper: a 3 GHz, 8-wide SMT processor
with 64 KB L1s, a 512 KB L2, a 4 MB L3, 16-entry MSHRs, and a
2-channel DDR SDRAM memory system with the DWarn.2.8 fetch policy.

``scale`` shrinks cache sizes and workload footprints together (the
footprint-to-capacity ratios stay fixed), which lets the pure-Python
simulator reproduce the paper's *shapes* with instruction budgets of
10^4 instead of the paper's 10^8 per thread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.cache.hierarchy import HierarchyParams
from repro.cpu.core import CoreParams
from repro.dram.bank import PageMode


def field_dict(obj) -> dict:
    """A dataclass's fields as a name -> value dict, in field order.

    Unlike :func:`dataclasses.asdict` this neither recurses nor
    deep-copies, which makes it several times cheaper; a served job
    derives its identity five to eight times.  Callers that need a
    nested dataclass or a mutable value converted do it themselves.
    """
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build and run one simulated system."""

    # --- memory system (Section 4.1 / Table 1) ---
    dram_type: str = "ddr"  # "ddr" | "rdram"
    channels: int = 2
    gang: int = 1
    mapping: str = "xor"  # "page" | "xor" | "color-xor"
    page_mode: str = "open"  # "open" | "close"
    scheduler: str = "hit-first"
    #: "request" (fast, default) or "command" (explicit DRAM commands).
    controller_model: str = "request"
    #: Virtual-memory page allocation: "none" hands the workload's
    #: addresses straight to the hierarchy (the default; the generator
    #: already separates threads' address spaces bin-hopping-style);
    #: "bin-hopping" / "page-coloring" / "random" insert a real
    #: translation layer (see repro.os.vm).
    vm_policy: str = "none"

    # --- processor ---
    fetch_policy: str = "dwarn"
    core: CoreParams = field(default_factory=CoreParams)

    # --- cache hierarchy ---
    perfect_l1: bool = False
    perfect_l2: bool = False
    perfect_l3: bool = False
    #: Table 1 lists 16 MSHRs per cache; the hierarchy models a single
    #: combined file, and the paper's own Figure 4 shows >16 requests
    #: outstanding 54-61% of busy time for the 4/8-thread MEM mixes,
    #: so the single file defaults to 32 to approximate the combined
    #: multi-level capacity.
    mshr_entries: int = 32
    #: Stride prefetcher with Table 1's 4-entry prefetch MSHR quota.
    #: Off by default (profiles calibrated without it).
    prefetch: bool = False

    # --- run control ---
    #: Footprint/cache scale divisor (see module docstring).
    scale: int = 8
    #: Committed instructions measured per thread.
    instructions_per_thread: int = 5000
    #: Per-thread instructions committed (and discarded) before
    #: measurement, on top of structural cache pre-warming.
    warmup_instructions: int = 2000
    #: Hard cycle cap per phase as a safety net.
    max_cycles: int = 80_000_000
    #: Root of all randomness.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.dram_type not in ("ddr", "rdram"):
            raise ConfigError(f"dram_type must be ddr|rdram, got {self.dram_type!r}")
        if self.page_mode not in ("open", "close"):
            raise ConfigError(f"page_mode must be open|close, got {self.page_mode!r}")
        if self.mapping not in ("page", "xor", "color-xor"):
            raise ConfigError(
                f"mapping must be page|xor|color-xor, got {self.mapping!r}"
            )
        if self.vm_policy not in ("none", "bin-hopping", "page-coloring",
                                  "random"):
            raise ConfigError(
                f"vm_policy must be none|bin-hopping|page-coloring|random, "
                f"got {self.vm_policy!r}"
            )
        if self.controller_model not in ("request", "command"):
            raise ConfigError(
                f"controller_model must be request|command, "
                f"got {self.controller_model!r}"
            )
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.gang < 1 or self.channels % self.gang:
            raise ConfigError(
                f"gang {self.gang} must divide channels {self.channels}"
            )
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")
        if self.instructions_per_thread < 1:
            raise ConfigError("instructions_per_thread must be >= 1")
        if self.warmup_instructions < 0:
            raise ConfigError("warmup_instructions must be >= 0")

    # ------------------------------------------------------------------

    @classmethod
    def table1(cls, **overrides) -> "SystemConfig":
        """The paper's baseline system (Table 1), with overrides."""
        return cls(**overrides)

    def with_(self, **overrides) -> "SystemConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def page_mode_enum(self) -> PageMode:
        return PageMode.OPEN if self.page_mode == "open" else PageMode.CLOSE

    def hierarchy_params(self) -> HierarchyParams:
        return HierarchyParams(
            mshr_entries=self.mshr_entries,
            perfect_l1=self.perfect_l1,
            perfect_l2=self.perfect_l2,
            perfect_l3=self.perfect_l3,
            prefetch=self.prefetch,
            scale=self.scale,
        )

    def organization_name(self) -> str:
        """Paper-style channel-organization label, e.g. ``"8C-2G"``."""
        return f"{self.channels}C-{self.gang}G"

    def cache_key(self) -> tuple:
        """Hashable identity of everything that affects simulation.

        Used by the runner to cache single-thread baseline runs.
        ``core`` is flattened since dataclasses with dict fields don't
        hash.  The core's shortcuts (``SMTCore.shortcuts``) are not
        part of the key: they are bit-identical to ticking every cycle
        (``tests/engine/test_golden.py`` runs both against the same
        digests), so a result is the same with them on or off.
        """
        core = field_dict(self.core)
        core["latencies"] = tuple(sorted(core["latencies"].items()))
        return (
            self.dram_type,
            self.channels,
            self.gang,
            self.mapping,
            self.page_mode,
            self.scheduler,
            self.controller_model,
            self.vm_policy,
            self.fetch_policy,
            tuple(sorted(core.items())),
            self.perfect_l1,
            self.perfect_l2,
            self.perfect_l3,
            self.mshr_entries,
            self.prefetch,
            self.scale,
            self.instructions_per_thread,
            self.warmup_instructions,
            self.seed,
        )
