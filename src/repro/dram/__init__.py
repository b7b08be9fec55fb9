"""Multi-channel DRAM memory-system model.

Implements the event-driven DRAM simulator of the paper's Section 4:
multi-channel DDR SDRAM and Direct Rambus DRAM systems with

* per-bank row-buffer state and open/close page modes,
* channel ganging (``xC-yG`` organizations of Section 5.3),
* page-interleaved and XOR/permutation-based address mappings
  (Section 5.4),
* pluggable access schedulers including the paper's three thread-aware
  schemes (Sections 3 and 5.5), and
* the time-weighted concurrency statistics behind Figures 4 and 5.
"""

from repro.dram.bank import Bank, PageMode
from repro.dram.controller import ChannelController, Command
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import (
    AddressMapping,
    ColorXorMapping,
    MappedAddress,
    PageInterleaveMapping,
    XorPageMapping,
    make_mapping,
)
from repro.dram.schedulers import (
    AgeBasedScheduler,
    CriticalFirstScheduler,
    FcfsScheduler,
    HitFirstScheduler,
    IqBasedScheduler,
    ReadFirstScheduler,
    RequestBasedScheduler,
    RobBasedScheduler,
    Scheduler,
    make_scheduler,
    scheduler_names,
)
from repro.dram.stats import DRAMStats
from repro.dram.system import MemorySystem
from repro.dram.timing import DRAMTiming, ddr_timing, rdram_timing

__all__ = [
    "AddressMapping",
    "AgeBasedScheduler",
    "Bank",
    "ColorXorMapping",
    "Command",
    "CriticalFirstScheduler",
    "ChannelController",
    "DRAMGeometry",
    "DRAMStats",
    "DRAMTiming",
    "FcfsScheduler",
    "HitFirstScheduler",
    "IqBasedScheduler",
    "MappedAddress",
    "MemorySystem",
    "PageInterleaveMapping",
    "PageMode",
    "ReadFirstScheduler",
    "RequestBasedScheduler",
    "RobBasedScheduler",
    "Scheduler",
    "XorPageMapping",
    "ddr_timing",
    "make_mapping",
    "make_scheduler",
    "rdram_timing",
    "scheduler_names",
]
