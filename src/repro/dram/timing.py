"""DRAM timing parameters, expressed in CPU cycles.

Everything in the simulator runs in CPU cycles at the paper's 3 GHz
(Table 1), so DRAM-side nanosecond timings are converted once here:

* 15 ns row access      -> 45 cycles
* 15 ns column access   -> 45 cycles
* 15 ns precharge       -> 45 cycles

Channel data rates (Table 1 / Section 5.4):

* DDR SDRAM channel: 200 MHz, double data rate, 16 B wide
  -> 32 B per 5 ns bus clock -> a 64 B line takes 10 ns = 30 cycles.
* Direct Rambus channel: 2 B wide at 800 MT/s -> 1.6 GB/s
  -> a 64 B line takes 40 ns = 120 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

#: CPU clock frequency used for all conversions (Table 1).
CPU_FREQ_GHZ = 3.0


def ns_to_cycles(ns: float, cpu_freq_ghz: float = CPU_FREQ_GHZ) -> int:
    """Convert nanoseconds to (rounded) CPU cycles."""
    return round(ns * cpu_freq_ghz)


@dataclass(frozen=True)
class DRAMTiming:
    """Timing of one physical DRAM channel, in CPU cycles.

    Attributes
    ----------
    t_row:
        Row access (activate) time.
    t_col:
        Column access (CAS) time.
    t_pre:
        Precharge time.
    transfer:
        Bus occupancy to move one cache line over a single physical
        channel.  Ganging ``g`` channels divides this by ``g``.
    ctrl_request:
        Fixed controller/interconnect latency from the processor to the
        controller queue (address decode, queue insertion).
    ctrl_response:
        Fixed latency from the end of the data burst back to the
        processor (return path, fill forwarding).
    t_ras:
        Minimum ACTIVATE-to-PRECHARGE time (command-level model only).
    t_rrd:
        Minimum ACTIVATE-to-ACTIVATE gap between different banks of one
        channel (command-level model only).
    t_cmd:
        Command-bus occupancy of one DRAM command -- one DRAM clock
        (command-level model only).
    t_turnaround:
        Data-bus idle cycles when switching between read and write
        bursts (command-level model only).
    t_refi:
        Average refresh interval per channel (command-level model
        only; 7.8 us at 3 GHz).  0 disables refresh.
    t_rfc:
        Refresh cycle time -- all banks unavailable while it runs
        (command-level model only).
    """

    t_row: int = 45
    t_col: int = 45
    t_pre: int = 45
    transfer: int = 30
    ctrl_request: int = 20
    ctrl_response: int = 20
    t_ras: int = 120
    t_rrd: int = 30
    t_cmd: int = 15
    t_turnaround: int = 12
    t_refi: int = 23400
    t_rfc: int = 210

    def __post_init__(self) -> None:
        for name in ("t_row", "t_col", "t_pre", "transfer"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("ctrl_request", "ctrl_response", "t_ras", "t_rrd",
                     "t_cmd", "t_turnaround", "t_refi", "t_rfc"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    def transfer_for_gang(self, gang: int) -> int:
        """Line transfer time over ``gang`` lock-stepped physical channels."""
        if gang < 1:
            raise ConfigError(f"gang must be >= 1, got {gang}")
        return max(1, self.transfer // gang)

    @property
    def hit_latency(self) -> int:
        """Service latency (pre-bus) of a row-buffer hit."""
        return self.t_col

    @property
    def closed_latency(self) -> int:
        """Service latency of an access to a precharged (closed) bank."""
        return self.t_row + self.t_col

    @property
    def conflict_latency(self) -> int:
        """Service latency of a row-buffer conflict (open, wrong row)."""
        return self.t_pre + self.t_row + self.t_col


def ddr_timing() -> DRAMTiming:
    """Timing of one DDR SDRAM channel per Table 1 (200 MHz DDR, 16 B)."""
    return DRAMTiming(
        t_row=ns_to_cycles(15),
        t_col=ns_to_cycles(15),
        t_pre=ns_to_cycles(15),
        transfer=ns_to_cycles(10),  # 64 B line / (2 x 200 MHz x 16 B)
        t_ras=ns_to_cycles(40),
        t_rrd=ns_to_cycles(10),
        t_cmd=ns_to_cycles(5),      # one 200 MHz command slot
        t_turnaround=ns_to_cycles(4),
    )


def rdram_timing() -> DRAMTiming:
    """Timing of one Direct Rambus channel (2 B wide, 800 MT/s)."""
    return DRAMTiming(
        t_row=ns_to_cycles(15),
        t_col=ns_to_cycles(15),
        t_pre=ns_to_cycles(15),
        transfer=ns_to_cycles(40),  # 64 B line / 1.6 GB/s
        t_ras=ns_to_cycles(40),
        t_rrd=ns_to_cycles(10),
        t_cmd=ns_to_cycles(2.5),    # packetized command channel
        t_turnaround=ns_to_cycles(4),
    )
