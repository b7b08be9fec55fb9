#!/usr/bin/env python3
"""Command-level DRAM study: watch the controller issue DRAM commands.

Runs the same access pattern through the request-level and
command-level controller models, then prints the command breakdown
(PRECHARGE / ACTIVATE / READ / WRITE) and timing agreement -- a window
into what the row-buffer optimizations of the paper actually do at
the command level.

Run:  python examples/command_level_dram.py
"""

from repro.common.events import EventQueue
from repro.dram.controller import Command
from repro.dram.system import MemorySystem


def drive(system, evq):
    """A small mixed pattern: hits, conflicts, and a write burst."""
    done = {}
    lines_per_page = system.geometry.lines_per_page
    banks = system.geometry.banks_per_logical_channel
    channels = system.geometry.logical_channels
    conflict_stride = lines_per_page * banks * channels

    for i in range(4):                       # page-local reads (hits)
        system.read(i, 0, callback=lambda t, r: done.__setitem__(r.req_id, t))
    for i in range(1, 4):                    # same-bank conflicts
        system.read(i * conflict_stride, 1,
                    callback=lambda t, r: done.__setitem__(r.req_id, t))
    for i in range(6):                       # write-backs
        system.write(10_000 + i * conflict_stride, 0)
    evq.run_all()
    return done


def main() -> None:
    for model in ("request", "command"):
        evq = EventQueue()
        system = MemorySystem.ddr(
            evq, channels=2, scheduler="hit-first", controller_model=model
        )
        done = drive(system, evq)
        stats = system.finish()
        print(f"== {model}-level controller ==")
        print(f"  served {stats.reads} reads / {stats.writes} writes, "
              f"row-buffer hit rate {stats.row_hit_rate:.0%}, "
              f"avg read latency {stats.avg_read_latency:.0f} cycles")
        if model == "command":
            for channel in system.channels:
                commands = {
                    c.name: n for c, n in channel.commands_issued.items() if n
                }
                print(f"  channel {channel.channel_id} commands: {commands}")
        print()

    print("The command model spells out why conflicts are expensive: each "
          "one costs\nPRECHARGE + ACTIVATE + READ where a row hit is a "
          "single READ (paper Section 2).")


if __name__ == "__main__":
    main()
