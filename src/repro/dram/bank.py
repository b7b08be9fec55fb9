"""Per-bank row-buffer state and the open/close page modes.

A bank is a two-dimensional cell array fronted by a row buffer (sense
amplifiers).  An access needs (Section 2 of the paper):

* a **column access** only, if the requested row is already in the row
  buffer (row-buffer *hit*);
* a **row access + column access**, if the bank is precharged (row
  buffer *empty*);
* a **precharge + row access + column access**, if another row is open
  (row-buffer *conflict*).

The controller's command model issues these as separate commands; its
request model folds the precharge and row access into the start of the
column command (:class:`repro.dram.controller.ChannelController`).

Under the **open** page mode the row is kept in the buffer after the
access, betting on locality; under the **close** page mode the bank is
precharged immediately after the column access, so every access costs
``row + column`` but never pays the precharge on the critical path.
"""

from __future__ import annotations

import enum


class PageMode(enum.Enum):
    """Row-buffer management policy (Section 2)."""

    OPEN = "open"
    CLOSE = "close"


class Bank:
    """State of a single independent DRAM bank.

    ``open_row`` is the row currently latched in the row buffer
    (``None`` when precharged); ``ready_at`` is the cycle at which the
    bank can accept its next command.  ``activated_at`` (the last
    ACTIVATE, for tRAS) and ``burst_done_at`` (the end of the bank's
    last data burst, which a PRECHARGE must not cut off) bind only in
    the command-level model.  Pure state: classification (hit / closed
    / conflict), latency and the post-command update live in
    :meth:`repro.dram.controller.ChannelController._issue`.
    """

    __slots__ = ("open_row", "ready_at", "activated_at", "burst_done_at")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.ready_at = 0
        self.activated_at = -(10**9)
        self.burst_done_at = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bank(open_row={self.open_row}, ready_at={self.ready_at})"
