"""Incremental frame building: each slot's frame over the previous one.

Rebuilding the :class:`~repro.core.frame.BidFrame` struct-of-arrays from
scratch every slot costs more than the clear itself, even when no bid
changed.  :class:`IncrementalFrameBuilder` builds each slot's frame over
the previous one (:meth:`~repro.core.frame.BidFrame.from_table`): PDUs
whose bids are unchanged keep their rows and per-PDU block
(:class:`~repro.core.frame.PduBlock`), only the PDUs whose bids actually
changed since the previous slot are rebuilt, and an unchanged slot
returns the previous frame *object*.  Each block caches its PDU market's
price grid and grid indices, demand totals and grants, so a reused block
is not swept again downstream either.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.bids import BidTable, RackBid
from repro.core.frame import BidFrame

__all__ = ["IncrementalFrameBuilder"]


def _resent(bids: Sequence[RackBid], sent: Sequence[RackBid]) -> bool:
    """Is each rack bid the one sent before at its position, or an equal
    one holding the same demand object?"""
    if len(bids) != len(sent):
        return False
    for new, old in zip(bids, sent):
        if new is not old and not (
            new.demand is old.demand
            and new.rack_id == old.rack_id
            and new.pdu_id == old.pdu_id
            and new.tenant_id == old.tenant_id
            and new.rack_cap_w == old.rack_cap_w
        ):
            return False
    return True


class IncrementalFrameBuilder:
    """Build each slot's :class:`BidFrame` over the previous slot's.

    ``build`` hands the slot's table and the previous frame to
    :meth:`BidFrame.from_table`, which keeps the block of every PDU
    whose rows are unchanged (see there for the rule) and builds the
    rest.  A slot with *no* changed or removed PDU returns the previous
    frame object itself, so downstream per-frame caches survive across
    slots too; a reused block keeps its cached price grid, demand
    totals and grants either way.
    When the frame holds one slot's bids and the next slot resends them
    (each rack bid holding the demand object sent at its position), the
    previous frame is returned before any walk.

    The frame, its blocks and the sent bids are derived state:
    checkpoints leave them out, and a restored builder starts cold.
    Because its output is value-identical to ``from_bids`` regardless of
    the previous frame, crash/resume stays byte-identical.

    Attributes:
        last_dirty: PDU ids rebuilt (or removed) by the latest build,
            sorted — the invalidation set tests assert on.
        builds / rebuilt_pdus / reused_pdus: Monotone counters for
            benchmarks and telemetry.
    """

    def __init__(self) -> None:
        self._frame: BidFrame | None = None
        # The rack bids ``_frame`` holds, in the order given (``None``:
        # not known, or not all from one slot).
        self._sent: list[RackBid] | None = None
        self.last_dirty: tuple[str, ...] = ()
        self.builds = 0
        self.rebuilt_pdus = 0
        self.reused_pdus = 0

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_frame": None, "_sent": None}

    def build(self, bids: BidTable | Sequence[RackBid]) -> BidFrame:
        """The slot's frame, value-identical to ``BidFrame.from_bids``.

        Takes the slot's admitted :class:`BidTable` (or its rack bids,
        which, as there, may not name a rack twice).
        """
        self.builds += 1
        previous = self._frame
        sent = bids.bids if isinstance(bids, BidTable) else list(bids)
        if self._sent is not None and _resent(sent, self._sent):
            frame = previous
        else:
            table = bids if isinstance(bids, BidTable) else BidTable.from_bids(sent)
            frame = BidFrame.from_table(table, previous)
        if frame is previous:
            self.last_dirty = ()
            self.reused_pdus += len(frame.blocks)
            return frame
        old = {} if previous is None else dict(zip(previous.pdu_ids, previous.blocks))
        dirty = [b.pdu_id for b in frame.blocks if old.pop(b.pdu_id, None) is not b]
        self.rebuilt_pdus += len(dirty)
        self.reused_pdus += len(frame.blocks) - len(dirty)
        self.last_dirty = tuple(sorted(dirty + list(old)))
        # Remember the bids only while the frame holds exactly them: a
        # kept block holds an earlier slot's, which these would outlive.
        self._sent = sent if len(dirty) == len(frame.blocks) else None
        self._frame = frame
        return frame
