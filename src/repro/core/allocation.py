"""Clearing outcomes: the allocation record and its integrity checks.

Separating the outcome container from the clearing algorithm lets the
baselines (:mod:`repro.core.baselines`) and the market-price sweep
experiments share one well-tested representation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from itertools import repeat

import numpy as np

from repro.core.bids import RackBid
from repro.core.frame import BidFrame
from repro.errors import CapacityError

__all__ = ["AllocationResult", "verify_allocation"]

#: From this many granted racks up, :func:`verify_allocation` evaluates
#: demand with the frame's kernel; below it, with each bid's own curve.
#: The kernel costs a fixed ~20 numpy calls, more than the one to three
#: bids of a testbed slot cost one by one.
_KERNEL_FROM = 16


@dataclasses.dataclass(frozen=True)
class AllocationResult:
    """Outcome of one slot's spot-capacity allocation.

    Attributes:
        price: Headline clearing price, $/kW/h (0 for non-market
            allocators such as MaxPerf).  Under per-PDU (locational)
            pricing this is the grant-weighted mean of the PDU prices.
        grants_w: Watts of spot capacity granted per rack id.  Racks that
            bid but were priced out appear with a 0 grant.
        revenue_rate: Operator revenue rate in $/h; multiply by the slot
            length in hours for the per-slot payment.
        candidate_prices: Number of prices examined by the scan(s).
        feasible_prices: Number of those that satisfied all constraints.
        pdu_prices: Per-PDU clearing prices under locational pricing;
            empty under a single facility-wide price.
    """

    price: float
    grants_w: Mapping[str, float]
    revenue_rate: float
    candidate_prices: int = 0
    feasible_prices: int = 0
    pdu_prices: Mapping[str, float] = dataclasses.field(default_factory=dict)

    def price_for_pdu(self, pdu_id: str) -> float:
        """The clearing price racks on ``pdu_id`` pay this slot."""
        return self.pdu_prices.get(pdu_id, self.price)

    @property
    def total_granted_w(self) -> float:
        """Total spot capacity allocated this slot, watts."""
        return sum(self.grants_w.values())

    @property
    def granted_racks(self) -> int:
        """Number of racks holding a positive grant this slot."""
        return sum(1 for g in self.grants_w.values() if g > 0)

    def grant_for(self, rack_id: str) -> float:
        """Grant for one rack (0 if the rack did not bid or was priced out)."""
        return self.grants_w.get(rack_id, 0.0)

    def revenue_for_slot(self, slot_seconds: float) -> float:
        """Operator revenue for one slot of this allocation, dollars."""
        return self.revenue_rate * (slot_seconds / 3600.0)

    @classmethod
    def empty(cls, price: float = 0.0) -> "AllocationResult":
        """The no-spot-capacity outcome (default on any exception path)."""
        return cls(price=price, grants_w={}, revenue_rate=0.0)


def verify_allocation(
    result: AllocationResult,
    bids: Sequence[RackBid] | BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    tolerance_w: float = 1e-6,
    extra_constraints: Sequence = (),
) -> None:
    """Assert an allocation respects Eqs. (2)-(4); raise otherwise.

    This is the reliability backstop: the operator must never issue
    grants that could overload the shared infrastructure, so the engine
    runs this check on every clearing outcome.  It works on the slot's
    :class:`BidFrame` columns; a bid list, one bid per rack, is
    converted with :meth:`BidFrame.from_bids`.

    Every check is written ``not value <= bound`` so that a NaN grant or
    capacity fails it instead of passing silently.  The message names
    the first violating rack, PDU or constraint in frame order.

    Raises:
        CapacityError: If a grant goes to a rack outside ``bids``, if a
            grant is negative or exceeds its rack's headroom (Eq. 2) or
            its demand at its PDU's clearing price, or if a PDU (Eq. 3),
            the UPS (Eq. 4) or an extra constraint is over its cap.
    """
    frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
    tol = tolerance_w
    grants_w = result.grants_w
    grants = None
    total = 0.0
    # Without grants nothing is drawn: only a NaN or negative UPS or
    # constraint cap can fail.
    if grants_w:
        grants, listed = frame.grant_rows(grants_w)
        _check_racks(result, frame, grants, listed, tol)
        # Past the rack check every grant has a row, so the frame has PDUs.
        starts, _ = frame.segments()
        totals = np.add.reduceat(grants, starts)
        caps = np.fromiter(
            map(pdu_spot_w.get, frame.pdu_ids, repeat(0.0)),
            dtype=float,
            count=len(frame.pdu_ids),
        )
        within = totals <= caps + tol
        if not np.logical_and.reduce(within):
            # Only a PDU holding a listed rack is checked.
            over = (~within & np.logical_or.reduceat(listed, starts)).nonzero()[0]
            if over.size:
                pdu = int(over[0])
                raise CapacityError(
                    f"PDU {frame.pdu_ids[pdu]}: granted {totals[pdu]:.3f} W "
                    f"exceeds spot capacity {caps[pdu]:.3f} W (Eq. 3)"
                )
        total = float(np.add.reduce(grants))
    if not total <= ups_spot_w + tol:
        raise CapacityError(
            f"UPS: granted {total:.3f} W exceeds spot capacity "
            f"{ups_spot_w:.3f} W (Eq. 4)"
        )
    for constraint in extra_constraints:
        granted = 0.0
        if grants is not None:
            granted = float(grants[frame.rows_for(constraint.rack_ids)].sum())
        if not granted <= constraint.cap_w + tol:
            raise CapacityError(
                f"constraint {constraint.name}: granted {granted:.3f} W "
                f"exceeds cap {constraint.cap_w:.3f} W"
            )


def _check_racks(
    result: AllocationResult,
    frame: BidFrame,
    grants: np.ndarray,
    listed: np.ndarray,
    tol: float,
) -> None:
    """The per-rack clauses of :func:`verify_allocation`, on listed rows."""
    rows = listed.nonzero()[0]
    if rows.size != len(result.grants_w):
        row_of = frame.row_of
        for rack_id in result.grants_w:
            if rack_id not in row_of:
                raise CapacityError(f"grant to rack {rack_id} that submitted no bid")
    granted = grants[rows]
    rack_cap = frame.rack_cap_w[rows]
    paid = np.fromiter(
        map(result.pdu_prices.get, frame.pdu_ids, repeat(result.price)),
        dtype=float,
        count=len(frame.pdu_ids),
    )[frame.pdu_code[rows]]
    if rows.size < _KERNEL_FROM:
        bids = frame.to_bids()
        demanded = np.array(
            [
                bids[row].clipped_demand_at(price)
                for row, price in zip(rows.tolist(), paid.tolist())
            ]
        )
    else:
        demanded = frame.demand_at_rows(rows, paid)
    ok = granted >= -tol
    ok &= granted <= rack_cap + tol
    ok &= granted <= demanded + tol
    if np.logical_and.reduce(ok):
        return
    i = int(ok.argmin())
    rack_id = frame.rack_ids[rows[i]]
    grant = float(granted[i])
    if not grant >= -tol:
        raise CapacityError(f"rack {rack_id}: negative or NaN grant {grant}")
    if not grant <= rack_cap[i] + tol:
        raise CapacityError(
            f"rack {rack_id}: grant {grant:.3f} W exceeds rack headroom "
            f"{rack_cap[i]:.3f} W (Eq. 2)"
        )
    raise CapacityError(
        f"rack {rack_id}: grant {grant:.3f} W exceeds demand "
        f"{demanded[i]:.3f} W at clearing price {paid[i]:.4f}"
    )
