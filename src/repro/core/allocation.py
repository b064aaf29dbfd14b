"""Clearing outcomes: the allocation record and its integrity checks.

Separating the outcome container from the clearing algorithm lets the
baselines (:mod:`repro.core.baselines`) and the market-price sweep
experiments share one well-tested representation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from repro.core.bids import RackBid
from repro.errors import CapacityError

__all__ = ["AllocationResult", "verify_allocation"]


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
    bids: Sequence[RackBid],
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    tolerance_w: float = 1e-6,
    extra_constraints: Sequence = (),
) -> None:
    """Assert an allocation respects Eqs. (2)-(4); raise otherwise.

    This is the reliability backstop: the operator must never issue
    grants that could overload the shared infrastructure, so the engine
    runs this check on every clearing outcome in tests and (cheaply) in
    the simulation loop.

    Every check is written ``not value <= bound`` so that a NaN grant or
    capacity fails it instead of passing silently.

    Raises:
        CapacityError: If any rack, PDU, or UPS constraint is violated,
            or if a grant exceeds the rack's demanded quantity.
    """
    by_rack = {bid.rack_id: bid for bid in bids}
    pdu_totals: dict[str, float] = {}
    total = 0.0
    for rack_id, grant in result.grants_w.items():
        if not grant >= -tolerance_w:
            raise CapacityError(f"rack {rack_id}: negative or NaN grant {grant}")
        bid = by_rack.get(rack_id)
        if bid is None:
            raise CapacityError(f"grant to rack {rack_id} that submitted no bid")
        if not grant <= bid.rack_cap_w + tolerance_w:
            raise CapacityError(
                f"rack {rack_id}: grant {grant:.3f} W exceeds rack headroom "
                f"{bid.rack_cap_w:.3f} W (Eq. 2)"
            )
        paid_price = result.price_for_pdu(bid.pdu_id)
        demanded = bid.clipped_demand_at(paid_price)
        if not grant <= demanded + tolerance_w:
            raise CapacityError(
                f"rack {rack_id}: grant {grant:.3f} W exceeds demand "
                f"{demanded:.3f} W at clearing price {paid_price:.4f}"
            )
        pdu_totals[bid.pdu_id] = pdu_totals.get(bid.pdu_id, 0.0) + grant
        total += grant
    for pdu_id, pdu_total in pdu_totals.items():
        cap = pdu_spot_w.get(pdu_id, 0.0)
        if not pdu_total <= cap + tolerance_w:
            raise CapacityError(
                f"PDU {pdu_id}: granted {pdu_total:.3f} W exceeds spot "
                f"capacity {cap:.3f} W (Eq. 3)"
            )
    if not total <= ups_spot_w + tolerance_w:
        raise CapacityError(
            f"UPS: granted {total:.3f} W exceeds spot capacity "
            f"{ups_spot_w:.3f} W (Eq. 4)"
        )
    for constraint in extra_constraints:
        granted = sum(
            result.grants_w.get(rack_id, 0.0) for rack_id in constraint.rack_ids
        )
        if not granted <= constraint.cap_w + tolerance_w:
            raise CapacityError(
                f"constraint {constraint.name}: granted {granted:.3f} W "
                f"exceeds cap {constraint.cap_w:.3f} W"
            )
