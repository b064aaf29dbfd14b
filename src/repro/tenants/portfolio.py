"""Tenant rack portfolios: the per-rack state a tenant manages.

A tenant owns one or more racks, each with its own power model and
workload; the bundle is what the tenant bids for jointly (paper Section
III-B3).  :class:`TenantRack` binds a rack's identity to the models the
tenant-side logic needs, and :class:`RackBidContext` is the per-slot
snapshot handed to a bidding strategy.
"""

from __future__ import annotations

import dataclasses

from repro.economics.valuation import SpotValueCurve
from repro.errors import ConfigurationError
from repro.power.server import ServerPowerModel
from repro.workloads.base import Workload

__all__ = ["TenantRack", "RackBidContext"]


@dataclasses.dataclass
class TenantRack:
    """One rack in a tenant's portfolio.

    Attributes:
        rack_id: Facility-wide rack identifier.
        pdu_id: PDU feeding the rack.
        guaranteed_w: The tenant's subscription on this rack.
        max_spot_w: Physical spot headroom the rack PDU can unlock
            (``P_r^R``).
        power_model: The rack's utilization/power model.
        workload: The workload running on the rack.
    """

    rack_id: str
    pdu_id: str
    guaranteed_w: float
    max_spot_w: float
    power_model: ServerPowerModel
    workload: Workload

    #: Written once per run by checkpoints (:mod:`repro.recovery.checkpoint`).
    run_inputs = ("power_model",)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self.run_inputs:
            del state[name]
        return state

    def __post_init__(self) -> None:
        if self.guaranteed_w <= 0:
            raise ConfigurationError(
                f"rack {self.rack_id}: guaranteed_w must be positive"
            )
        if self.max_spot_w < 0:
            raise ConfigurationError(
                f"rack {self.rack_id}: max_spot_w must be >= 0"
            )

    @property
    def useful_spot_w(self) -> float:
        """Spot capacity the rack can actually convert into performance:
        bounded by both the rack PDU headroom and the workload's peak
        draw above the subscription."""
        return max(
            0.0,
            min(self.max_spot_w, self.power_model.peak_w - self.guaranteed_w),
        )


@dataclasses.dataclass(frozen=True)
class RackBidContext:
    """Everything a bidding strategy may use for one rack in one slot.

    Attributes:
        rack: The rack being bid for.
        needed_w: Extra power (beyond guaranteed) the workload wants this
            slot; the "simple strategy" bids exactly this.
        value_curve: The tenant's value curve for spot capacity on this
            rack at this slot's workload intensity.
        q_low: The tenant's low price anchor — the price at/below which
            it wants its maximum quantity, $/kW/h.
        q_high: The tenant's maximum acceptable price, $/kW/h (the
            paper's guideline caps this at the amortised guaranteed-
            capacity rate, or above it for SLO-critical sprinting).
        predicted_price: Tenant-side market-price forecast, if any.
    """

    rack: TenantRack
    needed_w: float
    value_curve: SpotValueCurve
    q_low: float
    q_high: float
    predicted_price: float | None = None
