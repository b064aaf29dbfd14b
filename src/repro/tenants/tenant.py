"""Tenant models: sprinting, opportunistic, and non-participating.

Tenants are the demand side of SpotDC (paper Section II-C):

* **Sprinting tenants** run delay-sensitive services with insufficient
  capacity reservation; they buy spot capacity to avoid SLO violations
  during traffic peaks (~15% of slots) and bid the highest prices.
* **Opportunistic tenants** run delay-tolerant batch work; they buy
  spot capacity to drain backlogs faster (~30% of slots) and never bid
  above the amortised guaranteed-capacity rate.
* **Non-participating tenants** never bid; their (fluctuating) power
  draw is what creates — and reclaims — the shared spot capacity.

A participating tenant builds a rack's value curve only when that rack
bids: ``make_bid`` asks for curves of the racks in ``needed_spot_w``
alone, and ``value_curves`` (MaxPerf, Fig. 9) asks for every rack that
can use spot capacity.  Curves are cached per rack: the opportunistic
curve is independent of the backlog (the normalised gain depends only
on the power model), and the sprinting curve is quantised over arrival
rate, which keeps year-long simulations fast without changing bids
materially.  Checkpoints leave the caches out; a restored tenant
rebuilds the same curves.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping

import numpy as np

from repro.core.bids import RackBid, TenantBid
from repro.economics.cost import OpportunisticCostModel, SprintingCostModel
from repro.economics.valuation import (
    SpotValueCurve,
    opportunistic_value_curve,
    sprinting_value_curve,
)
from repro.errors import ConfigurationError
from repro.tenants.bidding import BiddingStrategy, LinearElasticStrategy
from repro.tenants.portfolio import RackBidContext, TenantRack
from repro.workloads.base import BatchWorkload, InteractiveWorkload, SlotPerformance

__all__ = [
    "Tenant",
    "SprintingTenant",
    "OpportunisticTenant",
    "NonParticipatingTenant",
]


class Tenant(abc.ABC):
    """Base tenant: a named owner of one or more racks."""

    #: Tenant class label: ``"sprinting"``, ``"opportunistic"``, or
    #: ``"non-participating"`` (paper Table I's Type column).
    kind: str = "tenant"
    #: Written once per run by checkpoints (:mod:`repro.recovery.checkpoint`).
    run_inputs: tuple[str, ...] = ()

    def __init__(self, tenant_id: str, racks: list[TenantRack]) -> None:
        if not tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if not racks:
            raise ConfigurationError(f"tenant {tenant_id}: needs at least one rack")
        rack_ids = [r.rack_id for r in racks]
        if len(set(rack_ids)) != len(rack_ids):
            raise ConfigurationError(
                f"tenant {tenant_id}: duplicate rack ids {rack_ids}"
            )
        self.tenant_id = tenant_id
        self.racks = racks

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self.run_inputs:
            del state[name]
        return state

    @property
    def participates(self) -> bool:
        """Whether this tenant ever bids in the spot market."""
        return True

    @property
    def total_guaranteed_w(self) -> float:
        """Total subscription across the tenant's racks."""
        return sum(r.guaranteed_w for r in self.racks)

    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        """Materialise all rack workload traces for a run."""
        for rack in self.racks:
            rack.workload.prepare(slots, rng)

    @abc.abstractmethod
    def needed_spot_w(self, slot: int) -> dict[str, float]:
        """Extra watts wanted per rack this slot (racks needing none omitted)."""

    @abc.abstractmethod
    def value_curves(self, slot: int) -> dict[str, SpotValueCurve]:
        """Value curves for the racks that can use spot capacity this slot."""

    @abc.abstractmethod
    def make_bid(
        self, slot: int, predicted_price: float | None = None
    ) -> TenantBid | None:
        """Build this slot's bundled bid; ``None`` when nothing is needed."""

    def execute_slot(
        self, slot: int, budgets_w: Mapping[str, float], slot_seconds: float
    ) -> dict[str, SlotPerformance]:
        """Run every rack for one slot under the enforced budgets.

        Args:
            slot: Slot index (must advance by one per call).
            budgets_w: Enforced budget per rack id; racks missing from
                the mapping run at their guaranteed capacity.
            slot_seconds: Slot duration.
        """
        outcomes: dict[str, SlotPerformance] = {}
        for rack in self.racks:
            budget = budgets_w.get(rack.rack_id, rack.guaranteed_w)
            outcomes[rack.rack_id] = rack.workload.execute(
                slot, budget, slot_seconds
            )
        return outcomes


class _ParticipatingTenant(Tenant):
    """Shared machinery for tenants that bid in the market."""

    run_inputs = ("cost_models",)

    def __init__(
        self,
        tenant_id: str,
        racks: list[TenantRack],
        q_low: float,
        q_high: float,
        strategy: BiddingStrategy | None = None,
    ) -> None:
        super().__init__(tenant_id, racks)
        if not 0 <= q_low <= q_high:
            raise ConfigurationError(
                f"tenant {tenant_id}: need 0 <= q_low <= q_high, got "
                f"({q_low}, {q_high})"
            )
        self.q_low = q_low
        self.q_high = q_high
        self.strategy = strategy or LinearElasticStrategy()
        # ``(slot, needs)`` from the slot's first needed_spot_w until
        # execute_slot, which can change a workload's needs.
        self._needs: tuple[int, dict[str, float]] | None = None

    def __getstate__(self) -> dict:
        # A cached curve is a pure function of the rack's static models
        # and its cache key, so a restored tenant rebuilds it bit for bit;
        # checkpoints carry the attributes but not the curves or needs.
        state = super().__getstate__()
        state["_curve_cache"] = {}
        state["_needs"] = None
        return state

    def needed_spot_w(self, slot: int) -> dict[str, float]:
        # Computed once per slot: the engine asks to build its requesting
        # set, make_bid asks again.
        if self._needs is None or self._needs[0] != slot:
            self._needs = (slot, self._spot_needs(slot))
        return self._needs[1]

    @abc.abstractmethod
    def _spot_needs(self, slot: int) -> dict[str, float]:
        """Extra watts wanted per rack this slot (racks needing none omitted)."""

    def execute_slot(
        self, slot: int, budgets_w: Mapping[str, float], slot_seconds: float
    ) -> dict[str, SlotPerformance]:
        self._needs = None
        return super().execute_slot(slot, budgets_w, slot_seconds)

    @abc.abstractmethod
    def value_curve(self, rack: TenantRack, slot: int) -> SpotValueCurve:
        """The (cached) value curve of one rack with ``useful_spot_w > 0``."""

    def value_curves(self, slot: int) -> dict[str, SpotValueCurve]:
        return {
            rack.rack_id: self.value_curve(rack, slot)
            for rack in self.racks
            if rack.useful_spot_w > 0
        }

    def _contexts(
        self, slot: int, predicted_price: float | None
    ) -> list[RackBidContext]:
        # Curves are built for the racks that bid this slot, not for
        # every rack that could.
        needed = self.needed_spot_w(slot)
        return [
            RackBidContext(
                rack=rack,
                needed_w=needed[rack.rack_id],
                value_curve=self.value_curve(rack, slot),
                q_low=self.q_low,
                q_high=self.q_high,
                predicted_price=predicted_price,
            )
            for rack in self.racks
            if rack.rack_id in needed
        ]

    def make_bid(
        self, slot: int, predicted_price: float | None = None
    ) -> TenantBid | None:
        rack_bids = []
        for ctx in self._contexts(slot, predicted_price):
            demand = self.strategy.make_rack_bid(ctx)
            if demand is None:
                continue
            rack_bids.append(
                RackBid(
                    rack_id=ctx.rack.rack_id,
                    pdu_id=ctx.rack.pdu_id,
                    tenant_id=self.tenant_id,
                    demand=demand,
                    rack_cap_w=ctx.rack.max_spot_w,
                )
            )
        if not rack_bids:
            return None
        return TenantBid(tenant_id=self.tenant_id, rack_bids=tuple(rack_bids))


class SprintingTenant(_ParticipatingTenant):
    """A delay-sensitive tenant sprinting to protect its latency SLO.

    Args:
        tenant_id: Name (e.g. ``"Search-1"``).
        racks: Portfolio; every workload must be interactive.
        cost_models: Latency cost model per rack id (typically from
            :func:`repro.tenants.calibration.calibrate_sprinting_cost`).
        q_low: Low price anchor, $/kW/h.
        q_high: Maximum acceptable price; sprinting tenants may exceed
            the amortised guaranteed rate to avoid SLO penalties.
        strategy: Bidding strategy (default: the SpotDC linear fit).
        rate_quantum_rps: Arrival-rate quantisation step for the value-
            curve cache; smaller is more exact, larger is faster.
    """

    kind = "sprinting"

    def __init__(
        self,
        tenant_id: str,
        racks: list[TenantRack],
        cost_models: Mapping[str, SprintingCostModel],
        q_low: float,
        q_high: float,
        strategy: BiddingStrategy | None = None,
        rate_quantum_rps: float | None = None,
    ) -> None:
        super().__init__(tenant_id, racks, q_low, q_high, strategy)
        for rack in racks:
            if not isinstance(rack.workload, InteractiveWorkload):
                raise ConfigurationError(
                    f"tenant {tenant_id}: rack {rack.rack_id} workload is not "
                    "interactive"
                )
            if rack.rack_id not in cost_models:
                raise ConfigurationError(
                    f"tenant {tenant_id}: no cost model for rack {rack.rack_id}"
                )
        self.cost_models = dict(cost_models)
        self._rate_quantum = rate_quantum_rps
        self._curve_cache: dict[tuple[str, int], SpotValueCurve] = {}

    def _spot_needs(self, slot: int) -> dict[str, float]:
        needed: dict[str, float] = {}
        for rack in self.racks:
            extra = rack.workload.desired_power_w(slot) - rack.guaranteed_w
            if extra > 0 and rack.useful_spot_w > 0:
                needed[rack.rack_id] = min(extra, rack.max_spot_w)
        return needed

    def _quantum_for(self, rack: TenantRack) -> float:
        if self._rate_quantum is not None:
            return self._rate_quantum
        workload = rack.workload
        assert isinstance(workload, InteractiveWorkload)
        return max(workload.latency_model.mu_max_rps * 0.02, 1e-6)

    def value_curve(self, rack: TenantRack, slot: int) -> SpotValueCurve:
        workload = rack.workload
        assert isinstance(workload, InteractiveWorkload)
        quantum = self._quantum_for(rack)
        rate_bin = int(round(workload.intensity(slot) / quantum))
        key = (rack.rack_id, rate_bin)
        curve = self._curve_cache.get(key)
        if curve is None:
            curve = self._curve_cache[key] = sprinting_value_curve(
                workload.latency_model,
                self.cost_models[rack.rack_id],
                base_power_w=rack.guaranteed_w,
                arrival_rps=rate_bin * quantum,
                max_spot_w=rack.useful_spot_w,
            )
        return curve


class OpportunisticTenant(_ParticipatingTenant):
    """A delay-tolerant tenant buying cheap spot capacity for speed-up.

    Args:
        tenant_id: Name (e.g. ``"Count-1"``).
        racks: Portfolio; every workload must be batch.
        cost_models: Completion-time cost model per rack id.
        q_low: Low price anchor, $/kW/h.
        q_high: Maximum acceptable price — the paper caps this at the
            amortised guaranteed-capacity rate (~US$0.2/kW/h).
        strategy: Bidding strategy.
    """

    kind = "opportunistic"

    def __init__(
        self,
        tenant_id: str,
        racks: list[TenantRack],
        cost_models: Mapping[str, OpportunisticCostModel],
        q_low: float,
        q_high: float,
        strategy: BiddingStrategy | None = None,
    ) -> None:
        super().__init__(tenant_id, racks, q_low, q_high, strategy)
        for rack in racks:
            if not isinstance(rack.workload, BatchWorkload):
                raise ConfigurationError(
                    f"tenant {tenant_id}: rack {rack.rack_id} workload is not batch"
                )
            if rack.rack_id not in cost_models:
                raise ConfigurationError(
                    f"tenant {tenant_id}: no cost model for rack {rack.rack_id}"
                )
        self.cost_models = dict(cost_models)
        self._curve_cache: dict[str, SpotValueCurve] = {}

    def _spot_needs(self, slot: int) -> dict[str, float]:
        needed: dict[str, float] = {}
        for rack in self.racks:
            workload = rack.workload
            assert isinstance(workload, BatchWorkload)
            if workload.wants_sprint(slot) and rack.useful_spot_w > 0:
                needed[rack.rack_id] = rack.useful_spot_w
        return needed

    def value_curve(self, rack: TenantRack, slot: int) -> SpotValueCurve:
        curve = self._curve_cache.get(rack.rack_id)
        if curve is None:
            workload = rack.workload
            assert isinstance(workload, BatchWorkload)
            curve = self._curve_cache[rack.rack_id] = opportunistic_value_curve(
                workload.throughput_model,
                self.cost_models[rack.rack_id],
                base_power_w=rack.guaranteed_w,
                backlog_units=1.0,
                max_spot_w=rack.useful_spot_w,
            )
        return curve


class NonParticipatingTenant(Tenant):
    """A tenant that never bids; its draw shapes the spot capacity.

    The "Other" rows of the paper's Table I: groups of tenants whose
    aggregate power follows a measured (here: generated) trace.
    """

    kind = "non-participating"

    @property
    def participates(self) -> bool:
        return False

    def needed_spot_w(self, slot: int) -> dict[str, float]:
        return {}

    def value_curves(self, slot: int) -> dict[str, SpotValueCurve]:
        return {}

    def make_bid(
        self, slot: int, predicted_price: float | None = None
    ) -> TenantBid | None:
        return None
