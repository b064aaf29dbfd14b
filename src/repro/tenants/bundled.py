"""Bundled multi-rack bidding for tiered services (paper §III-B3, Fig. 4).

"For a tenant, the power budgets for multiple racks jointly determine
the application performance (e.g., latency of a three-tier web service,
with each tier housed in one rack)."  The paper's guideline: find the
optimal spot-demand *vector* across the racks at each price, then bid
per-rack LinearBids joined affinely between two shared price anchors —
``(D_max,1..K, q_min)`` and ``(D_min,1..K, q_max)``.

:class:`BundledSprintingTenant` implements exactly that:

* the end-to-end tail latency is the sum of per-tier latencies, all
  tiers seeing the same request stream;
* the joint value of a spot vector is the SLO cost-rate reduction of
  the end-to-end latency;
* the optimal vector at a price is computed by greedy marginal
  equalisation (allocate each watt to the tier whose marginal
  end-to-end gain is highest — optimal for concave per-tier gains);
* the bundled bid evaluates that vector at the tenant's two anchors.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np

from repro.core.bids import RackBid, TenantBid
from repro.core.demand import LinearBid
from repro.economics.cost import SprintingCostModel
from repro.economics.valuation import SpotValueCurve
from repro.errors import ConfigurationError, WorkloadError
from repro.power.latency import LatencyModel
from repro.tenants.portfolio import TenantRack
from repro.tenants.tenant import Tenant
from repro.workloads.base import SlotPerformance, Workload, request_desired_power

__all__ = ["TierWorkload", "BundledSprintingTenant"]

#: Grants below this are not worth bidding for.
_MIN_USEFUL_W = 0.5


class TierWorkload(Workload):
    """One tier of a multi-rack interactive service.

    All tiers share the request stream; the owning
    :class:`BundledSprintingTenant` installs the shared arrival series
    during :meth:`BundledSprintingTenant.prepare`.

    Args:
        name: Tier label (e.g. ``"web/frontend"``).
        latency_model: The tier's latency model.
        target_ms: The tier's share of the end-to-end planning target.
    """

    metric = "latency_ms"
    run_inputs = ("latency_model", "_rates", "_desired")

    def __init__(
        self, name: str, latency_model: LatencyModel, target_ms: float
    ) -> None:
        super().__init__()
        if target_ms <= 0:
            raise ConfigurationError("target_ms must be positive")
        self.name = name
        self.latency_model = latency_model
        self.target_ms = target_ms
        self._rates: np.ndarray | None = None
        self._desired: np.ndarray | None = None

    def install_arrivals(self, rates: np.ndarray) -> None:
        """Install the shared arrival series (tenant-managed)."""
        self._rates = np.asarray(rates, dtype=float)
        request_desired_power(self)
        self._mark_prepared(int(self._rates.size))

    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        if self._rates is None or self._rates.size != slots:
            raise WorkloadError(
                f"tier {self.name}: arrivals must be installed by the "
                "owning bundled tenant before prepare()"
            )
        # Arrivals already installed; prepare() validates alignment only.

    def intensity(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._rates[slot])

    def desired_power_w(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._desired[slot])

    def execute(self, slot: int, budget_w: float, slot_seconds: float) -> SlotPerformance:
        self._check_execution_order(slot)
        rate = float(self._rates[slot])
        desired = float(self._desired[slot])
        power = min(desired, budget_w)
        latency = self.latency_model.latency_ms(power, rate)
        return SlotPerformance(
            slot=slot,
            power_w=power,
            desired_power_w=desired,
            capped=desired > budget_w,
            metric=self.metric,
            value=latency,
            slo_violated=False,  # per-tier flag is meaningless; see tenant
            wanted_spot=desired > budget_w,
        )


@dataclasses.dataclass(frozen=True)
class _TierState:
    """Per-tier bookkeeping the tenant derives from its racks."""

    rack: TenantRack
    workload: TierWorkload


class BundledSprintingTenant(Tenant):
    """A sprinting tenant whose racks form one tiered service.

    Args:
        tenant_id: Name (e.g. ``"Shop"``).
        racks: One rack per tier, each carrying a :class:`TierWorkload`.
        arrival_trace: Shared request trace with
            ``generate(slots, rng) -> np.ndarray``.
        cost_model: SLO cost model on the *end-to-end* latency.
        q_low: Shared low price anchor, $/kW/h (Fig. 4's ``q_min``).
        q_high: Shared maximum acceptable price (Fig. 4's ``q_max``).
        slo_ms: End-to-end latency SLO.
        increment_w: Watt step of the greedy joint-demand optimisation.
    """

    kind = "sprinting"
    run_inputs = ("arrival_trace", "cost_model")

    def __init__(
        self,
        tenant_id: str,
        racks: list[TenantRack],
        arrival_trace,
        cost_model: SprintingCostModel,
        q_low: float,
        q_high: float,
        slo_ms: float = 100.0,
        increment_w: float = 1.0,
    ) -> None:
        super().__init__(tenant_id, racks)
        for rack in racks:
            if not isinstance(rack.workload, TierWorkload):
                raise ConfigurationError(
                    f"tenant {tenant_id}: rack {rack.rack_id} must run a "
                    "TierWorkload"
                )
        if not 0 <= q_low <= q_high:
            raise ConfigurationError("need 0 <= q_low <= q_high")
        if increment_w <= 0:
            raise ConfigurationError("increment_w must be positive")
        self.arrival_trace = arrival_trace
        self.cost_model = cost_model
        self.q_low = q_low
        self.q_high = q_high
        self.slo_ms = slo_ms
        self.increment_w = increment_w
        self._tiers = [
            _TierState(rack=rack, workload=rack.workload) for rack in racks
        ]

    # ------------------------------------------------------------------
    # Trace management: one stream, all tiers
    # ------------------------------------------------------------------

    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        rates = np.asarray(self.arrival_trace.generate(slots, rng), dtype=float)
        for tier in self._tiers:
            tier.workload.install_arrivals(rates)
            tier.workload.prepare(slots, rng)

    # ------------------------------------------------------------------
    # Joint valuation (Fig. 4)
    # ------------------------------------------------------------------

    def end_to_end_latency_ms(
        self, slot: int, budgets_w: Mapping[str, float]
    ) -> float:
        """Sum of tier latencies under given budgets."""
        total = 0.0
        for tier in self._tiers:
            budget = budgets_w.get(tier.rack.rack_id, tier.rack.guaranteed_w)
            rate = tier.workload.intensity(slot)
            power = min(tier.workload.desired_power_w(slot), budget)
            total += tier.workload.latency_model.latency_ms(power, rate)
        return total

    def _cost_rate(self, slot: int, spot_vector: Mapping[str, float]) -> float:
        budgets = {
            tier.rack.rack_id: tier.rack.guaranteed_w
            + spot_vector.get(tier.rack.rack_id, 0.0)
            for tier in self._tiers
        }
        latency = self.end_to_end_latency_ms(slot, budgets)
        rate = self._tiers[0].workload.intensity(slot)
        return self.cost_model.cost_rate_per_hour(latency, rate)

    def optimal_vector(
        self, slot: int, price_per_kw_hour: float
    ) -> dict[str, float]:
        """Greedy marginal-equalisation joint demand at a price.

        Allocates ``increment_w`` steps to the tier whose marginal
        end-to-end cost reduction per watt is highest, while it still
        exceeds the price; optimal for concave per-tier gains.
        """
        price_per_watt_hour = price_per_kw_hour / 1000.0
        vector = {tier.rack.rack_id: 0.0 for tier in self._tiers}
        current_cost = self._cost_rate(slot, vector)
        limits = {
            tier.rack.rack_id: tier.rack.useful_spot_w for tier in self._tiers
        }
        # Bounded by total headroom / increment steps.
        max_steps = int(sum(limits.values()) / self.increment_w) + len(limits)
        for _ in range(max_steps):
            best_rack = None
            best_gain = price_per_watt_hour * self.increment_w
            best_cost = current_cost
            for tier in self._tiers:
                rack_id = tier.rack.rack_id
                if vector[rack_id] + self.increment_w > limits[rack_id] + 1e-9:
                    continue
                trial = dict(vector)
                trial[rack_id] += self.increment_w
                trial_cost = self._cost_rate(slot, trial)
                gain = current_cost - trial_cost
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_rack = rack_id
                    best_cost = trial_cost
            if best_rack is None:
                break
            vector[best_rack] += self.increment_w
            current_cost = best_cost
        return vector

    # ------------------------------------------------------------------
    # Tenant interface
    # ------------------------------------------------------------------

    def needed_spot_w(self, slot: int) -> dict[str, float]:
        needed: dict[str, float] = {}
        for tier in self._tiers:
            extra = (
                tier.workload.desired_power_w(slot) - tier.rack.guaranteed_w
            )
            if extra > 0 and tier.rack.useful_spot_w > 0:
                needed[tier.rack.rack_id] = min(extra, tier.rack.max_spot_w)
        return needed

    def value_curves(self, slot: int) -> dict[str, SpotValueCurve]:
        """Per-rack marginal view of the joint value (for MaxPerf).

        Each rack's curve is the joint cost reduction of allocating spot
        to that rack alone — a conservative (sub-additive) decomposition
        of the joint value.
        """
        curves: dict[str, SpotValueCurve] = {}
        base_cost = self._cost_rate(slot, {})
        for tier in self._tiers:
            headroom = tier.rack.useful_spot_w
            if headroom <= 0:
                continue
            grid = np.linspace(0.0, headroom, 25)
            gains = np.array(
                [
                    base_cost
                    - self._cost_rate(slot, {tier.rack.rack_id: float(d)})
                    for d in grid
                ]
            )
            curves[tier.rack.rack_id] = SpotValueCurve.from_gain_samples(
                tier.rack.guaranteed_w, grid, gains
            )
        return curves

    def make_bid(
        self, slot: int, predicted_price: float | None = None
    ) -> TenantBid | None:
        if not self.needed_spot_w(slot):
            return None
        d_max = self.optimal_vector(slot, self.q_low)
        d_min = self.optimal_vector(slot, self.q_high)
        rack_bids = []
        for tier in self._tiers:
            rack_id = tier.rack.rack_id
            hi = min(d_max.get(rack_id, 0.0), tier.rack.max_spot_w)
            lo = min(d_min.get(rack_id, 0.0), hi)
            if hi < _MIN_USEFUL_W:
                continue
            rack_bids.append(
                RackBid(
                    rack_id=rack_id,
                    pdu_id=tier.rack.pdu_id,
                    tenant_id=self.tenant_id,
                    demand=LinearBid(hi, self.q_low, lo, self.q_high),
                    rack_cap_w=tier.rack.max_spot_w,
                )
            )
        if not rack_bids:
            return None
        return TenantBid(tenant_id=self.tenant_id, rack_bids=tuple(rack_bids))

    def execute_slot(
        self, slot: int, budgets_w: Mapping[str, float], slot_seconds: float
    ) -> dict[str, SlotPerformance]:
        """Run the tiers and report the *end-to-end* latency on each rack.

        Every tier rack reports the same end-to-end value so downstream
        aggregation (which averages per-rack scores) sees the service's
        true performance regardless of how tiers split the budget.
        """
        tier_perfs = super().execute_slot(slot, budgets_w, slot_seconds)
        e2e = sum(perf.value for perf in tier_perfs.values())
        return {
            rack_id: dataclasses.replace(
                perf, value=e2e, slo_violated=e2e > self.slo_ms
            )
            for rack_id, perf in tier_perfs.items()
        }
