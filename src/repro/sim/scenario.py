"""Scenario builders: the paper's testbed (Table I) and its variants.

A :class:`Scenario` bundles everything one simulation run needs: the
power topology, the tenant roster with workloads and cost models, the
price sheet, and the slot length.  Builders:

* :func:`testbed_scenario` — the paper's two-PDU, nine-participating-
  tenant testbed (Table I: PDU capacities 715 W / 724 W, UPS 1370 W,
  5% oversubscription at both levels).
* :func:`scaled_scenario` — Fig. 18's hyper-scale variant: the Table I
  composition replicated with ±20% subscription jitter, up to 1,000
  tenants.

Both emit a normal-form spec (:mod:`repro.scenarios.presets`) and hand
it to :func:`repro.scenarios.loader.build_scenario`, which builds each
tenant from its spec record with the factories here.  Every stochastic
choice flows from a single seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.config import make_rng, spawn_rngs
from repro.economics.pricing import PriceSheet
from repro.errors import ConfigurationError
from repro.events.profile import EventProfile
from repro.forecast.profile import PredictionProfile
from repro.infrastructure.topology import PowerTopology
from repro.power.latency import LatencyModel
from repro.power.server import ServerPowerModel
from repro.resilience.profile import FaultProfile
from repro.sim.results import RackInfo, TenantInfo
from repro.telemetry.config import TelemetryConfig
from repro.tenants.bidding import BiddingStrategy, LinearElasticStrategy
from repro.tenants.bundled import BundledSprintingTenant, TierWorkload
from repro.tenants.calibration import (
    calibrate_opportunistic_cost,
    calibrate_sprinting_cost,
)
from repro.tenants.portfolio import TenantRack
from repro.tenants.tenant import (
    NonParticipatingTenant,
    OpportunisticTenant,
    SprintingTenant,
    Tenant,
)
from repro.workloads.base import (
    BatchWorkload,
    InteractiveWorkload,
    TracePowerWorkload,
)
from repro.workloads.graph import make_graph_workload
from repro.workloads.hadoop import make_terasort_workload, make_wordcount_workload
from repro.workloads.search import make_search_workload
from repro.workloads.traces import (
    ColoPowerTrace,
    GoogleStyleArrivalTrace,
    VolatilePowerTrace,
)
from repro.workloads.web import make_web_workload

__all__ = [
    "TenantSpec",
    "Scenario",
    "TABLE1_SPECS",
    "PRICE_ANCHORS",
    "testbed_scenario",
    "scaled_scenario",
]

#: Power-model shape per tenant class: idle at 45% of the subscription;
#: peak above it by a class-dependent margin.  Opportunistic tenants
#: oversubscribe their guaranteed capacity far more aggressively than
#: performance-sensitive sprinting tenants (paper Section V-B1 /
#: Fig. 12c: "sprinting tenants receive less spot capacity in
#: percentage ... do not oversubscribe ... as aggressively").
_IDLE_FRACTION = 0.45
_PEAK_FRACTION = {
    "search": 1.25,
    "web": 1.25,
    "wordcount": 1.55,
    "terasort": 1.55,
    "graph": 1.55,
}

#: Price anchors per workload class, $/kW/h: (q_low, q_high, calibration
#: target for the marginal value).  Search bids highest, Web medium,
#: opportunistic lowest — capped at the amortised guaranteed rate
#: (~US$0.2/kW/h), per paper Section IV-C / Fig. 13a.
PRICE_ANCHORS = {
    "search": (0.20, 0.30, 0.28),
    "web": (0.14, 0.24, 0.19),
    "wordcount": (0.08, 0.205, 0.185),
    "terasort": (0.08, 0.205, 0.185),
    "graph": (0.08, 0.205, 0.175),
}


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One Table I row.

    Attributes:
        name: Tenant name (e.g. ``"Search-1"``).
        workload: Workload class key: ``"search"``, ``"web"``,
            ``"wordcount"``, ``"terasort"``, ``"graph"``, or ``"other"``.
        subscription_w: Guaranteed capacity subscription.
        pdu: Index of the PDU hosting the tenant's rack.
    """

    name: str
    workload: str
    subscription_w: float
    pdu: int


#: The paper's Table I, verbatim (aliases S-1..S-3, O-1..O-5 + Others).
TABLE1_SPECS: tuple[TenantSpec, ...] = (
    TenantSpec("Search-1", "search", 145.0, 0),
    TenantSpec("Web", "web", 115.0, 0),
    TenantSpec("Count-1", "wordcount", 125.0, 0),
    TenantSpec("Graph-1", "graph", 115.0, 0),
    TenantSpec("Other-1", "other", 250.0, 0),
    TenantSpec("Search-2", "search", 145.0, 1),
    TenantSpec("Count-2", "wordcount", 125.0, 1),
    TenantSpec("Sort", "terasort", 125.0, 1),
    TenantSpec("Graph-2", "graph", 115.0, 1),
    TenantSpec("Other-2", "other", 250.0, 1),
)


@dataclasses.dataclass
class Scenario:
    """A fully assembled simulation scenario.

    Attributes:
        topology: The facility.
        tenants: All tenants (participating and not).
        price_sheet: Published prices.
        slot_seconds: Market slot length.
        seed: Seed the scenario was built from.
        infrastructure_cost_per_hour: Operator's amortised shared-
            infrastructure cost (for profit accounting).
        fault_profile: Optional declarative fault configuration
            (:class:`repro.resilience.profile.FaultProfile`).  The
            engine builds a fault injector from it automatically unless
            an explicit ``fault_model`` is passed; the profile's own
            seed, or else the scenario seed, keys the fault streams.
        telemetry: Optional observability configuration
            (:class:`repro.telemetry.TelemetryConfig`).  ``None`` defers
            to the engine's ``telemetry`` argument or the process-wide
            default (:func:`repro.telemetry.default_config`).
        prediction: Optional declarative forecasting configuration
            (:class:`repro.forecast.PredictionProfile`).  The engine
            builds the forecasting signal and risk-aware release policy
            from it unless an explicit ``signal`` argument overrides;
            ``None`` keeps the paper's rule.
        events: Optional declarative grid-event configuration
            (:class:`repro.events.EventProfile`).  The engine builds a
            :class:`repro.events.ShockAbsorber` from it — EDR capacity
            shocks, wholesale price coupling, and the shock-absorption
            ladder; ``None`` keeps capacity and reserve price static.
        clearing_deadline_s: Wall-clock budget for the clear phase
            (:mod:`repro.recovery.deadline`).  ``None`` (default)
            disables the guard — wall time is nondeterministic, so runs
            pinning byte-identical traces leave it off.  Pass a budget
            in seconds, or ``True`` for the default derived from the
            slot length.
        spec: The normal-form declarative spec this scenario was
            assembled from (:mod:`repro.scenarios`), or ``None`` for
            scenarios constructed by hand.  Excluded from equality.
    """

    topology: PowerTopology
    tenants: list[Tenant]
    price_sheet: PriceSheet
    slot_seconds: float
    seed: int
    infrastructure_cost_per_hour: float
    fault_profile: "FaultProfile | None" = None
    telemetry: "TelemetryConfig | None" = None
    clearing_deadline_s: "float | bool | None" = None
    prediction: "PredictionProfile | None" = None
    events: "EventProfile | None" = None
    spec: "dict | None" = dataclasses.field(
        default=None, compare=False, repr=False
    )

    #: Written once per run by checkpoints (:mod:`repro.recovery.checkpoint`).
    run_inputs = ("spec", "price_sheet")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self.run_inputs:
            del state[name]
        return state

    def __post_init__(self) -> None:
        # Catch bad run parameters at construction, not slots deep in
        # the engine: a NaN cost or zero-length slot silently corrupts
        # every downstream profit/throughput figure.
        if not _finite_number(self.slot_seconds) or self.slot_seconds <= 0:
            raise ConfigurationError(
                "slot_seconds must be a positive finite number, "
                f"got {self.slot_seconds!r}"
            )
        cost = self.infrastructure_cost_per_hour
        if not _finite_number(cost) or cost < 0:
            raise ConfigurationError(
                "infrastructure_cost_per_hour must be a finite number "
                f">= 0, got {cost!r}"
            )
        deadline = self.clearing_deadline_s
        if deadline is not None and deadline is not True:
            if not _finite_number(deadline) or deadline <= 0:
                raise ConfigurationError(
                    "clearing_deadline_s must be None, True, or a "
                    f"positive finite budget in seconds, got {deadline!r}"
                )

    def prepare(self, slots: int) -> None:
        """Materialise every tenant's workload traces for a run."""
        rng = make_rng(self.seed)
        for tenant, tenant_rng in zip(self.tenants, spawn_rngs(rng, len(self.tenants))):
            tenant.prepare(slots, tenant_rng)

    def rack_infos(self) -> list[RackInfo]:
        """Static rack facts for the results layer."""
        infos = []
        for tenant in self.tenants:
            for rack in tenant.racks:
                infos.append(
                    RackInfo(
                        rack_id=rack.rack_id,
                        tenant_id=tenant.tenant_id,
                        pdu_id=rack.pdu_id,
                        guaranteed_w=rack.guaranteed_w,
                        metric=rack.workload.metric,
                    )
                )
        return infos

    def tenant_infos(self) -> list[TenantInfo]:
        """Static tenant facts for the results layer."""
        return [
            TenantInfo(
                tenant_id=t.tenant_id,
                kind=t.kind,
                rack_ids=tuple(r.rack_id for r in t.racks),
                guaranteed_w=t.total_guaranteed_w,
            )
            for t in self.tenants
        ]

    def participating_tenants(self) -> list[Tenant]:
        """Tenants that may bid in the spot market."""
        return [t for t in self.tenants if t.participates]

    def overprovisioned_w(self) -> float:
        """Total rack-level headroom the operator paid to over-provision."""
        return sum(
            rack.max_spot_w
            for tenant in self.tenants
            for rack in tenant.racks
            if tenant.participates
        )

    def total_guaranteed_w(self) -> float:
        """Facility-wide subscribed capacity."""
        return sum(t.total_guaranteed_w for t in self.tenants)


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _reference_rate(workload: InteractiveWorkload, power_target_w: float) -> float:
    """Arrival rate at which the workload's desired power hits a target.

    Used to calibrate sprinting cost models at a representative
    "needs spot capacity" load.  Monotone bisection over the rate.
    """
    model = workload.latency_model
    lo, hi = 0.0, model.mu_max_rps * 0.98
    for _ in range(50):
        mid = (lo + hi) / 2
        if model.power_for_latency(workload.target_ms, mid) < power_target_w:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


#: Diurnal phase of each sprinting/opportunistic workload class, so the
#: classes peak at different times of day.
_PHASE = {"search": 0.0, "web": 0.35, "wordcount": 0.2, "terasort": 0.5, "graph": 0.7}


def _tenant_from_spec(
    record: dict,
    rack_headroom_fraction: float,
    strategy_factory,
    rng: np.random.Generator,
    slots_per_day: float,
) -> Tenant:
    """Assemble one tenant from its normal-form spec record."""
    if record["workload"] == "tiered":
        return _build_tiered_tenant(record, rack_headroom_fraction, rng, slots_per_day)
    if record["workload"] == "other":
        return _build_other_tenant(record, rng, slots_per_day)
    return _build_participating_tenant(
        record, rack_headroom_fraction, strategy_factory, slots_per_day
    )


def _build_participating_tenant(
    record: dict,
    rack_headroom_fraction: float,
    strategy_factory,
    slots_per_day: float,
) -> Tenant:
    """Assemble one sprinting/opportunistic tenant (one rack, one class)."""
    name, kind = record["name"], record["workload"]
    subscription = record["subscription_w"]
    power_model = ServerPowerModel(
        idle_w=_IDLE_FRACTION * subscription,
        peak_w=_PEAK_FRACTION[kind] * subscription,
    )
    max_spot = rack_headroom_fraction * subscription
    rack_id = f"rack:{name}"
    q_low, q_high, target_marginal = PRICE_ANCHORS[kind]

    if kind in ("search", "web"):
        factory = make_search_workload if kind == "search" else make_web_workload
        workload = factory(
            name, power_model, phase=_PHASE[kind], slots_per_day=slots_per_day
        )
        tenant_rack = TenantRack(
            rack_id=rack_id,
            pdu_id=record["pdu"],
            guaranteed_w=subscription,
            max_spot_w=max_spot,
            power_model=power_model,
            workload=workload,
        )
        reference_power = subscription + 0.5 * tenant_rack.useful_spot_w
        reference_rps = _reference_rate(workload, reference_power)
        cost_model = calibrate_sprinting_cost(
            workload.latency_model,
            guaranteed_w=subscription,
            reference_rps=reference_rps,
            max_spot_w=tenant_rack.useful_spot_w,
            target_marginal_per_kw_hour=target_marginal,
            slo_ms=workload.slo_ms,
        )
        return SprintingTenant(
            tenant_id=name,
            racks=[tenant_rack],
            cost_models={rack_id: cost_model},
            q_low=q_low,
            q_high=q_high,
            strategy=strategy_factory("sprinting"),
        )

    batch_factories = {
        "wordcount": make_wordcount_workload,
        "terasort": make_terasort_workload,
        "graph": make_graph_workload,
    }
    workload = batch_factories[kind](name, power_model)
    tenant_rack = TenantRack(
        rack_id=rack_id,
        pdu_id=record["pdu"],
        guaranteed_w=subscription,
        max_spot_w=max_spot,
        power_model=power_model,
        workload=workload,
    )
    assert isinstance(workload, BatchWorkload)
    cost_model = calibrate_opportunistic_cost(
        workload.throughput_model,
        guaranteed_w=subscription,
        max_spot_w=tenant_rack.useful_spot_w,
        target_marginal_per_kw_hour=target_marginal,
    )
    return OpportunisticTenant(
        tenant_id=name,
        racks=[tenant_rack],
        cost_models={rack_id: cost_model},
        q_low=q_low,
        q_high=q_high,
        strategy=strategy_factory("opportunistic"),
    )


def _build_other_tenant(
    record: dict, rng: np.random.Generator, slots_per_day: float
) -> Tenant:
    """Assemble one non-participating ("Other") tenant group."""
    name, subscription = record["name"], record["subscription_w"]
    if record["volatile"]:
        trace = VolatilePowerTrace(subscription_w=subscription)
    else:
        trace = ColoPowerTrace(
            subscription_w=subscription,
            slots_per_day=slots_per_day,
            phase=float(rng.uniform(0, 1)),
        )
    power_model = ServerPowerModel(idle_w=0.3 * subscription, peak_w=subscription)
    rack = TenantRack(
        rack_id=f"rack:{name}",
        pdu_id=record["pdu"],
        guaranteed_w=subscription,
        max_spot_w=0.0,
        power_model=power_model,
        workload=TracePowerWorkload(name, trace),
    )
    return NonParticipatingTenant(tenant_id=name, racks=[rack])


def _build_tiered_tenant(
    record: dict,
    rack_headroom_fraction: float,
    rng: np.random.Generator,
    slots_per_day: float,
) -> Tenant:
    """Assemble one tiered (bundled multi-rack) sprinting tenant."""
    name, tiers, slo_ms = record["name"], record["tiers"], record["slo_ms"]
    anchors = PRICE_ANCHORS["search"]
    q_low = anchors[0] if record["q_low"] is None else record["q_low"]
    q_high = anchors[1] if record["q_high"] is None else record["q_high"]
    tenant_racks = []
    front_model = None
    target_share = slo_ms * 0.9 / len(tiers)
    for i, tier in enumerate(tiers):
        subscription_w = tier["subscription_w"]
        power = ServerPowerModel(0.45 * subscription_w, 1.25 * subscription_w)
        # Each tier is one stage of the pipeline, not a whole search
        # stack: lighter latency floor and tail so the summed
        # end-to-end latency lands in the SLO regime.
        latency_model = LatencyModel(
            power_model=power,
            mu_max_rps=1.4 * power.dynamic_range_w,
            d_min_ms=10.0,
            alpha=2.0,
            tail_const_ms_rps=2200.0,
        )
        if front_model is None:
            front_model = latency_model
        workload = TierWorkload(
            f"{name}/tier{i}", latency_model, target_ms=target_share
        )
        tenant_racks.append(
            TenantRack(
                rack_id=f"rack:{name}/tier{i}",
                pdu_id=tier["pdu"],
                guaranteed_w=subscription_w,
                max_spot_w=rack_headroom_fraction * subscription_w,
                power_model=power,
                workload=workload,
            )
        )
    trace = GoogleStyleArrivalTrace(
        max_rate_rps=front_model.mu_max_rps,
        base_fraction=0.36,
        diurnal_amplitude=0.11,
        slots_per_day=slots_per_day,
        phase=float(rng.uniform(0, 1)),
    )
    cost_model = calibrate_sprinting_cost(
        front_model,
        guaranteed_w=tiers[0]["subscription_w"],
        reference_rps=0.6 * front_model.mu_max_rps,
        max_spot_w=tenant_racks[0].useful_spot_w,
        target_marginal_per_kw_hour=anchors[2],
        slo_ms=slo_ms,
    )
    return BundledSprintingTenant(
        name,
        tenant_racks,
        arrival_trace=trace,
        cost_model=cost_model,
        q_low=q_low,
        q_high=q_high,
        slo_ms=slo_ms,
    )


def _default_strategy_factory(kind: str) -> BiddingStrategy:
    """SpotDC's default strategy for both tenant classes."""
    return LinearElasticStrategy()


def testbed_scenario(*, strategy_factory=None, **spec_args) -> Scenario:
    """Build the paper's Table I testbed.

    Keyword arguments are those of
    :func:`repro.scenarios.presets.testbed_spec`, which documents them.

    Args:
        strategy_factory: ``kind -> BiddingStrategy`` (kinds
            ``"sprinting"``/``"opportunistic"``); overrides the spec's
            ``strategy`` (default: SpotDC's linear-elastic strategy for
            both).
    """
    from repro.scenarios.loader import build_scenario
    from repro.scenarios.presets import testbed_spec

    return build_scenario(
        testbed_spec(**spec_args), strategy_factory=strategy_factory
    )


def scaled_scenario(groups: int, *, strategy_factory=None, **spec_args) -> Scenario:
    """Build Fig. 18's scaled-up facility of ``groups`` Table I replicas.

    Keyword arguments are those of
    :func:`repro.scenarios.presets.scaled_spec`, which documents them;
    ``strategy_factory`` is as in :func:`testbed_scenario`.
    """
    from repro.scenarios.loader import build_scenario
    from repro.scenarios.presets import scaled_spec

    return build_scenario(
        scaled_spec(groups, **spec_args), strategy_factory=strategy_factory
    )
