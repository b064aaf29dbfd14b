"""Fluent builder for custom facilities.

:func:`repro.sim.scenario.testbed_scenario` encodes the paper's Table I;
:class:`ScenarioBuilder` is for everything else — downstream users
composing their own facility: arbitrary PDUs, any mix of sprinting /
opportunistic / tiered / non-participating tenants, custom subscriptions
and price anchors, replayed traces.

Example::

    scenario = (
        ScenarioBuilder(seed=7)
        .add_pdu("row-a", oversubscription=1.05)
        .add_search_tenant("search", 200.0, "row-a")
        .add_wordcount_tenant("batch", 150.0, "row-a")
        .add_other_group("colo", 400.0, "row-a")
        .build()
    )
    result = run_simulation(scenario, slots=2000)
"""

from __future__ import annotations

from repro.config import (
    DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
    DEFAULT_OVERSUBSCRIPTION,
    DEFAULT_SEED,
    DEFAULT_SLOT_SECONDS,
    RACK_HEADROOM_FRACTION,
    SLO_LATENCY_MS,
)
from repro.errors import ConfigurationError
from repro.resilience.profile import FaultProfile
from repro.scenarios.schema import SPEC_VERSION
from repro.scenarios.spec import component_block, normalize_spec, spec_pdu_ids
from repro.sim.scenario import Scenario, _default_strategy_factory
from repro.telemetry.config import TelemetryConfig

__all__ = ["ScenarioBuilder"]


class ScenarioBuilder:
    """Compose a custom facility tenant by tenant.

    Every call is recorded as scenario-spec data (:meth:`to_spec`);
    :meth:`build` hands that spec to
    :func:`repro.scenarios.loader.build_scenario`, the one assembly path.

    Args:
        seed: Master seed for every stochastic component.
        slot_seconds: Market slot length.
        ups_oversubscription: Facility-level oversubscription ratio.
        rack_headroom_fraction: Rack PDU over-provisioning above each
            subscription.
        infrastructure_cost_per_watt: Shared-infrastructure capex for
            the operator's profit accounting.
        strategy_factory: ``kind -> BiddingStrategy``; defaults to the
            SpotDC linear-elastic strategy.
    """

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        slot_seconds: float = DEFAULT_SLOT_SECONDS,
        ups_oversubscription: float = DEFAULT_OVERSUBSCRIPTION,
        rack_headroom_fraction: float = RACK_HEADROOM_FRACTION,
        infrastructure_cost_per_watt: float = DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
        strategy_factory=None,
    ) -> None:
        if ups_oversubscription < 1:
            raise ConfigurationError("ups_oversubscription must be >= 1")
        self.strategy_factory = strategy_factory or _default_strategy_factory
        # Live objects data cannot fully carry; build() passes them on.
        self._fault_profile = None
        self._telemetry = None
        self._spec = {
            "spec_version": SPEC_VERSION,
            "name": "builder",
            "seed": seed,
            "topology": {
                "pdus": [],
                "rack_headroom_fraction": rack_headroom_fraction,
            },
            "time": {"slot_seconds": slot_seconds},
            "demand": {
                "strategy": (
                    "linear_elastic"
                    if self.strategy_factory is _default_strategy_factory
                    else "custom"
                ),
                "tenants": [],
            },
            "supply": {
                "ups_oversubscription": ups_oversubscription,
                "infrastructure_cost_per_watt": infrastructure_cost_per_watt,
            },
        }

    def with_fault_profile(self, profile) -> "ScenarioBuilder":
        """Attach a :class:`repro.resilience.FaultProfile` to the run.

        The engine builds the fault injector from it automatically; the
        profile's own seed (or else the builder's seed) keys the fault
        streams, so identical seeds reproduce identical fault traces.
        A profile with an explicit derating schedule is left out of
        :meth:`to_spec` (data cannot carry it) but still reaches the
        scenario.
        """
        self._fault_profile = profile
        self._spec["faults"] = (
            None
            if profile is None or profile.derating_events
            else {"profile": component_block(FaultProfile, profile)}
        )
        return self

    def with_telemetry(self, config) -> "ScenarioBuilder":
        """Attach a :class:`repro.telemetry.TelemetryConfig` to the run.

        Every engine built from the resulting scenario records the
        per-slot span trace and metrics, and (when the config names an
        ``out_dir``) exports the JSONL / Prometheus / summary artifacts.
        """
        self._telemetry = config
        self._spec["telemetry"] = (
            None if config is None else component_block(TelemetryConfig, config)
        )
        return self

    # ------------------------------------------------------------------
    # Facility structure
    # ------------------------------------------------------------------

    def add_pdu(
        self, pdu_id: str, oversubscription: float = DEFAULT_OVERSUBSCRIPTION
    ) -> "ScenarioBuilder":
        """Declare a cluster PDU; capacity is derived from the tenants
        attached to it (leased / oversubscription)."""
        if pdu_id in spec_pdu_ids(self._spec):
            raise ConfigurationError(f"duplicate PDU {pdu_id!r}")
        if oversubscription < 1:
            raise ConfigurationError("oversubscription must be >= 1")
        self._spec["topology"]["pdus"].append(
            {"id": pdu_id, "oversubscription": oversubscription}
        )
        return self

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    def _add_tenant(self, record: dict, leases) -> "ScenarioBuilder":
        """Record one tenant after checking its name and its
        ``(subscription_w, pdu_id)`` leases."""
        name = record["name"]
        tenants = self._spec["demand"]["tenants"]
        if any(tenant["name"] == name for tenant in tenants):
            raise ConfigurationError(f"duplicate tenant name {name!r}")
        declared = spec_pdu_ids(self._spec)
        for subscription_w, pdu_id in leases:
            if pdu_id not in declared:
                raise ConfigurationError(
                    f"tenant {name!r} references undeclared PDU {pdu_id!r}"
                )
            if subscription_w <= 0:
                raise ConfigurationError("subscription_w must be positive")
        tenants.append(record)
        return self

    def _add_rack_tenant(
        self, name, workload, subscription_w, pdu_id, **fields
    ) -> "ScenarioBuilder":
        record = {
            "name": name,
            "workload": workload,
            "subscription_w": subscription_w,
            "pdu": pdu_id,
            **fields,
        }
        return self._add_tenant(record, [(subscription_w, pdu_id)])

    def add_search_tenant(self, name, subscription_w, pdu_id):
        """A sprinting tenant running the web-search workload."""
        return self._add_rack_tenant(name, "search", subscription_w, pdu_id)

    def add_web_tenant(self, name, subscription_w, pdu_id):
        """A sprinting tenant running the web-serving workload."""
        return self._add_rack_tenant(name, "web", subscription_w, pdu_id)

    def add_wordcount_tenant(self, name, subscription_w, pdu_id):
        """An opportunistic tenant running Hadoop WordCount."""
        return self._add_rack_tenant(name, "wordcount", subscription_w, pdu_id)

    def add_terasort_tenant(self, name, subscription_w, pdu_id):
        """An opportunistic tenant running Hadoop TeraSort."""
        return self._add_rack_tenant(name, "terasort", subscription_w, pdu_id)

    def add_graph_tenant(self, name, subscription_w, pdu_id):
        """An opportunistic tenant running graph analytics."""
        return self._add_rack_tenant(name, "graph", subscription_w, pdu_id)

    def add_other_group(
        self, name, subscription_w, pdu_id, volatile: bool = False
    ) -> "ScenarioBuilder":
        """A non-participating tenant group replaying a colo power trace."""
        return self._add_rack_tenant(
            name, "other", subscription_w, pdu_id, volatile=volatile
        )

    def add_tiered_tenant(
        self,
        name: str,
        tiers: list[tuple[float, str]],
        q_low: float | None = None,
        q_high: float | None = None,
        slo_ms: float = SLO_LATENCY_MS,
    ) -> "ScenarioBuilder":
        """A sprinting tenant whose racks form one tiered service.

        Implements the paper's bundled multi-rack bidding (§III-B3,
        Fig. 4): all tiers see the same request stream, end-to-end
        latency is the sum of tier latencies, and the bid is a joint
        demand vector between two shared price anchors.

        Args:
            name: Tenant name.
            tiers: ``(subscription_w, pdu_id)`` per tier, front to back.
            q_low: Shared low price anchor (default: search class).
            q_high: Shared maximum acceptable price.
            slo_ms: End-to-end latency SLO.
        """
        if len(tiers) < 2:
            raise ConfigurationError("a tiered tenant needs >= 2 tiers")
        record = {
            "name": name,
            "workload": "tiered",
            "tiers": [{"subscription_w": w, "pdu": p} for w, p in tiers],
            "q_low": q_low,
            "q_high": q_high,
            "slo_ms": slo_ms,
        }
        return self._add_tenant(record, tiers)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def to_spec(self) -> dict:
        """This facility as a normal-form declarative scenario spec.

        ``"custom"`` stands in for a non-default ``strategy_factory``,
        and a fault profile with an explicit derating schedule is left
        out; :meth:`build` passes those live objects on, so behaviour is
        exact even where the spec form is lossy.
        """
        return normalize_spec(self._spec)

    def build(self) -> Scenario:
        """Assemble the scenario (validates the full facility).

        Spec validation (schema ``minItems`` on PDUs and tenants)
        supplies the empty-facility errors.
        """
        from repro.scenarios.loader import build_scenario

        return build_scenario(
            self._spec,
            strategy_factory=self.strategy_factory,
            fault_profile=self._fault_profile,
            telemetry=self._telemetry,
        )
