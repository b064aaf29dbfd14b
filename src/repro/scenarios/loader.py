"""Assemble a :class:`~repro.sim.scenario.Scenario` from a spec.

The normal-form spec (:func:`repro.scenarios.spec.normalize_spec`) is
the one facility-plan format: presets emit it,
:class:`~repro.sim.builder.ScenarioBuilder` records its calls as it,
and :func:`build_scenario` assembles tenants, topology and
:class:`~repro.sim.scenario.Scenario` straight from it.  With one RNG
stream per tenant in declaration order, a spec-loaded scenario is
*byte-identical* (JSONL trace and all) to the same facility composed
through the builder API or the preset functions with the same seed;
``tests/test_scenarios_equivalence.py`` machine-checks this.

Programmatic objects that plain data cannot carry — a custom
``strategy_factory`` callable, a :class:`FaultProfile` with an explicit
derating schedule, a live :class:`TelemetryConfig` — are passed as
keyword overrides and win over the corresponding spec component.
"""

from __future__ import annotations

import dataclasses

from repro.config import make_rng, spawn_rngs
from repro.errors import ConfigurationError
from repro.events.profile import EventProfile
from repro.forecast.profile import PredictionProfile
from repro.resilience.profile import FaultProfile
from repro.scenarios.spec import (
    dump_spec,
    load_spec_file,
    normalize_spec,
    spec_pdu_ids,
)
from repro.telemetry.config import TelemetryConfig
from repro.units import amortized_capex_per_hour

__all__ = [
    "build_scenario",
    "load_scenario",
    "dump_scenario",
    "event_profile_from_file",
    "events_from_spec",
    "fault_profile_from_spec",
    "prediction_profile_from_spec",
    "telemetry_from_spec",
    "strategy_factory_from_spec",
]


def _linear_elastic(kind):
    from repro.tenants.bidding import LinearElasticStrategy

    return LinearElasticStrategy()


def _simple_needed_power(kind):
    from repro.tenants.bidding import SimpleNeededPowerStrategy

    return SimpleNeededPowerStrategy()


def _step(kind):
    from repro.tenants.bidding import StepStrategy

    return StepStrategy()


def _full_curve(kind):
    from repro.tenants.bidding import FullCurveStrategy

    return FullCurveStrategy()


_STRATEGY_FACTORIES = {
    "linear_elastic": _linear_elastic,
    "simple_needed_power": _simple_needed_power,
    "step": _step,
    "full_curve": _full_curve,
}


def strategy_factory_from_spec(name: str):
    """Resolve a spec strategy name to a ``kind -> BiddingStrategy``."""
    if name == "custom":
        raise ConfigurationError(
            "/demand/strategy: 'custom' requires an explicit "
            "strategy_factory override (callables cannot live in a spec)"
        )
    try:
        return _STRATEGY_FACTORIES[name]
    except KeyError:
        choices = ", ".join(sorted(_STRATEGY_FACTORIES))
        raise ConfigurationError(
            f"/demand/strategy: unknown strategy {name!r} (known: {choices})"
        ) from None


def fault_profile_from_spec(faults) -> "FaultProfile | None":
    """Build the :class:`FaultProfile` a normalised faults component names."""
    if faults is None:
        return None
    if "profile" in faults:
        return FaultProfile(**faults["profile"])
    profile = FaultProfile.named(faults["class"], faults["intensity"])
    if faults["seed"] is not None or faults["crash_at_slot"] is not None:
        profile = dataclasses.replace(
            profile,
            seed=faults["seed"] if faults["seed"] is not None else profile.seed,
            crash_at_slot=(
                faults["crash_at_slot"]
                if faults["crash_at_slot"] is not None
                else profile.crash_at_slot
            ),
        )
    return profile


def prediction_profile_from_spec(prediction) -> "PredictionProfile | None":
    """Build the :class:`PredictionProfile` a normalised component names.

    The all-defaults block (what a spec without a ``prediction``
    component normalises to) maps to ``None``: the engine's own default
    path is the paper's rule, and keeping the scenario field ``None``
    there preserves byte-identical default traces and lets an explicit
    engine ``signal`` override it.
    """
    if prediction is None:
        return None
    profile = PredictionProfile(**prediction)
    if profile == PredictionProfile():
        return None
    return profile


def events_from_spec(events) -> "EventProfile | None":
    """Build the :class:`EventProfile` a normalised component names.

    The all-defaults block (what a spec without an ``events`` component
    normalises to) maps to ``None``: the engine then builds no shock
    absorber at all, preserving byte-identical default traces.
    """
    if events is None:
        return None
    profile = EventProfile.from_spec(events)
    if profile == EventProfile():
        return None
    return profile


def event_profile_from_file(path) -> "EventProfile | None":
    """Load a standalone ``events`` component file (JSON or YAML).

    The file holds just the events block — the same shape as a spec's
    ``events`` component — validated against the scenario schema's
    events sub-schema.  Used by the ``--event-schedule`` CLI flag.
    """
    from repro.scenarios.schema import SCHEMA, validate_instance
    from repro.scenarios.spec import normalize_events, parse_component_file

    raw = parse_component_file(path)
    validate_instance(raw, SCHEMA["properties"]["events"], "/events")
    return events_from_spec(normalize_events(raw))


def telemetry_from_spec(telemetry) -> "TelemetryConfig | None":
    """Build the :class:`TelemetryConfig` a normalised component names."""
    if telemetry is None:
        return None
    return TelemetryConfig(**telemetry)


def build_scenario(
    spec,
    *,
    strategy_factory=None,
    fault_profile=None,
    telemetry=None,
):
    """Assemble a :class:`Scenario` from a (not necessarily normalised) spec.

    The one assembly path behind presets, spec files, and
    :class:`~repro.sim.builder.ScenarioBuilder`: tenants in declaration
    order, each from its own RNG stream spawned from the spec seed (the
    invariant every byte-identical-trace test rests on), then PDUs sized
    from their leases and the UPS from its PDUs.

    Args:
        spec: Scenario spec mapping; validated and normalised first.
        strategy_factory: Override the spec's declared bidding strategy
            with a ``kind -> BiddingStrategy`` callable (required when
            the spec says ``"custom"``).
        fault_profile: Override the spec's faults component with a live
            :class:`FaultProfile` (e.g. one carrying an explicit
            derating schedule).
        telemetry: Override the spec's telemetry component with a live
            :class:`TelemetryConfig`.

    Returns:
        The assembled scenario, carrying its normal-form spec on
        ``scenario.spec`` so :func:`dump_scenario` round-trips.
    """
    from repro.economics.pricing import PriceSheet
    from repro.infrastructure.pdu import Pdu
    from repro.infrastructure.rack import Rack
    from repro.infrastructure.topology import PowerTopology
    from repro.infrastructure.ups import Ups
    from repro.sim.scenario import Scenario, _tenant_from_spec

    normal = normalize_spec(spec)
    factory = strategy_factory or strategy_factory_from_spec(
        normal["demand"]["strategy"]
    )
    slot_seconds = normal["time"]["slot_seconds"]
    records = normal["demand"]["tenants"]
    tenants = [
        _tenant_from_spec(
            record,
            normal["topology"]["rack_headroom_fraction"],
            factory,
            rng,
            24 * 3600 / slot_seconds,
        )
        for record, rng in zip(
            records, spawn_rngs(make_rng(normal["seed"]), len(records))
        )
    ]

    leased_w = dict.fromkeys(spec_pdu_ids(normal), 0.0)
    for record in records:
        for lease in record["tiers"] if record["workload"] == "tiered" else [record]:
            leased_w[lease["pdu"]] += lease["subscription_w"]
    pdus = [
        Pdu(pdu["id"], leased_w[pdu["id"]] / pdu["oversubscription"])
        for pdu in normal["topology"]["pdus"]
        if leased_w[pdu["id"]] > 0
    ]
    ups_capacity = (
        sum(p.capacity_w for p in pdus) / normal["supply"]["ups_oversubscription"]
    )
    racks = [
        Rack(
            rack_id=track.rack_id,
            tenant_id=tenant.tenant_id,
            pdu_id=track.pdu_id,
            guaranteed_w=track.guaranteed_w,
            physical_w=track.guaranteed_w + track.max_spot_w,
        )
        for tenant in tenants
        for track in tenant.racks
    ]
    capex = ups_capacity * normal["supply"]["infrastructure_cost_per_watt"]
    return Scenario(
        topology=PowerTopology.build(Ups("ups:0", ups_capacity), pdus, racks),
        tenants=tenants,
        price_sheet=PriceSheet(),
        slot_seconds=slot_seconds,
        seed=normal["seed"],
        infrastructure_cost_per_hour=amortized_capex_per_hour(capex),
        fault_profile=(
            fault_profile
            if fault_profile is not None
            else fault_profile_from_spec(normal["faults"])
        ),
        telemetry=(
            telemetry
            if telemetry is not None
            else telemetry_from_spec(normal["telemetry"])
        ),
        clearing_deadline_s=normal["recovery"]["clearing_deadline_s"],
        prediction=prediction_profile_from_spec(normal["prediction"]),
        events=events_from_spec(normal["events"]),
        spec=normal,
    )


def load_scenario(path, **overrides):
    """Load a spec file and assemble its scenario.

    Keyword overrides are those of :func:`build_scenario`.
    """
    return build_scenario(load_spec_file(path), **overrides)


def dump_scenario(scenario) -> str:
    """Canonical spec text of a spec-built scenario.

    ``spec → Scenario → spec`` round-trips byte-identically:
    ``dump_scenario(build_scenario(parse_spec_text(text)))`` equals the
    canonical dump of ``text``.  Scenarios assembled before the spec
    layer existed (``scenario.spec is None``) cannot be dumped.
    """
    spec = getattr(scenario, "spec", None)
    if spec is None:
        raise ConfigurationError(
            "scenario carries no spec (assembled outside the spec layer); "
            "build it via repro.scenarios or ScenarioBuilder to dump it"
        )
    return dump_spec(spec)
