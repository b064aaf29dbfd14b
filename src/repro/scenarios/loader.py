"""Assemble a :class:`~repro.sim.scenario.Scenario` from a spec.

The loader is deliberately thin: it normalises the spec
(:func:`repro.scenarios.spec.normalize_spec`), replays it onto a
:class:`~repro.sim.builder.ScenarioBuilder` — the single assembly
engine — and runs the builder's internal assembly.  Because the builder
spawns one RNG stream per tenant in declaration order, a spec-loaded
scenario is *byte-identical* (JSONL trace and all) to the same facility
composed through the builder API or the preset functions with the same
seed; ``tests/test_scenarios_equivalence.py`` machine-checks this.

Programmatic objects that plain data cannot carry — a custom
``strategy_factory`` callable, a :class:`FaultProfile` with an explicit
derating schedule, a live :class:`TelemetryConfig` — are passed as
keyword overrides and win over the corresponding spec component.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.events.profile import EventProfile
from repro.forecast.profile import PredictionProfile
from repro.resilience.profile import FaultProfile
from repro.scenarios.spec import dump_spec, load_spec_file, normalize_spec
from repro.telemetry.config import TelemetryConfig

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
    from repro.sim.builder import ScenarioBuilder

    normal = normalize_spec(spec)
    factory = strategy_factory or strategy_factory_from_spec(
        normal["demand"]["strategy"]
    )
    builder = ScenarioBuilder(
        seed=normal["seed"],
        slot_seconds=normal["time"]["slot_seconds"],
        ups_oversubscription=normal["supply"]["ups_oversubscription"],
        rack_headroom_fraction=normal["topology"]["rack_headroom_fraction"],
        infrastructure_cost_per_watt=normal["supply"][
            "infrastructure_cost_per_watt"
        ],
        strategy_factory=factory,
    )
    for pdu in normal["topology"]["pdus"]:
        builder.add_pdu(pdu["id"], oversubscription=pdu["oversubscription"])
    for tenant in normal["demand"]["tenants"]:
        workload = tenant["workload"]
        if workload == "other":
            builder.add_other_group(
                tenant["name"],
                tenant["subscription_w"],
                tenant["pdu"],
                volatile=tenant["volatile"],
            )
        elif workload == "tiered":
            builder.add_tiered_tenant(
                tenant["name"],
                [(tier["subscription_w"], tier["pdu"]) for tier in tenant["tiers"]],
                q_low=tenant["q_low"],
                q_high=tenant["q_high"],
                slo_ms=tenant["slo_ms"],
            )
        else:
            builder._add_classed_tenant(
                tenant["name"], workload, tenant["subscription_w"], tenant["pdu"]
            )
    if fault_profile is not None:
        builder.with_fault_profile(fault_profile)
    else:
        builder.with_fault_profile(fault_profile_from_spec(normal["faults"]))
    if telemetry is not None:
        builder.with_telemetry(telemetry)
    else:
        builder.with_telemetry(telemetry_from_spec(normal["telemetry"]))
    builder.with_prediction(prediction_profile_from_spec(normal["prediction"]))
    builder.with_events(events_from_spec(normal["events"]))
    deadline = normal["recovery"]["clearing_deadline_s"]
    if deadline is not None:
        builder.with_clearing_deadline(deadline)
    builder.with_market_shards(normal["market"]["shards"])

    scenario = builder._assemble_scenario()
    scenario.spec = normal
    return scenario


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
