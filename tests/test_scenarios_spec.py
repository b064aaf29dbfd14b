"""Scenario-spec schema, normalisation, fault forms, and round-trips."""

import dataclasses
import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.schema as schema_module
from repro.config import DEFAULT_SEED, DEFAULT_SLOT_SECONDS
from repro.errors import ConfigurationError
from repro.events import DeratingCascade, EdrShock, EventProfile, PriceSpike
from repro.forecast import SIGNAL_NAMES, PredictionProfile
from repro.resilience import FaultProfile
# Aliased: pytest would otherwise collect names starting with "test".
from repro.scenarios import (
    SCHEMA,
    dump_spec,
    fault_profile_from_spec,
    normalize_spec,
    parse_spec_text,
    prediction_profile_from_spec,
    preset_spec,
    scaled_spec,
    telemetry_from_spec,
)
from repro.scenarios import testbed_spec as make_testbed_spec
from repro.telemetry import TelemetryConfig


def minimal_spec() -> dict:
    return {
        "spec_version": 1,
        "topology": {"pdus": [{"id": "p0"}]},
        "demand": {
            "tenants": [
                {
                    "name": "t",
                    "workload": "web",
                    "subscription_w": 100.0,
                    "pdu": "p0",
                }
            ]
        },
    }


def _first_event(normal: dict):
    return EventProfile.from_spec(normal["events"]).schedule[0]


def _event_block(kind: str) -> dict:
    return {"events": {"schedule": [{"kind": kind, "slot": 0}]}}


#: component -> (spec block with the component empty, loader of the
#: normal form, the dataclass's default instance).
_EMPTY_BLOCKS = {
    "faults.profile": (
        {"faults": {"profile": {}}},
        lambda normal: fault_profile_from_spec(normal["faults"]),
        FaultProfile(),
    ),
    "prediction": (
        {"prediction": {}},
        lambda normal: PredictionProfile(**normal["prediction"]),
        PredictionProfile(),
    ),
    "events": (
        {"events": {}},
        lambda normal: EventProfile.from_spec(normal["events"]),
        EventProfile(),
    ),
    "events.edr_shock": (_event_block("edr_shock"), _first_event, EdrShock(slot=0)),
    "events.price_spike": (
        _event_block("price_spike"),
        _first_event,
        PriceSpike(slot=0),
    ),
    "events.derating_cascade": (
        _event_block("derating_cascade"),
        _first_event,
        DeratingCascade(slot=0),
    ),
    "telemetry": (
        {"telemetry": {}},
        lambda normal: telemetry_from_spec(normal["telemetry"]),
        TelemetryConfig(),
    ),
}


class TestSchema:
    def test_schema_json_file_pinned_to_schema(self):
        # The packaged schema file must stay byte-equivalent to the
        # in-code schema — external tools validate against the file.
        path = pathlib.Path(schema_module.__file__).with_name("schema.json")
        assert json.loads(path.read_text()) == SCHEMA
        assert path.read_text() == json.dumps(SCHEMA, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("component", sorted(_EMPTY_BLOCKS))
    def test_empty_component_loads_dataclass_defaults(self, component):
        # The component dataclass is the one home of every default: an
        # empty block must normalise and load to its default instance.
        block, load, expected = _EMPTY_BLOCKS[component]
        assert load(normalize_spec({**minimal_spec(), **block})) == expected

    @pytest.mark.parametrize(
        "pointer, block",
        [
            (
                "/prediction/safety_margin_fraction",
                {"prediction": {"safety_margin_fraction": 1.0}},
            ),
            ("/events/rate", {"events": {"rate": 1.0}}),
            ("/events/shock_fraction", {"events": {"shock_fraction": 1.0}}),
            (
                "/events/schedule/0/fraction",
                {
                    "events": {
                        "schedule": [
                            {"kind": "edr_shock", "slot": 1, "fraction": 1.0}
                        ]
                    }
                },
            ),
            (
                "/faults/crash_at_slot",
                {"faults": {"class": "comm", "crash_at_slot": 0}},
            ),
            (
                "/faults/profile/crash_at_slot",
                {"faults": {"profile": {"crash_at_slot": 0}}},
            ),
        ],
        ids=[
            "safety_margin_fraction",
            "events_rate",
            "events_shock_fraction",
            "edr_shock_fraction",
            "faults_crash_at_slot",
            "profile_crash_at_slot",
        ],
    )
    def test_unrunnable_bound_rejected(self, pointer, block):
        # A full margin, rate or cut leaves nothing to sell, and slot 0
        # has no market to crash: the schema rejects what can never run.
        with pytest.raises(ConfigurationError, match=pointer):
            normalize_spec({**minimal_spec(), **block})

    def test_missing_required_field_has_root_pointer(self):
        spec = minimal_spec()
        del spec["spec_version"]
        with pytest.raises(ConfigurationError, match="spec_version"):
            normalize_spec(spec)

    def test_bad_tenant_field_has_json_pointer(self):
        spec = minimal_spec()
        spec["demand"]["tenants"][0]["subscription_w"] = -5.0
        with pytest.raises(
            ConfigurationError, match="/demand/tenants/0/subscription_w"
        ):
            normalize_spec(spec)

    def test_unknown_workload_has_json_pointer(self):
        spec = minimal_spec()
        spec["demand"]["tenants"][0]["workload"] = "mining"
        with pytest.raises(
            ConfigurationError, match="/demand/tenants/0/workload"
        ):
            normalize_spec(spec)

    def test_unknown_top_level_key_rejected(self):
        # ``market`` held the removed per-PDU clearing shard count.
        for key, value in (("frobnicate", True), ("market", {"shards": 1})):
            spec = {**minimal_spec(), key: value}
            with pytest.raises(ConfigurationError, match=key):
                normalize_spec(spec)

    def test_empty_pdu_list_rejected(self):
        spec = minimal_spec()
        spec["topology"]["pdus"] = []
        with pytest.raises(ConfigurationError, match="/topology/pdus"):
            normalize_spec(spec)

    def test_duplicate_pdu_ids_rejected(self):
        spec = minimal_spec()
        spec["topology"]["pdus"] = [{"id": "p0"}, {"id": "p0"}]
        with pytest.raises(ConfigurationError, match="p0"):
            normalize_spec(spec)

    def test_duplicate_tenant_names_rejected(self):
        spec = minimal_spec()
        spec["demand"]["tenants"].append(dict(spec["demand"]["tenants"][0]))
        with pytest.raises(ConfigurationError, match="'t'"):
            normalize_spec(spec)

    def test_unknown_pdu_reference_rejected(self):
        spec = minimal_spec()
        spec["demand"]["tenants"][0]["pdu"] = "nope"
        with pytest.raises(ConfigurationError, match="nope"):
            normalize_spec(spec)

    def test_tiered_tenant_forbids_subscription(self):
        spec = minimal_spec()
        spec["demand"]["tenants"][0] = {
            "name": "t",
            "workload": "tiered",
            "subscription_w": 100.0,
            "tiers": [
                {"subscription_w": 100.0, "pdu": "p0"},
                {"subscription_w": 50.0, "pdu": "p0"},
            ],
        }
        with pytest.raises(ConfigurationError, match="tiered"):
            normalize_spec(spec)


class TestNormalization:
    def test_defaults_filled(self):
        normal = normalize_spec(minimal_spec())
        assert normal["name"] == "scenario"
        assert normal["seed"] == DEFAULT_SEED
        assert normal["time"]["slot_seconds"] == DEFAULT_SLOT_SECONDS
        assert normal["topology"]["pdus"][0]["oversubscription"] == 1.05
        assert normal["supply"]["ups_oversubscription"] == 1.05
        assert normal["supply"]["infrastructure_cost_per_watt"] == 25.0
        assert normal["demand"]["strategy"] == "linear_elastic"
        assert normal["prediction"] == {
            "signal": "current_draw",
            "under_prediction_factor": 1.0,
            "safety_margin_fraction": 0.025,
            "window": None,
            "risk_quantile": None,
        }
        assert normal["faults"] is None
        assert normal["telemetry"] is None
        assert normal["recovery"]["clearing_deadline_s"] is None

    def test_ints_coerced_to_floats(self):
        spec = minimal_spec()
        spec["time"] = {"slot_seconds": 60}
        normal = normalize_spec(spec)
        assert normal["time"]["slot_seconds"] == 60.0
        assert isinstance(normal["time"]["slot_seconds"], float)

    def test_dump_is_canonical_and_idempotent(self):
        normal = normalize_spec(make_testbed_spec())
        text = dump_spec(normal)
        assert text.endswith("\n")
        assert dump_spec(normalize_spec(json.loads(text))) == text

    def test_preset_registry(self):
        assert preset_spec("testbed") == make_testbed_spec()
        assert preset_spec("scaled", groups=2) == scaled_spec(groups=2)
        with pytest.raises(ConfigurationError, match="unknown scenario preset"):
            preset_spec("warehouse")


class TestFaultForms:
    def test_named_class_form(self):
        faults = normalize_spec(
            {
                **minimal_spec(),
                "faults": {"class": "bursty", "intensity": 0.2, "seed": 5},
            }
        )["faults"]
        profile = fault_profile_from_spec(faults)
        expected = dataclasses.replace(
            FaultProfile.named("bursty", 0.2), seed=5
        )
        assert profile == expected

    def test_profile_form_round_trips_scalars(self):
        faults = normalize_spec(
            {
                **minimal_spec(),
                "faults": {"profile": {"bid_loss": 0.3, "delay_slots": 7}},
            }
        )["faults"]
        profile = fault_profile_from_spec(faults)
        assert profile.bid_loss == 0.3
        assert profile.delay_slots == 7
        assert profile.burst_exit == 0.3  # untouched default

    def test_class_and_profile_together_rejected(self):
        spec = minimal_spec()
        spec["faults"] = {"class": "comm", "profile": {"bid_loss": 0.1}}
        with pytest.raises(ConfigurationError, match="/faults"):
            normalize_spec(spec)

    def test_unknown_class_rejected(self):
        spec = minimal_spec()
        spec["faults"] = {"class": "gremlins"}
        with pytest.raises(ConfigurationError, match="gremlins"):
            normalize_spec(spec)


class TestPredictionComponent:
    def test_unknown_signal_has_json_pointer(self):
        spec = minimal_spec()
        spec["prediction"] = {"signal": "oracle"}
        with pytest.raises(ConfigurationError, match="/prediction/signal"):
            normalize_spec(spec)

    def test_out_of_range_risk_quantile_rejected(self):
        spec = minimal_spec()
        for bad in (0.0, 1.5, -0.1):
            spec["prediction"] = {"risk_quantile": bad}
            with pytest.raises(
                ConfigurationError, match="/prediction/risk_quantile"
            ):
                normalize_spec(spec)

    def test_default_block_loads_to_none(self):
        # The all-defaults block is the engine's own default path;
        # keeping the scenario field None preserves byte-identical
        # default traces.
        normal = normalize_spec(minimal_spec())
        assert prediction_profile_from_spec(normal["prediction"]) is None

    def test_non_default_block_loads_to_profile(self):
        spec = minimal_spec()
        spec["prediction"] = {"signal": "ensemble", "risk_quantile": 0.05}
        normal = normalize_spec(spec)
        profile = prediction_profile_from_spec(normal["prediction"])
        assert profile == PredictionProfile(
            signal="ensemble", risk_quantile=0.05
        )

    def test_scenario_carries_profile(self):
        from repro.scenarios import build_scenario

        spec = minimal_spec()
        spec["prediction"] = {"signal": "rolling_max", "window": 20}
        scenario = build_scenario(spec)
        assert scenario.prediction == PredictionProfile(
            signal="rolling_max", window=20
        )


class TestYaml:
    def test_yaml_parses_to_same_normal_form(self):
        yaml = pytest.importorskip("yaml")
        reference = dump_spec(make_testbed_spec())
        text = yaml.safe_dump(json.loads(reference))
        spec = parse_spec_text(text, source="inline")
        assert dump_spec(normalize_spec(spec)) == reference

    def test_non_mapping_text_reports_source(self):
        with pytest.raises(ConfigurationError, match="inline"):
            parse_spec_text("- 1\n- 2\n", source="inline")


# -- Property: dump(load(spec)) == spec -------------------------------

_prediction_strategy = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {},
        optional={
            "signal": st.sampled_from(SIGNAL_NAMES),
            "under_prediction_factor": st.sampled_from([1.0, 0.85, 0.75]),
            "safety_margin_fraction": st.sampled_from([0.0, 0.025, 0.1]),
            "window": st.one_of(
                st.none(), st.integers(min_value=1, max_value=60)
            ),
            "risk_quantile": st.one_of(
                st.none(), st.sampled_from([0.05, 0.5, 0.95])
            ),
        },
    ),
)


def _with_prediction(spec: dict, prediction) -> dict:
    if prediction is not None:
        spec = {**spec, "prediction": prediction}
    return spec


_spec_strategy = st.builds(
    _with_prediction,
    st.one_of(
        st.builds(
            make_testbed_spec,
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            slot_seconds=st.sampled_from([30.0, 60.0, 120.0, 300.0]),
            volatile_other=st.booleans(),
            pdu_oversubscription=st.floats(
                min_value=1.0, max_value=1.5, allow_nan=False, allow_infinity=False
            ),
        ),
        st.builds(
            scaled_spec,
            groups=st.integers(min_value=1, max_value=3),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            jitter=st.floats(
                min_value=0.0, max_value=0.3, allow_nan=False, allow_infinity=False
            ),
        ),
    ),
    _prediction_strategy,
)


@settings(max_examples=25, deadline=None)
@given(spec=_spec_strategy)
def test_dump_load_round_trip(spec):
    """The tentpole's contract: spec -> text -> spec is the identity."""
    text = dump_spec(spec)
    reloaded = normalize_spec(parse_spec_text(text, source="property"))
    assert reloaded == normalize_spec(spec)
    assert dump_spec(reloaded) == text


class TestScenarioConstructionValidation:
    """Satellite: invalid scalars die at construction, not mid-run."""

    def test_bad_slot_seconds_rejected(self):
        from repro.sim.scenario import testbed_scenario

        scenario = testbed_scenario()
        for bad in (0.0, -60.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="slot_seconds"):
                dataclasses.replace(scenario, slot_seconds=bad)

    def test_bad_infrastructure_cost_rejected(self):
        from repro.sim.scenario import testbed_scenario

        scenario = testbed_scenario()
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(
                ConfigurationError, match="infrastructure_cost_per_hour"
            ):
                dataclasses.replace(scenario, infrastructure_cost_per_hour=bad)

    def test_bad_clearing_deadline_rejected(self):
        from repro.sim.scenario import testbed_scenario

        scenario = testbed_scenario()
        for bad in (False, 0.0, -2.0, math.nan):
            with pytest.raises(
                ConfigurationError, match="clearing_deadline_s"
            ):
                dataclasses.replace(scenario, clearing_deadline_s=bad)

    def test_valid_clearing_deadlines_accepted(self):
        from repro.sim.scenario import testbed_scenario

        scenario = testbed_scenario()
        for ok in (None, True, 5.0):
            replaced = dataclasses.replace(scenario, clearing_deadline_s=ok)
            assert replaced.clearing_deadline_s == ok
