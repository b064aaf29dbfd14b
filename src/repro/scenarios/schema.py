"""The component-wise scenario-spec schema and its validator.

The schema is *data*: :data:`SCHEMA` describes every component of a
declarative scenario spec (topology, time, demand, supply, prediction,
events, faults, telemetry, recovery) in a small JSON-Schema dialect, and
:func:`validate_spec` walks an instance against it, raising
:class:`~repro.errors.ConfigurationError` whose message begins with the
JSON-pointer path of the first offending field (e.g.
``/demand/tenants/3/subscription_w``).  The same document ships as
package data (``repro/scenarios/schema.json``) so external tooling can
consume it; ``tests/test_scenarios_spec.py`` pins the two in sync.

Supported schema keywords (the subset the spec needs):

``type`` (a name or list of names; ``number`` excludes booleans and
non-finite floats), ``enum``, ``const``, ``minimum`` /
``exclusiveMinimum`` / ``maximum`` / ``exclusiveMaximum``,
``minLength``, ``properties`` /
``required`` / ``additionalProperties`` (boolean), ``items`` /
``minItems``.  Cross-field rules that JSON Schema cannot express
(unique names, PDU references, per-workload required fields) live in
:mod:`repro.scenarios.spec`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.forecast.signals import SIGNAL_NAMES

__all__ = ["SCHEMA", "SPEC_VERSION", "validate_instance", "validate_spec"]

#: Version stamp required in every scenario spec.
SPEC_VERSION = 1

#: Workload classes a flat (single-rack) tenant can declare.
CLASSED_WORKLOADS = ("search", "web", "wordcount", "terasort", "graph")

#: Every workload key the demand component accepts.
ALL_WORKLOADS = CLASSED_WORKLOADS + ("other", "tiered")

#: Named bidding strategies the demand component can select.
STRATEGY_NAMES = (
    "linear_elastic",
    "simple_needed_power",
    "step",
    "full_curve",
    "custom",
)

_POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}
_FRACTION = {"type": "number", "minimum": 0, "maximum": 1}
#: A fraction that must leave something over: [0, 1).
_PARTIAL_FRACTION = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}
#: A cut that must take something and leave something: (0, 1).
_PARTIAL_CUT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}

_TIER = {
    "type": "object",
    "properties": {
        "subscription_w": _POSITIVE_NUMBER,
        "pdu": {"type": "string", "minLength": 1},
    },
    "required": ["subscription_w", "pdu"],
    "additionalProperties": False,
}

#: One tenant record.  ``name`` and ``workload`` are always required;
#: which of the remaining keys are required (and which are forbidden)
#: depends on the workload and is enforced by the normaliser.
_TENANT = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "workload": {"type": "string", "enum": list(ALL_WORKLOADS)},
        "subscription_w": _POSITIVE_NUMBER,
        "pdu": {"type": "string", "minLength": 1},
        "volatile": {"type": "boolean"},
        "tiers": {"type": "array", "items": _TIER, "minItems": 2},
        "q_low": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "q_high": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "slo_ms": _POSITIVE_NUMBER,
    },
    "required": ["name", "workload"],
    "additionalProperties": False,
}

#: Declarative fault component: either a named class
#: (``{"class": "chaos", "intensity": 0.25}``) or an explicit
#: :class:`~repro.resilience.FaultProfile` field bundle under
#: ``"profile"`` — never both (normaliser rule).
_FAULTS = {
    "type": ["object", "null"],
    "properties": {
        "class": {"type": "string", "minLength": 1},
        "intensity": _FRACTION,
        "seed": {"type": ["integer", "null"]},
        "crash_at_slot": {"type": ["integer", "null"], "minimum": 1},
        "profile": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "bid_loss": _FRACTION,
                "grant_loss": _FRACTION,
                "burst_enter": _FRACTION,
                "burst_exit": _FRACTION,
                "burst_loss": _FRACTION,
                "delay_probability": _FRACTION,
                "delay_slots": {"type": "integer", "minimum": 1},
                "meter_stuck": _FRACTION,
                "meter_dropout": _FRACTION,
                "meter_noise_sigma": {"type": "number", "minimum": 0},
                "meter_episode_slots": {"type": "integer", "minimum": 1},
                "derating_rate": _FRACTION,
                "derating_fraction": _FRACTION,
                "derating_slots": {"type": "integer", "minimum": 1},
                "duplicate_probability": _FRACTION,
                "crash_at_slot": {"type": ["integer", "null"], "minimum": 1},
                "seed": {"type": ["integer", "null"]},
            },
            "required": [],
            "additionalProperties": False,
        },
    },
    "required": [],
    "additionalProperties": False,
}

#: Declarative prediction component (repro.forecast): which signal
#: forecasts spot capacity, how conservative it is, and the overcommit
#: quantile the release policy sells at.  Always normalised to a fully
#: defaulted block so sweep axes like ``prediction.risk_quantile`` are
#: one-line dotted paths.
_PREDICTION = {
    "type": ["object", "null"],
    "properties": {
        "signal": {"type": "string", "enum": list(SIGNAL_NAMES)},
        "under_prediction_factor": {
            "type": "number",
            "exclusiveMinimum": 0,
            "maximum": 1,
        },
        "safety_margin_fraction": _PARTIAL_FRACTION,
        "window": {"type": ["integer", "null"], "minimum": 1},
        "risk_quantile": {
            "type": ["number", "null"],
            "exclusiveMinimum": 0,
            "maximum": 1,
        },
    },
    "required": [],
    "additionalProperties": False,
}

#: Grid-event kinds the events component can schedule.
EVENT_KINDS = ("edr_shock", "price_spike", "derating_cascade")

#: One scheduled grid event.  ``kind`` and ``slot`` are always
#: required; which of the remaining keys are allowed depends on the
#: kind and is enforced by the normaliser.
_EVENT = {
    "type": "object",
    "properties": {
        "kind": {"type": "string", "enum": list(EVENT_KINDS)},
        "slot": {"type": "integer", "minimum": 0},
        "duration_slots": {"type": "integer", "minimum": 1},
        "fraction": _PARTIAL_CUT,
        "unit_id": {"type": ["string", "null"], "minLength": 1},
        "reserve_price": {"type": ["number", "null"], "minimum": 0},
        "stages": {"type": "integer", "minimum": 1},
        "stage_slots": {"type": "integer", "minimum": 1},
        "fraction_per_stage": {
            "type": "number",
            "exclusiveMinimum": 0,
            "maximum": 1,
        },
    },
    "required": ["kind", "slot"],
    "additionalProperties": False,
}

#: Declarative grid-event component (repro.events): a manual schedule
#: of typed events, an optional seeded EDR arrival process, and an
#: optional wholesale price trace for reserve-price coupling.  Always
#: normalised to a fully defaulted block so sweep axes like
#: ``events.rate`` are one-line dotted paths.
_EVENTS = {
    "type": ["object", "null"],
    "properties": {
        "schedule": {"type": "array", "items": _EVENT},
        "seed": {"type": ["integer", "null"]},
        "rate": _PARTIAL_FRACTION,
        "shock_fraction": _PARTIAL_CUT,
        "shock_duration_slots": {"type": "integer", "minimum": 1},
        "compliance_slots": {"type": "integer", "minimum": 1},
        "price_coupling": {"type": "number", "minimum": 0},
        "reserve_uplift": {"type": "number", "minimum": 0},
        "wholesale_trace": {
            "type": ["array", "null"],
            "items": {"type": "number", "minimum": 0},
        },
    },
    "required": [],
    "additionalProperties": False,
}

_TELEMETRY = {
    "type": ["object", "null"],
    "properties": {
        "enabled": {"type": "boolean"},
        "out_dir": {"type": ["string", "null"]},
        "label": {"type": "string"},
        "export_trace": {"type": "boolean"},
        "export_metrics": {"type": "boolean"},
        "export_summary": {"type": "boolean"},
        "include_timings": {"type": "boolean"},
    },
    "required": [],
    "additionalProperties": False,
}

#: The scenario-spec schema, component by component.
SCHEMA = {
    "type": "object",
    "properties": {
        "spec_version": {"const": SPEC_VERSION},
        "name": {"type": "string", "minLength": 1},
        "seed": {"type": "integer"},
        "topology": {
            "type": "object",
            "properties": {
                "pdus": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "id": {"type": "string", "minLength": 1},
                            "oversubscription": {"type": "number", "minimum": 1},
                        },
                        "required": ["id"],
                        "additionalProperties": False,
                    },
                },
                "rack_headroom_fraction": _POSITIVE_NUMBER,
            },
            "required": ["pdus"],
            "additionalProperties": False,
        },
        "time": {
            "type": "object",
            "properties": {"slot_seconds": _POSITIVE_NUMBER},
            "required": [],
            "additionalProperties": False,
        },
        "demand": {
            "type": "object",
            "properties": {
                "strategy": {"type": "string", "enum": list(STRATEGY_NAMES)},
                "tenants": {"type": "array", "items": _TENANT, "minItems": 1},
            },
            "required": ["tenants"],
            "additionalProperties": False,
        },
        "supply": {
            "type": "object",
            "properties": {
                "ups_oversubscription": {"type": "number", "minimum": 1},
                "infrastructure_cost_per_watt": {"type": "number", "minimum": 0},
            },
            "required": [],
            "additionalProperties": False,
        },
        "prediction": _PREDICTION,
        "events": _EVENTS,
        "faults": _FAULTS,
        "telemetry": _TELEMETRY,
        "recovery": {
            "type": "object",
            "properties": {
                "clearing_deadline_s": {
                    "type": ["number", "boolean", "null"],
                    "exclusiveMinimum": 0,
                },
            },
            "required": [],
            "additionalProperties": False,
        },
    },
    "required": ["spec_version", "topology", "demand"],
    "additionalProperties": False,
}


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, Sequence) and not isinstance(v, (str, bytes)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    ),
}


def _fail(pointer: str, message: str) -> None:
    raise ConfigurationError(f"{pointer or '/'}: {message}")


def _type_ok(value, type_names) -> bool:
    names = [type_names] if isinstance(type_names, str) else list(type_names)
    return any(_TYPE_CHECKS[name](value) for name in names)


def validate_instance(value, schema: Mapping, pointer: str = "") -> None:
    """Validate one value against a schema node.

    Raises :class:`ConfigurationError` with a JSON-pointer-prefixed
    message on the first violation; returns ``None`` on success.
    """
    if "const" in schema:
        if value != schema["const"]:
            _fail(pointer, f"must be {schema['const']!r}, got {value!r}")
        return
    type_names = schema.get("type")
    if type_names is not None and not _type_ok(value, type_names):
        names = [type_names] if isinstance(type_names, str) else list(type_names)
        kind = " or ".join(names)
        _fail(pointer, f"must be of type {kind}, got {value!r}")
    if value is None:
        return  # a permitted null ends the check — bounds don't apply
    if "enum" in schema and isinstance(value, str):
        if value not in schema["enum"]:
            choices = ", ".join(map(repr, schema["enum"]))
            _fail(pointer, f"must be one of {choices}, got {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            _fail(pointer, f"must be >= {schema['minimum']}, got {value!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            _fail(pointer, f"must be > {schema['exclusiveMinimum']}, got {value!r}")
        if "maximum" in schema and value > schema["maximum"]:
            _fail(pointer, f"must be <= {schema['maximum']}, got {value!r}")
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            _fail(pointer, f"must be < {schema['exclusiveMaximum']}, got {value!r}")
    if isinstance(value, str) and "minLength" in schema:
        if len(value) < schema["minLength"]:
            _fail(pointer, "must be a non-empty string")
    if isinstance(value, Mapping) and "properties" in schema:
        for key in schema.get("required", ()):
            if key not in value:
                _fail(pointer, f"missing required field {key!r}")
        properties = schema["properties"]
        for key, item in value.items():
            if not isinstance(key, str):
                _fail(pointer, f"non-string key {key!r}")
            if key in properties:
                validate_instance(item, properties[key], f"{pointer}/{key}")
            elif not schema.get("additionalProperties", True):
                known = ", ".join(sorted(properties))
                _fail(f"{pointer}/{key}", f"unknown field (known: {known})")
    if _TYPE_CHECKS["array"](value) and not isinstance(value, Mapping):
        if "minItems" in schema and len(value) < schema["minItems"]:
            _fail(
                pointer,
                f"needs at least {schema['minItems']} item(s), got {len(value)}",
            )
        if "items" in schema:
            for i, item in enumerate(value):
                validate_instance(item, schema["items"], f"{pointer}/{i}")


def validate_spec(spec) -> None:
    """Validate one scenario spec against :data:`SCHEMA` (shape only).

    Use :func:`repro.scenarios.spec.normalize_spec` for the full check —
    it applies defaults first and then enforces the cross-field rules
    the schema cannot express.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"scenario spec must be a mapping, got {type(spec).__name__}"
        )
    validate_instance(spec, SCHEMA, "")
