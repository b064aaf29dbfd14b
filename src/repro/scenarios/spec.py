"""Scenario-spec normalisation, parsing, and the canonical dumper.

A *spec* is plain data (the shape :mod:`repro.scenarios.schema`
validates).  This module turns arbitrary valid input — hand-written
JSON/YAML, preset emitters, ``ScenarioBuilder.to_spec()`` — into the
*normal form*: every optional field filled with its default, every
number a float (never an int standing in for one), components in a
fixed shape.  The normal form is what round-trips byte-identically:

    ``dump_spec(normalize_spec(x)) == dump_spec(normalize_spec(parse_spec_text(dump_spec(normalize_spec(x)))))``

and more simply ``normalize_spec(dump → parse) == normalize_spec``
(pinned by a Hypothesis property in ``tests/test_scenarios_spec.py``).

YAML support is optional: :func:`parse_spec_text` uses :mod:`yaml` when
installed and raises :class:`ConfigurationError` otherwise, so the core
library never hard-depends on it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pathlib

from repro.config import (
    DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
    DEFAULT_OVERSUBSCRIPTION,
    DEFAULT_SEED,
    DEFAULT_SLOT_SECONDS,
    RACK_HEADROOM_FRACTION,
    SLO_LATENCY_MS,
)
from repro.errors import ConfigurationError
from repro.events.profile import EVENT_TYPES, EventProfile
from repro.events.types import GridEvent
from repro.forecast.profile import PredictionProfile
from repro.resilience.profile import (
    DEFAULT_FAULT_INTENSITY,
    FAULT_CLASSES,
    FaultProfile,
)
from repro.scenarios.schema import (
    CLASSED_WORKLOADS,
    SCHEMA,
    SPEC_VERSION,
    validate_spec,
)
from repro.telemetry.config import TelemetryConfig

__all__ = [
    "component_block",
    "normalize_spec",
    "normalize_events",
    "dump_spec",
    "parse_spec_text",
    "parse_component_file",
    "load_spec_file",
    "spec_pdu_ids",
]

_EVENTS_SCHEMA = SCHEMA["properties"]["events"]
_EVENT_SCHEMA = _EVENTS_SCHEMA["properties"]["schedule"]["items"]

#: The schema node of each dataclass-backed component.
_COMPONENT_SCHEMAS = {
    FaultProfile: SCHEMA["properties"]["faults"]["properties"]["profile"],
    PredictionProfile: SCHEMA["properties"]["prediction"],
    EventProfile: _EVENTS_SCHEMA,
    **dict.fromkeys(EVENT_TYPES.values(), _EVENT_SCHEMA),
    TelemetryConfig: SCHEMA["properties"]["telemetry"],
}


def component_block(cls, values=None) -> dict:
    """One dataclass-backed component as a spec block.

    The block holds the fields of ``cls`` that :data:`SCHEMA` lists for
    the component, so the dataclass is the one home of every default.
    ``values`` is a partial spec block (a field it leaves out takes its
    default), a live ``cls`` instance (its attributes become plain
    data), or ``None`` for the all-defaults block.
    """
    names = _COMPONENT_SCHEMAS[cls]["properties"]
    fields = [f for f in dataclasses.fields(cls) if f.name in names]
    if isinstance(values, cls):
        return {f.name: _plain(getattr(values, f.name)) for f in fields}
    values = values or {}
    return {f.name: values.get(f.name, f.default) for f in fields}


def _plain(value):
    """A live field value as spec data (events, paths, tuples)."""
    if isinstance(value, GridEvent):
        return {"kind": value.kind, **component_block(type(value), value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    return value


def _fail(pointer: str, message: str) -> None:
    raise ConfigurationError(f"{pointer or '/'}: {message}")


def _coerce_numbers(value, schema):
    """Return ``value`` with every schema-``number`` int made a float.

    JSON and YAML render ``120`` and ``120.0`` differently; normalising
    to float keeps the canonical dump byte-stable regardless of how the
    author spelled a number.  Fields typed ``integer`` (seeds, slot
    counts) stay ints.
    """
    types = schema.get("type")
    names = [types] if isinstance(types, str) else list(types or ())
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and "number" in names
        and "integer" not in names
    ):
        return float(value)
    if isinstance(value, dict) and "properties" in schema:
        return {
            key: _coerce_numbers(item, schema["properties"][key])
            if key in schema["properties"]
            else item
            for key, item in value.items()
        }
    if isinstance(value, list) and "items" in schema:
        return [_coerce_numbers(item, schema["items"]) for item in value]
    return value


def _normalize_tenant(tenant: dict, index: int, pdu_ids: set) -> dict:
    """Apply per-workload defaults and cross-field rules to one tenant."""
    pointer = f"/demand/tenants/{index}"
    workload = tenant["workload"]
    out = {"name": tenant["name"], "workload": workload}

    def require(field):
        if tenant.get(field) is None:
            _fail(pointer, f"workload {workload!r} requires field {field!r}")
        return tenant[field]

    def forbid(*fields):
        for field in fields:
            if field in tenant:
                _fail(
                    f"{pointer}/{field}",
                    f"not a valid field for workload {workload!r}",
                )

    if workload == "tiered":
        forbid("subscription_w", "pdu", "volatile")
        out["tiers"] = require("tiers")
        for i, tier in enumerate(out["tiers"]):
            if tier["pdu"] not in pdu_ids:
                _fail(
                    f"{pointer}/tiers/{i}/pdu",
                    f"references undeclared PDU {tier['pdu']!r}",
                )
        q_low, q_high = tenant.get("q_low"), tenant.get("q_high")
        if q_low is not None and q_high is not None and q_high <= q_low:
            _fail(f"{pointer}/q_high", "must be > q_low")
        out["q_low"] = q_low
        out["q_high"] = q_high
        out["slo_ms"] = tenant.get("slo_ms", SLO_LATENCY_MS)
        return out

    forbid("tiers", "q_low", "q_high", "slo_ms")
    out["subscription_w"] = require("subscription_w")
    out["pdu"] = require("pdu")
    if out["pdu"] not in pdu_ids:
        _fail(f"{pointer}/pdu", f"references undeclared PDU {out['pdu']!r}")
    if workload == "other":
        out["volatile"] = tenant.get("volatile", False)
    else:
        assert workload in CLASSED_WORKLOADS
        forbid("volatile")
    return out


def _normalize_faults(faults) -> "dict | None":
    """Normalise the faults component (named or explicit-profile form)."""
    if faults is None:
        return None
    if "profile" in faults and "class" in faults:
        _fail("/faults", "give either 'class' or 'profile', not both")
    if "profile" in faults:
        for key in ("intensity", "seed", "crash_at_slot"):
            if key in faults:
                _fail(
                    f"/faults/{key}",
                    "not a valid field alongside an explicit 'profile'",
                )
        return {"profile": component_block(FaultProfile, faults["profile"])}
    if "class" not in faults:
        _fail("/faults", "missing required field 'class' (or 'profile')")
    name = faults["class"]
    if name not in FAULT_CLASSES:
        choices = ", ".join(map(repr, FAULT_CLASSES))
        _fail("/faults/class", f"must be one of {choices}, got {name!r}")
    return {
        "class": name,
        "intensity": faults.get("intensity", DEFAULT_FAULT_INTENSITY),
        "seed": faults.get("seed"),
        "crash_at_slot": faults.get("crash_at_slot"),
    }


def normalize_events(events) -> dict:
    """Normalise the events component to its fully-defaulted block.

    ``None`` yields the all-defaults block (no events, no coupling) so
    every spec carries the same shape and sweep axes stay valid.
    Schedule entries get their kind's defaults filled in, and fields
    belonging to a different kind are rejected with a pointered error.
    """
    out = component_block(EventProfile, _coerce_numbers(events, _EVENTS_SCHEMA))
    schedule = []
    for i, entry in enumerate(out["schedule"]):
        pointer = f"/events/schedule/{i}"
        kind = entry["kind"]
        cls = EVENT_TYPES[kind]
        accepted = {f.name for f in dataclasses.fields(cls)}
        for field in entry:
            if field != "kind" and field not in accepted:
                _fail(
                    f"{pointer}/{field}",
                    f"not a valid field for event kind {kind!r}",
                )
        normal = {"kind": kind, **component_block(cls, entry)}
        if kind == "derating_cascade":
            terminal = normal["stages"] * normal["fraction_per_stage"]
            if terminal >= 1:
                _fail(
                    f"{pointer}/fraction_per_stage",
                    "terminal cut stages * fraction_per_stage must be < 1, "
                    f"got {terminal}",
                )
        schedule.append(normal)
    out["schedule"] = schedule
    trace = out["wholesale_trace"]
    if trace is not None:
        if not trace:
            _fail("/events/wholesale_trace", "must not be empty")
        out["wholesale_trace"] = [float(v) for v in trace]
    return out


def normalize_spec(raw) -> dict:
    """Validate a spec and return its fully-defaulted normal form.

    Raises :class:`ConfigurationError` (message prefixed with the JSON
    pointer of the offending field) on any shape or cross-field
    violation.  The result is a fresh dict, safe to mutate.
    """
    validate_spec(raw)
    spec = _coerce_numbers(copy.deepcopy(dict(raw)), SCHEMA)

    topology = spec["topology"]
    pdus = []
    pdu_ids: set = set()
    for i, pdu in enumerate(topology["pdus"]):
        if pdu["id"] in pdu_ids:
            _fail(f"/topology/pdus/{i}/id", f"duplicate PDU id {pdu['id']!r}")
        pdu_ids.add(pdu["id"])
        pdus.append(
            {
                "id": pdu["id"],
                "oversubscription": pdu.get(
                    "oversubscription", DEFAULT_OVERSUBSCRIPTION
                ),
            }
        )

    tenants = []
    names: set = set()
    for i, tenant in enumerate(spec["demand"]["tenants"]):
        if tenant["name"] in names:
            _fail(
                f"/demand/tenants/{i}/name",
                f"duplicate tenant name {tenant['name']!r}",
            )
        names.add(tenant["name"])
        tenants.append(_normalize_tenant(tenant, i, pdu_ids))

    supply = spec.get("supply", {})
    recovery = spec.get("recovery", {})
    deadline = recovery.get("clearing_deadline_s")
    if deadline is False:
        _fail("/recovery/clearing_deadline_s", "must be null, true, or > 0")

    telemetry = spec.get("telemetry")
    return {
        "spec_version": SPEC_VERSION,
        "name": spec.get("name", "scenario"),
        "seed": spec.get("seed", DEFAULT_SEED),
        "topology": {
            "pdus": pdus,
            "rack_headroom_fraction": topology.get(
                "rack_headroom_fraction", RACK_HEADROOM_FRACTION
            ),
        },
        "time": {
            "slot_seconds": spec.get("time", {}).get(
                "slot_seconds", DEFAULT_SLOT_SECONDS
            ),
        },
        "demand": {
            "strategy": spec["demand"].get("strategy", "linear_elastic"),
            "tenants": tenants,
        },
        "supply": {
            "ups_oversubscription": supply.get(
                "ups_oversubscription", DEFAULT_OVERSUBSCRIPTION
            ),
            "infrastructure_cost_per_watt": supply.get(
                "infrastructure_cost_per_watt",
                DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
            ),
        },
        "prediction": component_block(PredictionProfile, spec.get("prediction")),
        "events": normalize_events(spec.get("events")),
        "faults": _normalize_faults(spec.get("faults")),
        "telemetry": (
            None
            if telemetry is None
            else component_block(TelemetryConfig, telemetry)
        ),
        "recovery": {"clearing_deadline_s": deadline},
    }


def spec_pdu_ids(spec: dict) -> list:
    """Declared PDU ids of a normalised spec, in declaration order."""
    return [pdu["id"] for pdu in spec["topology"]["pdus"]]


def dump_spec(spec) -> str:
    """Serialise a spec to its canonical byte-deterministic JSON form.

    The spec is normalised first, so any two specs describing the same
    scenario dump to identical bytes: sorted keys, two-space indent,
    trailing newline, every number a float where the schema says number.
    """
    normal = normalize_spec(spec)
    return json.dumps(normal, indent=2, sort_keys=True) + "\n"


def parse_spec_text(text: str, source: str = "<spec>") -> dict:
    """Parse JSON (or YAML, when available) spec text to its normal form.

    JSON is tried first — every canonical dump is JSON — and YAML is the
    fallback for hand-written files.  YAML needs the optional
    :mod:`yaml` dependency; without it, non-JSON input is rejected with
    a clear error rather than a guess.
    """
    return normalize_spec(_parse_mapping(text, source))


def _parse_mapping(text: str, source: str) -> dict:
    """Parse JSON-or-YAML text to a raw (unvalidated) mapping."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        try:
            import yaml
        except ImportError:
            raise ConfigurationError(
                f"{source}: not valid JSON and PyYAML is not installed "
                "(install pyyaml to use YAML specs)"
            ) from None
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{source}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{source}: scenario spec must be a mapping, "
            f"got {type(raw).__name__}"
        )
    return raw


def parse_component_file(path) -> dict:
    """Read one standalone component file to a raw mapping.

    Unlike :func:`load_spec_file` the content is *not* normalised as a
    full scenario spec — the caller validates it against the relevant
    component sub-schema (e.g. the ``--event-schedule`` CLI flag
    validates against the events sub-schema).
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read component file {path}: {exc}"
        ) from exc
    return _parse_mapping(text, source=str(path))


def load_spec_file(path) -> dict:
    """Read and normalise one spec file (``.json``, ``.yaml``/``.yml``)."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path}: {exc}") from exc
    return parse_spec_text(text, source=str(path))
