"""Typed exogenous grid events and the schedule that replays them.

The paper's market assumes the operator's usable capacity and reserve
price are static over the horizon.  Real colos face two exogenous
couplings (ROADMAP's market-coupling item): **emergency demand
response** events that slash usable capacity mid-horizon, and
**wholesale electricity prices** that should move the operator's
reserve price.  This module defines the event vocabulary:

* :class:`EdrShock` — a UPS- or PDU-level usable-capacity cut over a
  slot window (an EDR dispatch: "shed X% of load for the next hour").
* :class:`PriceSpike` — the reserve price tracks a wholesale price (a
  fixed level, or a trace sample scaled by the coupling factor) over a
  slot window.
* :class:`DeratingCascade` — staged utility-side capacity decay: the
  cut deepens by ``fraction_per_stage`` every ``stage_slots`` slots.

An :class:`EventSchedule` is an immutable, fully materialised replay of
a horizon's events — built once before slot 0 (deterministic, seedable,
or trace-driven via :class:`~repro.events.profile.EventProfile`) so a
crash/resume replays the remaining event window byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.errors import ConfigurationError

__all__ = [
    "DeratingCascade",
    "EdrShock",
    "EventSchedule",
    "GridEvent",
    "PriceSpike",
    "wholesale_trace_from_file",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclasses.dataclass(frozen=True)
class GridEvent:
    """Base class: an exogenous event over ``[slot, end_slot)``.

    Attributes:
        slot: Onset slot (inclusive).
    """

    slot: int

    #: Machine name used in scenario specs and trace events.
    kind = "grid_event"

    def __post_init__(self) -> None:
        _require(self.slot >= 0, f"event slot must be >= 0, got {self.slot}")

    @property
    def end_slot(self) -> int:
        """First slot *after* the event window (exclusive bound)."""
        raise NotImplementedError

    def capacity_cut(self, slot: int) -> float:
        """Usable-capacity cut fraction in force at ``slot`` (0 = none)."""
        return 0.0

    @property
    def unit_key(self) -> str | None:
        """Target unit: a PDU id, or ``None`` for the facility UPS."""
        return None


@dataclasses.dataclass(frozen=True)
class EdrShock(GridEvent):
    """An emergency-demand-response dispatch: cut usable capacity now.

    Attributes:
        duration_slots: Window length in slots.
        fraction: Capacity cut in (0, 1) — usable capacity becomes
            ``base * (1 - fraction)`` for the window.
        unit_id: Target PDU id, or ``None`` for the facility UPS.
    """

    duration_slots: int = 12
    fraction: float = 0.3
    unit_id: str | None = None

    kind = "edr_shock"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.duration_slots >= 1,
            f"edr_shock duration_slots must be >= 1, got {self.duration_slots}",
        )
        _require(
            0.0 < self.fraction < 1.0,
            f"edr_shock fraction must be in (0, 1), got {self.fraction}",
        )

    @property
    def end_slot(self) -> int:
        return self.slot + self.duration_slots

    def capacity_cut(self, slot: int) -> float:
        if self.slot <= slot < self.end_slot:
            return self.fraction
        return 0.0

    @property
    def unit_key(self) -> str | None:
        return self.unit_id


@dataclasses.dataclass(frozen=True)
class PriceSpike(GridEvent):
    """A wholesale price excursion the reserve price must track.

    Attributes:
        duration_slots: Window length in slots.
        reserve_price: Reserve price ($/kWh) in force for the window.
            ``None`` means "track the schedule's wholesale trace":
            the reserve follows ``price_coupling * trace[slot]``.
    """

    duration_slots: int = 12
    reserve_price: float | None = None

    kind = "price_spike"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.duration_slots >= 1,
            f"price_spike duration_slots must be >= 1, got {self.duration_slots}",
        )
        if self.reserve_price is not None:
            _require(
                self.reserve_price >= 0.0,
                f"price_spike reserve_price must be >= 0, got {self.reserve_price}",
            )

    @property
    def end_slot(self) -> int:
        return self.slot + self.duration_slots


@dataclasses.dataclass(frozen=True)
class DeratingCascade(GridEvent):
    """Staged utility-side capacity decay (a worsening grid emergency).

    The cut starts at ``fraction_per_stage`` and deepens by another
    ``fraction_per_stage`` every ``stage_slots`` slots, ``stages``
    times; the window closes after the last stage and capacity is
    restored in full.

    Attributes:
        stages: Number of decay stages (>= 1).
        stage_slots: Slots per stage (>= 1).
        fraction_per_stage: Cut added at each stage; the terminal cut is
            ``stages * fraction_per_stage`` and must stay below 1.
        unit_id: Target PDU id, or ``None`` for the facility UPS.
    """

    stages: int = 3
    stage_slots: int = 5
    fraction_per_stage: float = 0.1
    unit_id: str | None = None

    kind = "derating_cascade"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.stages >= 1,
            f"derating_cascade stages must be >= 1, got {self.stages}",
        )
        _require(
            self.stage_slots >= 1,
            f"derating_cascade stage_slots must be >= 1, got {self.stage_slots}",
        )
        _require(
            self.fraction_per_stage > 0.0,
            "derating_cascade fraction_per_stage must be > 0, "
            f"got {self.fraction_per_stage}",
        )
        _require(
            self.stages * self.fraction_per_stage < 1.0,
            "derating_cascade terminal cut stages * fraction_per_stage "
            f"must stay below 1, got {self.stages * self.fraction_per_stage}",
        )

    @property
    def end_slot(self) -> int:
        return self.slot + self.stages * self.stage_slots

    def capacity_cut(self, slot: int) -> float:
        if not self.slot <= slot < self.end_slot:
            return 0.0
        stage = 1 + (slot - self.slot) // self.stage_slots
        return min(stage, self.stages) * self.fraction_per_stage

    @property
    def unit_key(self) -> str | None:
        return self.unit_id


@dataclasses.dataclass(frozen=True)
class EventSchedule:
    """A fully materialised, immutable replay of a horizon's events.

    Attributes:
        events: The typed events, sorted by onset slot.
        wholesale_trace: Optional per-slot wholesale price trace
            ($/kWh); slots past the end hold the last value.
        price_coupling: Multiplier from wholesale price to reserve
            price when tracking the trace.
    """

    events: tuple[GridEvent, ...] = ()
    wholesale_trace: tuple[float, ...] | None = None
    price_coupling: float = 1.0

    def __post_init__(self) -> None:
        _require(
            self.price_coupling >= 0.0,
            f"price_coupling must be >= 0, got {self.price_coupling}",
        )
        if self.wholesale_trace is not None:
            _require(
                len(self.wholesale_trace) > 0,
                "wholesale_trace must not be empty",
            )
            for value in self.wholesale_trace:
                _require(
                    value >= 0.0,
                    f"wholesale_trace prices must be >= 0, got {value}",
                )

    def active(self, slot: int) -> tuple[GridEvent, ...]:
        """Events whose window covers ``slot``."""
        return tuple(e for e in self.events if e.slot <= slot < e.end_slot)

    def starting(self, slot: int) -> tuple[GridEvent, ...]:
        """Events whose window opens at ``slot``."""
        return tuple(e for e in self.events if e.slot == slot)

    def ending(self, slot: int) -> tuple[GridEvent, ...]:
        """Events whose window closed at the end of ``slot - 1``."""
        return tuple(e for e in self.events if e.end_slot == slot)

    def capacity_cuts(self, slot: int) -> dict[str | None, float]:
        """Per-unit capacity cuts in force at ``slot``.

        Keys are PDU ids, or ``None`` for the facility UPS; values are
        the deepest cut any active event imposes on that unit.
        """
        cuts: dict[str | None, float] = {}
        for event in self.events:
            fraction = event.capacity_cut(slot)
            if fraction > 0.0:
                key = event.unit_key
                cuts[key] = max(cuts.get(key, 0.0), fraction)
        return cuts

    def trace_price(self, slot: int) -> float | None:
        """Wholesale-coupled reserve price at ``slot`` (trace sample)."""
        trace = self.wholesale_trace
        if trace is None:
            return None
        return self.price_coupling * trace[min(slot, len(trace) - 1)]

    def reserve_price_at(self, slot: int) -> float | None:
        """Reserve price demanded by price events at ``slot``.

        A :class:`PriceSpike` with an explicit level pins the reserve
        there; one with ``reserve_price=None`` tracks the wholesale
        trace.  With a trace but no PriceSpike events at all, the
        reserve tracks the trace over the whole horizon (day-ahead
        coupling).  Returns ``None`` when no price event applies.
        """
        demands = []
        has_spikes = any(isinstance(e, PriceSpike) for e in self.events)
        for event in self.active(slot):
            if not isinstance(event, PriceSpike):
                continue
            if event.reserve_price is not None:
                demands.append(event.reserve_price)
            else:
                tracked = self.trace_price(slot)
                if tracked is not None:
                    demands.append(tracked)
        if not has_spikes:
            tracked = self.trace_price(slot)
            if tracked is not None:
                demands.append(tracked)
        if not demands:
            return None
        return max(demands)


def wholesale_trace_from_file(path: str | pathlib.Path) -> tuple[float, ...]:
    """Load a wholesale price trace ($/kWh per slot) from a file.

    Accepts either a JSON array of numbers or a plain-text file with
    one price per line (blank lines and ``#`` comments ignored).
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read wholesale trace {path}: {exc}"
        ) from exc
    stripped = text.lstrip()
    values: list[float] = []
    if stripped.startswith("["):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"wholesale trace {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, list):
            raise ConfigurationError(
                f"wholesale trace {path} must be a JSON array of numbers"
            )
        raw = payload
    else:
        raw = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                raw.append(line)
    for item in raw:
        try:
            values.append(float(item))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"wholesale trace {path} has a non-numeric entry: {item!r}"
            ) from exc
    if not values:
        raise ConfigurationError(f"wholesale trace {path} is empty")
    trace = tuple(values)
    for value in trace:
        _require(
            value >= 0.0,
            f"wholesale trace {path} has a negative price: {value}",
        )
    return trace
