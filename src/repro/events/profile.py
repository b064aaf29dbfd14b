"""The ``events`` scenario component: declarative grid-event schedules.

An :class:`EventProfile` is the frozen, spec-round-trippable
description of a horizon's exogenous grid events — a manual schedule
of typed events, an optional seeded arrival process that draws extra
EDR shocks, and an optional wholesale price trace for reserve-price
coupling.  ``build_schedule`` materialises it into an immutable
:class:`~repro.events.types.EventSchedule` once before slot 0, so the
same profile + seed always replays the same events (crash/resume
byte-identity rests on this).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.events.types import (
    DeratingCascade,
    EdrShock,
    EventSchedule,
    GridEvent,
    PriceSpike,
)

__all__ = ["EVENT_TYPES", "EventProfile"]

#: Sub-stream tag so the arrival process never shares a stream with
#: tenant workloads or fault channels seeded from the same scenario seed.
_ARRIVAL_STREAM = 104729

#: Event constructors by spec ``kind``.
EVENT_TYPES = {
    "edr_shock": EdrShock,
    "price_spike": PriceSpike,
    "derating_cascade": DeratingCascade,
}


@dataclasses.dataclass(frozen=True)
class EventProfile:
    """Declarative grid-event plan for a scenario.

    Attributes:
        schedule: Manually placed typed events.
        seed: Seed for the arrival process; ``None`` derives it from
            the scenario seed (same scenario → same storm).
        rate: Per-slot probability of a random EDR shock arriving
            (0 disables the arrival process).
        shock_fraction: Capacity cut of randomly arriving shocks.
        shock_duration_slots: Window length of randomly arriving shocks.
        compliance_slots: K — slots after onset within which the
            facility draw must be back under the shocked capacity
            (invariant 2; the absorber's compliance deadline).
        price_coupling: Multiplier from wholesale price to reserve
            price when tracking a trace.
        reserve_uplift: Reserve-price uplift ($/kWh at full severity)
            the absorber's first rung applies during capacity events —
            scaled by the deepest active cut.
        wholesale_trace: Optional per-slot wholesale price trace.
    """

    schedule: tuple[GridEvent, ...] = ()
    seed: int | None = None
    rate: float = 0.0
    shock_fraction: float = 0.3
    shock_duration_slots: int = 12
    compliance_slots: int = 3
    price_coupling: float = 1.0
    reserve_uplift: float = 0.0
    wholesale_trace: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if self.wholesale_trace is not None:
            object.__setattr__(
                self, "wholesale_trace", tuple(self.wholesale_trace)
            )
        if not 0.0 <= self.rate < 1.0:
            raise ConfigurationError(
                f"events rate must be in [0, 1), got {self.rate}"
            )
        if not 0.0 < self.shock_fraction < 1.0:
            raise ConfigurationError(
                "events shock_fraction must be in (0, 1), "
                f"got {self.shock_fraction}"
            )
        if self.shock_duration_slots < 1:
            raise ConfigurationError(
                "events shock_duration_slots must be >= 1, "
                f"got {self.shock_duration_slots}"
            )
        if self.compliance_slots < 1:
            raise ConfigurationError(
                f"events compliance_slots must be >= 1, got {self.compliance_slots}"
            )
        if self.price_coupling < 0.0:
            raise ConfigurationError(
                f"events price_coupling must be >= 0, got {self.price_coupling}"
            )
        if self.reserve_uplift < 0.0:
            raise ConfigurationError(
                f"events reserve_uplift must be >= 0, got {self.reserve_uplift}"
            )
        for event in self.schedule:
            if not isinstance(event, GridEvent):
                raise ConfigurationError(
                    f"events schedule entries must be GridEvents, got {event!r}"
                )

    def build_schedule(self, scenario_seed: int, slots: int) -> EventSchedule:
        """Materialise the horizon's events, deterministically.

        Manual events are kept as placed; when ``rate`` is positive a
        seeded arrival process draws additional EDR shocks (at most one
        in flight at a time) over slots ``1..slots-1``.
        """
        events = list(self.schedule)
        if self.rate > 0.0:
            seed = self.seed if self.seed is not None else scenario_seed
            rng = np.random.default_rng([int(seed), _ARRIVAL_STREAM])
            busy_until = 0
            for slot in range(1, slots):
                if slot < busy_until:
                    continue
                if rng.random() < self.rate:
                    events.append(
                        EdrShock(
                            slot=slot,
                            duration_slots=self.shock_duration_slots,
                            fraction=self.shock_fraction,
                        )
                    )
                    busy_until = slot + self.shock_duration_slots + 1
        events.sort(key=lambda e: (e.slot, e.kind))
        return EventSchedule(
            events=tuple(events),
            wholesale_trace=self.wholesale_trace,
            price_coupling=self.price_coupling,
        )

    @classmethod
    def from_spec(cls, block: dict) -> "EventProfile":
        """Build a profile from an ``events`` spec block.

        Fields the block leaves out keep their dataclass defaults.
        """
        schedule = []
        for entry in block.get("schedule") or ():
            fields = dict(entry)
            kind = fields.pop("kind", None)
            factory = EVENT_TYPES.get(kind)
            if factory is None:
                raise ConfigurationError(
                    f"unknown event kind {kind!r}; expected one of "
                    f"{sorted(EVENT_TYPES)}"
                )
            try:
                schedule.append(factory(**fields))
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid {kind} event fields {sorted(fields)}: {exc}"
                ) from exc
        return cls(**{**block, "schedule": tuple(schedule)})

    def to_spec(self) -> dict:
        """The profile as a plain ``events`` spec block (round-trips)."""
        from repro.scenarios.spec import component_block

        return component_block(EventProfile, self)
