"""The shock absorber: per-slot resolution of grid events into market action.

Each slot the absorber resolves the schedule's active events through an
escalation ladder, cheapest intervention first:

1. **Raise the reserve price** — wholesale coupling / price spikes pin
   the market's reserve price, and capacity events add a severity-scaled
   uplift; demand that clears below the new reserve simply does not buy.
2. **Tighten the forecast release** — the release quantile shrinks with
   the deepest active cut (risk-aware policies), and the released spot
   watts of shocked units are haircut by their cut fraction.
3. **Revoke spot grants** — the event cut lowers the unit's usable
   ``capacity_w`` *before* enforcement, so the existing
   :class:`~repro.resilience.degradation.DegradationController` revokes
   grants in ascending clearing-value order with credit notes (the
   paper's §III-C ladder), keeping settlement neutral.
4. **Emergency cap** — if revocation alone cannot clear the excursion,
   the controller's ``emergency_cap`` escalation fires; the absorber
   remembers the capped unit and releases **zero** spot there until the
   event window closes.

Every rung de-escalates when the window closes: event capacity cuts are
cleared (restoring pre-event capacity), the reserve price returns to the
scenario's own parameters, and capped-unit warning state is dropped.

The absorber also machine-checks **EDR compliance**: for each capacity
event it tracks how many slots after onset the facility draw first fell
back under the shocked capacity (the compliance lag), and records a
violation when that takes longer than the profile's ``compliance_slots``
deadline.

The absorber lives inside the engine and is pickled into checkpoints
with it, so a crash mid-event resumes with the ladder state — applied
cuts, swapped prices, capped units, open compliance windows — intact.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.events.profile import EventProfile
from repro.events.types import EventSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.forecast.release import RiskAwareReleasePolicy
    from repro.prediction.spot import SpotCapacityForecast

__all__ = ["ShockAbsorber"]

#: Floor for a tightened release quantile (rung 2 never goes to zero
#: outright — zeroing is rung 4's job, per capped unit).
_MIN_QUANTILE = 0.01

#: Histogram buckets for the compliance-lag metric, in slots.
_LAG_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)

#: Draw/capacity slack matching ``EmergencyLog``'s circuit-breaker
#: tolerance: compliance uses the same yardstick as overload detection.
_COMPLIANCE_TOLERANCE = 0.01

#: Internal unit key for the facility UPS (PDUs use their own ids).
_UPS_KEY = None


class ShockAbsorber:
    """Resolves an :class:`EventSchedule` slot by slot (see module docs)."""

    def __init__(self, profile: EventProfile) -> None:
        self.profile = profile
        self.schedule: EventSchedule | None = None
        # Ladder state (all of it checkpoints with the engine).
        self._cuts_in_force: dict[str | None, float] = {}
        self._capped: set[str | None] = set()
        self._base_params = None
        self._price_active = False
        # Compliance tracking (invariant 2).
        self._watches: list[dict] = []
        self._compliance_lags: list[int] = []
        self._violations: list[tuple[int, str]] = []
        # Run counters for the summary / events report.
        self._events_seen = 0
        self._event_slots = 0
        self._shed_watts = 0.0
        self._emergency_caps = 0
        self._max_reserve_price = 0.0
        self._instruments = None

    # ------------------------------------------------------------------
    # Lifecycle

    def prepare(self, scenario_seed: int, slots: int) -> None:
        """Materialise the event schedule for a fresh run (not on resume)."""
        self.schedule = self.profile.build_schedule(scenario_seed, slots)

    def bind_telemetry(self, registry) -> None:
        """Create (or re-acquire, after resume) the ``events_*`` metrics."""
        self._instruments = (
            registry.gauge("events_active"),
            registry.counter("events_shed_watts_total"),
            registry.histogram(
                "events_compliance_lag_slots", buckets=_LAG_BUCKETS
            ),
        )

    # ------------------------------------------------------------------
    # Rung 1 + capacity cuts: top of slot

    def on_slot_start(self, slot: int, topology, allocator, tracer) -> None:
        """Apply this slot's cuts and price demands; de-escalate closed windows."""
        schedule = self.schedule
        if schedule is None:
            return
        for event in schedule.starting(slot):
            self._events_seen += 1
            tracer.event(f"grid_event.start.{event.kind}")
            if event.capacity_cut(event.slot) > 0.0:
                self._watches.append({"onset": slot, "unit": event.unit_key})
        for event in schedule.ending(slot):
            tracer.event(f"grid_event.end.{event.kind}")
        cuts = schedule.capacity_cuts(slot)
        for key, fraction in cuts.items():
            if self._cuts_in_force.get(key) != fraction:
                self._unit(topology, key).apply_event_cut(fraction)
                self._cuts_in_force[key] = fraction
        for key in [k for k in self._cuts_in_force if k not in cuts]:
            # Window closed: restore pre-event capacity and drop the
            # emergency-cap warning state (rung 4 de-escalation).
            self._unit(topology, key).clear_event_cut()
            del self._cuts_in_force[key]
            self._capped.discard(key)
        self._apply_reserve_price(slot, allocator)
        active = schedule.active(slot)
        if active:
            self._event_slots += 1
        if self._instruments is not None:
            self._instruments[0].set(float(len(active)))

    def _apply_reserve_price(self, slot: int, allocator) -> None:
        """Rung 1: pin the reserve price to the event/trace demand."""
        params = getattr(allocator, "params", None)
        if params is None or not hasattr(params, "reserve_price"):
            return  # marketless baseline: nothing to reprice
        if self._base_params is None:
            self._base_params = params
        base = self._base_params
        demands = [base.reserve_price]
        tracked = self.schedule.reserve_price_at(slot)
        if tracked is not None:
            demands.append(tracked)
        severity = self.severity
        if severity > 0.0 and self.profile.reserve_uplift > 0.0:
            demands.append(base.reserve_price + severity * self.profile.reserve_uplift)
        ceiling = base.max_price - base.price_step
        want = min(max(demands), ceiling)
        self._max_reserve_price = max(self._max_reserve_price, want)
        if want != params.reserve_price:
            self._swap_params(allocator, dataclasses.replace(base, reserve_price=want))
            self._price_active = want != base.reserve_price
        elif not self._price_active and params is not base:
            self._swap_params(allocator, base)

    @staticmethod
    def _swap_params(allocator, params) -> None:
        allocator.params = params
        engine = getattr(allocator, "engine", None)
        if engine is not None and hasattr(engine, "params"):
            engine.params = params

    # ------------------------------------------------------------------
    # Rung 2: forecast release tightening

    @property
    def severity(self) -> float:
        """Deepest capacity cut currently in force (0 when calm)."""
        return max(self._cuts_in_force.values(), default=0.0)

    def effective_release_policy(
        self, policy: "RiskAwareReleasePolicy"
    ) -> "RiskAwareReleasePolicy":
        """Tighten a risk-aware release quantile by the active severity."""
        severity = self.severity
        if severity <= 0.0 or policy.risk_quantile is None:
            return policy
        tightened = max(_MIN_QUANTILE, policy.risk_quantile * (1.0 - severity))
        return dataclasses.replace(policy, risk_quantile=tightened)

    def adjust_release(
        self, forecast: "SpotCapacityForecast"
    ) -> "SpotCapacityForecast":
        """Haircut released spot on shocked units; zero it on capped ones."""
        if not self._cuts_in_force and not self._capped:
            return forecast
        pdu_spot = dict(forecast.pdu_spot_w)
        ups_spot = forecast.ups_spot_w
        for key, fraction in self._cuts_in_force.items():
            if key is _UPS_KEY:
                ups_spot *= 1.0 - fraction
            elif key in pdu_spot:
                pdu_spot[key] *= 1.0 - fraction
        if _UPS_KEY in self._capped:
            ups_spot = 0.0
            pdu_spot = {pdu_id: 0.0 for pdu_id in pdu_spot}
        else:
            for key in self._capped:
                if key in pdu_spot:
                    pdu_spot[key] = 0.0
        return dataclasses.replace(
            forecast, pdu_spot_w=pdu_spot, ups_spot_w=ups_spot
        )

    # ------------------------------------------------------------------
    # Rungs 3-4: enforcement bookkeeping

    def note_control_actions(self, slot: int, actions) -> None:
        """Track degradation-control shedding attributable to events."""
        if not self._cuts_in_force:
            return
        for action in actions:
            self._shed_watts += action.watts
            if self._instruments is not None and action.watts > 0.0:
                self._instruments[1].inc(action.watts)
            if action.kind != "emergency_cap":
                continue
            self._emergency_caps += 1
            key = _UPS_KEY if action.level == "ups" else action.unit_id
            if key in self._cuts_in_force:
                self._capped.add(key)

    def observe_draw(self, slot: int, topology) -> None:
        """Close compliance windows whose draw is back under capacity."""
        if not self._watches:
            return
        still_open: list[dict] = []
        deadline = self.profile.compliance_slots
        for watch in self._watches:
            key = watch["unit"]
            if key is _UPS_KEY:
                draw = topology.ups_power_w()
                capacity = topology.ups.capacity_w
            else:
                draw = topology.pdu_power_w(key)
                capacity = topology.pdu(key).capacity_w
            lag = slot - watch["onset"]
            if draw <= capacity * (1.0 + _COMPLIANCE_TOLERANCE):
                self._compliance_lags.append(lag)
                if self._instruments is not None:
                    self._instruments[2].observe(float(lag))
                continue
            if key not in self._cuts_in_force:
                # The window closed before the draw complied at the
                # shocked capacity — the shock outlived the excursion
                # chase, which is itself a compliance failure.
                self._violations.append((watch["onset"], key or "ups"))
                continue
            if lag >= deadline:
                self._violations.append((watch["onset"], key or "ups"))
                continue
            still_open.append(watch)
        self._watches = still_open

    # ------------------------------------------------------------------
    # Teardown + reporting

    def finish(self, allocator) -> None:
        """Restore the scenario's own market parameters (rung 1 unwind)."""
        if self._base_params is not None:
            self._swap_params(allocator, self._base_params)
            self._price_active = False

    @property
    def violations(self) -> tuple[tuple[int, str], ...]:
        """(onset slot, unit) pairs that missed the K-slot deadline."""
        return tuple(self._violations)

    @property
    def capped_units(self) -> frozenset:
        """Units currently under the rung-4 emergency-cap warning state."""
        return frozenset(self._capped)

    @property
    def cuts_in_force(self) -> dict:
        """Per-unit event capacity cuts currently applied."""
        return dict(self._cuts_in_force)

    def summary(self) -> dict:
        """The run's events report (attached to the simulation result)."""
        lags = self._compliance_lags
        return {
            "events": self._events_seen,
            "event_slots": self._event_slots,
            "shed_watts": self._shed_watts,
            "emergency_caps": self._emergency_caps,
            "compliance_max_lag_slots": max(lags) if lags else 0,
            "compliance_violations": len(self._violations),
            "max_reserve_price": self._max_reserve_price,
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _unit(topology, key):
        return topology.ups if key is _UPS_KEY else topology.pdu(key)
