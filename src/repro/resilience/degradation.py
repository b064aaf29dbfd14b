"""Graceful degradation: revocation-first excursion control.

Paper §III-C gives the operator an unconditional right: *"the operator
can revoke the spot capacity allocation at any time"*, and §V-B2
requires that spot capacity introduce *no additional* capacity
emergencies.  In the fault-free world the spot-capacity predictor's
conservatism guarantees that by construction.  Under injected faults it
no longer does: corrupted meter readings inflate the predicted
headroom, a derating event can invalidate already-issued grants, and a
stale (delayed) grant broadcast can raise a rack budget the market
never cleared for the current slot.

:class:`DegradationController` closes that loop.  It runs after budgets
are applied but before tenants execute the slot — the operator's
protection path is assumed hardened (breaker-level telemetry, not the
billing meters), so it projects each PDU's and the UPS's worst-case
draw from *true* telemetry and the live (possibly derated) capacities:

* granted racks are projected at their full enforced budget
  (guaranteed + spot), since a granted rack may legitimately ramp to
  its whole budget within the slot;
* all other racks are projected at their recent true peak, clamped to
  their guaranteed capacity.

If a level's projection exceeds its live capacity, spot grants on that
level are revoked in ascending clearing-value order (cheapest first —
the revenue-minimising application of the §III-C revocation right)
until the excursion clears; revoked energy is credited in settlement
(the tenant is never billed for revoked capacity).  If revoking every
grant still cannot clear the excursion — a derating below the
guaranteed-backed draw — the controller logs an ``emergency_cap``
escalation: the residual is the facility's pre-existing emergency
problem, handled by the separate power-capping mechanisms the paper
cites, and identical to what the no-spot-capacity baseline faces.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.core.allocation import AllocationResult
from repro.core.market import SlotMarketRecord
from repro.errors import ConfigurationError
from repro.infrastructure.topology import PowerTopology

__all__ = [
    "ControlAction",
    "CreditNote",
    "DegradationController",
    "revoke_and_rebill",
]


@dataclasses.dataclass(frozen=True)
class ControlAction:
    """One degradation-control event.

    Attributes:
        slot: Slot the action was taken in.
        kind: ``"revoke"`` (a spot grant was withdrawn) or
            ``"emergency_cap"`` (revocation exhausted; the residual
            excursion is escalated to the facility's power-capping
            layer).
        level: ``"pdu"`` or ``"ups"`` — the constraint that triggered it.
        unit_id: The constrained unit.
        rack_id: The revoked rack (empty for ``emergency_cap``).
        watts: Spot watts revoked, or residual excursion watts for an
            escalation.
    """

    slot: int
    kind: str
    level: str
    unit_id: str
    rack_id: str
    watts: float


@dataclasses.dataclass(frozen=True)
class CreditNote:
    """Settlement credit for revoked (never-delivered) spot capacity.

    Attributes:
        slot: Slot the revoked grant had been cleared for.
        tenant_id: Credited tenant.
        rack_id: Rack whose grant was revoked.
        watts: Revoked spot capacity.
        dollars: Amount the tenant would otherwise have been billed.
        reason: Why the grant was revoked.
    """

    slot: int
    tenant_id: str
    rack_id: str
    watts: float
    dollars: float
    reason: str


def revoke_and_rebill(
    record: SlotMarketRecord, revoked: set[str], slot_seconds: float
) -> SlotMarketRecord:
    """Zero a set of grants and rebill the survivors.

    Shared by every revocation path — lost grant broadcasts, delayed
    deliveries, enforcement bars, and degradation control: the rack PDU
    stays at the guaranteed budget and the operator does not bill the
    revoked grant, so a revocation is strictly safe (feasible capacity
    is simply unused) and strictly unbilled (§III-C: the tenant pays
    nothing for capacity it never received).
    """
    result = record.result
    if not revoked:
        return record
    grants = {
        rack_id: (0.0 if rack_id in revoked else grant)
        for rack_id, grant in result.grants_w.items()
    }
    if record.frame is not None:
        # Rebill straight off the slot's columnar frame: only surviving
        # positive grants pay (the revocation semantics).
        hourly, payments = record.frame.settle(
            grants,
            result.pdu_prices,
            result.price,
            slot_seconds,
            positive_only=True,
        )
        revenue_rate = hourly
    else:
        bid_of = {bid.rack_id: bid for bid in record.bids}
        slot_hours = slot_seconds / 3600.0
        payments = {}
        revenue_rate = 0.0
        for rack_id, grant in grants.items():
            if grant <= 0 or rack_id not in bid_of:
                continue
            bid = bid_of[rack_id]
            price = result.price_for_pdu(bid.pdu_id)
            revenue_rate += price * grant / 1000.0
            payments[bid.tenant_id] = payments.get(bid.tenant_id, 0.0) + (
                grant / 1000.0
            ) * price * slot_hours
    adjusted = AllocationResult(
        price=result.price,
        grants_w=grants,
        revenue_rate=revenue_rate,
        candidate_prices=result.candidate_prices,
        feasible_prices=result.feasible_prices,
        pdu_prices=result.pdu_prices,
    )
    return dataclasses.replace(record, result=adjusted, payments=payments)


class DegradationController:
    """Revocation-first containment of capacity excursions.

    Args:
        safety_margin_fraction: Fraction of each level's *live* capacity
            held back before an excursion is declared.  The default 0
            keeps the controller strictly less conservative than the
            spot-capacity predictor (2.5% margin), so fault-free runs
            are never perturbed: a clearing that respected the
            predictor's offered headroom always passes the projection.
        tolerance_w: Absolute slack before watts count as an excursion
            (float round-off guard).
    """

    def __init__(
        self, safety_margin_fraction: float = 0.0, tolerance_w: float = 1e-6
    ) -> None:
        if not 0 <= safety_margin_fraction < 1:
            raise ConfigurationError(
                "safety_margin_fraction must be in [0, 1), got "
                f"{safety_margin_fraction}"
            )
        if tolerance_w < 0:
            raise ConfigurationError("tolerance_w must be >= 0")
        self.safety_margin_fraction = float(safety_margin_fraction)
        self.tolerance_w = float(tolerance_w)
        self._actions: list[ControlAction] = []
        self._credits: list[CreditNote] = []

    @property
    def actions(self) -> tuple[ControlAction, ...]:
        """All control actions, in issue order."""
        return tuple(self._actions)

    @property
    def credits(self) -> tuple[CreditNote, ...]:
        """All settlement credits, in issue order."""
        return tuple(self._credits)

    def revocation_count(self) -> int:
        """Number of revoked grants across the run."""
        return sum(1 for a in self._actions if a.kind == "revoke")

    def new_actions(self, start: int) -> list[ControlAction]:
        """Actions issued at or after index ``start`` (incremental view)."""
        return self._actions[start:]

    def new_credits(self, start: int) -> list[CreditNote]:
        """Credits issued at or after index ``start`` (incremental view)."""
        return self._credits[start:]

    def credited_dollars(self) -> float:
        """Total settlement credits across the run."""
        return sum((note.dollars for note in self._credits), 0.0)

    # ------------------------------------------------------------------
    # Per-slot enforcement
    # ------------------------------------------------------------------

    def _projected_w(self, racks, reference_w: Mapping[str, float]) -> float:
        """Worst-case draw projection for a set of racks."""
        total = 0.0
        for rack in racks:
            if rack.spot_budget_w > 0:
                total += rack.guaranteed_w + rack.spot_budget_w
            else:
                ref = reference_w.get(rack.rack_id, rack.power_w)
                total += min(ref, rack.guaranteed_w)
        return total

    def _relieve(
        self,
        racks,
        capacity_w: float,
        level: str,
        unit_id: str,
        record: SlotMarketRecord,
        slot: int,
        slot_seconds: float,
        reference_w: Mapping[str, float],
        revoked: set[str],
        tenant_of: Mapping[str, str],
    ) -> None:
        """Revoke grants under one constraint until its projection fits."""
        limit = capacity_w * (1.0 - self.safety_margin_fraction)
        excess = self._projected_w(racks, reference_w) - limit
        if excess <= self.tolerance_w:
            return
        slot_hours = slot_seconds / 3600.0

        def clearing_value(rack) -> float:
            # Stale budgets (no grant on record) carry zero clearing
            # value and are revoked first.
            grant = record.result.grant_for(rack.rack_id)
            if grant <= 0:
                return 0.0
            return record.result.price_for_pdu(rack.pdu_id) * grant / 1000.0

        candidates = sorted(
            (rack for rack in racks if rack.spot_budget_w > 0),
            key=lambda rack: (clearing_value(rack), rack.rack_id),
        )
        for rack in candidates:
            if excess <= self.tolerance_w:
                break
            spot_w = rack.spot_budget_w
            ref = min(
                reference_w.get(rack.rack_id, rack.power_w), rack.guaranteed_w
            )
            freed = rack.guaranteed_w + spot_w - ref
            rack.clear_spot_budget()
            excess -= freed
            self._actions.append(
                ControlAction(slot, "revoke", level, unit_id, rack.rack_id, spot_w)
            )
            granted = record.result.grant_for(rack.rack_id)
            if granted > 0 and rack.rack_id not in revoked:
                revoked.add(rack.rack_id)
                price = record.result.price_for_pdu(rack.pdu_id)
                self._credits.append(
                    CreditNote(
                        slot=slot,
                        tenant_id=tenant_of.get(rack.rack_id, rack.tenant_id),
                        rack_id=rack.rack_id,
                        watts=granted,
                        dollars=(granted / 1000.0) * price * slot_hours,
                        reason=f"{level}_excursion:{unit_id}",
                    )
                )
        if excess > self.tolerance_w:
            self._actions.append(
                ControlAction(slot, "emergency_cap", level, unit_id, "", excess)
            )

    def enforce(
        self,
        topology: PowerTopology,
        record: SlotMarketRecord,
        slot: int,
        slot_seconds: float,
        true_reference_w: Mapping[str, float] | None = None,
    ) -> SlotMarketRecord:
        """Contain any projected excursion for the current slot.

        Call after all spot budgets (including stale deliveries) are
        applied and any derating events are in force, before tenants
        execute the slot.  Revoked racks' budgets are cleared in place;
        the returned record is rebilled so settlement never charges for
        revoked capacity.

        Args:
            topology: Live topology (budgets set, capacities possibly
                derated).
            record: The slot's market record (billing attribution).
            slot: Current slot index.
            slot_seconds: Slot length (for credit accounting).
            true_reference_w: Per-rack conservative reference draws from
                the hardened telemetry path (e.g. a rolling recent
                maximum of *true* rack power).  Defaults to each rack's
                last true sample.
        """
        reference_w = true_reference_w or {}
        revoked: set[str] = set()
        tenant_of = {
            rack_id: rack.tenant_id for rack_id, rack in topology.racks.items()
        }
        for pdu_id, pdu in topology.pdus.items():
            self._relieve(
                topology.racks_of_pdu(pdu_id),
                pdu.capacity_w,
                "pdu",
                pdu_id,
                record,
                slot,
                slot_seconds,
                reference_w,
                revoked,
                tenant_of,
            )
        self._relieve(
            list(topology.racks.values()),
            topology.ups.capacity_w,
            "ups",
            topology.ups.ups_id,
            record,
            slot,
            slot_seconds,
            reference_w,
            revoked,
            tenant_of,
        )
        if revoked:
            record = revoke_and_rebill(record, revoked, slot_seconds)
        return record
