"""Baseline allocators: PowerCapped and MaxPerf (paper Section V-B).

* **PowerCapped** — the status quo: no spot capacity is ever offered;
  tenants cap power at their guaranteed capacity.  All evaluation
  metrics are normalised to this baseline.
* **MaxPerf** — the owner-operated upper bound: the operator fully
  controls all servers (as in power routing [9]) and allocates spot
  capacity to maximise the *total performance gain*, with no payments.
  Implemented as greedy marginal-value water-filling: each increment of
  capacity goes to the rack with the highest marginal gain whose rack /
  PDU / UPS constraints still have room.  With concave per-rack value
  curves this greedy is optimal up to the increment size.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence

import numpy as np

from repro.core.allocation import AllocationResult
from repro.core.market import Allocator, SlotMarketRecord
from repro.errors import ConfigurationError
from repro.prediction.spot import SpotCapacityForecast
from repro.tenants.tenant import Tenant

__all__ = ["PowerCappedAllocator", "MaxPerfAllocator"]


class PowerCappedAllocator(Allocator):
    """No spot capacity, ever: the paper's normalisation baseline."""

    name = "powercapped"
    charges_tenants = False
    provisions_spot = False

    def allocate(
        self,
        slot: int,
        tenants: Sequence[Tenant],
        forecast: SpotCapacityForecast,
        slot_seconds: float,
        predicted_price: float | None = None,
        extra_constraints: Sequence = (),
        tracer=None,
        submitted_bids=None,
        duplicated=None,
    ) -> SlotMarketRecord:
        if tracer is not None:
            with tracer.span("bid_collect", slot=slot) as span:
                span.set(tenants=len(tenants), racks_bid=0)
            with tracer.span("clear", slot=slot) as span:
                span.set(price=0.0, granted_racks=0, granted_w=0.0)
        return SlotMarketRecord(
            result=AllocationResult.empty(), bids=(), payments={}
        )


class MaxPerfAllocator(Allocator):
    """Welfare-maximising water-filling with full server control.

    Args:
        increment_w: Water-filling step.  Smaller is closer to the exact
            optimum; the default (1 W at testbed scale) is far below any
            rack's headroom.
        max_steps: Safety bound on iterations.
    """

    name = "maxperf"
    charges_tenants = False

    def __init__(self, increment_w: float = 1.0, max_steps: int = 1_000_000) -> None:
        if increment_w <= 0:
            raise ConfigurationError("increment_w must be positive")
        if max_steps <= 0:
            raise ConfigurationError("max_steps must be positive")
        self.increment_w = increment_w
        self.max_steps = max_steps

    def allocate(
        self,
        slot: int,
        tenants: Sequence[Tenant],
        forecast: SpotCapacityForecast,
        slot_seconds: float,
        predicted_price: float | None = None,
        extra_constraints: Sequence = (),
        tracer=None,
        submitted_bids=None,
        duplicated=None,
    ) -> SlotMarketRecord:
        if tracer is None:
            from repro.telemetry.tracing import NULL_TRACER

            tracer = NULL_TRACER
        # Gather candidate racks: those whose owners want spot capacity
        # now, with their value curves and physical caps.
        candidates = []  # (rack_id, pdu_id, curve, cap_w)
        with tracer.span("bid_collect", slot=slot) as bid_span:
            for tenant in tenants:
                needed = tenant.needed_spot_w(slot)
                if not needed:
                    continue
                curves = tenant.value_curves(slot)
                rack_by_id = {r.rack_id: r for r in tenant.racks}
                for rack_id in needed:
                    rack = rack_by_id[rack_id]
                    curve = curves.get(rack_id)
                    if curve is None:
                        continue
                    cap = min(rack.max_spot_w, curve.max_spot_w)
                    if cap > 0:
                        candidates.append((rack_id, rack.pdu_id, curve, cap))
            bid_span.set(tenants=len(tenants), racks_bid=len(candidates))
        if not candidates:
            with tracer.span("clear", slot=slot) as span:
                span.set(price=0.0, granted_racks=0, granted_w=0.0)
            return SlotMarketRecord(
                result=AllocationResult.empty(), bids=(), payments={}
            )
        with tracer.span("clear", slot=slot) as clear_span:
            record = self._water_fill(
                candidates, forecast, extra_constraints
            )
        clear_span.set(
            price=0.0,
            granted_racks=record.result.granted_racks,
            granted_w=record.result.total_granted_w,
        )
        return record

    def _water_fill(
        self,
        candidates: list,
        forecast: SpotCapacityForecast,
        extra_constraints: Sequence,
    ) -> SlotMarketRecord:
        """Greedy marginal-value water-filling over the candidate racks."""

        # Columnar bookkeeping: candidates become index-addressed columns
        # (grant, cap, PDU code, constraint memberships) so each greedy
        # step is O(1) array updates plus only the constraint groups that
        # actually contain the rack — no dict hops, no full group scans.
        n = len(candidates)
        rack_ids = [c[0] for c in candidates]
        curves = [c[2] for c in candidates]
        caps = np.fromiter((c[3] for c in candidates), dtype=float, count=n)
        grants = np.zeros(n)

        pdu_ids = sorted(
            {c[1] for c in candidates} | set(forecast.pdu_spot_w)
        )
        pdu_index = {p: i for i, p in enumerate(pdu_ids)}
        pdu_code = np.fromiter(
            (pdu_index[c[1]] for c in candidates), dtype=np.intp, count=n
        )
        pdu_room = np.fromiter(
            (forecast.pdu_spot_w.get(p, 0.0) for p in pdu_ids),
            dtype=float,
            count=len(pdu_ids),
        )
        ups_room = forecast.ups_spot_w
        group_room = np.fromiter(
            (c.cap_w for c in extra_constraints),
            dtype=float,
            count=len(extra_constraints),
        )
        groups_of = [
            [
                k
                for k, constraint in enumerate(extra_constraints)
                if rack_ids[i] in constraint.rack_ids
            ]
            for i in range(n)
        ]

        # Max-heap of (-marginal, tiebreak, candidate index).
        counter = itertools.count()
        heap: list[tuple[float, int, int]] = []
        for i in range(n):
            marginal = curves[i].marginal_gain_per_hour(0.0, self.increment_w)
            if marginal > 0:
                heapq.heappush(heap, (-marginal, next(counter), i))

        steps = 0
        while heap and ups_room > 1e-9 and steps < self.max_steps:
            steps += 1
            neg_marginal, _, i = heapq.heappop(heap)
            if -neg_marginal <= 0:
                break
            code = pdu_code[i]
            room = min(caps[i] - grants[i], pdu_room[code], ups_room)
            for k in groups_of[i]:
                room = min(room, group_room[k])
            if room <= 1e-9:
                continue  # this rack is blocked; drop it
            step = min(self.increment_w, room)
            grants[i] += step
            pdu_room[code] -= step
            ups_room -= step
            for k in groups_of[i]:
                group_room[k] -= step
            if grants[i] < caps[i] - 1e-9:
                marginal = curves[i].marginal_gain_per_hour(
                    grants[i], self.increment_w
                )
                if marginal > 0:
                    heapq.heappush(heap, (-marginal, next(counter), i))

        granted = {
            rack_ids[i]: float(grants[i])
            for i in np.flatnonzero(grants > 0)
        }
        result = AllocationResult(price=0.0, grants_w=granted, revenue_rate=0.0)
        return SlotMarketRecord(result=result, bids=(), payments={})
