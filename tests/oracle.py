"""Object-at-a-time reference implementations: the differential oracle.

The production market clears, bills, and builds frames column-wise
(:mod:`repro.core.clearing`, :meth:`repro.core.frame.BidFrame.settle`,
:class:`repro.core.frame.PduBlock`).  This module keeps the original
one-:class:`RackBid`-at-a-time versions of each, so tests can check the
columnar code against a second, independently written computation:

* :func:`clear` / :func:`clear_per_pdu` — the object clear behind the
  same entry-point checks as :class:`MarketClearing` (capacity
  validation, empty market);
* :func:`payments` — per-tenant billing walked grant by grant;
* :func:`frame_from_bids` — the row-at-a-time frame build.

The engine argument only supplies configuration (``params``,
``include_breakpoints``); nothing here calls its clearing methods.
"""

from __future__ import annotations

import typing
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.clearing import (
    _TOL,
    MarketClearing,
    _augment_grid,
    _base_grid,
    _localize_constraints,
)
from repro.core.demand import DemandFunction, LinearBid, StepBid
from repro.core.frame import KIND_CLOSED, KIND_SAMPLED, BidFrame

if typing.TYPE_CHECKING:
    from repro.infrastructure.constraints import CapacityConstraint

__all__ = [
    "candidate_prices",
    "clear",
    "clear_objects",
    "clear_per_pdu",
    "clear_per_pdu_objects",
    "frame_from_bids",
    "payments",
]


# ----------------------------------------------------------------------
# Entry points (mirror MarketClearing.clear / clear_per_pdu)
# ----------------------------------------------------------------------


def clear(
    engine: MarketClearing,
    bids: Sequence[RackBid],
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"] = (),
) -> AllocationResult:
    """Uniform-price object clear behind ``MarketClearing.clear``'s checks."""
    engine._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
    if not len(bids):
        return AllocationResult.empty()
    return clear_objects(engine, bids, pdu_spot_w, ups_spot_w, extra_constraints)


def clear_per_pdu(
    engine: MarketClearing,
    bids: Sequence[RackBid],
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"] = (),
) -> AllocationResult:
    """Per-PDU object clear behind ``MarketClearing.clear_per_pdu``'s checks."""
    engine._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
    if not len(bids):
        return AllocationResult.empty()
    return clear_per_pdu_objects(
        engine, bids, pdu_spot_w, ups_spot_w, extra_constraints
    )


# ----------------------------------------------------------------------
# The object clear
# ----------------------------------------------------------------------


def candidate_prices(
    engine: MarketClearing, bids: Sequence[RackBid]
) -> np.ndarray:
    """The ascending price grid, collected bid by bid."""
    lo = engine.params.reserve_price
    hi = engine.params.max_price
    n_bids = len(bids)
    if n_bids:
        hi = min(hi, max(b.demand.max_price for b in bids))
    collected = []
    for bid in bids:
        demand = bid.demand
        for attr in ("q_min", "q_max", "price_cap"):
            value = getattr(demand, attr, None)
            if value is not None:
                collected.append(float(value))
    points = np.asarray(collected, dtype=float)
    if hi < lo:
        return np.array([lo])
    grid = _base_grid(lo, hi, engine.params.price_step)
    if engine.include_breakpoints and n_bids:
        grid = _augment_grid(grid, points, lo, hi, engine.params.price_step)
    return grid


def clear_objects(
    engine: MarketClearing,
    bids: Sequence[RackBid],
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"],
) -> AllocationResult:
    """Uniform-price feasible-price scan over object bids."""
    prices = candidate_prices(engine, bids)
    pdu_ids = sorted({bid.pdu_id for bid in bids})
    pdu_index = {pdu_id: i for i, pdu_id in enumerate(pdu_ids)}
    pdu_caps = np.array([pdu_spot_w.get(p, 0.0) for p in pdu_ids])

    # Bid admission; the per-PDU grant ceilings min(PDU spot, UPS
    # spot) are hoisted out of the per-bid loop.
    pdu_ceiling = {
        pdu_id: min(pdu_spot_w.get(pdu_id, 0.0), ups_spot_w)
        for pdu_id in pdu_ids
    }
    admitted = []
    rejected_ids = []
    for bid in bids:
        ceiling = min(bid.rack_cap_w, pdu_ceiling[bid.pdu_id])
        for constraint in extra_constraints:
            if bid.rack_id in constraint.rack_ids:
                ceiling = min(ceiling, constraint.cap_w)
        floor_demand = min(
            bid.demand.demand_at(bid.demand.max_price), bid.rack_cap_w
        )
        if floor_demand > ceiling + _TOL:
            rejected_ids.append(bid.rack_id)
        else:
            admitted.append(bid)
    if not admitted:
        return AllocationResult(
            price=float(prices[-1]) + engine.params.price_step,
            grants_w={rack_id: 0.0 for rack_id in rejected_ids},
            revenue_rate=0.0,
            candidate_prices=int(prices.size),
            feasible_prices=0,
        )

    # Accumulate rack demand into per-PDU totals across the whole
    # grid; extra constraint groups (phase/heat) accumulate alongside.
    pdu_demand = np.zeros((len(pdu_ids), prices.size))
    extra_demand = np.zeros((len(extra_constraints), prices.size))
    extra_caps = np.array([c.cap_w for c in extra_constraints])
    membership = [c.rack_ids for c in extra_constraints]

    linear_bids = [
        bid for bid in admitted if type(bid.demand) is LinearBid
    ]
    generic_bids = [
        bid for bid in admitted if type(bid.demand) is not LinearBid
    ]
    if linear_bids:
        accumulate_linear(
            linear_bids, prices, pdu_index, membership,
            pdu_demand, extra_demand,
        )
    for bid in generic_bids:
        demand = np.minimum(bid.demand.demand_grid(prices), bid.rack_cap_w)
        pdu_demand[pdu_index[bid.pdu_id]] += demand
        for k, rack_ids in enumerate(membership):
            if bid.rack_id in rack_ids:
                extra_demand[k] += demand
    total_demand = pdu_demand.sum(axis=0)

    feasible = (total_demand <= ups_spot_w + _TOL) & np.all(
        pdu_demand <= pdu_caps[:, None] + _TOL, axis=0
    )
    if extra_constraints:
        feasible &= np.all(
            extra_demand <= extra_caps[:, None] + _TOL, axis=0
        )
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        return AllocationResult.empty(
            price=float(prices[-1]) + engine.params.price_step
        )

    revenue_rate = prices * total_demand / 1000.0  # $/h
    revenue_rate = np.where(feasible, revenue_rate, -np.inf)
    best = int(np.argmax(revenue_rate))  # argmax returns lowest index on ties
    best_price = float(prices[best])

    grants = {
        bid.rack_id: float(
            min(bid.demand.demand_at(best_price), bid.rack_cap_w)
        )
        for bid in admitted
    }
    for rack_id in rejected_ids:
        grants[rack_id] = 0.0
    return AllocationResult(
        price=best_price,
        grants_w=grants,
        revenue_rate=float(max(revenue_rate[best], 0.0)),
        candidate_prices=int(prices.size),
        feasible_prices=n_feasible,
    )


def accumulate_linear(
    bids: Sequence[RackBid],
    prices: np.ndarray,
    pdu_index: Mapping[str, int],
    membership: Sequence[frozenset[str]],
    pdu_demand: np.ndarray,
    extra_demand: np.ndarray,
    chunk: int = 2048,
) -> None:
    """Vectorised demand accumulation for LinearBid bids.

    Evaluates all bids' piece-wise linear curves over the whole price
    grid with one broadcasted expression per chunk (memory is bounded
    at ``chunk x len(prices)`` floats) and scatter-adds the rows into
    the per-PDU / per-constraint totals.
    """
    d_max = np.array([b.demand.d_max_w for b in bids])
    d_min = np.array([b.demand.d_min_w for b in bids])
    q_min = np.array([b.demand.q_min for b in bids])
    q_max = np.array([b.demand.q_max for b in bids])
    caps = np.array([b.rack_cap_w for b in bids])
    rows = np.array([pdu_index[b.pdu_id] for b in bids])
    span = q_max - q_min
    degenerate = span <= 0

    member_rows: list[np.ndarray] = [
        np.array(
            [i for i, b in enumerate(bids) if b.rack_id in rack_ids],
            dtype=int,
        )
        for rack_ids in membership
    ]

    for start in range(0, len(bids), chunk):
        sl = slice(start, start + chunk)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            frac = np.clip(
                (prices[None, :] - q_min[sl, None])
                / np.where(degenerate[sl], 1.0, span[sl])[:, None],
                0.0,
                1.0,
            )
        demand = d_max[sl, None] + frac * (d_min[sl] - d_max[sl])[:, None]
        demand = np.where(degenerate[sl, None], d_max[sl, None], demand)
        demand = np.where(prices[None, :] <= q_max[sl, None], demand, 0.0)
        np.minimum(demand, caps[sl, None], out=demand)
        np.add.at(pdu_demand, rows[sl], demand)
        for k, rows_k in enumerate(member_rows):
            local = rows_k[(rows_k >= start) & (rows_k < start + chunk)]
            if local.size:
                extra_demand[k] += demand[local - start].sum(axis=0)


def clear_per_pdu_objects(
    engine: MarketClearing,
    bids: Sequence[RackBid],
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"],
) -> AllocationResult:
    """Locational per-PDU clear, regrouping object bids by PDU."""
    by_pdu: dict[str, list[RackBid]] = {}
    for bid in bids:
        by_pdu.setdefault(bid.pdu_id, []).append(bid)
    max_demand = (
        {
            bid.rack_id: min(bid.demand.max_demand_w, bid.rack_cap_w)
            for bid in bids
        }
        if extra_constraints
        else {}
    )

    interest = {
        pdu_id: min(
            pdu_spot_w.get(pdu_id, 0.0),
            sum(
                min(b.demand.max_demand_w, b.rack_cap_w)
                for b in pdu_bids
            ),
        )
        for pdu_id, pdu_bids in by_pdu.items()
    }
    total_interest = sum(interest.values())
    grants: dict[str, float] = {}
    pdu_prices: dict[str, float] = {}
    revenue_rate = 0.0
    candidates = 0
    feasible = 0
    for pdu_id, pdu_bids in by_pdu.items():
        local_cap = pdu_spot_w.get(pdu_id, 0.0)
        if total_interest > ups_spot_w and total_interest > 0:
            local_cap = min(
                local_cap, ups_spot_w * interest[pdu_id] / total_interest
            )
        local_constraints = (
            _localize_constraints(
                extra_constraints,
                {bid.rack_id for bid in pdu_bids},
                max_demand,
            )
            if extra_constraints
            else ()
        )
        local = clear_objects(
            engine, pdu_bids, {pdu_id: local_cap}, local_cap, local_constraints
        )
        grants.update(local.grants_w)
        pdu_prices[pdu_id] = local.price
        revenue_rate += local.revenue_rate
        candidates += local.candidate_prices
        feasible += local.feasible_prices
    total = sum(grants.values())
    headline = (
        sum(
            pdu_prices[bid.pdu_id] * grants.get(bid.rack_id, 0.0)
            for bid in bids
        )
        / total
        if total > 0
        else 0.0
    )
    return AllocationResult(
        price=headline,
        grants_w=grants,
        revenue_rate=revenue_rate,
        candidate_prices=candidates,
        feasible_prices=feasible,
        pdu_prices=pdu_prices,
    )


# ----------------------------------------------------------------------
# Billing
# ----------------------------------------------------------------------


def payments(
    result: AllocationResult, bids: Sequence[RackBid], slot_seconds: float
) -> dict[str, float]:
    """Dollars owed per tenant, walked grant by grant."""
    slot_hours = slot_seconds / 3600.0
    payments: dict[str, float] = {}
    bid_of = {bid.rack_id: bid for bid in bids}
    for rack_id, grant in result.grants_w.items():
        bid = bid_of[rack_id]
        paid_price = result.price_for_pdu(bid.pdu_id)
        dollars = (grant / 1000.0) * paid_price * slot_hours
        payments[bid.tenant_id] = payments.get(bid.tenant_id, 0.0) + dollars
    return payments


# ----------------------------------------------------------------------
# Frame construction
# ----------------------------------------------------------------------


def frame_from_bids(bids: Sequence[RackBid]) -> BidFrame:
    """Build the columnar frame from object bids, one row at a time."""
    n = len(bids)
    pdu_ids = tuple(sorted({b.pdu_id for b in bids}))
    pdu_index = {p: i for i, p in enumerate(pdu_ids)}
    raw_code = np.fromiter(
        (pdu_index[b.pdu_id] for b in bids), dtype=np.intp, count=n
    )
    order = np.argsort(raw_code, kind="stable")
    ordered = [bids[int(i)] for i in order]

    tenant_ids = tuple(dict.fromkeys(b.tenant_id for b in ordered))
    tenant_index = {t: i for i, t in enumerate(tenant_ids)}

    kind = np.empty(n, dtype=np.uint8)
    d_max = np.empty(n)
    q_min = np.empty(n)
    d_min = np.empty(n)
    q_max = np.empty(n)
    caps = np.empty(n)
    max_demand = np.empty(n)
    floor = np.empty(n)
    demands: list[DemandFunction | None] = []
    points: list[float] = []
    for i, b in enumerate(ordered):
        fn = b.demand
        caps[i] = b.rack_cap_w
        # The type checks are deliberately exact: subclasses may
        # override demand_at/demand_grid, so they must be sampled.
        if type(fn) is LinearBid:
            kind[i] = KIND_CLOSED
            d_max[i] = fn.d_max_w
            q_min[i] = fn.q_min
            d_min[i] = fn.d_min_w
            q_max[i] = fn.q_max
            max_demand[i] = fn.d_max_w
            demands.append(None)
        elif type(fn) is StepBid:
            kind[i] = KIND_CLOSED
            d_max[i] = fn.demand_w
            d_min[i] = fn.demand_w
            q_min[i] = fn.price_cap
            q_max[i] = fn.price_cap
            max_demand[i] = fn.demand_w
            demands.append(None)
        else:
            kind[i] = KIND_SAMPLED
            d_max[i] = 0.0
            d_min[i] = 0.0
            q_min[i] = 0.0
            q_max[i] = fn.max_price
            max_demand[i] = fn.max_demand_w
            demands.append(fn)
        # Grid augmentation points, collected exactly as the object
        # path does (public curve attributes only).
        for attr in ("q_min", "q_max", "price_cap"):
            value = getattr(fn, attr, None)
            if value is not None:
                points.append(float(value))
    # Rack-clipped demand at each row's own max acceptable price,
    # with the same float arithmetic as demand_at(max_price).
    for i, b in enumerate(ordered):
        if kind[i] == KIND_CLOSED:
            at_cap = (
                d_max[i]
                if q_max[i] <= q_min[i]
                else d_max[i] + (d_min[i] - d_max[i])
            )
        else:
            at_cap = b.demand.demand_at(b.demand.max_price)
        floor[i] = min(at_cap, caps[i])
    return BidFrame(
        rack_ids=tuple(b.rack_id for b in ordered),
        pdu_ids=pdu_ids,
        pdu_code=raw_code[order],
        tenant_ids=tenant_ids,
        tenant_code=np.fromiter(
            (tenant_index[b.tenant_id] for b in ordered),
            dtype=np.intp,
            count=n,
        ),
        kind=kind,
        d_max_w=d_max,
        q_min=q_min,
        d_min_w=d_min,
        q_max=q_max,
        rack_cap_w=caps,
        max_demand_w=max_demand,
        floor_w=floor,
        breakpoints=np.asarray(points, dtype=float),
        demands=tuple(demands),
        bids=tuple(ordered),
    )
