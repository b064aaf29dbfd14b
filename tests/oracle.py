"""Reference implementations: the differential oracle.

The production market clears, bills, and builds frames column-wise
(:mod:`repro.core.clearing`, :meth:`repro.core.frame.BidFrame.settle`,
:class:`repro.core.frame.PduBlock`), and clears every market of a slot
in one sweep.  This module keeps simpler versions of each, so tests can
check the production code against a second, independently written
computation:

* :func:`clear` / :func:`clear_per_pdu` — the object clear behind the
  same entry-point checks as :class:`MarketClearing` (capacity
  validation, empty market);
* :func:`frame_clear` / :func:`frame_clear_per_pdu` — the columnar
  clear one market at a time (per-PDU: one sub-frame per PDU), whose
  arithmetic the sweep must reproduce bit for bit;
* :func:`payments` — per-tenant billing walked grant by grant;
* :func:`frame_from_bids` — the row-at-a-time frame build;
* :func:`from_bids` / :class:`IncrementalFrameBuilder` — the frame
  built PDU block by PDU block from the rack-bid objects (group by PDU,
  one block per PDU from per-row tuples), and the builder that reuses a
  block while its bids compare equal bid by bid (:func:`_same_bids`);
* :func:`_rows` / :func:`flatten_bids` — the admission screen's and the
  duplicate-rack check's own walks over the bundles;
* :func:`screen_bids` — admission bid by bid through
  :func:`repro.recovery.admission.inspect_rack_bid`;
* :func:`verify_allocation` — the Eq. 2-4 check walked grant by grant;
* :func:`sprinting_value_curve` / :func:`opportunistic_value_curve` —
  tenant value curves tabulated point by point through the scalar
  latency, throughput and cost models.

The engine argument only supplies configuration (``params``,
``include_breakpoints``); nothing here calls its clearing methods.
"""

from __future__ import annotations

import math
import typing
from array import array
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid, TenantBid
from repro.core.clearing import (
    _TOL,
    MarketClearing,
    _augment_grid,
    _base_grid,
    _localize_constraints,
)
from repro.core.demand import DemandFunction, LinearBid, StepBid
from repro.core.frame import KIND_CLOSED, KIND_SAMPLED, BidFrame
from repro.economics.cost import OpportunisticCostModel, SprintingCostModel
from repro.economics.valuation import SpotValueCurve
from repro.errors import BidError, CapacityError, ConfigurationError
from repro.power.latency import LatencyModel
from repro.power.throughput import ThroughputModel
from repro.recovery.admission import QuarantinedBid, inspect_rack_bid

if typing.TYPE_CHECKING:
    from repro.infrastructure.constraints import CapacityConstraint

__all__ = [
    "candidate_prices",
    "clear",
    "clear_objects",
    "clear_per_pdu",
    "clear_per_pdu_objects",
    "frame_clear",
    "frame_clear_per_pdu",
    "IncrementalFrameBuilder",
    "PduBlock",
    "flatten_bids",
    "frame_from_blocks",
    "frame_from_bids",
    "from_bids",
    "group_by_pdu",
    "opportunistic_value_curve",
    "payments",
    "screen_bids",
    "sprinting_value_curve",
    "verify_allocation",
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
# The slice-at-a-time columnar clear
# ----------------------------------------------------------------------
#
# One market at a time: the per-PDU clear cuts the frame into one
# sub-frame per PDU and runs the single-market frame clear on each.
# ``MarketClearing``'s sweep must agree with it to the last bit on every
# field of every result.


def frame_clear(
    engine: MarketClearing,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"] = (),
) -> AllocationResult:
    """Uniform-price frame clear behind ``MarketClearing.clear``'s checks."""
    engine._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
    if not len(frame):
        return AllocationResult.empty()
    return clear_frame(engine, frame, pdu_spot_w, ups_spot_w, extra_constraints)


def frame_clear_per_pdu(
    engine: MarketClearing,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"] = (),
) -> AllocationResult:
    """Slice-at-a-time per-PDU clear behind ``clear_per_pdu``'s checks."""
    engine._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
    if not len(frame):
        return AllocationResult.empty()
    per_pdu = [
        (pdu_id, clear_frame(engine, sub, {pdu_id: cap}, cap, cons))
        for pdu_id, sub, cap, cons in pdu_tasks(
            engine, frame, pdu_spot_w, ups_spot_w, extra_constraints
        )
    ]
    return combine_pdu_results(frame, per_pdu)


def frame_grid(engine: MarketClearing, frame: BidFrame) -> np.ndarray:
    """The ascending price grid of one frame (uncached)."""
    lo = engine.params.reserve_price
    hi = engine.params.max_price
    if len(frame):
        hi = min(hi, frame.max_acceptable_price())
    if hi < lo:
        return np.array([lo])
    grid = _base_grid(lo, hi, engine.params.price_step)
    if engine.include_breakpoints and len(frame):
        grid = _augment_grid(
            grid, frame.breakpoints, lo, hi, engine.params.price_step
        )
    return grid


def clear_frame(
    engine: MarketClearing,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"],
) -> AllocationResult:
    """One market's feasible-price scan over a whole frame."""
    prices = frame_grid(engine, frame)
    pdu_caps = np.array([pdu_spot_w.get(p, 0.0) for p in frame.pdu_ids])

    ceiling = np.minimum(frame.rack_cap_w, pdu_caps[frame.pdu_code])
    np.minimum(ceiling, ups_spot_w, out=ceiling)
    for constraint in extra_constraints:
        rows = frame.rows_for(constraint.rack_ids)
        if rows.size:
            ceiling[rows] = np.minimum(ceiling[rows], constraint.cap_w)
    rejected = frame.floor_w > ceiling + _TOL
    if rejected.all():
        return AllocationResult(
            price=float(prices[-1]) + engine.params.price_step,
            grants_w={rid: 0.0 for rid in frame.rack_ids},
            revenue_rate=0.0,
            candidate_prices=int(prices.size),
            feasible_prices=0,
        )
    if rejected.any():
        rejected_ids = [frame.rack_ids[int(i)] for i in np.flatnonzero(rejected)]
        admitted = select(frame, np.flatnonzero(~rejected))
    else:
        rejected_ids = []
        admitted = frame

    extra_caps = np.array([c.cap_w for c in extra_constraints])
    member_rows = [admitted.rows_for(c.rack_ids) for c in extra_constraints]
    pdu_demand, extra_demand = demand_totals(admitted, prices, member_rows)
    total_demand = pdu_demand.sum(axis=0)

    feasible = (total_demand <= ups_spot_w + _TOL) & np.all(
        pdu_demand <= pdu_caps[:, None] + _TOL, axis=0
    )
    if extra_constraints:
        feasible &= np.all(extra_demand <= extra_caps[:, None] + _TOL, axis=0)
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        return AllocationResult.empty(
            price=float(prices[-1]) + engine.params.price_step
        )

    revenue_rate = prices * total_demand / 1000.0  # $/h
    revenue_rate = np.where(feasible, revenue_rate, -np.inf)
    best = int(np.argmax(revenue_rate))
    best_price = float(prices[best])

    granted = admitted.demand_at(best_price)
    grants = dict(zip(admitted.rack_ids, granted.tolist()))
    for rack_id in rejected_ids:
        grants[rack_id] = 0.0
    return AllocationResult(
        price=best_price,
        grants_w=grants,
        revenue_rate=float(max(revenue_rate[best], 0.0)),
        candidate_prices=int(prices.size),
        feasible_prices=n_feasible,
    )


def pdu_tasks(
    engine: MarketClearing,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence["CapacityConstraint"],
) -> list[tuple[str, BidFrame, float, tuple]]:
    """``(pdu_id, slice, apportioned cap, local constraints)`` per PDU."""
    servable = np.minimum(frame.max_demand_w, frame.rack_cap_w)
    max_demand = (
        {rid: float(v) for rid, v in zip(frame.rack_ids, servable)}
        if extra_constraints
        else {}
    )
    starts, seg_codes = frame.segments()
    local_interest = np.add.reduceat(servable, starts)
    interest = {
        frame.pdu_ids[int(seg)]: min(
            pdu_spot_w.get(frame.pdu_ids[int(seg)], 0.0), float(total)
        )
        for seg, total in zip(seg_codes, local_interest)
    }
    total_interest = sum(interest.values())
    tasks = []
    for pdu_id, sub in pdu_slices(frame):
        local_cap = pdu_spot_w.get(pdu_id, 0.0)
        if total_interest > ups_spot_w and total_interest > 0:
            local_cap = min(local_cap, ups_spot_w * interest[pdu_id] / total_interest)
        local_constraints = (
            tuple(
                _localize_constraints(
                    extra_constraints, set(sub.rack_ids), max_demand
                )
            )
            if extra_constraints
            else ()
        )
        tasks.append((pdu_id, sub, local_cap, local_constraints))
    return tasks


def combine_pdu_results(
    frame: BidFrame, per_pdu: Sequence[tuple[str, AllocationResult]]
) -> AllocationResult:
    """Merge per-PDU allocations, accumulating in PDU order."""
    grants: dict[str, float] = {}
    pdu_prices: dict[str, float] = {}
    revenue_rate = 0.0
    candidates = 0
    feasible = 0
    for pdu_id, local in per_pdu:
        grants.update(local.grants_w)
        pdu_prices[pdu_id] = local.price
        revenue_rate += local.revenue_rate
        candidates += local.candidate_prices
        feasible += local.feasible_prices
    granted = np.fromiter(
        (grants.get(rid, 0.0) for rid in frame.rack_ids),
        dtype=float,
        count=len(frame),
    )
    total = float(granted.sum())
    if total > 0:
        row_prices = np.fromiter(
            (pdu_prices[p] for p in frame.pdu_ids),
            dtype=float,
            count=len(frame.pdu_ids),
        )[frame.pdu_code]
        headline = float((row_prices * granted).sum()) / total
    else:
        headline = 0.0
    return AllocationResult(
        price=headline,
        grants_w=grants,
        revenue_rate=revenue_rate,
        candidate_prices=candidates,
        feasible_prices=feasible,
        pdu_prices=pdu_prices,
    )


def select(frame: BidFrame, rows: np.ndarray) -> BidFrame:
    """A sub-frame of ``rows`` (ascending), keeping the PDU table."""
    rows = np.asarray(rows, dtype=np.intp)
    return BidFrame(
        rack_ids=tuple(frame.rack_ids[int(i)] for i in rows),
        pdu_ids=frame.pdu_ids,
        pdu_code=frame.pdu_code[rows],
        tenant_ids=frame.tenant_ids,
        tenant_code=frame.tenant_code[rows],
        kind=frame.kind[rows],
        d_max_w=frame.d_max_w[rows],
        q_min=frame.q_min[rows],
        d_min_w=frame.d_min_w[rows],
        q_max=frame.q_max[rows],
        rack_cap_w=frame.rack_cap_w[rows],
        max_demand_w=frame.max_demand_w[rows],
        floor_w=frame.floor_w[rows],
        breakpoints=select_breakpoints(frame, rows),
        demands=tuple(frame._demands[int(i)] for i in rows),
        bids=None,
        blocks=(),
    )


def select_breakpoints(frame: BidFrame, rows: np.ndarray) -> np.ndarray:
    """Grid-augmentation points contributed by a subset of rows."""
    points: list[float] = []
    for i in np.asarray(rows, dtype=np.intp):
        i = int(i)
        if frame.kind[i] == KIND_CLOSED:
            points.append(float(frame.q_min[i]))
            points.append(float(frame.q_max[i]))
        else:
            fn = frame._demands[i]
            for attr in ("q_min", "q_max", "price_cap"):
                value = getattr(fn, attr, None)
                if value is not None:
                    points.append(float(value))
    return np.asarray(points, dtype=float)


def pdu_slices(frame: BidFrame) -> list[tuple[str, BidFrame]]:
    """Per-PDU single-PDU sub-frames over contiguous row ranges."""
    starts, seg_codes = frame.segments()
    ends = np.concatenate([starts[1:], [len(frame)]])
    slices: list[tuple[str, BidFrame]] = []
    for seg, lo, hi in zip(seg_codes, starts, ends):
        pdu_id = frame.pdu_ids[int(seg)]
        rows = slice(int(lo), int(hi))
        sub = BidFrame(
            rack_ids=frame.rack_ids[rows],
            pdu_ids=(pdu_id,),
            pdu_code=np.zeros(hi - lo, dtype=np.intp),
            tenant_ids=frame.tenant_ids,
            tenant_code=frame.tenant_code[rows],
            kind=frame.kind[rows],
            d_max_w=frame.d_max_w[rows],
            q_min=frame.q_min[rows],
            d_min_w=frame.d_min_w[rows],
            q_max=frame.q_max[rows],
            rack_cap_w=frame.rack_cap_w[rows],
            max_demand_w=frame.max_demand_w[rows],
            floor_w=frame.floor_w[rows],
            breakpoints=select_breakpoints(frame, np.arange(lo, hi)),
            demands=frame._demands[rows],
            bids=None,
            blocks=(),
        )
        slices.append((pdu_id, sub))
    return slices


def demand_totals(
    frame: BidFrame,
    prices: np.ndarray,
    group_rows: "Sequence[np.ndarray]" = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Demand totals over one grid by breakpoint sweep (one market).

    Returns ``(pdu_demand, group_demand)`` with shapes ``(n_pdus, P)``
    and ``(len(group_rows), P)``.
    """
    prices = np.asarray(prices, dtype=float)
    n_prices = prices.size
    n_pdu = len(frame.pdu_ids)
    n_groups = len(group_rows)
    pdu_demand = np.zeros((n_pdu, n_prices))
    group_demand = np.zeros((n_groups, n_prices))
    if not len(frame):
        return pdu_demand, group_demand

    closed = np.flatnonzero(frame.kind == KIND_CLOSED)
    if closed.size:
        d_max = frame.d_max_w[closed]
        d_min = frame.d_min_w[closed]
        q_lo = frame.q_min[closed]
        q_hi = frame.q_max[closed]
        cap = frame.rack_cap_w[closed]

        flat_w = np.minimum(d_max, cap)
        # Demand is zero strictly above q_max: first grid index past it.
        j_end = np.searchsorted(prices, q_hi, side="right")
        span = q_hi - q_lo
        safe_span = np.where(span > 0, span, 1.0)
        slope = np.where(span > 0, (d_min - d_max) / safe_span, 0.0)
        # A descending segment exists only when the curve actually
        # falls and the rack cap does not flatten it entirely.
        sloped = (slope < 0) & (cap > d_min)
        intercept = d_max - slope * q_lo
        # Where the rack cap cuts the descending segment, the row
        # stays flat (at the cap) until the line drops below it.
        safe_slope = np.where(slope < 0, slope, -1.0)
        # Near-flat curves make this quotient overflow to +/-inf;
        # searchsorted and the clamp below absorb either extreme.
        with np.errstate(over="ignore"):
            crossing = np.where(
                sloped & (cap < d_max),
                (cap - intercept) / safe_slope,
                q_lo,
            )
        j_start = np.minimum(
            np.searchsorted(
                prices, np.maximum(q_lo, crossing), side="right"
            ),
            j_end,
        )
        # For cap-clipped rows the division can land the crossing a
        # float-ulp on the wrong side of a grid point; classify the
        # boundary point by value (j_start must be the first index
        # where the line is below the cap) so flat cells are exactly
        # `cap`, matching the object path's min() bit for bit.
        # Unclipped rows break at q_lo, which searchsorted gets exact.
        clipped = sloped & (cap < d_max)
        at_prev = intercept + slope * prices[np.maximum(j_start - 1, 0)]
        j_start = np.where(
            clipped & (j_start > 0) & (at_prev < cap),
            j_start - 1,
            j_start,
        )
        at_here = intercept + slope * prices[np.minimum(j_start, n_prices - 1)]
        j_start = np.where(
            clipped & (j_start < j_end) & (at_here >= cap),
            j_start + 1,
            j_start,
        )
        j_start = np.minimum(j_start, j_end)
        j_start = np.where(sloped, j_start, j_end)
        # The active count pins totals to exactly 0.0 where *no row
        # can demand anything* — so it must exclude zero-size rows
        # and, for curves falling to d_min == 0, the q_max grid
        # point itself (demand there is exactly zero).  Otherwise
        # cumsum cancellation residue (~1e-16) from other rows'
        # add/remove pairs survives the mask and masquerades as
        # revenue in empty regions of the scan.
        counted = flat_w > 0
        j_count = np.where(
            sloped & (d_min == 0.0),
            np.searchsorted(prices, q_hi, side="left"),
            j_end,
        )

        def scatter(codes, width):
            """Difference arrays for one aggregation (PDUs or groups)."""
            d_const = np.zeros((width, n_prices + 1))
            d_slope = np.zeros((width, n_prices + 1))
            d_count = np.zeros((width, n_prices + 1), dtype=np.int64)
            base = np.zeros(width)
            np.add.at(base, codes, flat_w)
            d_const[:, 0] += base
            np.add.at(d_const, (codes, j_start), -flat_w)
            cnt = np.flatnonzero(counted)
            counts = np.zeros(width, dtype=np.int64)
            np.add.at(counts, codes[cnt], 1)
            d_count[:, 0] += counts
            np.add.at(d_count, (codes[cnt], j_count[cnt]), -1)
            lin = np.flatnonzero(sloped)
            if lin.size:
                np.add.at(d_const, (codes[lin], j_start[lin]), intercept[lin])
                np.add.at(d_const, (codes[lin], j_end[lin]), -intercept[lin])
                np.add.at(d_slope, (codes[lin], j_start[lin]), slope[lin])
                np.add.at(d_slope, (codes[lin], j_end[lin]), -slope[lin])
            total = (
                np.cumsum(d_const[:, :n_prices], axis=1)
                + np.cumsum(d_slope[:, :n_prices], axis=1) * prices[None, :]
            )
            np.maximum(total, 0.0, out=total)
            total[np.cumsum(d_count[:, :n_prices], axis=1) == 0] = 0.0
            return total

        pdu_demand += scatter(frame.pdu_code[closed], n_pdu)
        if n_groups:
            # Map frame rows to their position in the closed subset so
            # group members reuse the per-row breakpoint columns.
            pos = np.full(len(frame), -1, dtype=np.intp)
            pos[closed] = np.arange(closed.size, dtype=np.intp)
            member_idx = []
            member_code = []
            for k, rows in enumerate(group_rows):
                idx = pos[np.asarray(rows, dtype=np.intp)]
                idx = idx[idx >= 0]
                member_idx.append(idx)
                member_code.append(np.full(idx.size, k, dtype=np.intp))
            sel = np.concatenate(member_idx) if member_idx else np.empty(0, np.intp)
            if sel.size:
                codes = np.concatenate(member_code)
                keep = (
                    flat_w, j_start, j_end, intercept, slope, sloped,
                    counted, j_count,
                )
                (
                    flat_w, j_start, j_end, intercept, slope, sloped,
                    counted, j_count,
                ) = (a[sel] for a in keep)
                group_demand += scatter(codes, n_groups)

    for row in frame.sampled_rows:
        row = int(row)
        fn = frame._demands[row]
        demand = np.minimum(fn.demand_grid(prices), frame.rack_cap_w[row])
        pdu_demand[int(frame.pdu_code[row])] += demand
        for k, rows in enumerate(group_rows):
            if row in rows:
                group_demand[k] += demand
    return pdu_demand, group_demand


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
# Admission and the Eq. 2-4 check
# ----------------------------------------------------------------------


def screen_bids(
    tenant_bids: Iterable[TenantBid],
) -> tuple[list[TenantBid], tuple[QuarantinedBid, ...]]:
    """Partition solicited bundles into admitted and quarantined.

    A bundle is admitted only if *every* rack bid in it is valid —
    partial admission would grant a tenant capacity on exactly the
    racks whose bids happened to parse, an outcome no tenant asked for.
    Quarantined bundles report one :class:`QuarantinedBid` per
    offending rack bid.

    Returns:
        ``(admitted, quarantined)``; admitted bundles preserve
        submission order.
    """
    admitted: list[TenantBid] = []
    quarantined: list[QuarantinedBid] = []
    for bundle in tenant_bids:
        offenders = [
            (bid, verdict)
            for bid in bundle.rack_bids
            if (verdict := inspect_rack_bid(bid)) is not None
        ]
        if not offenders:
            admitted.append(bundle)
            continue
        for bid, (reason, detail) in offenders:
            quarantined.append(
                QuarantinedBid(
                    tenant_id=bundle.tenant_id,
                    rack_id=bid.rack_id,
                    reason=reason,
                    detail=detail,
                )
            )
    return admitted, tuple(quarantined)


def verify_allocation(
    result: AllocationResult,
    bids: Sequence[RackBid],
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    tolerance_w: float = 1e-6,
    extra_constraints: Sequence = (),
) -> None:
    """Assert an allocation respects Eqs. (2)-(4); raise otherwise.

    This is the reliability backstop: the operator must never issue
    grants that could overload the shared infrastructure, so the engine
    runs this check on every clearing outcome in tests and (cheaply) in
    the simulation loop.

    Every check is written ``not value <= bound`` so that a NaN grant or
    capacity fails it instead of passing silently.

    Raises:
        CapacityError: If any rack, PDU, or UPS constraint is violated,
            or if a grant exceeds the rack's demanded quantity.
    """
    by_rack = {bid.rack_id: bid for bid in bids}
    pdu_totals: dict[str, float] = {}
    total = 0.0
    for rack_id, grant in result.grants_w.items():
        if not grant >= -tolerance_w:
            raise CapacityError(f"rack {rack_id}: negative or NaN grant {grant}")
        bid = by_rack.get(rack_id)
        if bid is None:
            raise CapacityError(f"grant to rack {rack_id} that submitted no bid")
        if not grant <= bid.rack_cap_w + tolerance_w:
            raise CapacityError(
                f"rack {rack_id}: grant {grant:.3f} W exceeds rack headroom "
                f"{bid.rack_cap_w:.3f} W (Eq. 2)"
            )
        paid_price = result.price_for_pdu(bid.pdu_id)
        demanded = bid.clipped_demand_at(paid_price)
        if not grant <= demanded + tolerance_w:
            raise CapacityError(
                f"rack {rack_id}: grant {grant:.3f} W exceeds demand "
                f"{demanded:.3f} W at clearing price {paid_price:.4f}"
            )
        pdu_totals[bid.pdu_id] = pdu_totals.get(bid.pdu_id, 0.0) + grant
        total += grant
    for pdu_id, pdu_total in pdu_totals.items():
        cap = pdu_spot_w.get(pdu_id, 0.0)
        if not pdu_total <= cap + tolerance_w:
            raise CapacityError(
                f"PDU {pdu_id}: granted {pdu_total:.3f} W exceeds spot "
                f"capacity {cap:.3f} W (Eq. 3)"
            )
    if not total <= ups_spot_w + tolerance_w:
        raise CapacityError(
            f"UPS: granted {total:.3f} W exceeds spot capacity "
            f"{ups_spot_w:.3f} W (Eq. 4)"
        )
    for constraint in extra_constraints:
        granted = sum(
            result.grants_w.get(rack_id, 0.0) for rack_id in constraint.rack_ids
        )
        if not granted <= constraint.cap_w + tolerance_w:
            raise CapacityError(
                f"constraint {constraint.name}: granted {granted:.3f} W "
                f"exceeds cap {constraint.cap_w:.3f} W"
            )


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
        # As np.minimum clips: a tie gives the cap, a NaN on either
        # side gives NaN.
        floor[i] = np.minimum(at_cap, caps[i])
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
        # The per-PDU blocks only carry the PDU markets' grid caches.
        blocks=tuple(
            PduBlock(pdu_id, tuple(group))
            for pdu_id, group in sorted(group_by_pdu(ordered).items())
        ),
    )


# ----------------------------------------------------------------------
# The object-walking frame build and its incremental builder
# ----------------------------------------------------------------------
#
# The frame build, duplicate-rack check and admission rows as they were
# before the market walked each slot's bundles once into a BidTable:
# grouping by PDU, one PduBlock per PDU from per-row tuples, bid-by-bid
# reuse checks, and the admission screen's own walk.


def group_by_pdu(bids: Iterable[RackBid]) -> dict[str, list[RackBid]]:
    """Bids grouped by PDU id, submission order kept within each group."""
    groups: dict[str, list[RackBid]] = {}
    for b in bids:
        groups.setdefault(b.pdu_id, []).append(b)
    return groups


class PduBlock:
    """One PDU's bids as frame columns.

    This is the only place a :class:`RackBid` becomes frame columns:
    :meth:`BidFrame.from_blocks` concatenates blocks into a frame.  The
    tenant table is *local* (first appearance within this PDU's rows);
    ``from_blocks`` merges the local tables in block order, which
    preserves global first-appearance order.  ``breakpoints`` are the
    grid-augmentation points of the block's rows, in row order.
    """

    __slots__ = (
        "pdu_id",
        "bids",
        "rack_ids",
        "tenant_table",
        "tenant_code_local",
        "kind",
        "d_max_w",
        "q_min",
        "d_min_w",
        "q_max",
        "rack_cap_w",
        "max_demand_w",
        "floor_w",
        "breakpoints",
        "demands",
        "_grid_cache",
    )

    def __init__(self, pdu_id: str, bids: tuple[RackBid, ...]) -> None:
        tenant_index: dict[str, int] = {}
        tenant_code: list[int] = []
        # One row of (cap, d_max, q_min, d_min, q_max, max_demand) per
        # bid, plus the grid-augmentation points of its public curve
        # attributes (q_min / q_max / price_cap), in row order.
        rows: list[tuple] = []
        points: list[float] = []
        sampled: list[int] = []
        for i, b in enumerate(bids):
            tenant_code.append(
                tenant_index.setdefault(b.tenant_id, len(tenant_index))
            )
            fn = b.demand
            # The type checks are deliberately exact: subclasses may
            # override demand_at/demand_grid, so they must be sampled.
            if type(fn) is LinearBid:
                rows.append(
                    (b.rack_cap_w, fn.d_max_w, fn.q_min, fn.d_min_w,
                     fn.q_max, fn.d_max_w)
                )
                points += (fn.q_min, fn.q_max)
            elif type(fn) is StepBid:
                # The degenerate q_min == q_max curve.
                rows.append(
                    (b.rack_cap_w, fn.demand_w, fn.price_cap, fn.demand_w,
                     fn.price_cap, fn.demand_w)
                )
                points.append(fn.price_cap)
            else:
                # Sampled: only q_max (the max acceptable price) and the
                # zero-price demand are meaningful columns.
                rows.append(
                    (b.rack_cap_w, 0.0, 0.0, 0.0, fn.max_price, fn.max_demand_w)
                )
                sampled.append(i)
                for attr in ("q_min", "q_max", "price_cap"):
                    value = getattr(fn, attr, None)
                    if value is not None:
                        points.append(float(value))
        n = len(bids)
        # One contiguous array per column: strided views of the row
        # array would pickle larger and slower in every checkpoint.
        caps, d_max, q_min, d_min, q_max, max_demand = np.ascontiguousarray(
            np.array(rows, dtype=float).reshape(n, 6).T
        )
        kind = np.zeros(n, dtype=np.uint8)  # all KIND_CLOSED
        demands: list[DemandFunction | None] = [None] * n
        # Rack-clipped demand at each row's own max acceptable price:
        # the closed-form curve's value at q_max, or the sampled curve's
        # own demand_at(max_price).
        floor = np.where(q_max <= q_min, d_max, d_max + (d_min - d_max))
        if sampled:
            kind[sampled] = KIND_SAMPLED
            for i in sampled:
                fn = demands[i] = bids[i].demand
                floor[i] = fn.demand_at(fn.max_price)
        np.minimum(floor, caps, out=floor)
        self.pdu_id = pdu_id
        self.bids = bids
        self.rack_ids = tuple([b.rack_id for b in bids])
        self.tenant_table = tuple(tenant_index)
        self.tenant_code_local = np.array(tenant_code, dtype=np.intp)
        self.kind = kind
        self.d_max_w = d_max
        self.q_min = q_min
        self.d_min_w = d_min
        self.q_max = q_max
        self.rack_cap_w = caps
        self.max_demand_w = max_demand
        self.floor_w = floor
        self.breakpoints = np.asarray(points, dtype=float)
        self.demands = tuple(demands)
        # ``(key, grid)`` of the last price grid cleared over this PDU's
        # market (see MarketClearing._grid).
        self._grid_cache: tuple | None = None

    def __len__(self) -> int:
        return len(self.rack_ids)

    def __repr__(self) -> str:
        return f"PduBlock(pdu={self.pdu_id!r}, bids={len(self)})"


def frame_from_blocks(blocks: Sequence[PduBlock]) -> BidFrame:
    """Assemble a frame from per-PDU column blocks (sorted by PDU).

    Rows concatenate in block (= PDU-sorted, submission-stable)
    order, and the merged tenant table preserves first appearance
    over rows — within a block the local table is first-appearance
    ordered, and blocks merge in row order, so ``dict.setdefault``
    over block tables is ``dict.fromkeys`` over rows.
    """
    blocks = [b for b in blocks if len(b.rack_ids)]
    if not blocks:
        none = np.empty(0)
        return BidFrame(
            rack_ids=(),
            pdu_ids=(),
            pdu_code=np.empty(0, dtype=np.intp),
            tenant_ids=(),
            tenant_code=np.empty(0, dtype=np.intp),
            kind=np.empty(0, dtype=np.uint8),
            d_max_w=none,
            q_min=none,
            d_min_w=none,
            q_max=none,
            rack_cap_w=none,
            max_demand_w=none,
            floor_w=none,
            breakpoints=none,
            demands=(),
            bids=(),
            blocks=(),
        )
    tenant_index: dict[str, int] = {}
    tenant_cols = []
    pdu_cols = []
    for i, b in enumerate(blocks):
        remap = np.fromiter(
            (
                tenant_index.setdefault(t, len(tenant_index))
                for t in b.tenant_table
            ),
            dtype=np.intp,
            count=len(b.tenant_table),
        )
        tenant_cols.append(remap[b.tenant_code_local])
        pdu_cols.append(np.full(len(b.rack_ids), i, dtype=np.intp))
    return BidFrame(
        rack_ids=tuple(r for b in blocks for r in b.rack_ids),
        pdu_ids=tuple(b.pdu_id for b in blocks),
        pdu_code=np.concatenate(pdu_cols),
        tenant_ids=tuple(tenant_index),
        tenant_code=np.concatenate(tenant_cols),
        kind=np.concatenate([b.kind for b in blocks]),
        d_max_w=np.concatenate([b.d_max_w for b in blocks]),
        q_min=np.concatenate([b.q_min for b in blocks]),
        d_min_w=np.concatenate([b.d_min_w for b in blocks]),
        q_max=np.concatenate([b.q_max for b in blocks]),
        rack_cap_w=np.concatenate([b.rack_cap_w for b in blocks]),
        max_demand_w=np.concatenate([b.max_demand_w for b in blocks]),
        floor_w=np.concatenate([b.floor_w for b in blocks]),
        breakpoints=np.concatenate([b.breakpoints for b in blocks]),
        demands=tuple(d for b in blocks for d in b.demands),
        bids=tuple(bid for b in blocks for bid in b.bids),
        blocks=tuple(blocks),
    )


def from_bids(bids: Sequence[RackBid]) -> BidFrame:
    """The from-scratch frame build: one :class:`PduBlock` per PDU."""
    groups = group_by_pdu(bids)
    return frame_from_blocks(
        [PduBlock(pdu_id, tuple(groups[pdu_id])) for pdu_id in sorted(groups)]
    )


def _same_bid(old: RackBid, new: RackBid) -> bool:
    """Value equality for one bid, demand curves compared by parameters.

    Demand functions are plain classes without ``__eq__``, and tenants
    construct fresh bid objects every slot — identity alone would mark
    every block dirty.  Closed-form curves compare by their defining
    floats; anything else (FullBid, custom subclasses) is conservatively
    treated as changed, which costs a rebuild but never staleness.
    """
    if old is new:
        return True
    if (
        old.rack_id != new.rack_id
        or old.pdu_id != new.pdu_id
        or old.tenant_id != new.tenant_id
        or old.rack_cap_w != new.rack_cap_w
    ):
        return False
    fo, fn = old.demand, new.demand
    if fo is fn:
        return True
    kind = type(fo)
    if kind is not type(fn):
        return False
    if kind is LinearBid:
        return (
            fo.d_max_w == fn.d_max_w
            and fo.q_min == fn.q_min
            and fo.d_min_w == fn.d_min_w
            and fo.q_max == fn.q_max
        )
    if kind is StepBid:
        return fo.demand_w == fn.demand_w and fo.price_cap == fn.price_cap
    return False


def _same_bids(old: Sequence[RackBid], new: Sequence[RackBid]) -> bool:
    return len(old) == len(new) and all(
        _same_bid(o, n) for o, n in zip(old, new)
    )


class IncrementalFrameBuilder:
    """Build each slot's :class:`BidFrame` from persistent PDU blocks.

    ``build(bids)`` groups the slot's bids by PDU exactly as
    :meth:`BidFrame.from_bids` does, reuses every block whose bids are
    value-unchanged since the previous slot, rebuilds only the dirty
    ones, and assembles the frame through :meth:`BidFrame.from_blocks`.
    A slot with *no* dirty or removed PDUs returns the previous frame
    object itself, so downstream per-frame caches survive across slots
    too; a reused block keeps its cached price grid either way.

    The builder is plain state on the allocator: checkpointing pickles
    it with the engine, and because its output is value-identical to
    ``from_bids`` regardless of cache contents, crash/resume stays
    byte-identical whether the cache was warm or cold.

    Attributes:
        last_dirty: PDU ids rebuilt (or removed) by the latest build,
            sorted — the invalidation set tests assert on.
        builds / rebuilt_pdus / reused_pdus: Monotone counters for
            benchmarks and telemetry.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, PduBlock] = {}
        self._frame: BidFrame | None = None
        self.last_dirty: tuple[str, ...] = ()
        self.builds = 0
        self.rebuilt_pdus = 0
        self.reused_pdus = 0

    def build(self, bids: Sequence[RackBid]) -> BidFrame:
        """The slot's frame, value-identical to ``BidFrame.from_bids``."""
        self.builds += 1
        groups = group_by_pdu(bids)
        removed = [p for p in self._blocks if p not in groups]
        dirty: list[str] = []
        blocks: dict[str, PduBlock] = {}
        for pdu_id, group in groups.items():
            old = self._blocks.get(pdu_id)
            if old is not None and _same_bids(old.bids, group):
                blocks[pdu_id] = old
                self.reused_pdus += 1
            else:
                blocks[pdu_id] = PduBlock(pdu_id, tuple(group))
                dirty.append(pdu_id)
                self.rebuilt_pdus += 1
        self.last_dirty = tuple(sorted(set(dirty) | set(removed)))
        self._blocks = blocks
        if not self.last_dirty and self._frame is not None:
            return self._frame
        frame = frame_from_blocks([blocks[p] for p in sorted(blocks)])
        self._frame = frame
        return frame


#: Values per row of the column screen: ``(d_min, q_min, d_max, d_max,
#: q_max, cap)``, so that the first three are each at most the last
#: three.  A sampled row is all NaN, so :func:`inspect_rack_bid` decides
#: it.
_WIDTH = 6
_SAMPLED = (math.nan,) * _WIDTH


def _rows(bundles: Sequence[TenantBid]) -> np.ndarray:
    """Every rack bid of ``bundles`` as one ``(bids, _WIDTH)`` float row.

    One walk extends one flat list, converted with ``array("d")``, which
    accepts exactly the values ``math.isfinite`` accepts;
    ``np.array(..., dtype=float)`` would also parse ``"5"`` and turn
    ``None`` into NaN.  A list holding something that is not a real
    number is converted row by row instead, and the rows that fail are
    left NaN for :func:`inspect_rack_bid` to name.
    """
    flat: list = []
    add = flat.extend
    for bundle in bundles:
        for bid in bundle.rack_bids:
            fn = bid.demand
            # Exact types, as in PduBlock: a subclass may override the
            # curve, so it is sampled.
            if type(fn) is LinearBid:
                d_max = fn.d_max_w
                add((fn.d_min_w, fn.q_min, d_max, d_max, fn.q_max, bid.rack_cap_w))
            elif type(fn) is StepBid:
                d_max = fn.demand_w
                q_max = fn.price_cap
                add((d_max, q_max, d_max, d_max, q_max, bid.rack_cap_w))
            else:
                add(_SAMPLED)
    try:
        values = array("d", flat)
    except (TypeError, ValueError, ArithmeticError):
        values = array("d")
        for start in range(0, len(flat), _WIDTH):
            try:
                values += array("d", flat[start:start + _WIDTH])
            except (TypeError, ValueError, ArithmeticError):
                values += array("d", _SAMPLED)
    return np.frombuffer(values).reshape(-1, _WIDTH)


def flatten_bids(tenant_bids: Iterable[TenantBid]) -> list[RackBid]:
    """Flatten tenant bundles into the rack-bid list clearing consumes."""
    rack_bids: list[RackBid] = []
    seen: set[str] = set()
    for tenant_bid in tenant_bids:
        for bid in tenant_bid.rack_bids:
            if bid.rack_id in seen:
                raise BidError(f"rack {bid.rack_id} appears in multiple bundles")
            seen.add(bid.rack_id)
            rack_bids.append(bid)
    return rack_bids


# ----------------------------------------------------------------------
# Tenant value curves
# ----------------------------------------------------------------------


def sprinting_value_curve(
    latency_model: LatencyModel,
    cost_model: SprintingCostModel,
    base_power_w: float,
    arrival_rps: float,
    max_spot_w: float,
    grid_points: int = 100,
) -> SpotValueCurve:
    """Value curve for a sprinting (interactive) tenant's rack.

    The gain is the reduction of the latency-cost accrual rate when the
    rack budget rises from ``base_power_w`` to ``base_power_w + d``:
    dominated by avoided quadratic SLO penalties when the base budget
    forces latency above the SLO.

    Args:
        latency_model: The rack's tail-latency model.
        cost_model: The tenant's SLO cost model.
        base_power_w: Budget without spot capacity.
        arrival_rps: Anticipated request rate for the slot being bid on.
        max_spot_w: Rack spot headroom ``P_r^R``.
        grid_points: Tabulation resolution.
    """
    if max_spot_w <= 0:
        raise ConfigurationError("max_spot_w must be positive")
    grid = np.linspace(0.0, max_spot_w, grid_points + 1)
    base_cost = cost_model.cost_rate_per_hour(
        latency_model.latency_ms(base_power_w, arrival_rps), arrival_rps
    )
    gains = np.array(
        [
            base_cost
            - cost_model.cost_rate_per_hour(
                latency_model.latency_ms(base_power_w + float(d), arrival_rps),
                arrival_rps,
            )
            for d in grid
        ]
    )
    return SpotValueCurve.from_gain_samples(base_power_w, grid, gains)


def opportunistic_value_curve(
    throughput_model: ThroughputModel,
    cost_model: OpportunisticCostModel,
    base_power_w: float,
    backlog_units: float,
    max_spot_w: float,
    grid_points: int = 100,
) -> SpotValueCurve:
    """Value curve for an opportunistic (batch) tenant's rack.

    The gain is the completion-cost saving on the current backlog,
    normalised to a per-hour rate over the backlog's base completion
    time: ``V(d) = rho * (W/R0 - W/R(d)) / (W/R0 / 3600)``, which reduces
    to ``rho * 3600 * (1 - R0/R(d))`` — concave and saturating in ``d``.

    Args:
        throughput_model: The rack's processing-rate model.
        cost_model: The tenant's linear completion-time cost model.
        base_power_w: Budget without spot capacity.
        backlog_units: Outstanding work (only its positivity matters for
            the normalised gain; retained for API symmetry/documentation).
        max_spot_w: Rack spot headroom ``P_r^R``.
        grid_points: Tabulation resolution.
    """
    if max_spot_w <= 0:
        raise ConfigurationError("max_spot_w must be positive")
    if backlog_units < 0:
        raise ConfigurationError("backlog_units must be >= 0")
    grid = np.linspace(0.0, max_spot_w, grid_points + 1)
    base_rate = throughput_model.rate_at(base_power_w)
    if backlog_units == 0 or base_rate <= 0:
        # No backlog (nothing to speed up) or base budget below idle (the
        # tenant needs guaranteed capacity, not spot, to make progress).
        gains = np.zeros_like(grid)
        return SpotValueCurve.from_gain_samples(base_power_w, grid, gains)
    rates = np.array(
        [throughput_model.rate_at(base_power_w + float(d)) for d in grid]
    )
    gains = cost_model.rho * 3600.0 * (1.0 - base_rate / np.maximum(rates, 1e-12))
    return SpotValueCurve.from_gain_samples(base_power_w, grid, gains)
