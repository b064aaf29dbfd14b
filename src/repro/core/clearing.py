"""Uniform-price market clearing by feasible-price scan.

The operator maximises ``q(t) * Σ_r D_r(q(t))`` (paper Eq. 1) subject to
the rack / PDU / UPS capacity constraints (Eqs. 2-4) by scanning a grid
of candidate prices — "a simple search over the feasible price range"
(Section III-B2).  Because every demand function is non-increasing in
price, the feasible price set is upward-closed: once a price satisfies
every constraint, all higher prices do too.  The scan therefore walks the
grid once, records the profit at each feasible price, and returns the
*lowest* price attaining the maximum profit (ties break in tenants'
favour).

Implementation notes:

* Clearing is **columnar**: bids are viewed through a
  :class:`~repro.core.frame.BidFrame` (built once per slot; a bid list
  is converted once on entry), per-PDU demand totals over the price
  grid come from a breakpoint sweep over the PDU-sorted rows
  (:meth:`~repro.core.frame.BidFrame.demand_totals`), and grants are
  extracted as one demand-vector evaluation at the clearing price.
  Clearing cost stays in ndarray time, which is what makes 15,000-rack
  scans fast (Fig. 7b).  The object-at-a-time reference clear it is
  checked against lives in ``tests/oracle.py``.
* Grid resolution is the operator knob ``price_step`` (the paper reports
  clearing times at 0.1 and 1 cent/kW steps).  The scan optionally
  augments the grid with each bid's breakpoints (``q_min``/``q_max``) so
  coarse grids do not miss profit kinks; the grid is built overshoot-free
  and breakpoints within float epsilon of a grid point are deduplicated
  with a tolerance.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping, Sequence

import numpy as np

from repro.config import MarketParameters
from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.frame import BidFrame
from repro.errors import ClearingError

if typing.TYPE_CHECKING:
    from repro.infrastructure.constraints import CapacityConstraint

__all__ = ["MarketClearing", "clear_market"]

#: Feasibility slack for float comparisons against capacity bounds.
_TOL = 1e-9


def _base_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The fixed-step scan grid over ``[lo, hi]``, overshoot-free.

    ``np.arange(lo, hi + step, step)`` can overshoot ``hi`` by a whole
    extra element under float error; counting the steps explicitly keeps
    the last grid point at ``hi`` (up to epsilon).
    """
    if hi < lo:
        return np.array([lo])
    n = int(np.floor((hi - lo) / step * (1.0 + 1e-12) + 1e-9)) + 1
    return lo + step * np.arange(n)


def _augment_grid(
    grid: np.ndarray, points: np.ndarray, lo: float, hi: float, step: float
) -> np.ndarray:
    """Merge bid breakpoints into the grid, deduplicating with tolerance.

    Breakpoints that land within float epsilon of an existing grid point
    would otherwise survive ``np.unique`` as distinct candidates; merged
    values within ``step * 1e-9`` collapse onto the *smaller* one, which
    at a ``q_max`` kink is the breakpoint itself (keeping the kink's
    revenue in the scan).
    """
    points = points[(points >= lo) & (points <= hi)]
    if points.size == 0:
        return grid
    merged = np.unique(np.concatenate([grid, points]))
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(merged), step * 1e-9, out=keep[1:])
    return merged[keep]


@dataclasses.dataclass
class MarketClearing:
    """Reusable clearing engine configured with operator market knobs.

    Args:
        params: Operator market parameters (price grid, reserve price).
        include_breakpoints: Add every bid's demand-curve breakpoints to
            the candidate grid.  Improves profit at coarse steps for a
            small cost; disabled when reproducing the paper's pure
            fixed-step scan timings.
    """

    params: MarketParameters = dataclasses.field(default_factory=MarketParameters)
    include_breakpoints: bool = True

    def candidate_prices(
        self, bids: "Sequence[RackBid] | BidFrame"
    ) -> np.ndarray:
        """The ascending price grid the scan will evaluate."""
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        lo = self.params.reserve_price
        hi = self.params.max_price
        # No bid demands anything above the highest acceptable price, so
        # scanning beyond it only wastes work.
        if len(frame):
            hi = min(hi, frame.max_acceptable_price())
        # Frames are immutable once built, so a grid computed for one
        # (bounds, step, breakpoints-mode) tuple stays valid for the
        # frame's whole lifetime.  The incremental builder hands the
        # engine the *same frame object* on unchanged-bid slots, turning
        # the per-slot grid rebuild into a dict hit.
        key = (lo, hi, self.params.price_step, self.include_breakpoints)
        cache = frame._grid_cache
        if cache is None:
            cache = frame._grid_cache = {}
        grid = cache.get(key)
        if grid is None:
            if hi < lo:
                grid = np.array([lo])
            else:
                grid = _base_grid(lo, hi, self.params.price_step)
                if self.include_breakpoints and len(frame):
                    grid = _augment_grid(
                        grid, frame.breakpoints, lo, hi, self.params.price_step
                    )
            cache[key] = grid
        return grid

    # ------------------------------------------------------------------
    # Facility-wide uniform price
    # ------------------------------------------------------------------

    def clear(
        self,
        bids: "Sequence[RackBid] | BidFrame",
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"] = (),
    ) -> AllocationResult:
        """Clear one slot's market.

        Args:
            bids: Flattened per-rack bids for this slot — either a
                :class:`BidFrame` (preferred on hot paths; built once
                per slot) or a sequence of :class:`RackBid`.
            pdu_spot_w: Predicted spot capacity per PDU, watts (``P_m``).
                PDUs hosting bidding racks but absent from this mapping
                are treated as offering zero spot capacity.
            ups_spot_w: Predicted facility-level spot capacity (``P_o``).
            extra_constraints: Additional rack-set capacity bounds —
                phase balance, heat density (paper Section III-A) — each
                limiting the total grant to its rack set.

        Returns:
            The profit-maximising feasible allocation; the empty
            allocation if no bids were submitted.

        Raises:
            ClearingError: On negative capacities (inconsistent inputs).
        """
        self._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
        if not len(bids):
            return AllocationResult.empty()
        if not isinstance(bids, BidFrame):
            bids = BidFrame.from_bids(bids)
        return self._clear_frame(bids, pdu_spot_w, ups_spot_w, extra_constraints)

    @staticmethod
    def _validate_capacities(
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> None:
        if ups_spot_w < 0:
            raise ClearingError(f"negative UPS spot capacity {ups_spot_w}")
        for pdu_id, cap in pdu_spot_w.items():
            if cap < 0:
                raise ClearingError(f"negative spot capacity for PDU {pdu_id}: {cap}")
        for constraint in extra_constraints:
            if constraint.cap_w < 0:
                raise ClearingError(
                    f"negative capacity for constraint {constraint.name}"
                )

    def _clear_frame(
        self,
        frame: BidFrame,
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> AllocationResult:
        prices = self.candidate_prices(frame)
        pdu_caps = np.array([pdu_spot_w.get(p, 0.0) for p in frame.pdu_ids])

        # Bid admission (vectorised): a bid whose demand exceeds the
        # per-grant ceiling min(rack headroom, PDU spot, UPS spot) at
        # EVERY acceptable price can never be satisfied; reject up front
        # so one hopeless bid does not blank the whole market.
        ceiling = np.minimum(frame.rack_cap_w, pdu_caps[frame.pdu_code])
        np.minimum(ceiling, ups_spot_w, out=ceiling)
        for constraint in extra_constraints:
            rows = frame.rows_for(constraint.rack_ids)
            if rows.size:
                ceiling[rows] = np.minimum(ceiling[rows], constraint.cap_w)
        rejected = frame.floor_w > ceiling + _TOL
        if rejected.all():
            # Priced out, not silent: every rejected rack still appears
            # with a zero grant.
            return AllocationResult(
                price=float(prices[-1]) + self.params.price_step,
                grants_w={rid: 0.0 for rid in frame.rack_ids},
                revenue_rate=0.0,
                candidate_prices=int(prices.size),
                feasible_prices=0,
            )
        if rejected.any():
            rejected_ids = [
                frame.rack_ids[int(i)] for i in np.flatnonzero(rejected)
            ]
            admitted = frame.select(np.flatnonzero(~rejected))
        else:
            rejected_ids = []
            admitted = frame

        # Demand accumulation: a breakpoint sweep over the price grid —
        # O(n log P) scatter + one cumsum per aggregate — instead of
        # materialising the (n_bids, n_prices) demand matrix (see
        # BidFrame.demand_totals).  Constraint groups accumulate
        # alongside the per-PDU totals.
        extra_caps = np.array([c.cap_w for c in extra_constraints])
        member_rows = [admitted.rows_for(c.rack_ids) for c in extra_constraints]
        pdu_demand, extra_demand = admitted.demand_totals(prices, member_rows)
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
            # The scan grid ends at the highest acceptable bid price where
            # demand may still be positive; above it demand is zero, which
            # is always feasible.  Profit there is zero.
            return AllocationResult.empty(
                price=float(prices[-1]) + self.params.price_step
            )

        revenue_rate = prices * total_demand / 1000.0  # $/h
        revenue_rate = np.where(feasible, revenue_rate, -np.inf)
        best = int(np.argmax(revenue_rate))  # argmax returns lowest index on ties
        best_price = float(prices[best])

        # Grant extraction: one demand-vector evaluation at the clearing
        # price, zipped straight into the result.
        granted = admitted.demand_at(best_price)
        grants = dict(zip(admitted.rack_ids, granted.tolist()))
        # Rejected bids appear with a zero grant (priced out, not silent).
        for rack_id in rejected_ids:
            grants[rack_id] = 0.0
        return AllocationResult(
            price=best_price,
            grants_w=grants,
            revenue_rate=float(max(revenue_rate[best], 0.0)),
            candidate_prices=int(prices.size),
            feasible_prices=n_feasible,
        )

    # ------------------------------------------------------------------
    # Locational (per-PDU) pricing
    # ------------------------------------------------------------------

    def clear_per_pdu(
        self,
        bids: "Sequence[RackBid] | BidFrame",
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"] = (),
    ) -> AllocationResult:
        """Clear with a *locational* uniform price per PDU.

        A single facility-wide price does not scale: in a large facility
        with many PDUs, at almost every slot *some* PDU's near-inelastic
        demand exceeds its local headroom, which forces the one global
        price above that demand's acceptable cap — pricing everyone out
        everywhere, including on PDUs with plenty of spare capacity.
        Locational pricing fixes this while keeping each PDU's clearing
        the paper's simple feasible-price scan (and keeping prices
        uniform across the racks that actually share a constraint).

        The facility-level (UPS) headroom is apportioned across PDUs in
        proportion to each PDU's servable interest
        ``min(P_m, local max demand)`` — demand-adaptive, and the sum of
        apportioned caps never exceeds ``P_o`` (Eq. 4 holds by
        construction).

        Each PDU's market is a contiguous *frame slice*; no per-slot
        object regrouping happens.

        Returns:
            A combined allocation whose ``pdu_prices`` carries each
            PDU's clearing price; the headline ``price`` is the
            grant-weighted mean.

        Raises:
            ClearingError: On negative capacities (inconsistent inputs).
        """
        self._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
        if not len(bids):
            return AllocationResult.empty()
        if not isinstance(bids, BidFrame):
            bids = BidFrame.from_bids(bids)
        return self._clear_per_pdu_frame(
            bids, pdu_spot_w, ups_spot_w, extra_constraints
        )

    def _apportion_pdu_caps(
        self,
        frame: BidFrame,
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> tuple[list[float], dict[str, float]]:
        """Per-PDU spot caps after apportioning the UPS headroom.

        Returns the caps in :meth:`BidFrame.pdu_slices` order, plus the
        rack → servable-demand map shared with
        :func:`_localize_constraints`.  Apportioning by servable
        interest guarantees the caps sum to at most ``ups_spot_w``
        whenever total interest exceeds it (Eq. 4 by construction) —
        the property the sharded path's reconciliation pass relies on.
        """
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
        caps: list[float] = []
        for seg in seg_codes:
            pdu_id = frame.pdu_ids[int(seg)]
            local_cap = pdu_spot_w.get(pdu_id, 0.0)
            if total_interest > ups_spot_w and total_interest > 0:
                local_cap = min(
                    local_cap, ups_spot_w * interest[pdu_id] / total_interest
                )
            caps.append(local_cap)
        return caps, max_demand

    def _pdu_tasks(
        self,
        frame: BidFrame,
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> list[tuple[str, BidFrame, float, tuple]]:
        """The per-PDU clearing work list: ``(pdu_id, slice, cap, cons)``.

        Each task is self-contained — clearing it touches nothing
        outside its own slice — which is what makes the list a valid
        unit of distribution for :mod:`repro.core.sharding`.
        """
        caps, max_demand = self._apportion_pdu_caps(
            frame, pdu_spot_w, ups_spot_w, extra_constraints
        )
        tasks: list[tuple[str, BidFrame, float, tuple]] = []
        for (pdu_id, sub), local_cap in zip(frame.pdu_slices(), caps):
            local_constraints = (
                tuple(
                    _localize_constraints(
                        extra_constraints,
                        set(sub.rack_ids),
                        max_demand,
                    )
                )
                if extra_constraints
                else ()
            )
            tasks.append((pdu_id, sub, local_cap, local_constraints))
        return tasks

    def _clear_pdu_slice(
        self, task: tuple[str, BidFrame, float, tuple]
    ) -> AllocationResult:
        """Clear one PDU task from :meth:`_pdu_tasks`."""
        pdu_id, sub, local_cap, local_constraints = task
        return self._clear_frame(
            sub, {pdu_id: local_cap}, local_cap, local_constraints
        )

    def _combine_pdu_results(
        self,
        frame: BidFrame,
        per_pdu: Sequence[tuple[str, AllocationResult]],
    ) -> AllocationResult:
        """Merge per-PDU allocations into the combined slot result.

        Accumulation runs sequentially in the order given — callers pass
        results in :meth:`BidFrame.pdu_slices` order regardless of where
        each PDU was cleared, so serial and sharded paths sum the same
        floats in the same order (byte-identical results).
        """
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

    def _clear_per_pdu_frame(
        self,
        frame: BidFrame,
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> AllocationResult:
        tasks = self._pdu_tasks(
            frame, pdu_spot_w, ups_spot_w, extra_constraints
        )
        per_pdu = [
            (task[0], self._clear_pdu_slice(task)) for task in tasks
        ]
        return self._combine_pdu_results(frame, per_pdu)


def _localize_constraints(
    extra_constraints: Sequence["CapacityConstraint"],
    local_ids: set[str],
    max_demand: Mapping[str, float],
):
    """Restrict rack-set constraints to one PDU's local market.

    Phase-balance constraints live within a single PDU, so they localize
    exactly.  A heat zone spanning several PDUs is apportioned by local
    maximum-demand share — a conservative decomposition (the per-PDU
    shares always sum to at most the zone cap).  The serial and sharded
    per-PDU clears both reach this through
    :meth:`MarketClearing._pdu_tasks`, so their apportioned caps are
    bit-identical.
    """
    from repro.infrastructure.constraints import CapacityConstraint

    localized = []
    for constraint in extra_constraints:
        members_here = constraint.rack_ids & local_ids
        if not members_here:
            continue
        total = sum(
            max_demand.get(rack_id, 0.0) for rack_id in constraint.rack_ids
        )
        here = sum(max_demand.get(rack_id, 0.0) for rack_id in members_here)
        if constraint.rack_ids <= local_ids or total <= 0:
            cap = constraint.cap_w
        else:
            cap = constraint.cap_w * here / total
        localized.append(
            CapacityConstraint(
                name=constraint.name,
                rack_ids=frozenset(members_here),
                cap_w=cap,
            )
        )
    return localized


def clear_market(
    bids: "Sequence[RackBid] | BidFrame",
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    params: MarketParameters | None = None,
    per_pdu: bool = False,
    extra_constraints: Sequence["CapacityConstraint"] = (),
) -> AllocationResult:
    """Convenience one-shot clearing with default engine settings.

    Args:
        bids: Flattened per-rack bids (sequence or :class:`BidFrame`).
        pdu_spot_w: Predicted spot capacity per PDU.
        ups_spot_w: Predicted facility spot capacity.
        params: Market knobs.
        per_pdu: Use locational per-PDU pricing instead of one
            facility-wide price.
        extra_constraints: Phase-balance / heat-density bounds.
    """
    engine = MarketClearing(params=params or MarketParameters())
    if per_pdu:
        return engine.clear_per_pdu(
            bids, pdu_spot_w, ups_spot_w, extra_constraints
        )
    return engine.clear(bids, pdu_spot_w, ups_spot_w, extra_constraints)
