"""Market clearing by feasible-price scan: uniform and locational.

The operator maximises ``q(t) * Σ_r D_r(q(t))`` (paper Eq. 1) subject to
the rack / PDU / UPS capacity constraints (Eqs. 2-4) by scanning a grid
of candidate prices — "a simple search over the feasible price range"
(Section III-B2).  Because every demand function is non-increasing in
price, the feasible price set is upward-closed: once a price satisfies
every constraint, all higher prices do too.  The scan therefore walks the
grid once, records the profit at each feasible price, and returns the
*lowest* price attaining the maximum profit (ties break in tenants'
favour).  Profits are float sums, so that holds only up to float
rounding: two prices whose exact profits tie can differ by an ulp once
demand is summed, and the scan then takes the larger, whichever price
it belongs to; a clear that sums the same demand in another order may
pick the other one.

Implementation notes:

* Clearing is **columnar**: bids are viewed through a
  :class:`~repro.core.frame.BidFrame` (built once per slot; a bid list
  is converted once on entry), demand totals over the price grid come
  from a breakpoint sweep over the PDU-sorted rows
  (:meth:`~repro.core.frame.BidFrame.market_totals`), and grants are
  extracted as one demand-vector evaluation at the clearing prices; a
  PDU block kept from an earlier slot keeps both (see ``_sweep``).
  Clearing cost stays in ndarray time, which is what makes 15,000-rack
  scans fast (Fig. 7b).
* **One sweep clears every market of a slot.**  Under locational
  (per-PDU) pricing each PDU is a market with its own grid and
  apportioned cap; a facility-wide price is the one-market case of the
  same code.  The sweep packs markets, in PDU order, into padded blocks
  of at most ``_CHUNK_CELLS`` cells and clears each block with one fixed
  set of numpy calls, so a facility of many small PDUs pays no per-PDU
  interpreter overhead and memory stays bounded however many PDUs bid.
  Each market's cells receive the same float operations, in the same
  order, as a clear of that market alone, so no result depends on the
  packing.  The object-at-a-time and slice-at-a-time reference clears
  it is checked against live in ``tests/oracle.py``.
* Grid resolution is the operator knob ``price_step`` (the paper reports
  clearing times at 0.1 and 1 cent/kW steps).  The scan optionally
  augments the grid with each bid's breakpoints (``q_min``/``q_max``) so
  coarse grids do not miss profit kinks; the grid is built overshoot-free
  and breakpoints within float epsilon of a grid point are deduplicated
  with a tolerance.  The grid build (``_market_grid``) also records
  where each row's ``q_min`` and ``q_max`` landed, so the totals read
  those grid indices instead of searching the grid.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from collections.abc import Mapping, Sequence

import numpy as np

from repro.config import MarketParameters
from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.frame import KIND_CLOSED, BidFrame, PduBlock
from repro.errors import ClearingError

if typing.TYPE_CHECKING:
    from repro.infrastructure.constraints import CapacityConstraint

__all__ = ["MarketClearing", "clear_market"]

#: Feasibility slack for float comparisons against capacity bounds.
_TOL = 1e-9

#: Most padded cells (aggregates x (longest grid + 1)) one sweep block
#: may hold; a market larger than this is cleared in a block of its own.
_CHUNK_CELLS = 1 << 13


def _sampled_points(fn) -> list[float]:
    """A sampled curve's grid-augmentation points: its public attributes."""
    values = (getattr(fn, a, None) for a in ("q_min", "q_max", "price_cap"))
    return [float(v) for v in values if v is not None]


class _Outcome(typing.NamedTuple):
    """What one sweep decided: per market (in PDU order) and per row."""

    price: np.ndarray  # clearing price of each market
    revenue: np.ndarray  # revenue rate of each market, $/h
    candidates: np.ndarray  # prices scanned (0 when none was feasible)
    feasible: np.ndarray  # feasible prices found
    granted: np.ndarray  # grant of each row, 0.0 where none
    keyed: np.ndarray  # the row's rack appears in ``grants_w``
    rejected: np.ndarray  # the row failed admission


def _chunks(sizes: list[int], aggregates: list[int]) -> list[tuple[int, int]]:
    """Split markets, in order, into runs that fit one sweep block.

    A run's block has one row per aggregate (PDU or constraint group)
    and one column per point of its longest grid, plus one; runs grow
    while that stays within ``_CHUNK_CELLS``.  A market too large for
    the bound on its own forms a run alone.
    """
    runs = []
    begin = rows = width = 0
    for m, (size, n) in enumerate(zip(sizes, aggregates)):
        wide = max(width, size + 1)
        if m > begin and (rows + n) * wide > _CHUNK_CELLS:
            runs.append((begin, m))
            begin, rows, wide = m, 0, size + 1
        rows += n
        width = wide
    runs.append((begin, len(sizes)))
    return runs


def _grants(
    frame: BidFrame, outcome: _Outcome, row_market: np.ndarray | None
) -> dict[str, float]:
    """``grants_w`` in clearing order: market by market, each market's
    admitted racks in row order, then its rejected racks (at zero).

    ``row_market`` is each row's market, or ``None`` for one market.
    """
    rows = outcome.keyed.nonzero()[0]
    rejected = outcome.rejected[rows]
    if rows.size == len(frame) and not rejected.any():
        return dict(zip(frame.rack_ids, outcome.granted.tolist()))
    if rejected.any():
        keys = (rejected,) if row_market is None else (rejected, row_market[rows])
        rows = rows[np.lexsort(keys)]
    ids = frame.rack_ids
    return dict(zip([ids[i] for i in rows.tolist()], outcome.granted[rows].tolist()))


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
        """The ascending price grid a facility-wide scan will evaluate."""
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        return self._grid(frame)[0]

    def _grid(self, frame: BidFrame) -> tuple[np.ndarray, np.ndarray | None]:
        """The facility-wide market's grid and row indices (see
        :meth:`_market_grid`), cached on the frame."""
        top = frame.max_acceptable_price() if len(frame) else self.params.max_price
        return self._market_grid(frame, frame, 0, len(frame), top)[1:3]

    def _pdu_grids(self, frame: BidFrame) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Each PDU market's grid, in PDU order (cached on its block), and
        the frame-aligned ``(len(frame), 2)`` row indices of
        :meth:`_market_grid` (``None`` without breakpoints)."""
        starts, _ = frame.segments()
        tops = np.maximum.reduceat(frame.q_max, starts).tolist()
        bounds = [*starts.tolist(), len(frame)]
        entries = [
            self._market_grid(frame, block, a, b, top)
            for block, a, b, top in zip(frame.blocks, bounds, bounds[1:], tops)
        ]
        grids = [entry[1] for entry in entries]
        if not self.include_breakpoints:
            return grids, None
        return grids, np.concatenate([entry[2] for entry in entries])

    def _market_grid(
        self, frame: BidFrame, owner: "BidFrame | PduBlock", first: int, end: int, top: float
    ) -> tuple:
        """The ``(key, grid, index)`` of the market of rows ``first:end``
        of ``frame``, cached on ``owner`` (the frame for a facility-wide
        price, a :class:`PduBlock` for one PDU).

        ``top`` is the rows' highest acceptable price: no bid demands
        anything above it, so the scan stops there.  The fixed-step grid
        from the reserve ``lo`` counts its points so it cannot overshoot
        by a step as ``np.arange`` can (``[lo]`` if ``hi < lo``).  With
        breakpoints, the rows' points in ``[lo, hi]`` (closed rows'
        ``q_min``/``q_max``, sampled curves' public ``q_min``/``q_max``/
        ``price_cap``) are merged in so coarse grids keep the profit
        kinks; sorted values within ``step * 1e-9`` of the one below
        collapse onto it (exact duplicates among them), which at a
        ``q_max`` kink is the breakpoint itself.  A zero enters as
        ``+0.0``, so the zero kept does not depend on the sort.
        ``index`` holds the grid index each closed row's ``q_min`` and
        ``q_max`` landed on (``-1`` where not merged), read through the
        sort's permutation.

        Frames and blocks are immutable, so a key's grid stays valid for
        their lifetime, and the incremental builder hands unchanged
        blocks on across slots: a repeat clear costs a key check.  The
        reserve price is in the key because price events move it.
        """
        lo, step = self.params.reserve_price, self.params.price_step
        hi = min(self.params.max_price, top)
        key = (lo, hi, step, self.include_breakpoints)
        cached = owner._grid_cache
        if cached is not None and cached[0] == key:
            return cached
        n = 0 if hi < lo else math.floor((hi - lo) / step * (1.0 + 1e-12) + 1e-9) + 1
        grid = lo + step * np.arange(n) if n else np.array([lo])
        index = None
        if self.include_breakpoints:
            closed = frame.kind[first:end] == KIND_CLOSED
            points = np.array((frame.q_min[first:end], frame.q_max[first:end])).T
            on = (points >= lo) & (points <= hi) & closed[:, None]
            values = points[on] + 0.0
            sampled = [
                v + 0.0
                for row in (~closed).nonzero()[0].tolist()
                for v in _sampled_points(frame._demands[first + row])
                if lo <= v <= hi
            ]
            index = np.full(points.shape, -1, dtype=np.intp)
            if values.size or sampled:
                merged = np.concatenate((grid, values, sampled))
                order = merged.argsort()
                merged = merged[order]
                keep = np.empty(merged.size, dtype=bool)
                keep[0] = True
                np.greater(merged[1:] - merged[:-1], step * 1e-9, out=keep[1:])
                grid = merged[keep]
                # Each value's place in the merged grid: the kept values
                # up to its sorted position, less one.
                place = np.empty(merged.size, dtype=np.intp)
                place[order] = np.cumsum(keep) - 1
                index[on] = place[n:n + values.size]
        owner._grid_cache = entry = (key, grid, index)
        return entry

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
            ClearingError: On negative or NaN capacities (inconsistent
                inputs).
        """
        self._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
        if not len(bids):
            return AllocationResult.empty()
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        grid, index = self._grid(frame)
        outcome = self._sweep(
            frame,
            [grid],
            index,
            np.zeros(len(frame.pdu_ids), dtype=np.intp),
            np.array([pdu_spot_w.get(p, 0.0) for p in frame.pdu_ids], dtype=float),
            np.array([ups_spot_w], dtype=float),
            [tuple(extra_constraints)],
        )
        return AllocationResult(
            price=float(outcome.price[0]),
            grants_w=_grants(frame, outcome, None),
            revenue_rate=float(outcome.revenue[0]),
            candidate_prices=int(outcome.candidates[0]),
            feasible_prices=int(outcome.feasible[0]),
        )

    @staticmethod
    def _validate_capacities(
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> None:
        # `not cap >= 0` rejects NaN too: a NaN cap fails or passes every
        # later comparison silently, switching Eqs. 3-4 off.
        if not ups_spot_w >= 0:
            raise ClearingError(f"invalid UPS spot capacity {ups_spot_w}")
        for pdu_id, cap in pdu_spot_w.items():
            if not cap >= 0:
                raise ClearingError(f"invalid spot capacity for PDU {pdu_id}: {cap}")
        for constraint in extra_constraints:
            if not constraint.cap_w >= 0:
                raise ClearingError(
                    f"invalid capacity for constraint {constraint.name}: "
                    f"{constraint.cap_w}"
                )

    # ------------------------------------------------------------------
    # The sweep: every market of a slot, block by block
    # ------------------------------------------------------------------

    def _sweep(
        self,
        frame: BidFrame,
        grids: Sequence[np.ndarray],
        index: np.ndarray | None,
        pdu_market: np.ndarray,
        pdu_caps: np.ndarray,
        market_caps: np.ndarray,
        market_constraints: Sequence[Sequence["CapacityConstraint"]],
    ) -> _Outcome:
        """Clear every market of ``frame`` by feasible-price scan.

        Markets are packed, in PDU order, into blocks of at most
        ``_CHUNK_CELLS`` padded cells (:func:`_chunks`), and each block
        is cleared with one fixed set of numpy calls.  A market's result
        does not depend on which block it lands in: its cells get the
        same float operations in the same order either way, so a PDU
        market can reuse an earlier clear's totals over the same rows.

        Args:
            frame: The bids; each PDU belongs to exactly one market.
            grids: Each market's ascending candidate price grid.
            index: The grid indices of each row's ``q_min`` and ``q_max``
                (``-1`` where not known), or ``None``: see
                :meth:`_market_grid`.
            pdu_market: Market of each PDU (non-decreasing).
            pdu_caps: Spot capacity of each PDU (Eq. 3).
            market_caps: Spot capacity of each market as a whole (Eq. 4).
            market_constraints: Each market's extra rack-set bounds.
        """
        step = self.params.price_step
        n_rows = len(frame)
        n_markets = len(grids)
        starts, _ = frame.segments()
        row_bounds = np.concatenate((starts, [n_rows]))
        row_market = pdu_market[frame.pdu_code]
        pdu_bounds = pdu_market.searchsorted(np.arange(n_markets + 1))
        first_pdu = pdu_bounds[:-1]
        sizes = np.array([grid.size for grid in grids])

        # Bid admission (vectorised): a bid whose demand exceeds the
        # per-grant ceiling min(rack headroom, PDU spot, market spot) at
        # EVERY acceptable price can never be satisfied; reject up front
        # so one hopeless bid does not blank its whole market.
        ceiling = np.minimum(frame.rack_cap_w, pdu_caps[frame.pdu_code])
        np.minimum(ceiling, market_caps[row_market], out=ceiling)
        group_rows: list[np.ndarray] = []
        group_market: list[int] = []
        group_caps: list[float] = []
        for m, constraints in enumerate(market_constraints):
            for constraint in constraints:
                rows = frame.rows_for(constraint.rack_ids)
                if rows.size:
                    ceiling[rows] = np.minimum(ceiling[rows], constraint.cap_w)
                group_rows.append(rows)
                group_market.append(m)
                group_caps.append(constraint.cap_w)
        rejected = frame.floor_w > ceiling + _TOL
        # A market whose bids all fail admission is priced out, not
        # silent: every rejected rack still appears with a zero grant.
        all_rejected = np.logical_and.reduceat(rejected, row_bounds[first_pdu])
        groups_of = np.asarray(group_market, dtype=np.intp)
        caps_of_group = np.asarray(group_caps, dtype=float)
        group_bounds = groups_of.searchsorted(np.arange(n_markets + 1))

        # A clean PDU (no row rejected, no constraint group in its market)
        # whose block's cache entry holds its market's grid object takes
        # the totals kept there or stores fresh ones: they depend on its
        # rows and grid, not on caps.  A fresh row is kept as a view of
        # this clear's totals, copied when first reused and dropped when
        # its PDU is next passed over, so a PDU whose block never clears
        # again costs no copy.  Once its totals are reused, it also keeps
        # its grants, which serve again at the same clearing price.
        counts = np.diff(row_bounds)
        clean = ~np.logical_or.reduceat(rejected, starts)
        clean &= (group_bounds[:-1] == group_bounds[1:])[pdu_market]
        markets = pdu_market.tolist()
        entries = {}
        reused = [False] * len(starts)
        kept_price = np.full(len(starts), np.nan)
        for p, (block, ok) in enumerate(zip(frame.blocks, clean.tolist())):
            entry = block._grid_cache
            if entry is None or entry[1] is not grids[markets[p]]:
                continue
            if ok:
                entries[p] = entry
                reused[p] = len(entry) > 3
                kept_price[p] = entry[4] if len(entry) > 4 else np.nan
            elif len(entry) > 3 and entry[3].base is not None:
                # A row not yet copied would pin its whole sweep block.
                block._grid_cache = entry[:3]
        counted = ~(rejected | np.repeat(reused, counts))

        aggregates = (pdu_bounds[1:] - first_pdu) + (group_bounds[1:] - group_bounds[:-1])
        size_list = sizes.tolist()
        pdu_bounds_list = pdu_bounds.tolist()
        row_bounds_list = row_bounds.tolist()
        group_bounds_list = group_bounds.tolist()
        parts = []
        for m0, m1 in _chunks(size_list, aggregates.tolist()):
            p0, p1 = pdu_bounds_list[m0], pdu_bounds_list[m1]
            r0, r1 = row_bounds_list[p0], row_bounds_list[p1]
            local_sizes = sizes[m0:m1]
            width = max(size_list[m0:m1])
            valid = np.arange(width) < local_sizes[:, None]
            prices = np.zeros((m1 - m0, width))
            prices[valid] = np.concatenate(grids[m0:m1])
            chunk_market = row_market[r0:r1] - m0
            admitted_here = (~rejected[r0:r1]).nonzero()[0]
            here = slice(group_bounds_list[m0], group_bounds_list[m1])

            # Demand accumulation: a breakpoint sweep over each market's
            # grid (BidFrame.market_totals) for the rows of PDUs without
            # a kept totals row; constraint groups accumulate alongside
            # the per-PDU totals.
            rows = counted[r0:r1].nonzero()[0] + r0
            pdu_demand, group_demand = frame.market_totals(
                rows,
                p0,
                pdu_market[p0:p1] - m0,
                prices,
                local_sizes,
                group_rows[here],
                groups_of[here] - m0,
                index,
            )
            for p in range(p0, p1):
                if reused[p]:
                    pdu_demand[p - p0, : entries[p][3].size] = entries[p][3]
            local_first = first_pdu[m0:m1] - p0
            if m1 - m0 == p1 - p0:
                total = pdu_demand  # one PDU per market
            else:
                total = np.stack([
                    pdu_demand[a:b].sum(axis=0)
                    for a, b in zip(local_first, pdu_bounds[m0 + 1:m1 + 1] - p0)
                ])

            ok = valid & (total <= market_caps[m0:m1, None] + _TOL)
            ok &= np.logical_and.reduceat(
                pdu_demand <= pdu_caps[p0:p1, None] + _TOL, local_first, axis=0
            )
            if group_demand.size:
                np.logical_and.at(
                    ok,
                    groups_of[here] - m0,
                    group_demand <= caps_of_group[here, None] + _TOL,
                )
            revenue_rate = prices * total / 1000.0  # $/h
            revenue_rate = np.where(ok, revenue_rate, -np.inf)
            best = revenue_rate.argmax(axis=1)  # lowest index on ties
            local = np.arange(m1 - m0)
            best_price = prices[local, best]
            best_revenue = revenue_rate[local, best]

            # Above the grid's last point demand is zero, which is always
            # feasible: a market without a feasible price, or with every
            # bid rejected, clears there with zero profit.
            out_rejected = all_rejected[m0:m1]
            n_feasible = np.where(out_rejected, 0, ok.sum(axis=1))
            cleared = n_feasible > 0
            listed = cleared | out_rejected
            # max(revenue, 0.0) with Python's semantics: -0.0 and NaN
            # pass through unchanged.
            revenue = np.where(cleared & ~(best_revenue < 0.0), best_revenue, 0.0)

            # Grant extraction: one demand-vector evaluation of every
            # admitted row at its market's clearing price, but for the
            # rows of a PDU whose kept grants were taken at that price.
            local_market = pdu_market[p0:p1] - m0
            again = cleared[local_market] & (kept_price[p0:p1] == best_price[local_market])
            admitted_market = chunk_market[admitted_here]
            grant = cleared[admitted_market]
            granted = np.zeros(r1 - r0)
            if again.any():
                again_rows = np.repeat(again, counts[p0:p1])
                grant &= ~again_rows[admitted_here]
                granted[again_rows] = np.concatenate([entries[p0 + k][5] for k in again.nonzero()[0]])
            if grant.any():
                granted[admitted_here[grant]] = frame.demand_at_rows(
                    admitted_here[grant] + r0, best_price[admitted_market[grant]]
                )
            for p, same in zip(range(p0, p1), again.tolist()):
                entry = entries.get(p)
                if entry is None or same:
                    continue
                if not reused[p]:
                    entry = (*entry[:3], pdu_demand[p - p0, : entry[1].size])
                else:
                    kept = entry[4:]
                    if cleared[markets[p] - m0]:
                        own = slice(row_bounds_list[p] - r0, row_bounds_list[p + 1] - r0)
                        kept = (best_price[markets[p] - m0], granted[own].copy())
                    totals = entry[3] if entry[3].base is None else entry[3].copy()
                    entry = (*entry[:3], totals, *kept)
                frame.blocks[p]._grid_cache = entry
            parts.append((
                np.where(cleared, best_price, prices[local, local_sizes - 1] + step),
                revenue,
                np.where(listed, local_sizes, 0),
                n_feasible,
                granted,
                listed[chunk_market],
            ))
        columns = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        return _Outcome(*columns, rejected)

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

        Every PDU's market clears in one sweep over the frame's
        PDU-sorted rows; no per-slot object regrouping happens.

        Returns:
            A combined allocation whose ``pdu_prices`` carries each
            PDU's clearing price; the headline ``price`` is the
            grant-weighted mean.

        Raises:
            ClearingError: On negative or NaN capacities (inconsistent
                inputs).
        """
        self._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
        if not len(bids):
            return AllocationResult.empty()
        frame = bids if isinstance(bids, BidFrame) else BidFrame.from_bids(bids)
        caps, constraints = self._pdu_markets(
            frame, pdu_spot_w, ups_spot_w, extra_constraints
        )
        grids, index = self._pdu_grids(frame)
        caps = np.asarray(caps, dtype=float)
        outcome = self._sweep(
            frame, grids, index, np.arange(caps.size), caps, caps, constraints
        )
        return self._combine(frame, outcome)

    def _pdu_markets(
        self,
        frame: BidFrame,
        pdu_spot_w: Mapping[str, float],
        ups_spot_w: float,
        extra_constraints: Sequence["CapacityConstraint"],
    ) -> tuple[list[float], list[tuple]]:
        """Each PDU market's spot cap and local constraints, in PDU order.

        Apportioning the UPS headroom by servable interest guarantees
        the caps sum to at most ``ups_spot_w`` whenever total interest
        exceeds it (Eq. 4 by construction).  Extra constraints are
        localized by :func:`_localize_constraints`.
        """
        servable = np.minimum(frame.max_demand_w, frame.rack_cap_w)
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
        if not extra_constraints:
            return caps, [()] * len(caps)
        max_demand = {rid: float(v) for rid, v in zip(frame.rack_ids, servable)}
        ends = np.append(starts[1:], len(frame)).tolist()
        constraints = [
            tuple(
                _localize_constraints(
                    extra_constraints, set(frame.rack_ids[lo:hi]), max_demand
                )
            )
            for lo, hi in zip(starts.tolist(), ends)
        ]
        return caps, constraints

    def _combine(self, frame: BidFrame, outcome: _Outcome) -> AllocationResult:
        """The slot result of a per-PDU sweep of ``frame``; revenue
        accumulates sequentially in PDU order."""
        revenue_rate = 0.0
        for local in outcome.revenue.tolist():
            revenue_rate += local
        granted = outcome.granted
        total = float(granted.sum())
        if total > 0:
            row_prices = outcome.price[frame.pdu_code]
            headline = float((row_prices * granted).sum()) / total
        else:
            headline = 0.0
        return AllocationResult(
            price=headline,
            grants_w=_grants(frame, outcome, frame.pdu_code),
            revenue_rate=revenue_rate,
            candidate_prices=int(outcome.candidates.sum()),
            feasible_prices=int(outcome.feasible.sum()),
            pdu_prices=dict(zip(frame.pdu_ids, outcome.price.tolist())),
        )


def _localize_constraints(
    extra_constraints: Sequence["CapacityConstraint"],
    local_ids: set[str],
    max_demand: Mapping[str, float],
):
    """Restrict rack-set constraints to one PDU's local market.

    Phase-balance constraints live within a single PDU, so they localize
    exactly.  A heat zone spanning several PDUs is apportioned by local
    maximum-demand share — a conservative decomposition (the per-PDU
    shares always sum to at most the zone cap).
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
