"""Columnar bid representation: the ``BidFrame`` struct-of-arrays.

The clearing engine's hot path used to walk Python :class:`RackBid`
objects one at a time — admission, PDU grouping, demand accumulation,
and grant extraction all scaled with rack count in *interpreter* time.
A :class:`BidFrame` stores one slot's bids as flat, aligned ndarrays
(struct-of-arrays) so every stage of the pipeline — candidate-grid
construction, admission masking, the ``(n_bids, n_prices)`` demand
kernel, per-PDU segment sums, and grant extraction — runs in ndarray
time instead (paper Fig. 7b: 15,000 racks cleared in well under a
second at a 0.1 ¢/kW price step).

Design points:

* **Rows are sorted by PDU** (stably, preserving submission order within
  a PDU), so each PDU owns one contiguous row run and per-PDU sums are
  segment sums (``np.add.reduceat``) rather than object regrouping.
* **One bid-to-column conversion**: :class:`PduBlock` turns one PDU's
  :class:`RackBid` objects into frame columns, and every frame is
  assembled from blocks (:meth:`BidFrame.from_blocks`) — from scratch
  by :meth:`BidFrame.from_bids`, or slot over slot by
  :class:`repro.core.sharding.IncrementalFrameBuilder`, which reuses
  the blocks of unchanged PDUs.  The frame keeps its blocks
  (:attr:`BidFrame.blocks`); each block caches its PDU market's price
  grid, so a reused block keeps its grid across slots.
* **Many markets, one sweep**: :meth:`BidFrame.market_totals` totals
  the demand of every market of a slot — one per PDU under locational
  pricing, one for the facility under a uniform price — each over its
  own grid, with one fixed set of numpy calls for all of them plus one
  ``searchsorted`` per market and side.
* **The object API stays**: :meth:`BidFrame.from_bids` /
  :meth:`BidFrame.to_bids` form a thin adapter, so tenants, enforcement,
  faults, and settlement keep speaking :class:`RackBid`.
* ``LinearBid`` and ``StepBid`` rows evaluate through the exact
  closed-form kernel (:func:`repro.core.demand.demand_matrix`);
  ``FullBid`` and custom demand functions are *sampled* onto the price
  grid through their own ``demand_grid``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat

import numpy as np

from repro.core.bids import RackBid
from repro.core.demand import (
    DemandFunction,
    LinearBid,
    StepBid,
    demand_matrix,
)

__all__ = ["BidFrame", "PduBlock", "group_by_pdu"]


#: Row kinds: closed-form rows evaluate through the vectorised kernel;
#: sampled rows go through their demand object's ``demand_grid``.
KIND_CLOSED = 0
KIND_SAMPLED = 1


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


class BidFrame:
    """One slot's rack bids as aligned columns, sorted by PDU.

    Build with :meth:`from_bids` (adapter from the object API) or
    :meth:`from_blocks` (per-PDU :class:`PduBlock` columns).  All
    columns share row order; rows are grouped by PDU.

    Attributes:
        rack_ids: Rack id per row.
        pdu_ids: Unique PDU ids (sorted); ``pdu_code`` indexes into it.
        pdu_code: Per-row index into ``pdu_ids``.
        tenant_ids: Unique tenant ids; ``tenant_code`` indexes into it.
        tenant_code: Per-row index into ``tenant_ids``.
        kind: Per-row evaluation kind (closed-form vs sampled).
        d_max_w / q_min / d_min_w / q_max: Piece-wise linear bid columns
            (StepBid encoded as the degenerate ``q_min == q_max`` curve;
            for sampled rows only ``q_max`` — the max acceptable price —
            is meaningful).
        rack_cap_w: Physical rack spot headroom per row (Eq. 2 clip).
        max_demand_w: Demand at zero price per row.
        floor_w: Rack-clipped demand at the row's own maximum acceptable
            price — the least capacity the bid must receive at *any*
            acceptable price (drives admission).
        blocks: The :class:`PduBlock` of each PDU, in ``pdu_ids`` order
            (empty on the stripped copies the sharded clear ships to
            worker processes).  Every PDU of the table owns at least one
            row, so a row's ``pdu_code`` is also its segment index.
    """

    __slots__ = (
        "rack_ids",
        "pdu_ids",
        "pdu_code",
        "tenant_ids",
        "tenant_code",
        "kind",
        "d_max_w",
        "q_min",
        "d_min_w",
        "q_max",
        "rack_cap_w",
        "max_demand_w",
        "floor_w",
        "breakpoints",
        "blocks",
        "_demands",
        "_bids",
        "_row_of",
        "_segments",
        "_sampled_rows",
        "_grid_cache",
    )

    def __init__(
        self,
        rack_ids: tuple[str, ...],
        pdu_ids: tuple[str, ...],
        pdu_code: np.ndarray,
        tenant_ids: tuple[str, ...],
        tenant_code: np.ndarray,
        kind: np.ndarray,
        d_max_w: np.ndarray,
        q_min: np.ndarray,
        d_min_w: np.ndarray,
        q_max: np.ndarray,
        rack_cap_w: np.ndarray,
        max_demand_w: np.ndarray,
        floor_w: np.ndarray,
        breakpoints: np.ndarray,
        demands: tuple[DemandFunction | None, ...],
        bids: tuple[RackBid, ...] | None,
        blocks: tuple[PduBlock, ...],
    ) -> None:
        self.rack_ids = rack_ids
        self.pdu_ids = pdu_ids
        self.pdu_code = pdu_code
        self.tenant_ids = tenant_ids
        self.tenant_code = tenant_code
        self.kind = kind
        self.d_max_w = d_max_w
        self.q_min = q_min
        self.d_min_w = d_min_w
        self.q_max = q_max
        self.rack_cap_w = rack_cap_w
        self.max_demand_w = max_demand_w
        self.floor_w = floor_w
        self.breakpoints = breakpoints
        self.blocks = blocks
        self._demands = demands
        self._bids = bids
        self._row_of: dict[str, int] | None = None
        self._segments: tuple[np.ndarray, np.ndarray] | None = None
        self._sampled_rows: np.ndarray | None = None
        # ``(key, grid)`` of the last facility-wide price grid.
        self._grid_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bids(cls, bids: Sequence[RackBid]) -> "BidFrame":
        """Build the columnar frame from object bids (the slot adapter).

        Groups the bids by PDU in submission order and assembles one
        :class:`PduBlock` per PDU, in sorted PDU order — the stable
        PDU sort of the rows.  Every downstream stage (admission, demand
        evaluation, clearing, billing) then reads columns instead of
        objects.
        """
        groups = group_by_pdu(bids)
        return cls.from_blocks(
            [PduBlock(pdu_id, tuple(groups[pdu_id])) for pdu_id in sorted(groups)]
        )

    @classmethod
    def from_blocks(cls, blocks: Sequence[PduBlock]) -> "BidFrame":
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
            return cls(
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
        return cls(
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

    # ------------------------------------------------------------------
    # Adapter back to the object API
    # ------------------------------------------------------------------

    def to_bids(self) -> tuple[RackBid, ...]:
        """The frame's rows as the original :class:`RackBid` objects
        (frame row order)."""
        return self._bids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rack_ids)

    def __repr__(self) -> str:
        return (
            f"BidFrame(bids={len(self)}, pdus={len(self.pdu_ids)}, "
            f"tenants={len(self.tenant_ids)})"
        )

    @property
    def row_of(self) -> dict[str, int]:
        """Rack id → row index (built lazily, cached)."""
        if self._row_of is None:
            self._row_of = {rid: i for i, rid in enumerate(self.rack_ids)}
        return self._row_of

    def rows_for(self, rack_ids: Iterable[str]) -> np.ndarray:
        """Sorted row indices of the racks present in this frame."""
        row_of = self.row_of
        rows = [row_of[r] for r in rack_ids if r in row_of]
        rows.sort()
        return np.asarray(rows, dtype=np.intp)

    def grant_rows(
        self, grants_w: Mapping[str, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """A rack-keyed grant mapping as frame rows: ``(grants, listed)``.

        ``grants`` holds each row's grant (0 where the mapping has no
        entry for the rack) and ``listed`` marks the rows the mapping
        names.  One C-level ``map`` over :attr:`rack_ids` reads the
        grants with NaN for a missing rack; when the non-NaN rows are
        as many as the mapping's entries, they are exactly the listed
        rows.  Otherwise (a NaN grant, or a rack outside the frame) a
        second ``map`` tests membership.
        """
        n = len(self)
        grants = np.fromiter(
            map(grants_w.get, self.rack_ids, repeat(np.nan)), dtype=float, count=n
        )
        listed = grants == grants
        count = np.count_nonzero(listed)
        if count != len(grants_w):
            listed = np.fromiter(
                map(grants_w.__contains__, self.rack_ids), dtype=bool, count=n
            )
        if count != n:
            grants[~listed] = 0.0
        return grants, listed

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous per-PDU row segments: ``(starts, segment_codes)``.

        ``starts`` are the first-row indices of each non-empty PDU run
        (suitable for ``np.add.reduceat``); ``segment_codes`` maps each
        run back to its index in :attr:`pdu_ids`.
        """
        if self._segments is None:
            boundaries = np.flatnonzero(np.diff(self.pdu_code)) + 1
            starts = np.concatenate([[0], boundaries])
            self._segments = (starts, self.pdu_code[starts])
        return self._segments

    @property
    def sampled_rows(self) -> np.ndarray:
        """Row indices that must be sampled through their demand object."""
        if self._sampled_rows is None:
            self._sampled_rows = np.flatnonzero(self.kind == KIND_SAMPLED)
        return self._sampled_rows

    def max_acceptable_price(self) -> float:
        """Highest price any row still demands at (scan upper bound)."""
        return float(self.q_max.max()) if len(self) else 0.0

    # ------------------------------------------------------------------
    # Demand evaluation
    # ------------------------------------------------------------------

    def demand_matrix(
        self, prices: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rack-clipped ``(n_bids, n_prices)`` demand over a price grid."""
        rows = self.sampled_rows
        return demand_matrix(
            self.d_max_w,
            self.q_min,
            self.d_min_w,
            self.q_max,
            self.rack_cap_w,
            prices,
            sampled_rows=rows,
            sampled_demands=tuple(self._demands[int(r)] for r in rows),
            out=out,
        )

    def demand_at(self, price: float) -> np.ndarray:
        """Rack-clipped demand vector at one price."""
        return self.demand_matrix(np.array([float(price)]))[:, 0]

    def demand_at_rows(self, rows: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Rack-clipped demand of ``rows``, each at its own price.

        Grant extraction: every granted row is evaluated at its market's
        clearing price in one kernel call.
        """
        sampled = (self.kind[rows] == KIND_SAMPLED).nonzero()[0]
        return demand_matrix(
            self.d_max_w[rows],
            self.q_min[rows],
            self.d_min_w[rows],
            self.q_max[rows],
            self.rack_cap_w[rows],
            np.asarray(prices, dtype=float)[:, None],
            sampled_rows=sampled,
            sampled_demands=tuple(self._demands[int(r)] for r in rows[sampled]),
        )[:, 0]

    def pdu_demand(
        self, demand: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-PDU totals of a ``(n_bids, n_prices)`` demand block.

        Rows are PDU-sorted, so this is a contiguous segment sum — the
        columnar replacement for the object path's per-bid scatter adds.
        """
        if out is None:
            out = np.zeros((len(self.pdu_ids), demand.shape[1]))
        starts, seg_codes = self.segments()
        out[seg_codes] = np.add.reduceat(demand, starts, axis=0)
        return out

    def demand_totals(
        self,
        prices: np.ndarray,
        group_rows: "Sequence[np.ndarray]" = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate rack-clipped demand over one ascending price grid.

        The one-market case of :meth:`market_totals`: every row counts
        and every PDU accumulates over ``prices``.

        Returns:
            ``(pdu_demand, group_demand)`` with shapes
            ``(n_pdus, P)`` and ``(len(group_rows), P)``.
        """
        prices = np.asarray(prices, dtype=float)
        return self.market_totals(
            np.arange(len(self), dtype=np.intp),
            0,
            np.zeros(len(self.pdu_ids), dtype=np.intp),
            prices[None, :],
            np.array([prices.size]),
            group_rows,
            np.zeros(len(group_rows), dtype=np.intp),
        )

    def market_totals(
        self,
        rows: np.ndarray,
        pdu_lo: int,
        pdu_market: np.ndarray,
        prices: np.ndarray,
        sizes: np.ndarray,
        group_rows: "Sequence[np.ndarray]" = (),
        group_market: "Sequence[int]" = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate rack-clipped demand of several markets, each over its
        own ascending price grid.

        This is the clearing scan's workhorse.  A *market* is a run of
        consecutive PDUs priced together — one PDU under locational
        pricing, every PDU under a facility-wide price.  Materialising
        the ``(n_bids, n_prices)`` demand matrix and summing it is
        O(n x P) in both time and memory traffic; but each closed-form
        row is piece-wise *linear* in price — flat at
        ``min(d_max, cap)``, one descending segment, then zero — so its
        contribution to a total is three breakpoints.  The totals are
        therefore built as difference arrays over each market's grid
        (slope/intercept increments at each row's breakpoint indices)
        and integrated with one ``cumsum`` per aggregate.

        All markets share one right-padded ``(cells, width + 1)`` block,
        so the whole call costs a fixed set of numpy calls plus one
        ``searchsorted`` per market and side (on that market's own
        grid: shifting values onto one shared grid would round).  Rows
        add into their cells in row order, phase by phase, so each
        market's cells get the same additions in the same order as a
        clear of that market alone — the totals do not depend on which
        other markets share the call.

        An exact integer count of active rows per grid cell pins totals
        to exactly 0.0 where no row demands anything — float cancellation
        noise there could otherwise masquerade as revenue.  Sampled rows
        (``FullBid`` and custom curves) are evaluated through their own
        ``demand_grid`` and added in.

        Args:
            rows: Ascending frame rows whose demand counts (the admitted
                bids).
            pdu_lo: PDU code of the first PDU covered; PDU
                ``pdu_lo + k`` accumulates into cell row ``k``.
            pdu_market: Market of each covered PDU (non-decreasing).
            prices: ``(n_markets, width)`` C-ordered grids, each
                ascending and right-padded to the longest.
            sizes: Grid length of each market.
            group_rows: For each extra constraint group, the ascending
                frame rows of its member racks.
            group_market: Market of each group.

        Returns:
            ``(pdu_demand, group_demand)`` with shapes
            ``(len(pdu_market), width)`` and ``(len(group_rows), width)``;
            cells at or past their market's grid size are padding.
        """
        rows = np.asarray(rows, dtype=np.intp)
        n_markets, width = prices.shape
        n_groups = len(group_rows)
        pdu_demand = np.zeros((len(pdu_market), width))
        group_demand = np.zeros((n_groups, width))
        kind = self.kind[rows]
        closed = rows[kind == KIND_CLOSED]
        if closed.size:
            cell = self.pdu_code[closed] - pdu_lo
            market = pdu_market[cell]
            d_max = self.d_max_w[closed]
            d_min = self.d_min_w[closed]
            q_lo = self.q_min[closed]
            q_hi = self.q_max[closed]
            cap = self.rack_cap_w[closed]

            flat_w = np.minimum(d_max, cap)
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
            # Row k of `right` is searched from the right, `q_hi` also
            # from the left; rows are market-contiguous.
            right = np.empty((2, closed.size))
            right[0] = q_hi
            np.maximum(q_lo, crossing, out=right[1])
            j_right = np.empty(right.shape, dtype=np.intp)
            j_left = np.empty(closed.size, dtype=np.intp)
            bounds = market.searchsorted(np.arange(n_markets + 1)).tolist()
            for m, size in enumerate(sizes.tolist()):
                a, b = bounds[m], bounds[m + 1]
                if a < b:
                    grid = prices[m, :size]
                    j_right[:, a:b] = grid.searchsorted(right[:, a:b], side="right")
                    j_left[a:b] = grid.searchsorted(q_hi[a:b], side="left")
            # Demand is zero strictly above q_max: first grid index past it.
            j_end = j_right[0]
            j_start = np.minimum(j_right[1], j_end)
            # For cap-clipped rows the division can land the crossing a
            # float-ulp on the wrong side of a grid point; classify the
            # boundary point by value (j_start must be the first index
            # where the line is below the cap) so flat cells are exactly
            # `cap`, matching the object path's min() bit for bit.
            # Unclipped rows break at q_lo, which searchsorted gets exact.
            flat_prices = prices.ravel()
            offset = market * width
            last = sizes[market] - 1
            clipped = sloped & (cap < d_max)
            at_prev = intercept + slope * flat_prices[offset + np.maximum(j_start - 1, 0)]
            j_start = np.where(
                clipped & (j_start > 0) & (at_prev < cap),
                j_start - 1,
                j_start,
            )
            at_here = intercept + slope * flat_prices[offset + np.minimum(j_start, last)]
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
            j_count = np.where(sloped & (d_min == 0.0), j_left, j_end)
            columns = (
                flat_w, j_start, j_end, intercept, slope, sloped, counted, j_count,
            )

            def scatter(codes, n_cells, cell_prices, take=None):
                """Difference arrays for one aggregation (PDUs or groups)."""
                f, js, je, ic, sl, sp, cn, jc = (
                    columns if take is None else (a[take] for a in columns)
                )
                d_const = np.zeros((n_cells, width + 1))
                d_slope = np.zeros((n_cells, width + 1))
                d_count = np.zeros((n_cells, width + 1), dtype=np.int64)
                base = np.zeros(n_cells)
                np.add.at(base, codes, f)
                d_const[:, 0] += base
                np.add.at(d_const, (codes, js), -f)
                cnt = cn.nonzero()[0]
                counts = np.zeros(n_cells, dtype=np.int64)
                np.add.at(counts, codes[cnt], 1)
                d_count[:, 0] += counts
                np.add.at(d_count, (codes[cnt], jc[cnt]), -1)
                lin = sp.nonzero()[0]
                if lin.size:
                    np.add.at(d_const, (codes[lin], js[lin]), ic[lin])
                    np.add.at(d_const, (codes[lin], je[lin]), -ic[lin])
                    np.add.at(d_slope, (codes[lin], js[lin]), sl[lin])
                    np.add.at(d_slope, (codes[lin], je[lin]), -sl[lin])
                total = (
                    np.cumsum(d_const[:, :width], axis=1)
                    + np.cumsum(d_slope[:, :width], axis=1) * cell_prices
                )
                np.maximum(total, 0.0, out=total)
                total[np.cumsum(d_count[:, :width], axis=1) == 0] = 0.0
                return total

            # One PDU per market: the cells' prices are the grids as laid out.
            cell_prices = prices if len(pdu_market) == n_markets else prices[pdu_market]
            pdu_demand += scatter(cell, len(pdu_market), cell_prices)
            if n_groups:
                # Map frame rows to their position among the closed rows
                # so group members reuse the per-row breakpoint columns.
                pos = np.full(len(self), -1, dtype=np.intp)
                pos[closed] = np.arange(closed.size, dtype=np.intp)
                member_idx = []
                member_code = []
                for k, members in enumerate(group_rows):
                    idx = pos[np.asarray(members, dtype=np.intp)]
                    idx = idx[idx >= 0]
                    member_idx.append(idx)
                    member_code.append(np.full(idx.size, k, dtype=np.intp))
                sel = np.concatenate(member_idx)
                if sel.size:
                    group_demand += scatter(
                        np.concatenate(member_code),
                        n_groups,
                        prices[np.asarray(group_market, dtype=np.intp)],
                        sel,
                    )

        for row in rows[kind == KIND_SAMPLED].tolist():
            cell = int(self.pdu_code[row]) - pdu_lo
            m = int(pdu_market[cell])
            size = int(sizes[m])
            demand = np.minimum(
                self._demands[row].demand_grid(prices[m, :size]),
                self.rack_cap_w[row],
            )
            pdu_demand[cell, :size] += demand
            for k, members in enumerate(group_rows):
                if row in members:
                    group_demand[k, :size] += demand
        return pdu_demand, group_demand

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------

    def settle(
        self,
        grants_w: "Sequence[float] | np.ndarray | dict[str, float]",
        pdu_prices: "dict[str, float]",
        headline_price: float,
        slot_seconds: float,
        positive_only: bool = False,
    ) -> tuple[float, dict[str, float]]:
        """Bill a set of grants: ``(revenue_rate $/h, payments by tenant)``.

        Accepts either a per-row grant vector (frame row order) or a
        rack-id keyed mapping; racks absent from the mapping pay nothing
        and do not surface their tenant in the payment dict.  With
        ``positive_only`` (the revocation path), only strictly positive
        grants create a tenant entry.
        """
        if isinstance(grants_w, dict):
            grants, billed = self.grant_rows(grants_w)
        else:
            grants = np.asarray(grants_w, dtype=float)
            billed = np.ones(len(self), dtype=bool)
        if positive_only:
            billed = billed & (grants > 0)
        prices = np.fromiter(
            map(pdu_prices.get, self.pdu_ids, repeat(headline_price)),
            dtype=float,
            count=len(self.pdu_ids),
        )[self.pdu_code]
        rates = np.where(billed, prices * grants / 1000.0, 0.0)
        # bincount adds in row order, one tenant cell at a time.
        per_tenant = np.bincount(
            self.tenant_code,
            weights=rates * (slot_seconds / 3600.0),
            minlength=len(self.tenant_ids),
        )
        has_entry = np.zeros(len(self.tenant_ids), dtype=bool)
        has_entry[self.tenant_code[billed]] = True
        payments = {
            tid: amount
            for tid, amount, entry in zip(
                self.tenant_ids, per_tenant.tolist(), has_entry.tolist()
            )
            if entry
        }
        return float(rates.sum()), payments
