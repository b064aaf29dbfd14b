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
* **One bid-to-column conversion**: a slot's rack bids become columns
  once, in a :class:`~repro.core.bids.BidTable`, and
  :meth:`BidFrame.from_table` sorts the table by PDU — from scratch, or
  slot over slot (:class:`repro.core.sharding.IncrementalFrameBuilder`)
  over the previous frame, whose unchanged PDUs keep their rows and
  :class:`PduBlock`.  The frame keeps its blocks
  (:attr:`BidFrame.blocks`); each block caches its PDU market's price
  grid, its rows' indices on it, and the demand totals and grants over
  it, across slots.
* **Many markets, one sweep**: :meth:`BidFrame.market_totals` totals
  the demand of every market of a slot — one per PDU under locational
  pricing, one for the facility under a uniform price — each over its
  own grid, with one fixed set of numpy calls for all of them; each
  row's breakpoint indices come from its market's grid build.
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
from itertools import accumulate, chain, repeat
from operator import itemgetter

import numpy as np

from repro.core.bids import CURVE_SAMPLED, BidTable, RackBid
from repro.core.demand import DemandFunction, demand_matrix

__all__ = ["BidFrame", "PduBlock"]


#: Row kinds: closed-form rows evaluate through the vectorised kernel;
#: sampled rows go through their demand object's ``demand_grid``.
KIND_CLOSED = 0
KIND_SAMPLED = 1


class PduBlock:
    """One PDU's rows of a frame: its bids and its market's price grid.

    A block outlives its slot: a frame built over a previous one hands
    each unchanged PDU's block on, so its bid objects and its cached
    price grid, the grid indices of its rows' ``q_min``/``q_max``, and
    its demand totals and grants (``MarketClearing._sweep``) carry over.
    """

    __slots__ = ("pdu_id", "bids", "_grid_cache")

    def __init__(self, pdu_id: str, bids: tuple[RackBid, ...]) -> None:
        self.pdu_id = pdu_id
        self.bids = bids
        # ``(key, grid, index)`` of the last price grid cleared over this
        # PDU's market, then its totals, price and grants there (see
        # MarketClearing._pdu_grids and MarketClearing._sweep).
        self._grid_cache: tuple | None = None

    def __len__(self) -> int:
        return len(self.bids)

    def __repr__(self) -> str:
        return f"PduBlock(pdu={self.pdu_id!r}, bids={len(self)})"


#: Below this many rows a frame is sorted, compared with the previous
#: one and built row by row in Python: numpy's per-call cost would
#: exceed the work.
_ROWS_FROM = 16


def _gather(items: Sequence, order: Sequence[int]) -> tuple:
    """``items`` in ``order``, as a tuple."""
    if len(order) < 2:
        return tuple(items[i] for i in order)
    return itemgetter(*(order.tolist() if isinstance(order, np.ndarray) else order))(items)


def _old_blocks(previous: "BidFrame", pdu_ids, counts) -> list[tuple[PduBlock | None, int]]:
    """Per PDU of the sorted rows, its previous block if it had as many
    rows, with that block's first row in ``previous`` (else ``(None, 0)``)."""
    old_at = {p: i for i, p in enumerate(previous.pdu_ids)}
    starts = [0, *accumulate(map(len, previous.blocks))]
    found = []
    for pdu_id, count in zip(pdu_ids, counts):
        i = old_at.get(pdu_id)
        block = None if i is None else previous.blocks[i]
        found.append((block, starts[i]) if block is not None and len(block) == count else (None, 0))
    return found


def _unchanged(previous, table, order, pdu_ids, counts, rack_ids, bids):
    """Which PDUs of the PDU-sorted rows are unchanged from ``previous``.

    A PDU is unchanged when it has as many rows as before and each row
    is unchanged: same rack, tenant and cap, and a closed-form curve of
    the same kind whose four floats compare ``==`` (so a ``0.0`` that
    became ``-0.0`` leaves it unchanged) or the demand object sent
    before.  Sorted row ``r`` is table row ``order[r]`` and holds
    ``bids[r]``.  Returns the flag per PDU, and the rows of the
    unchanged PDUs with their previous rows.
    """
    old = _old_blocks(previous, pdu_ids, counts)
    kept = [block is not None for block, _ in old]
    starts = [0, *accumulate(counts)]
    rows = np.repeat(kept, counts).nonzero()[0]
    was = rows + np.repeat([w - s for (_, w), s in zip(old, starts)], counts)[rows]
    at = order[rows]
    tenant_at = dict(zip(table.tenant_ids, range(len(table.tenant_ids))))
    tenant = np.frombuffer(table.tenant_code, dtype=np.intp)
    renamed = np.fromiter(
        map(tenant_at.get, previous.tenant_ids, repeat(-1)),
        dtype=np.intp,
        count=len(previous.tenant_ids),
    )
    values = table.values[:, at]
    same = np.zeros((2, len(order)), dtype=bool)
    # Row 0: same tenant and cap; row 1: also the same closed-form curve.
    same[0, rows] = (renamed[previous.tenant_code[was]] == tenant[at]) & (
        values[0] == previous.rack_cap_w[was]
    )
    code = np.frombuffer(table.curve, dtype=np.uint8)[at]
    curve = (code == previous._curve[was]) & (code != CURVE_SAMPLED)
    for value, column in zip(
        values[1:], (previous.d_max_w, previous.q_min, previous.d_min_w, previous.q_max)
    ):
        curve &= value == column[was]
    same[1, rows] = same[0, rows] & curve
    ids, plain = np.logical_and.reduceat(same, starts[:-1], axis=1).tolist()
    for j, ((block, w), start, end) in enumerate(zip(old, starts, starts[1:])):
        if kept[j]:
            kept[j] = ids[j] and rack_ids[start:end] == previous.rack_ids[w:w + end - start]
        if kept[j] and not plain[j]:
            # A row whose curve differs is unchanged if it holds the
            # demand object sent before.
            differs = (~same[1, start:end]).nonzero()[0].tolist()
            kept[j] = all(bids[start + r].demand is block.bids[r].demand for r in differs)
    keep = np.repeat(kept, counts)[rows]
    return kept, rows[keep], was[keep]


def _same_row(previous, table, i, bid, w, sent) -> bool:
    """:func:`_unchanged`'s rule for table row ``i`` (``bid``) and
    previous row ``w`` (``sent``)."""
    cap, *floats = table.row(i)
    if (
        bid.rack_id != previous.rack_ids[w]
        or cap != previous.rack_cap_w[w]
        or table.tenant_ids[table.tenant_code[i]]
        != previous.tenant_ids[previous.tenant_code[w]]
    ):
        return False
    if bid.demand is sent.demand:
        return True
    return table.curve[i] == previous._curve[w] != CURVE_SAMPLED and floats == [
        previous.d_max_w[w], previous.q_min[w], previous.d_min_w[w], previous.q_max[w],
    ]


def _few_unchanged(previous, table, order, pdu_ids, counts, rack_ids, bids):
    """:func:`_unchanged` row by row, for a few rows."""
    kept: list[bool] = []
    rows: list[int] = []
    was: list[int] = []
    start = 0
    for (block, w), count in zip(_old_blocks(previous, pdu_ids, counts), counts):
        span = range(start, start + count)
        kept.append(
            block is not None
            and all(
                _same_row(previous, table, order[r], bids[r], w + r - start, block.bids[r - start])
                for r in span
            )
        )
        if kept[-1]:
            rows += span
            was += range(w, w + count)
        start += count
    return kept, rows, was


def _envelopes(columns, curve, pdu_code, kept, bids) -> tuple[list[int], list[int]]:
    """Read the envelope of each sampled row of a changed PDU into
    ``columns``; return the sampled rows and the rows read."""
    sampled = (curve == CURVE_SAMPLED).nonzero()[0].tolist()
    read = [r for r in sampled if not kept[pdu_code[r]]]
    for r in read:
        fn = bids[r].demand
        columns[1:6, r] = 0.0, 0.0, 0.0, fn.max_price, fn.max_demand_w
    return sampled, read


def _few_rows(table, order, counts, previous, kept_rows, bids):
    """:meth:`BidFrame.from_table`'s columns for a few rows, row by row
    (``kept_rows`` maps a kept row to its previous row).

    The same values as the vectorized build — ``d_max + (d_min - d_max)``
    or ``d_max`` for the floor, clipped to the cap as ``np.minimum``
    clips — with a handful of numpy calls instead of dozens.
    """
    pdu_code = [j for j, count in enumerate(counts) for _ in range(count)]
    curve = [table.curve[i] for i in order]
    cells: list[list[float]] = []
    sampled = []
    for r, i in enumerate(order):
        if curve[r] == CURVE_SAMPLED:
            sampled.append(r)
        if r in kept_rows:
            w = kept_rows[r]
            cells.append([
                column[w]
                for column in (
                    previous.rack_cap_w, previous.d_max_w, previous.q_min, previous.d_min_w,
                    previous.q_max, previous.max_demand_w, previous.floor_w,
                )
            ])
            continue
        cap, d_max, q_min, d_min, q_max = table.row(i)
        top = d_max
        if curve[r] == CURVE_SAMPLED:
            fn = bids[r].demand
            d_max = q_min = d_min = 0.0
            q_max, top = float(fn.max_price), float(fn.max_demand_w)
            floor = float(fn.demand_at(fn.max_price))
        else:
            floor = d_max if q_max <= q_min else d_max + (d_min - d_max)
        # As np.minimum(floor, cap): a tie gives the cap, a NaN on
        # either side gives NaN.
        floor = floor if floor < cap or floor != floor else cap
        cells.append([cap, d_max, q_min, d_min, q_max, top, floor])
    columns = np.array(list(chain.from_iterable(zip(*cells)))).reshape(7, -1)
    tenants = [table.tenant_code[i] for i in order]
    seen = list(dict.fromkeys(tenants))
    renumber = {t: k for k, t in enumerate(seen)}
    return (
        np.array(pdu_code, dtype=np.intp),
        np.array(curve, dtype=np.uint8),
        columns,
        sampled,
        seen,
        np.array([renumber[t] for t in tenants], dtype=np.intp),
    )


class BidFrame:
    """One slot's rack bids as aligned columns, sorted by PDU.

    Build with :meth:`from_bids` (adapter from the object API) or
    :meth:`from_table` (a slot's :class:`~repro.core.bids.BidTable`).
    All columns share row order; rows are grouped by PDU.

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
        "blocks",
        "_demands",
        "_bids",
        "_curve",
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
        demands: tuple[DemandFunction | None, ...],
        bids: tuple[RackBid, ...] | None,
        blocks: tuple[PduBlock, ...],
        curve: np.ndarray | None = None,
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
        self.blocks = blocks
        self._demands = demands
        # ``None`` reads the bids from the blocks when first asked.
        self._bids = bids
        # The rows' BidTable curve codes, which a later frame's reuse
        # rule reads (a StepBid is not the equal LinearBid).  ``None``
        # reuses nothing.
        self._curve = curve
        self._row_of: dict[str, int] | None = None
        self._segments: tuple[np.ndarray, np.ndarray] | None = None
        self._sampled_rows: np.ndarray | None = None
        # ``(key, grid, index)`` of the last facility-wide price grid.
        self._grid_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bids(cls, bids: Sequence[RackBid]) -> "BidFrame":
        """Build the columnar frame from object bids (the slot adapter);
        a rack in two bids raises :class:`~repro.errors.BidError`."""
        return cls.from_table(BidTable.from_bids(bids))

    @classmethod
    def from_table(
        cls, table: BidTable, previous: "BidFrame | None" = None
    ) -> "BidFrame":
        """The frame of a slot's admitted :class:`BidTable`.

        Rows are sorted by PDU once (stably, so each PDU keeps its
        submission order).  Over a ``previous`` frame, a PDU whose rows
        are all unchanged (see :func:`_unchanged`) keeps its block and
        its previous rows, and when every PDU is unchanged and none left,
        ``previous`` itself is returned.  Other PDUs get new blocks, built
        from slices of the sorted columns; only there is a sampled
        curve's envelope read (``max_price``, ``max_demand_w`` and
        ``demand_at(max_price)``).  Below :data:`_ROWS_FROM` rows the
        same comparison and columns are done row by row in Python.
        """
        n = len(table.bids)
        if not n and previous is not None and not len(previous):
            return previous
        pdu_ids = tuple(sorted(set(table.pdu_ids)))
        few = n < _ROWS_FROM
        if few:
            order = sorted(range(n), key=table.pdu_ids.__getitem__)
            counts = [table.pdu_ids.count(p) for p in pdu_ids]
        else:
            rank = dict(zip(pdu_ids, range(len(pdu_ids))))
            code = np.fromiter(map(rank.__getitem__, table.pdu_ids), dtype=np.intp, count=n)
            counts = np.bincount(code, minlength=len(pdu_ids)).tolist()
            order = code.argsort(kind="stable")
        rack_ids = _gather(table.rack_ids, order)
        bids = _gather(table.bids, order)
        kept = [False] * len(pdu_ids)
        rows: Sequence[int] = ()
        was: Sequence[int] = ()
        if n and previous is not None and previous._curve is not None:
            kept, rows, was = (_few_unchanged if few else _unchanged)(
                previous, table, order, pdu_ids, counts, rack_ids, bids
            )
            if all(kept) and len(pdu_ids) == len(previous.pdu_ids):
                return previous
        if not n:
            none = np.empty(0)
            code = np.empty(0, dtype=np.intp)
            curve = code.astype(np.uint8)
            return cls(
                (), (), code, (), code, curve, none, none, none, none, none, none,
                none, (), (), (), curve=curve,
            )
        if few:
            pdu_code, curve, columns, sampled, seen, tenant_code = _few_rows(
                table, order, counts, previous, dict(zip(rows, was)), bids
            )
        else:
            pdu_code = np.repeat(np.arange(len(pdu_ids)), counts)
            curve = np.frombuffer(table.curve, dtype=np.uint8)[order]
            columns = np.empty((7, n))
            # Column by column: one temporary row at a time, not a table.
            for k, column in enumerate(table.values):
                np.take(column, order, out=columns[k])
            columns[5] = columns[1]
            sampled, read = _envelopes(columns, curve, pdu_code, kept, bids)
            cap, d_max, q_min, d_min, q_max, _, floor = columns
            floor[:] = np.where(q_max <= q_min, d_max, d_max + (d_min - d_max))
            for r in read:
                fn = bids[r].demand
                floor[r] = fn.demand_at(fn.max_price)
            np.minimum(floor, cap, out=floor)
            if len(rows):
                for k, column in enumerate((
                    previous.rack_cap_w, previous.d_max_w, previous.q_min, previous.d_min_w,
                    previous.q_max, previous.max_demand_w, previous.floor_w,
                )):
                    columns[k, rows] = column[was]
            # Tenants in first-appearance order over the sorted rows.
            tenant = np.frombuffer(table.tenant_code, dtype=np.intp)[order]
            seen = list(dict.fromkeys(tenant.tolist()))
            renumber = np.zeros(len(table.tenant_ids), dtype=np.intp)
            renumber[seen] = np.arange(len(seen))
            tenant_code = renumber[tenant]
        old_blocks = dict(zip(previous.pdu_ids, previous.blocks)) if len(rows) else {}
        blocks = []
        start = 0
        for pdu_id, count, reuse in zip(pdu_ids, counts, kept):
            end = start + count
            blocks.append(old_blocks[pdu_id] if reuse else PduBlock(pdu_id, bids[start:end]))
            start = end
        demands: list = [None] * n
        for r in sampled:
            demands[r] = bids[r].demand
        return cls(
            rack_ids=rack_ids,
            pdu_ids=pdu_ids,
            pdu_code=pdu_code,
            tenant_ids=tuple(table.tenant_ids[t] for t in seen),
            tenant_code=tenant_code,
            kind=(curve == CURVE_SAMPLED).view(np.uint8),
            d_max_w=columns[1],
            q_min=columns[2],
            d_min_w=columns[3],
            q_max=columns[4],
            rack_cap_w=columns[0],
            max_demand_w=columns[5],
            floor_w=columns[6],
            demands=tuple(demands),
            bids=None,
            blocks=tuple(blocks),
            curve=curve,
        )

    # ------------------------------------------------------------------
    # Adapter back to the object API
    # ------------------------------------------------------------------

    def to_bids(self) -> tuple[RackBid, ...]:
        """The frame's rows as the original :class:`RackBid` objects
        (frame row order), read from the blocks when first asked."""
        if self._bids is None:
            self._bids = tuple(chain.from_iterable(b.bids for b in self.blocks))
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

    def market_totals(
        self,
        rows: np.ndarray,
        pdu_lo: int,
        pdu_market: np.ndarray,
        prices: np.ndarray,
        sizes: np.ndarray,
        group_rows: "Sequence[np.ndarray]" = (),
        group_market: "Sequence[int]" = (),
        index: np.ndarray | None = None,
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
        so the whole call costs a fixed set of numpy calls: a row's
        breakpoint indices come from ``index``, and only the rows without
        them are searched, one ``searchsorted`` per market and side.  Rows
        add into their cells in row order, phase by phase (one
        ``bincount`` per difference array), so each market's cells get
        the same additions in the same order as a clear of that market
        alone — the totals do not depend on which other markets share
        the call.

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
            index: Frame-aligned ``(rows, 2)`` grid indices of each row's
                ``q_min`` and ``q_max`` (``-1`` where not on the grid; see
                ``MarketClearing._market_grid``), or ``None`` to search
                them all.

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
            # Demand is zero strictly above q_max: j_end is the first grid
            # index past it, j_start the first past the segment's start,
            # j_left q_max's first index from the left.  A point that
            # landed on grid index i (MarketClearing._market_grid) is at
            # i + 1 from the right, and at i, or i + 1 when grid[i] < q,
            # from the left.  Rows without both indices, and cap-clipped rows
            # (whose segment starts at the crossing), are searched on
            # their market's own grid: one shared grid would round.
            flat_prices = prices.ravel()
            offset = market * width
            clipped = sloped & (cap < d_max)
            i_lo, i_hi = np.full((2, closed.size), -1) if index is None else index[closed].T
            j_start, j_end = i_lo + 1, i_hi + 1
            j_left = i_hi + (flat_prices[offset + i_hi] < q_hi)
            searched = (clipped | (i_lo < 0) | (i_hi < 0)).nonzero()[0]
            if searched.size:
                ends = np.bincount(market[searched], minlength=n_markets).cumsum().tolist()
                for m, (a, b) in enumerate(zip([0, *ends], ends)):
                    if a < b:
                        grid, rows_m = prices[m, : sizes[m]], searched[a:b]
                        keys = np.stack((q_hi[rows_m], np.maximum(q_lo[rows_m], crossing[rows_m])))
                        j_end[rows_m], j_start[rows_m] = grid.searchsorted(keys, side="right")
                        j_left[rows_m] = grid.searchsorted(keys[0], side="left")
            j_start = np.minimum(j_start, j_end)
            # For cap-clipped rows the division can land the crossing a
            # float-ulp on the wrong side of a grid point; classify the
            # boundary point by value (j_start must be the first index
            # where the line is below the cap) so flat cells are exactly
            # `cap`, matching the object path's min() bit for bit.
            # Unclipped rows break at q_lo, which the search gets exact.
            last = sizes[market] - 1
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
                """Difference arrays for one aggregation (PDUs or groups),
                one ``bincount`` each: contributions go in phase by phase
                and row by row, as one ``np.add.at`` per phase adds them."""
                f, js, je, ic, sl, sp, cn, jc = (
                    columns if take is None else (a[take] for a in columns)
                )
                stride = width + 1
                n_flat = n_cells * stride
                first = codes * stride
                lin = sp.nonzero()[0]
                starts = first[lin] + js[lin]
                ends = first[lin] + je[lin]
                d_const = np.bincount(
                    np.concatenate((first, first + js, starts, ends)),
                    np.concatenate((f, -f, ic[lin], -ic[lin])),
                    n_flat,
                ).reshape(n_cells, stride)
                d_slope = np.bincount(
                    np.concatenate((starts, ends)),
                    np.concatenate((sl[lin], -sl[lin])),
                    n_flat,
                ).reshape(n_cells, stride)
                cnt = first[cn]
                d_count = np.bincount(cnt, minlength=n_flat) - np.bincount(
                    cnt + jc[cn], minlength=n_flat
                )
                total = (
                    np.cumsum(d_const[:, :width], axis=1)
                    + np.cumsum(d_slope[:, :width], axis=1) * cell_prices
                )
                np.maximum(total, 0.0, out=total)
                active = np.cumsum(d_count.reshape(n_cells, stride)[:, :width], axis=1)
                total[active == 0] = 0.0
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
