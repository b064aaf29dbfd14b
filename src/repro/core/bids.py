"""Bid containers: per-rack bids, bundled multi-rack tenant bids, and
their columns.

A tenant submits at most one demand function per rack that needs spot
capacity (racks that need nothing submit nothing — that is what keeps the
market lightweight, paper Section III-C "Scalability").  Because the
power budgets of a tenant's racks jointly determine application
performance, tenants bundle their per-rack bids into one
:class:`TenantBid` with shared price parameters (Section III-B3).  The
market reads a slot's bundles as one :class:`BidTable` of columns.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from collections.abc import Iterable, Sequence
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter

import numpy as np

from repro.core.demand import DemandFunction, LinearBid, StepBid
from repro.errors import BidError

__all__ = ["BidTable", "RackBid", "TenantBid", "bundle_linear_bid", "flatten_bids"]


@dataclasses.dataclass(frozen=True)
class RackBid:
    """One rack's spot-capacity bid, as seen by the clearing engine.

    Attributes:
        rack_id: Rack the demand applies to.
        pdu_id: PDU feeding the rack (denormalised here so clearing does
            not need the topology object).
        tenant_id: Owner, used for billing the cleared allocation.
        demand: The rack's demand function.
        rack_cap_w: Physical spot headroom ``P_r^R`` of the rack; the
            clearing engine clips demand to this (Eq. 2).
    """

    rack_id: str
    pdu_id: str
    tenant_id: str
    demand: DemandFunction
    rack_cap_w: float

    def __post_init__(self) -> None:
        if self.rack_cap_w < 0:
            raise BidError(
                f"rack {self.rack_id}: rack_cap_w must be >= 0, got {self.rack_cap_w}"
            )

    def clipped_demand_at(self, price: float) -> float:
        """Demand at ``price``, clipped to the rack's physical headroom."""
        return min(self.demand.demand_at(price), self.rack_cap_w)


@dataclasses.dataclass(frozen=True)
class TenantBid:
    """A bundled bid covering all of one tenant's racks that need capacity.

    The paper's bundled bid shares the two price parameters across racks
    while each rack gets its own quantity pair; this container does not
    enforce that (tenants "can bid freely", Section III-B3) but
    :func:`bundle_linear_bid` builds the shared-price form.
    """

    tenant_id: str
    rack_bids: tuple[RackBid, ...]

    def __post_init__(self) -> None:
        if not self.rack_bids:
            raise BidError(f"tenant {self.tenant_id}: empty bid bundle")
        for bid in self.rack_bids:
            if bid.tenant_id != self.tenant_id:
                raise BidError(
                    f"tenant {self.tenant_id}: bundled bid for rack "
                    f"{bid.rack_id} carries tenant {bid.tenant_id}"
                )
        rack_ids = [b.rack_id for b in self.rack_bids]
        if len(set(rack_ids)) != len(rack_ids):
            raise BidError(
                f"tenant {self.tenant_id}: duplicate rack in bundle: {rack_ids}"
            )

    @property
    def parameter_count(self) -> int:
        """Number of solicited parameters (4 per rack for LinearBid)."""
        return 4 * len(self.rack_bids)

    def total_demand_at(self, price: float) -> float:
        """Bundle-wide demand at a price, rack-clipped."""
        return sum(b.clipped_demand_at(price) for b in self.rack_bids)


def bundle_linear_bid(
    tenant_id: str,
    racks: Sequence[tuple[str, str, float]],
    d_max_w: Sequence[float],
    d_min_w: Sequence[float],
    q_min: float,
    q_max: float,
) -> TenantBid:
    """Build the paper's shared-price bundled linear bid.

    The tenant decides maximum and minimum demand *vectors* for its K
    racks, joined affinely between the two shared prices (Section
    III-B3, Fig. 4).

    Args:
        tenant_id: Bidding tenant.
        racks: ``(rack_id, pdu_id, rack_cap_w)`` per participating rack.
        d_max_w: Maximum demand vector (one entry per rack).
        d_min_w: Minimum demand vector.
        q_min: Shared price up to which the maximum vector is demanded.
        q_max: Shared maximum acceptable price.
    """
    if not (len(racks) == len(d_max_w) == len(d_min_w)):
        raise BidError("racks, d_max_w and d_min_w must have equal length")
    rack_bids = []
    for (rack_id, pdu_id, cap_w), dmax, dmin in zip(racks, d_max_w, d_min_w):
        rack_bids.append(
            RackBid(
                rack_id=rack_id,
                pdu_id=pdu_id,
                tenant_id=tenant_id,
                demand=LinearBid(dmax, q_min, dmin, q_max),
                rack_cap_w=cap_w,
            )
        )
    return TenantBid(tenant_id=tenant_id, rack_bids=tuple(rack_bids))


#: :attr:`BidTable.curve` codes.  The closed-form kinds match by exact
#: type: a subclass may override the curve, so it is sampled through its
#: own ``demand_grid``.
CURVE_LINEAR = 0
CURVE_STEP = 1
CURVE_SAMPLED = 2

_RACK_BIDS = attrgetter("rack_bids")
_TENANT = attrgetter("tenant_id")


def _real(value) -> float:
    """``value`` as ``array("d")`` reads it, or NaN where it refuses."""
    try:
        return array("d", (value,))[0]
    except (TypeError, ValueError, ArithmeticError):
        return math.nan


def _floats(*columns: list) -> array:
    """``columns`` back to back as one ``array("d")``.

    ``array("d")`` refuses exactly the values ``math.isfinite`` refuses
    (``np.array`` would parse ``"5"``); each of those reads NaN.
    """
    converted = array("d")
    for column in columns:
        try:
            converted.fromlist(column)
        except (TypeError, ValueError, ArithmeticError):
            converted.fromlist(list(map(_real, column)))
    return converted


@dataclasses.dataclass(eq=False, repr=False, slots=True)
class BidTable:
    """A slot's rack bids as columns, bundle by bundle in submission order.

    The one place a :class:`RackBid` becomes columns: one walk reads
    every field the market uses.  The admission screen checks
    :attr:`values`, :func:`flatten_bids` checks :attr:`rack_ids` for a
    rack in two bundles, and :meth:`~repro.core.frame.BidFrame.from_table`
    builds the frame from it.  The columns are plain Python buffers, so
    a slot of a few bids is read without numpy.

    Attributes:
        bundles: The bundles walked (empty for :meth:`from_bids`).
        bids: Every rack bid, bundle by bundle.
        ends: The row after each bundle's last row.
        rack_ids / pdu_ids: Per row.
        tenant_ids: Tenants in first-appearance order, which
            ``tenant_code`` indexes per row (an ``array("q")``).
        curve: Per row, ``CURVE_LINEAR``, ``CURVE_STEP`` or
            ``CURVE_SAMPLED`` (a ``bytearray``).
        floats: The rack caps and the curves' ``d_max``, ``q_min``,
            ``d_min`` and ``q_max``, five columns back to back in one
            ``array("d")`` (a ``StepBid`` is the degenerate
            ``q_min == q_max`` curve).  A sampled row holds only its cap
            until its bundle is admitted and the frame reads the curve's
            envelope; the rest is NaN.  So is any value ``array("d")``
            refuses — exactly the values ``math.isfinite`` refuses.
    """

    bundles: list[TenantBid]
    bids: list[RackBid]
    ends: Sequence[int]
    rack_ids: list[str]
    pdu_ids: list[str]
    tenant_ids: tuple[str, ...]
    tenant_code: array
    curve: bytearray
    floats: array

    @classmethod
    def from_bundles(cls, bundles: Iterable[TenantBid]) -> BidTable:
        """Walk bundles; a tenant's code is its bundle's first appearance."""
        bundles = list(bundles)
        sizes = list(map(len, map(_RACK_BIDS, bundles)))
        tenant_index: dict[str, int] = {}
        codes = [tenant_index.setdefault(b.tenant_id, len(tenant_index)) for b in bundles]
        return cls._walk(
            bundles,
            list(chain.from_iterable(map(_RACK_BIDS, bundles))),
            list(accumulate(sizes)),
            tuple(tenant_index),
            array("q", chain.from_iterable(map(repeat, codes, sizes))),
        )

    @classmethod
    def from_bids(cls, bids: Iterable[RackBid]) -> BidTable:
        """Walk a flat list of rack bids (one bundle per rack, so a rack
        twice raises :class:`BidError` as in :func:`flatten_bids`)."""
        bids = list(bids)
        tenants = list(map(_TENANT, bids))
        unique = tuple(dict.fromkeys(tenants))
        index = dict(zip(unique, range(len(unique))))
        codes = array("q", map(index.__getitem__, tenants))
        table = cls._walk([], bids, range(1, len(bids) + 1), unique, codes)
        flatten_bids(table)
        return table

    @classmethod
    def _walk(cls, bundles, bids, ends, tenant_ids, tenant_code) -> BidTable:
        rack_ids: list[str] = []
        pdu_ids: list[str] = []
        curve = bytearray(len(bids))  # all CURVE_LINEAR
        cap: list = []
        d_max: list = []
        q_min: list = []
        d_min: list = []
        q_max: list = []
        # One list per column: a tuple per row would cost more.
        for row, bid in enumerate(bids):
            rack_ids.append(bid.rack_id)
            pdu_ids.append(bid.pdu_id)
            cap.append(bid.rack_cap_w)
            fn = bid.demand
            kind = type(fn)
            if kind is LinearBid:
                d_max.append(fn.d_max_w)
                q_min.append(fn.q_min)
                d_min.append(fn.d_min_w)
                q_max.append(fn.q_max)
                continue
            if kind is StepBid:
                curve[row] = CURVE_STEP
                demand, price = fn.demand_w, fn.price_cap
            else:
                curve[row] = CURVE_SAMPLED
                demand = price = math.nan
            d_max.append(demand)
            q_min.append(price)
            d_min.append(demand)
            q_max.append(price)
        return cls(
            bundles, bids, ends, rack_ids, pdu_ids, tenant_ids, tenant_code, curve,
            _floats(cap, d_max, q_min, d_min, q_max),
        )

    @property
    def values(self) -> np.ndarray:
        """:attr:`floats` as a ``(5, rows)`` array (a view, not a copy)."""
        return np.frombuffer(self.floats).reshape(5, -1)

    def row(self, i: int) -> list[float]:
        """Row ``i``'s cap, ``d_max``, ``q_min``, ``d_min`` and ``q_max``."""
        return self.floats[i::len(self.bids)].tolist()

    def keep(self, admitted: Sequence[bool]) -> BidTable:
        """The table of the bundles flagged in ``admitted``."""
        sizes = [end - start for start, end in zip([0, *self.ends], self.ends)]
        take = list(chain.from_iterable(map(repeat, admitted, sizes)))
        n = len(self.bids)
        return BidTable(
            list(compress(self.bundles, admitted)),
            list(compress(self.bids, take)),
            list(accumulate(compress(sizes, admitted))),
            list(compress(self.rack_ids, take)),
            list(compress(self.pdu_ids, take)),
            self.tenant_ids,
            array("q", compress(self.tenant_code, take)),
            bytearray(compress(self.curve, take)),
            array("d", chain.from_iterable(
                compress(self.floats[k * n:(k + 1) * n], take) for k in range(5)
            )),
        )


def flatten_bids(tenant_bids: Iterable[TenantBid] | BidTable) -> list[RackBid]:
    """The rack bids of a slot's bundles, checked for a rack in two bundles.

    Takes the bundles or their :class:`BidTable` and returns the table's
    rack-bid list (bundle by bundle).
    """
    table = tenant_bids
    if not isinstance(table, BidTable):
        table = BidTable.from_bundles(tenant_bids)
    rack_ids = table.rack_ids
    if len(set(rack_ids)) != len(rack_ids):
        seen: set[str] = set()
        for rack_id in rack_ids:
            if rack_id in seen:
                raise BidError(f"rack {rack_id} appears in multiple bundles")
            seen.add(rack_id)
    return table.bids
