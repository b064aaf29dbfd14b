"""Bid admission control: validate or quarantine before clearing.

One malformed bid — a NaN breakpoint, an inverted ``(q_min, q_max)``
pair mutated after construction, a demand far beyond the rack's
physical headroom — would otherwise poison the columnar
:class:`~repro.core.frame.BidFrame` the whole slot clears through.  The
admission front door screens every solicited bundle *before* frame
construction: a bundle containing any malformed rack bid is quarantined
whole (never partially admitted) and the tenant sits the slot out,
exactly like a lost bid (the paper's §III-C default-to-no-spot
semantics).  Quarantines carry a machine-readable reason surfaced in
the trace, the run metrics, and the tenant's invoice.

Honest bids are untouched: every built-in bidding strategy clips its
demand to the rack's spot headroom, and the Eq. 2 rack clip in clearing
remains in force for anything the tolerance lets through.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable

import numpy as np

from repro.core.bids import BidTable, RackBid, TenantBid
from repro.core.demand import LinearBid, StepBid

__all__ = [
    "QUARANTINE_REASONS",
    "QuarantinedBid",
    "dedupe_bundles",
    "inspect_rack_bid",
    "screen_bids",
]


def dedupe_bundles(
    tenant_bids: Iterable[TenantBid],
) -> tuple[list[TenantBid], tuple[str, ...]]:
    """Absorb duplicate bundle deliveries: first copy per tenant wins.

    At-least-once transports (client retries after a lost ack, the
    duplicate-delivery fault channel) can hand the market the same
    tenant's bundle twice in one slot.  Ingestion is idempotent: the
    first delivery is kept, later copies are dropped, and the absorbed
    tenant ids are reported so the slot can account for them.  Running
    this *before* :func:`screen_bids` /
    :func:`~repro.core.bids.flatten_bids` keeps a redelivery from ever
    tripping the duplicate-rack integrity check or double-billing.
    """
    seen: set[str] = set()
    unique: list[TenantBid] = []
    absorbed: list[str] = []
    for bundle in tenant_bids:
        if bundle.tenant_id in seen:
            absorbed.append(bundle.tenant_id)
            continue
        seen.add(bundle.tenant_id)
        unique.append(bundle)
    return unique, tuple(absorbed)

#: Machine-readable quarantine reasons, in check order.
QUARANTINE_REASONS = (
    "non_finite",
    "inverted_prices",
    "inverted_quantities",
    "negative_value",
    "exceeds_rack_cap",
)

#: Relative slack on the rack-capacity check: honest strategies clip
#: demand to exactly the rack headroom, so only demand meaningfully
#: *above* it is malformed.
_CAP_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class QuarantinedBid:
    """One rejected rack bid, with its reason.

    Attributes:
        tenant_id: Owner of the rejected bundle.
        rack_id: Rack whose bid failed validation (the whole bundle is
            quarantined with it).
        reason: One of :data:`QUARANTINE_REASONS`.
        detail: Human-readable description of the violation.
    """

    tenant_id: str
    rack_id: str
    reason: str
    detail: str


def _linear_params(bid: RackBid) -> tuple[float, float, float, float] | None:
    """The four linear parameters, or ``None`` for sampled demand kinds."""
    fn = bid.demand
    if type(fn) is LinearBid:
        return (fn.d_max_w, fn.q_min, fn.d_min_w, fn.q_max)
    if type(fn) is StepBid:
        return (fn.demand_w, fn.price_cap, fn.demand_w, fn.price_cap)
    return None


def inspect_rack_bid(bid: RackBid) -> tuple[str, str] | None:
    """Check one rack bid; return ``(reason, detail)`` or ``None`` if valid.

    The checks deliberately re-validate invariants the demand
    constructors also enforce: demand objects are plain mutable Python
    objects, so a misbehaving tenant (or a bug) can corrupt a bid
    *after* construction — and ``NaN`` passes every ``<`` comparison in
    the constructors anyway.  A parameter that is not a real number at
    all (``None``, a string) is ``non_finite`` too: ``math.isfinite``
    rejects exactly the values the column screen of :func:`screen_bids`
    cannot convert.
    """
    params = _linear_params(bid)
    closed = params is not None
    if closed:
        d_max, q_min, d_min, q_max = params
        max_demand = d_max
        values = [d_max, q_min, d_min, q_max, max_demand, bid.rack_cap_w]
    else:
        # Sampled demand kinds (FullBid, custom curves) expose only
        # their envelope; check what the clearing scan consumes.
        try:
            max_demand = float(bid.demand.max_demand_w)
            q_max = float(bid.demand.max_price)
        except (TypeError, ValueError, ArithmeticError) as exc:
            return ("non_finite", f"demand envelope unreadable: {exc}")
        q_min = 0.0
        values = [q_min, q_max, max_demand, bid.rack_cap_w]
    for value in values:
        try:
            finite = math.isfinite(value)
        except (TypeError, ValueError, ArithmeticError):
            return ("non_finite", f"bid parameter {value!r} is not a real number")
        if not finite:
            return ("non_finite", f"non-finite bid parameter in {values}")
    if q_max < q_min:
        return (
            "inverted_prices",
            f"q_max ({q_max}) below q_min ({q_min})",
        )
    if closed and d_min > d_max:
        return (
            "inverted_quantities",
            f"D_min ({d_min}) above D_max ({d_max})",
        )
    if min(values) < 0:
        return ("negative_value", f"negative bid parameter in {values}")
    cap = bid.rack_cap_w
    if max_demand > cap * (1.0 + _CAP_RTOL) + 1e-9:
        return (
            "exceeds_rack_cap",
            f"demand {max_demand} W exceeds rack headroom {cap} W",
        )
    return None


#: Below this many rack bids the column check costs more (a fixed
#: handful of numpy calls) than inspecting each bid, so every bundle
#: goes through :func:`inspect_rack_bid`.
_COLUMNS_FROM = 16


def _plainly_valid(values: np.ndarray) -> np.ndarray:
    """Per row of :attr:`BidTable.values <repro.core.bids.BidTable.values>`:
    is it plainly valid, ``0 <= d_min <= d_max <= cap < inf`` and
    ``0 <= q_min <= q_max < inf``?

    Each clause fails on a NaN, so a sampled row (NaN until admitted) or
    a value that is not a real number never passes.  A plainly valid row
    passes :func:`inspect_rack_bid` (whose cap check even allows a
    ``1e-9`` relative excess); a row that is not plainly valid is left
    to it.
    """
    cap, d_max, q_min, d_min, q_max = values
    ok = (d_min >= 0.0) & (d_min <= d_max) & (d_max <= cap) & (cap < math.inf)
    ok &= (q_min >= 0.0) & (q_min <= q_max) & (q_max < math.inf)
    return ok


def screen_bids(
    tenant_bids: Iterable[TenantBid],
) -> tuple[list[TenantBid], tuple[QuarantinedBid, ...], BidTable]:
    """Partition solicited bundles into admitted and quarantined.

    A bundle is admitted only if *every* rack bid in it is valid —
    partial admission would grant a tenant capacity on exactly the
    racks whose bids happened to parse, an outcome no tenant asked for.
    Quarantined bundles report one :class:`QuarantinedBid` per
    offending rack bid, in bundle order and then rack order.

    The bundles are walked once into a :class:`~repro.core.bids.BidTable`,
    and one vectorized check (:func:`_plainly_valid`) passes every row
    whose curve is plainly valid.  When all rows pass — every honest
    slot — the bundles are admitted as they are.  Otherwise the bundles
    holding a row that did not pass (a malformed bid, a sampled demand
    curve, a value that is not a real number) go through
    :func:`inspect_rack_bid` bid by bid, which decides them and writes
    each quarantine's reason and detail.  A slot of fewer than
    :data:`_COLUMNS_FROM` rack bids skips the columns and sends every
    bundle there.

    Returns:
        ``(admitted, quarantined, table)``: the admitted bundles in
        submission order, and their table.
    """
    table = BidTable.from_bundles(tenant_bids)
    bundles = table.bundles
    suspect: Iterable[int] = range(len(bundles))
    if len(table.bids) >= _COLUMNS_FROM:
        plain = _plainly_valid(table.values)
        if np.logical_and.reduce(plain):
            return bundles, (), table
        failed = (~plain).nonzero()[0]
        suspect = set(np.searchsorted(table.ends, failed, side="right").tolist())
    admitted: list[bool] = []
    quarantined: list[QuarantinedBid] = []
    for i, bundle in enumerate(bundles):
        offenders = (
            [
                (bid, verdict)
                for bid in bundle.rack_bids
                if (verdict := inspect_rack_bid(bid)) is not None
            ]
            if i in suspect
            else ()
        )
        admitted.append(not offenders)
        for bid, (reason, detail) in offenders:
            quarantined.append(
                QuarantinedBid(
                    tenant_id=bundle.tenant_id,
                    rack_id=bid.rack_id,
                    reason=reason,
                    detail=detail,
                )
            )
    if not quarantined:
        return bundles, (), table
    table = table.keep(admitted)
    return table.bundles, tuple(quarantined), table
