"""One walk from bid bundles to frame columns, against the walks it replaced.

Each slot's bundles are walked once into a :class:`BidTable`; the
admission screen, the duplicate-rack check and the incremental frame
builder all read it.  ``tests/oracle.py`` keeps the walks they replaced:
the admission screen's own rows (``_rows``), ``flatten_bids``' loop, the
PDU-block frame build (``from_bids``) and the builder that reuses a
block while its bids compare equal bid by bid.  Random slot sequences —
every curve kind, resubmitted curve objects, ``0.0``/``-0.0`` and
``StepBid``/``LinearBid`` swaps, racks moving PDU, tenant or cap,
joining and leaving, duplicate deliveries, malformed bundles, unreadable
envelopes and racks in two bundles — must give the same admitted
bundles, quarantines, errors, frames (bit for bit), dirty PDUs, reuse
counters and bid objects, at every size threshold.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters
from repro.core import frame as frame_module
from repro.core.bids import BidTable, RackBid, TenantBid, flatten_bids
from repro.core.clearing import MarketClearing
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import BidFrame
from repro.core.market import SpotDCAllocator
from repro.core.sharding import IncrementalFrameBuilder
from repro.prediction.spot import SpotCapacityForecast
from repro.recovery import admission
from repro.recovery.admission import dedupe_bundles, screen_bids

from tests import oracle

RACKS = tuple(f"r{i}" for i in range(12))
# "p10" sorts before "p2": PDU order is not first-appearance order.
PDUS = ("p2", "p0", "p10")
TENANTS = ("tA", "tB", "tC", "tD")
ZEROS = (0.0, -0.0)


class _Opaque(LinearBid):
    """A LinearBid subclass: sampled, with public curve attributes."""


class _Unreadable(LinearBid):
    """A sampled curve whose envelope cannot be read."""

    @property
    def max_price(self):
        raise ValueError("no envelope")


_WATTS = st.sampled_from((*ZEROS, 20.0, 60.0))
_PRICES = st.sampled_from((*ZEROS, 0.05, 0.3))
_CURVE = st.one_of(
    st.tuples(st.just("linear"), _WATTS, _PRICES, _WATTS, _PRICES),
    st.tuples(st.just("step"), _WATTS, _PRICES),
    st.tuples(st.sampled_from(["full"] * 8 + ["opaque"] * 8 + ["unreadable"])),
)
_SPEC = st.tuples(
    st.sampled_from(TENANTS),
    st.sampled_from(PDUS),
    st.sampled_from((*ZEROS, *[100.0] * 18)),
    _CURVE,
)
#: What happens to a rack between two slots.  An untouched rack sends
#: a fresh curve object with the same values, as tenants do.
_SET = st.tuples(st.just("set"), st.sampled_from(RACKS), _SPEC)
_TOUCH = st.tuples(
    st.sampled_from(["leave", "again", "swap", "swap", "swap", "zero", "zero"]),
    st.sampled_from(RACKS),
)
_OP = st.one_of(
    _SET,
    _TOUCH,
    _TOUCH,
    st.tuples(st.just("pdu"), st.sampled_from(RACKS), st.sampled_from(PDUS)),
    st.tuples(st.just("tenant"), st.sampled_from(RACKS), st.sampled_from(TENANTS)),
    st.tuples(st.just("cap"), st.sampled_from(RACKS), st.sampled_from((60.0, 100.0))),
    st.tuples(st.just("redraw"), st.sampled_from(RACKS), _CURVE),
    st.tuples(st.just("rename"), st.sampled_from(RACKS), st.sampled_from(RACKS)),
    st.tuples(
        st.just("corrupt"),
        st.sampled_from(RACKS),
        st.sampled_from(["nan", "none", "five", "negative", "inverted"]),
    ),
)
_SLOT = st.tuples(
    st.lists(_OP, max_size=3),
    st.sampled_from([False] * 3 + [True]),  # every rack resends its curve object
    st.sampled_from([False] * 5 + [True]),  # a rack in two bundles
    st.sampled_from([False] * 3 + [True]),  # a bundle delivered twice
    st.randoms(use_true_random=False),
)


def _flip_zeros(value):
    if isinstance(value, float) and value == 0.0:
        return -value
    if isinstance(value, tuple):
        return tuple(_flip_zeros(v) for v in value)
    return value


def _swapped(curve):
    """The equal-valued curve of the other closed-form kind."""
    if curve[0] == "step":
        _, d, p = curve
        return ("linear", d, p, d, p)
    if curve[0] == "linear":
        _, d_max, q_min, d_min, q_max = curve
        if d_max == d_min and q_min == q_max:
            return ("step", d_max, q_max)
    return curve


def _curve(curve):
    kind = curve[0]
    if kind == "full":
        return FullBid([10.0, 30.0], [0.0004, 0.0002])
    if kind == "opaque":
        return _Opaque(30.0, 0.05, 10.0, 0.3)
    if kind == "unreadable":
        return _Unreadable(30.0, 0.05, 10.0, 0.3)
    if kind == "step":
        return StepBid(curve[1], curve[2])
    _, d_max, q_min, d_min, q_max = curve
    d_min = d_min if d_min <= d_max else d_max
    return LinearBid(d_max, q_min if q_min <= q_max else q_max, d_min, max(q_min, q_max))


def _corrupt(curve, how):
    """A copy of a closed-form curve, mutated after construction as a bad
    tenant may (the curve submitted before stays as it was)."""
    if type(curve) not in (LinearBid, StepBid):
        return curve
    bad = type(curve).__new__(type(curve))
    bad.__dict__.update(curve.__dict__)
    attr = "d_min_w" if isinstance(bad, LinearBid) else "demand_w"
    value = {"nan": math.nan, "none": None, "five": "5", "negative": -1.0}.get(how)
    setattr(bad, attr, 1e3 if how == "inverted" else value)
    return bad


_SLOTS = st.tuples(
    st.dictionaries(st.sampled_from(RACKS), _SPEC, min_size=2),
    st.lists(_SLOT, min_size=1, max_size=8),
)


def _slots(specs):
    """Each slot's delivered bundle list: the racks' state, changed by
    the slot's operations."""
    racks, slots = specs
    racks = dict(racks)
    sent: dict[str, object] = {}
    for ops, resend, shared, twice, rng in slots:
        again, corrupt = set(racks) if resend else set(), {}
        for op in ops:
            kind, rack_id = op[0], op[1]
            if kind == "set":
                racks[rack_id] = op[2]
            elif rack_id not in racks:
                continue
            elif kind == "leave":
                del racks[rack_id]
            elif kind == "pdu":
                racks[rack_id] = (racks[rack_id][0], op[2], *racks[rack_id][2:])
            elif kind == "tenant":
                racks[rack_id] = (op[2], *racks[rack_id][1:])
            elif kind == "cap":
                racks[rack_id] = (*racks[rack_id][:2], op[2], racks[rack_id][3])
            elif kind == "redraw":
                racks[rack_id] = (*racks[rack_id][:3], op[2])
            elif kind == "rename":
                if op[2] not in racks:
                    racks[op[2]] = racks.pop(rack_id)
            elif kind == "swap":
                tenant, pdu, cap, curve = racks[rack_id]
                racks[rack_id] = (tenant, pdu, cap, _swapped(curve))
            elif kind == "zero":
                racks[rack_id] = _flip_zeros(racks[rack_id])
            elif kind == "again":
                again.add(rack_id)
            else:
                corrupt[rack_id] = op[2]
        by_tenant: dict[str, list[RackBid]] = {}
        for rack_id, (tenant, pdu, cap, curve) in sorted(racks.items()):
            demand = sent[rack_id] if rack_id in again and rack_id in sent else _curve(curve)
            if rack_id in corrupt:
                demand = _corrupt(demand, corrupt[rack_id])
            sent[rack_id] = demand
            by_tenant.setdefault(tenant, []).append(RackBid(rack_id, pdu, tenant, demand, cap))
        if shared and len(by_tenant) > 1:
            first, second = rng.sample(sorted(by_tenant), 2)
            bid = by_tenant[first][0]
            if all(b.rack_id != bid.rack_id for b in by_tenant[second]):
                by_tenant[second].append(
                    RackBid(bid.rack_id, bid.pdu_id, second, bid.demand, bid.rack_cap_w)
                )
        bundles = [TenantBid(t, tuple(bids)) for t, bids in by_tenant.items()]
        rng.shuffle(bundles)
        if twice and bundles:
            bundles.insert(rng.randrange(len(bundles) + 1), rng.choice(bundles))
        yield bundles


def _outcome(run):
    """``run()``'s value, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return (type(exc), str(exc))


_COLUMNS = (
    "pdu_code", "tenant_code", "kind", "d_max_w", "q_min", "d_min_w", "q_max",
    "rack_cap_w", "max_demand_w", "floor_w",
)


def _grids(frame: BidFrame) -> tuple[list[bytes], bytes]:
    """The frame's PDU price grids and its rows' grid indices, bit for
    bit: cached on each block once built (a kept block's come from an
    earlier slot's clear), built afresh for the others."""
    grids, index = MarketClearing()._pdu_grids(frame)
    return [grid.tobytes() for grid in grids], index.tobytes()


def assert_same_frame(got: BidFrame, want: BidFrame) -> None:
    """Equal column for column, bit for bit, with the same objects."""
    assert got.rack_ids == want.rack_ids
    assert got.pdu_ids == want.pdu_ids
    assert got.tenant_ids == want.tenant_ids
    for name in _COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert [b.pdu_id for b in got.blocks] == [b.pdu_id for b in want.blocks]
    if len(want):
        assert _grids(got) == _grids(want)
    assert [id(d) for d in got._demands] == [id(d) for d in want._demands]
    assert [id(b) for b in got.to_bids()] == [id(b) for b in want.to_bids()]


def _new_slot(delivered, builder):
    bundles, absorbed = dedupe_bundles(delivered)
    admitted, quarantined, table = screen_bids(bundles)
    bids = flatten_bids(table)
    previous = builder._frame
    frame = builder.build(table)
    return absorbed, admitted, quarantined, bids, frame, frame is previous


def _oracle_slot(delivered, builder):
    bundles, absorbed = dedupe_bundles(delivered)
    admitted, quarantined = oracle.screen_bids(bundles)
    bids = oracle.flatten_bids(admitted)
    previous = builder._frame
    frame = builder.build(bids)
    return absorbed, admitted, quarantined, bids, frame, frame is previous


_THRESHOLDS = st.sampled_from([(None, None), (0, 0), (0, 0), (10**9, 10**9), (0, 10**9)])


def _thresholds(columns_from, rows_from):
    patches = []
    if columns_from is not None:
        patches.append(mock.patch.object(admission, "_COLUMNS_FROM", columns_from))
    if rows_from is not None:
        patches.append(mock.patch.object(frame_module, "_ROWS_FROM", rows_from))
    return patches


@given(specs=_SLOTS, thresholds=_THRESHOLDS)
@settings(max_examples=1500, deadline=None)
def test_the_walk_matches_the_walks_it_replaced(specs, thresholds):
    patches = _thresholds(*thresholds)
    for patch in patches:
        patch.start()
    try:
        builder = IncrementalFrameBuilder()
        reference = oracle.IncrementalFrameBuilder()
        for delivered in _slots(specs):
            got = _outcome(lambda: _new_slot(delivered, builder))
            want = _outcome(lambda: _oracle_slot(delivered, reference))
            if isinstance(want, tuple) and len(want) == 2:
                assert got == want  # the same error, word for word
                continue
            absorbed, admitted, quarantined, bids, frame, reused = got
            assert absorbed == want[0]
            assert [id(b) for b in admitted] == [id(b) for b in want[1]]
            assert quarantined == want[2]
            assert [id(b) for b in bids] == [id(b) for b in want[3]]
            assert reused == want[5]
            assert_same_frame(frame, want[4])
            assert builder.last_dirty == reference.last_dirty
            assert (builder.builds, builder.rebuilt_pdus, builder.reused_pdus) == (
                reference.builds, reference.rebuilt_pdus, reference.reused_pdus,
            )
            # From scratch, the table's frame is the PDU-block build's.
            assert_same_frame(BidFrame.from_bids(bids), oracle.from_bids(bids))
    finally:
        for patch in patches:
            patch.stop()


@given(specs=_SLOTS)
@settings(max_examples=150, deadline=None)
def test_the_screen_passes_the_rows_the_old_screen_passed(specs):
    """Row by row, the table's plain-validity verdict is the old rows'."""
    for bundles in _slots(specs):
        rows = oracle._rows(bundles)
        old = np.minimum.reduce(rows, axis=1) >= 0.0
        old &= np.maximum.reduce(rows, axis=1) < math.inf
        old &= np.logical_and.reduce(rows[:, :3] <= rows[:, 3:], axis=1)
        new = admission._plainly_valid(BidTable.from_bundles(bundles).values)
        assert new.tolist() == old.tolist()


class _Tenant:
    """A tenant that submits a prepared bundle, another one on a re-bid."""

    def __init__(self, tenant_id, first, again):
        self.tenant_id = tenant_id
        self._bundles = (first, again)

    def make_bid(self, slot, predicted_price=None):
        return self._bundles[predicted_price is not None]


class _OracleBuilder(oracle.IncrementalFrameBuilder):
    """The replaced builder, fed the slot's rack bids."""

    def build(self, table):
        return super().build(table.bids)


@given(
    specs=_SLOTS,
    pricing=st.sampled_from(["per_pdu", "uniform"]),
    rebid=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_allocate_matches_the_replaced_builder(specs, pricing, rebid):
    forecast = SpotCapacityForecast({p: 90.0 for p in PDUS}, 200.0)
    allocators = []
    for builder in (IncrementalFrameBuilder(), _OracleBuilder()):
        allocator = SpotDCAllocator(
            params=MarketParameters(price_step=0.01), pricing=pricing, oracle_rebid=rebid
        )
        allocator.frame_builder = builder
        allocators.append(allocator)
    slots = list(_slots(specs))
    for slot, (first, again) in enumerate(zip(slots, slots[1:])):
        again = {b.tenant_id: b for b in again}
        tenants = [_Tenant(b.tenant_id, b, again.get(b.tenant_id)) for b in first]
        records = [
            _outcome(lambda a=a: a.allocate(slot, tenants, forecast, 60.0))
            for a in allocators
        ]
        got, want = records
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.result == want.result
        assert got.payments == want.payments
        assert got.quarantined == want.quarantined
        assert [id(b) for b in got.bids] == [id(b) for b in want.bids]
