"""Admission and the Eq. 2-4 check over columns vs the object oracle.

``screen_bids`` judges a slot's rack bids as float columns and leaves
every bid that is not plainly valid to ``inspect_rack_bid``;
``verify_allocation`` checks Eqs. 2-4 over the slot's ``BidFrame``.
``tests/oracle.py`` keeps both as they were written over ``RackBid``
objects, bid by bid and grant by grant.  The column versions must agree
with them: the same admitted bundle objects and quarantine records, and
a ``CapacityError`` in exactly the cases the oracle raises one.

Both column checks skip numpy on slots too small to pay for it (below
``admission._COLUMNS_FROM`` rack bids, ``allocation._KERNEL_FROM``
granted racks); every property patches those thresholds to 0 and to a
large value as well, so both sides of each are checked.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters, make_rng
from repro.core import allocation
from repro.core.allocation import verify_allocation
from repro.core.bids import BidTable, RackBid, TenantBid
from repro.core.clearing import MarketClearing
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import BidFrame
from repro.errors import CapacityError
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.infrastructure.constraints import CapacityConstraint
from repro.recovery import admission
from repro.recovery.admission import inspect_rack_bid, screen_bids
from repro.tenants.misbehaving import MalformedBidTenant

from tests import oracle
from tests.test_clearing_sweep import fleets

#: Threshold values that force the numpy path (0) or the small path.
THRESHOLDS = (0, None, 10**9)


class _ShiftedLinear(LinearBid):
    """A ``LinearBid`` subclass: clearing and admission sample it."""


def _watts(upper):
    return st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=upper))


def _set(obj, attr, value):
    """Set an attribute after construction, frozen dataclass or not."""
    object.__setattr__(obj, attr, value)


@st.composite
def _rack_bid(draw, rack_id, tenant_id):
    """One rack bid: honest, or broken in one of the ways admission sees."""
    cap = draw(_watts(150.0))
    d_min = draw(_watts(40.0))
    d_max = min(d_min + draw(_watts(80.0)), cap) if d_min <= cap else d_min
    q_min = draw(st.floats(min_value=0.0, max_value=0.3))
    q_max = q_min + draw(st.floats(min_value=0.0, max_value=0.4))
    kind = draw(
        st.sampled_from(
            ["linear", "linear", "step", "full", "subclass", "corrupt",
             "cap", "headroom", "unreadable"]
        )
    )
    if kind == "full":
        demand = FullBid(
            [5.0, 10.0 + d_max], [0.0004, 0.0001],
            price_cap=draw(st.one_of(st.none(), st.just(q_max))),
        )
    elif kind == "step":
        demand = StepBid(min(d_max, cap), q_max)
    elif kind == "subclass":
        demand = _ShiftedLinear(d_max, q_min, min(d_min, d_max), q_max)
    else:
        demand = LinearBid(d_max, q_min, min(d_min, d_max), q_max)
    bid = RackBid(
        rack_id=rack_id, pdu_id=f"p{draw(st.integers(0, 2))}",
        tenant_id=tenant_id, demand=demand, rack_cap_w=cap,
    )
    if kind == "corrupt":
        bid = MalformedBidTenant._corrupt(
            bid, draw(st.sampled_from(MalformedBidTenant.CORRUPTIONS))
        )
    elif kind == "cap":
        _set(bid, "rack_cap_w", draw(st.sampled_from([math.nan, math.inf, -1.0])))
    elif kind == "headroom":
        # inspect_rack_bid allows a 1e-9 relative excess over the cap:
        # exactly at the bound is valid, one ulp above it is not.
        bound = cap * (1.0 + 1e-9) + 1e-9
        if draw(st.booleans()):
            bound = math.nextafter(bound, math.inf)
        demand.d_max_w = bound
    elif kind == "unreadable":
        attr = draw(
            st.sampled_from(["d_max_w", "q_min", "d_min_w", "q_max", "rack_cap_w"])
        )
        value = draw(st.sampled_from([None, "5"]))
        _set(bid if attr == "rack_cap_w" else demand, attr, value)
    return bid


@st.composite
def bundle_lists(draw):
    """Multi-rack tenant bundles mixing honest and malformed bids."""
    bundles = []
    rack = 0
    for t in range(draw(st.integers(min_value=0, max_value=8))):
        rack_bids = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            rack_bids.append(draw(_rack_bid(f"r{rack}", f"t{t}")))
            rack += 1
        bundles.append(TenantBid(tenant_id=f"t{t}", rack_bids=tuple(rack_bids)))
    return bundles


def _threshold(module, name, value):
    """Patch a size threshold (``None`` keeps the module's own)."""
    if value is None:
        return mock.patch.object(module, name, getattr(module, name))
    return mock.patch.object(module, name, value)


@pytest.mark.recovery
class TestScreen:
    @given(bundles=bundle_lists(), columns_from=st.sampled_from(THRESHOLDS))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_object_screen(self, bundles, columns_from):
        want_admitted, want_quarantined = oracle.screen_bids(bundles)
        with _threshold(admission, "_COLUMNS_FROM", columns_from):
            admitted, quarantined, _ = screen_bids(bundles)
        assert [id(b) for b in admitted] == [id(b) for b in want_admitted]
        assert quarantined == want_quarantined

    @given(bundles=bundle_lists())
    @settings(max_examples=200, deadline=None)
    def test_plainly_valid_rows_are_the_valid_rows_within_their_cap(self, bundles):
        bids = [bid for bundle in bundles for bid in bundle.rack_bids]
        assume(bids)
        plain = admission._plainly_valid(BidTable.from_bundles(bundles).values)
        for bid, is_plain in zip(bids, plain.tolist()):
            if type(bid.demand) not in (LinearBid, StepBid):
                assert not is_plain  # sampled: inspect_rack_bid decides
                continue
            valid = inspect_rack_bid(bid) is None
            assert is_plain == (valid and bid.demand.max_demand_w <= bid.rack_cap_w)

    def test_an_honest_fleet_never_reaches_the_per_bid_check(self):
        bids, _, _ = make_synthetic_bids(400, make_rng(5), racks_per_pdu=40)
        step = [
            dataclasses.replace(b, demand=StepBid(b.demand.d_max_w, b.demand.q_max))
            for b in bids[:100]
        ]
        bundles = [
            TenantBid(tenant_id=f"t{k}", rack_bids=tuple(
                dataclasses.replace(b, tenant_id=f"t{k}")
                for b in (step + bids[100:])[k * 25:(k + 1) * 25]
            ))
            for k in range(16)
        ]
        with mock.patch.object(
            admission, "inspect_rack_bid", side_effect=AssertionError
        ):
            admitted, quarantined, _ = screen_bids(bundles)
        assert admitted == bundles and quarantined == ()

    def test_one_unreadable_value_leaves_the_other_rows_to_the_columns(self):
        bids, _, _ = make_synthetic_bids(40, make_rng(6), racks_per_pdu=10)
        bundles = [TenantBid(tenant_id=b.tenant_id, rack_bids=(b,)) for b in bids]
        bids[7].demand.q_min = "5"
        inspected = []

        def spy(bid):
            inspected.append(bid.rack_id)
            return inspect_rack_bid(bid)

        with mock.patch.object(admission, "inspect_rack_bid", side_effect=spy):
            admitted, quarantined, _ = screen_bids(bundles)
        assert inspected == [bids[7].rack_id]
        assert [q.reason for q in quarantined] == ["non_finite"]
        assert admitted == bundles[:7] + bundles[8:]


# ----------------------------------------------------------------------
# verify_allocation
# ----------------------------------------------------------------------


def _cleared(fleet, pricing):
    """A clean clearing result for ``fleet`` (uniform or per-PDU)."""
    bids, pdu_spot, ups_spot, extra, params = fleet
    engine = MarketClearing(params=params)
    frame = BidFrame.from_bids(bids)
    if pricing == "uniform":
        return engine.clear(frame, pdu_spot, ups_spot, extra), frame
    return engine.clear_per_pdu(frame, pdu_spot, ups_spot, extra), frame


def _verdicts(result, bids, frame, pdu_spot, ups_spot, extra):
    """``(oracle, bid-list form, frame form)``: each None or its message."""
    verdicts = []
    for check, target in (
        (oracle.verify_allocation, bids),
        (verify_allocation, bids),
        (verify_allocation, frame),
    ):
        try:
            check(result, target, pdu_spot, ups_spot, extra_constraints=extra)
        except CapacityError as exc:
            verdicts.append(str(exc))
        else:
            verdicts.append(None)
    return verdicts


CLAUSES = (
    "nan_grant",
    "negative_grant",
    "unknown_rack",
    "rack_cap",
    "nan_rack_cap",
    "demand",
    "pdu_cap",
    "ups_cap",
    "constraint_cap",
    "nan_pdu_cap",
    "nan_ups_cap",
)


def _break(clause, result, bids, frame, pdu_spot, ups_spot, extra, pick):
    """The inputs broken in one place: one grant, bid, cap or constraint.

    A grant above its rack cap also exceeds its (rack-clipped) demand,
    so ``rack_cap`` breaks two clauses of the rack at once.
    """
    grants = dict(result.grants_w)
    listed = sorted(grants)
    rack = listed[pick % len(listed)]
    row = frame.row_of[rack]
    pdu = frame.pdu_ids[frame.pdu_code[row]]
    pdu_spot = dict(pdu_spot)
    if clause == "nan_grant":
        grants[rack] = math.nan
    elif clause == "negative_grant":
        grants[rack] = -1.0
    elif clause == "unknown_rack":
        grants["ghost"] = 0.0
    elif clause == "rack_cap":
        grants[rack] = float(frame.rack_cap_w[row]) + 1.0
    elif clause == "nan_rack_cap":
        bids = [
            dataclasses.replace(b, rack_cap_w=math.nan) if b.rack_id == rack else b
            for b in bids
        ]
        frame = BidFrame.from_bids(bids)
    elif clause == "demand":
        paid = result.price_for_pdu(pdu)
        grants[rack] = frame.to_bids()[row].clipped_demand_at(paid) + 1.0
    elif clause == "pdu_cap":
        code = frame.pdu_code[row]
        pdu_spot[pdu] = sum(
            g for r, g in grants.items() if frame.pdu_code[frame.row_of[r]] == code
        ) - 1.0
    elif clause == "ups_cap":
        ups_spot = sum(grants.values()) - 1.0
    elif clause == "constraint_cap":
        # Caps are non-negative: halve a positive total, else use NaN.
        members = frozenset(r for r in listed if grants[r] > 0) or frozenset(listed)
        granted = sum(grants[r] for r in members)
        cap = granted / 2 if granted > 0 else math.nan
        extra = tuple(extra) + (CapacityConstraint("broken", members, cap),)
    elif clause == "nan_pdu_cap":
        pdu_spot[pdu] = math.nan
    else:
        ups_spot = math.nan
    result = dataclasses.replace(result, grants_w=grants)
    return result, bids, frame, pdu_spot, ups_spot, extra


class TestVerify:
    @given(
        fleet=fleets(),
        pricing=st.sampled_from(["uniform", "per_pdu"]),
        constrained=st.booleans(),
        kernel_from=st.sampled_from(THRESHOLDS),
    )
    @settings(max_examples=150, deadline=None)
    def test_clean_results_pass_both_checks(
        self, fleet, pricing, constrained, kernel_from
    ):
        bids, pdu_spot, ups_spot, extra, params = fleet
        extra = extra if constrained else ()
        result, frame = _cleared((bids, pdu_spot, ups_spot, extra, params), pricing)
        with _threshold(allocation, "_KERNEL_FROM", kernel_from):
            assert _verdicts(result, bids, frame, pdu_spot, ups_spot, extra) == [
                None, None, None
            ]

    @given(
        fleet=fleets(),
        pricing=st.sampled_from(["uniform", "per_pdu"]),
        clause=st.sampled_from(CLAUSES),
        pick=st.integers(min_value=0, max_value=1000),
        kernel_from=st.sampled_from(THRESHOLDS),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_broken_clause_fails_both_checks(
        self, fleet, pricing, clause, pick, kernel_from
    ):
        bids, pdu_spot, ups_spot, extra, _ = fleet
        result, frame = _cleared(fleet, pricing)
        assume(result.grants_w)
        result, bids, frame, pdu_spot, ups_spot, extra = _break(
            clause, result, bids, frame, pdu_spot, ups_spot, extra, pick
        )
        with _threshold(allocation, "_KERNEL_FROM", kernel_from):
            want, from_list, from_frame = _verdicts(
                result, bids, frame, pdu_spot, ups_spot, extra
            )
        assert want is not None
        assert from_list is not None
        assert from_list == from_frame

    def test_message_names_the_first_rack_in_frame_order(self):
        bids = [
            RackBid(f"r{i}", "p0", "t0", LinearBid(20.0, 0.05, 5.0, 0.3), 20.0)
            for i in range(3)
        ]
        result = MarketClearing(params=MarketParameters(price_step=0.01)).clear_per_pdu(
            bids, {"p0": 100.0}, 100.0
        )
        grants = dict(result.grants_w)
        grants["r2"] = -5.0
        grants["r1"] = math.nan
        broken = dataclasses.replace(result, grants_w=grants)
        with pytest.raises(CapacityError, match=r"^rack r1: negative or NaN grant nan$"):
            verify_allocation(broken, bids, {"p0": 100.0}, 100.0)

    def test_a_pdu_without_grants_is_not_checked(self):
        bids = [
            RackBid(f"r{i}", f"p{i}", "t0", LinearBid(20.0, 0.05, 5.0, 0.3), 20.0)
            for i in range(2)
        ]
        result = allocation.AllocationResult(
            price=0.1, grants_w={"r0": 10.0}, revenue_rate=0.0
        )
        pdu_spot = {"p0": 10.0, "p1": math.nan}
        oracle.verify_allocation(result, bids, pdu_spot, 10.0)
        verify_allocation(result, bids, pdu_spot, 10.0)
        with pytest.raises(CapacityError, match=r"^PDU p0: granted 10\.000 W"):
            verify_allocation(result, bids, {"p0": 9.0}, 10.0)

    def test_no_grants_still_checks_the_capacities(self):
        frame = BidFrame.from_bids([
            RackBid("r0", "p0", "t0", LinearBid(20.0, 0.05, 5.0, 0.3), 20.0)
        ])
        empty = allocation.AllocationResult.empty()
        verify_allocation(empty, frame, {"p0": math.nan}, 10.0)
        with pytest.raises(CapacityError, match="UPS"):
            verify_allocation(empty, frame, {}, math.nan)
        zone = CapacityConstraint("zone", frozenset({"r0"}), math.nan)
        with pytest.raises(CapacityError, match="constraint zone"):
            verify_allocation(empty, frame, {}, 10.0, extra_constraints=(zone,))
