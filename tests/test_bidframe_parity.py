"""Property-based parity: the BidFrame clear vs the object-clear oracle.

The production pipeline (`BidFrame` + breakpoint-sweep demand totals)
is checked against the object-at-a-time reference clear in
``tests/oracle.py``.  Across random facilities — all three bid kinds,
uniform and per-PDU pricing, extra phase/heat constraints — the two
must produce identical prices and (to float-summation noise) identical
grants and profit.  Under a uniform price, two prices whose revenues tie
exactly may come out of the two sums an ulp apart either way; there the
prices may differ, as long as the revenues agree and both clears pass
the Eq. 2-4 check.  Grant extraction is bit-identical by construction
(both paths evaluate each bid's own demand at the clearing price), so
grants are compared with a tight absolute tolerance only to absorb the
demand-total reordering that may, in principle, shift the scan's
feasibility edge.

Watt-scale draws are bounded away from float epsilon (a value is either
exactly zero or >= 0.01 W): at ~1e-16 W caps *every* candidate revenue
is pure rounding noise (~1e-20 $/h), and which grid price "wins" such a
degenerate all-tie landscape is not a meaningful parity property.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters
from repro.core.allocation import verify_allocation
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import BidFrame
from repro.infrastructure.constraints import CapacityConstraint

from tests import oracle


def _one_market_totals(frame, prices, group_rows=()):
    """``frame.market_totals`` with one market: every row, every PDU, one
    ascending price grid."""
    prices = np.asarray(prices, dtype=float)
    return frame.market_totals(
        np.arange(len(frame), dtype=np.intp),
        0,
        np.zeros(len(frame.pdu_ids), dtype=np.intp),
        prices[None, :],
        np.array([prices.size]),
        group_rows,
        np.zeros(len(group_rows), dtype=np.intp),
    )

PARAMS = MarketParameters(price_step=0.01)


def _watts(upper):
    """A watt value: exactly zero, or bounded away from float noise."""
    return st.one_of(
        st.just(0.0), st.floats(min_value=0.01, max_value=upper)
    )


@st.composite
def full_bid(draw):
    n_pts = draw(st.integers(min_value=1, max_value=4))
    increments = [
        draw(st.floats(min_value=0.5, max_value=30.0)) for _ in range(n_pts)
    ]
    demands = np.cumsum(increments)
    marginals = sorted(
        (
            draw(st.floats(min_value=0.0, max_value=0.0005))
            for _ in range(n_pts)
        ),
        reverse=True,
    )
    cap = draw(
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.45))
    )
    return FullBid(demands, marginals, price_cap=cap)


@st.composite
def market_instances(draw, constraints=False):
    n_racks = draw(st.integers(min_value=1, max_value=10))
    n_pdus = draw(st.integers(min_value=1, max_value=3))
    bids = []
    for i in range(n_racks):
        kind = draw(st.sampled_from(["linear", "step", "full"]))
        if kind == "full":
            demand = draw(full_bid())
        else:
            d_min = draw(_watts(40.0))
            d_max = d_min + draw(_watts(80.0))
            q_min = draw(st.floats(min_value=0.0, max_value=0.3))
            q_max = q_min + draw(st.floats(min_value=0.001, max_value=0.4))
            demand = (
                StepBid(d_max, q_max)
                if kind == "step"
                else LinearBid(d_max, q_min, d_min, q_max)
            )
        bids.append(
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % n_pdus}",
                tenant_id=f"t{i % max(1, n_racks // 2)}",
                demand=demand,
                rack_cap_w=draw(_watts(150.0)),
            )
        )
    pdu_spot = {f"p{j}": draw(_watts(200.0)) for j in range(n_pdus)}
    ups_spot = draw(_watts(400.0))
    extra = []
    if constraints:
        for k in range(draw(st.integers(min_value=0, max_value=2))):
            members = draw(
                st.sets(
                    st.sampled_from([b.rack_id for b in bids]), min_size=1
                )
            )
            extra.append(
                CapacityConstraint(
                    name=f"zone{k}",
                    rack_ids=frozenset(members),
                    cap_w=draw(_watts(120.0)),
                )
            )
    return bids, pdu_spot, ups_spot, tuple(extra)


def _assert_results_match(frame_result, object_result, market):
    assert frame_result.candidate_prices == object_result.candidate_prices
    if frame_result.price != object_result.price:
        # Two prices whose exact revenues tie: the clears sum demand in
        # different orders, and the ulp apart decides which one wins.
        # Either is a profit-maximising, feasible clear.
        bids, pdu_spot, ups_spot, extra = market
        assert frame_result.revenue_rate == pytest.approx(
            object_result.revenue_rate, rel=1e-12
        )
        for result in (frame_result, object_result):
            verify_allocation(
                result, bids, pdu_spot, ups_spot, extra_constraints=extra
            )
        return
    assert frame_result.revenue_rate == pytest.approx(
        object_result.revenue_rate, abs=1e-9
    )
    assert set(frame_result.grants_w) == set(object_result.grants_w)
    for rack_id, grant in object_result.grants_w.items():
        assert frame_result.grants_w[rack_id] == pytest.approx(
            grant, abs=1e-9
        )


#: A revenue tie in exact arithmetic: 0.1 * (29.91 + 15.11 + 14.8) ==
#: 0.2 * (15.11 + 14.8).  The frame clear takes 0.1, the oracle 0.2.
_TIED = (
    [
        RackBid("r0", "p0", "t0", StepBid(29.91, 0.1), 150.0),
        RackBid("r1", "p0", "t1", StepBid(15.11, 0.2), 150.0),
        RackBid("r2", "p0", "t0", StepBid(14.8, 0.2), 150.0),
    ],
    {"p0": 200.0},
    400.0,
    (),
)


class TestUniformPricingParity:
    @given(data=market_instances())
    @example(data=_TIED)
    @settings(max_examples=150, deadline=None)
    def test_paths_identical(self, data):
        bids, pdu_spot, ups_spot, _ = data
        engine = MarketClearing(params=PARAMS)
        _assert_results_match(
            engine.clear(bids, pdu_spot, ups_spot),
            oracle.clear(engine, bids, pdu_spot, ups_spot),
            data,
        )

    @given(data=market_instances(constraints=True))
    @settings(max_examples=100, deadline=None)
    def test_paths_identical_with_constraints(self, data):
        bids, pdu_spot, ups_spot, extra = data
        engine = MarketClearing(params=PARAMS)
        _assert_results_match(
            engine.clear(bids, pdu_spot, ups_spot, extra),
            oracle.clear(engine, bids, pdu_spot, ups_spot, extra),
            data,
        )

    @given(data=market_instances())
    @settings(max_examples=60, deadline=None)
    def test_prebuilt_frame_equals_adapter(self, data):
        # Clearing a prebuilt frame and letting clear() adapt the object
        # list must be the same computation.
        bids, pdu_spot, ups_spot, _ = data
        frame_engine = MarketClearing(params=PARAMS)
        via_objects = frame_engine.clear(bids, pdu_spot, ups_spot)
        via_frame = frame_engine.clear(
            BidFrame.from_bids(bids), pdu_spot, ups_spot
        )
        assert via_frame.price == via_objects.price
        assert via_frame.grants_w == via_objects.grants_w
        assert via_frame.revenue_rate == via_objects.revenue_rate


class TestPerPduPricingParity:
    @given(data=market_instances())
    @settings(max_examples=100, deadline=None)
    def test_paths_identical(self, data):
        bids, pdu_spot, ups_spot, _ = data
        engine = MarketClearing(params=PARAMS)
        object_result = oracle.clear_per_pdu(engine, bids, pdu_spot, ups_spot)
        frame_result = engine.clear_per_pdu(bids, pdu_spot, ups_spot)
        assert frame_result.pdu_prices == object_result.pdu_prices
        assert frame_result.price == pytest.approx(object_result.price, abs=1e-9)
        assert frame_result.revenue_rate == pytest.approx(
            object_result.revenue_rate, abs=1e-9
        )
        for rack_id, grant in object_result.grants_w.items():
            assert frame_result.grants_w[rack_id] == pytest.approx(grant, abs=1e-9)

    @given(data=market_instances(constraints=True))
    @settings(max_examples=80, deadline=None)
    def test_paths_identical_with_constraints(self, data):
        bids, pdu_spot, ups_spot, extra = data
        engine = MarketClearing(params=PARAMS)
        object_result = oracle.clear_per_pdu(
            engine, bids, pdu_spot, ups_spot, extra
        )
        frame_result = engine.clear_per_pdu(bids, pdu_spot, ups_spot, extra)
        assert frame_result.pdu_prices == object_result.pdu_prices
        for rack_id, grant in object_result.grants_w.items():
            assert frame_result.grants_w[rack_id] == pytest.approx(grant, abs=1e-9)


class TestDemandKernelParity:
    @given(data=market_instances())
    @settings(max_examples=80, deadline=None)
    def test_demand_matrix_matches_per_bid_grids(self, data):
        bids, _, _, _ = data
        frame = BidFrame.from_bids(bids)
        prices = MarketClearing(params=PARAMS).candidate_prices(frame)
        matrix = frame.demand_matrix(prices)
        for row, bid in enumerate(frame.to_bids()):
            expected = np.minimum(
                bid.demand.demand_grid(prices), bid.rack_cap_w
            )
            np.testing.assert_array_equal(matrix[row], expected)

    @given(data=market_instances(constraints=True))
    @settings(max_examples=80, deadline=None)
    def test_demand_totals_match_matrix_sums(self, data):
        bids, _, _, extra = data
        frame = BidFrame.from_bids(bids)
        prices = MarketClearing(params=PARAMS).candidate_prices(frame)
        group_rows = [frame.rows_for(c.rack_ids) for c in extra]
        totals, group_totals = _one_market_totals(frame, prices, group_rows)
        matrix = frame.demand_matrix(prices)
        expected = frame.pdu_demand(matrix)
        np.testing.assert_allclose(totals, expected, atol=1e-8)
        for k, rows in enumerate(group_rows):
            np.testing.assert_allclose(
                group_totals[k], matrix[rows].sum(axis=0), atol=1e-8
            )

    def test_demand_totals_exactly_zero_past_all_caps(self):
        # Float cancellation in the sweep must not leave phantom demand
        # above every bid's acceptable price.
        bids = [
            RackBid(
                rack_id=f"r{i}",
                pdu_id="p0",
                tenant_id="t0",
                demand=LinearBid(50.0 + i, 0.05, 10.0 + i, 0.2),
                rack_cap_w=100.0,
            )
            for i in range(5)
        ]
        frame = BidFrame.from_bids(bids)
        prices = np.array([0.1, 0.2, 0.25, 0.9])
        totals, _ = _one_market_totals(frame, prices)
        assert totals[0, 2] == 0.0
        assert totals[0, 3] == 0.0


class TestSettlementParity:
    @given(data=market_instances())
    @settings(max_examples=80, deadline=None)
    def test_settle_matches_object_billing(self, data):
        bids, pdu_spot, ups_spot, _ = data
        frame = BidFrame.from_bids(bids)
        result = MarketClearing(params=PARAMS).clear_per_pdu(
            frame, pdu_spot, ups_spot
        )
        expected = oracle.payments(result, bids, 120.0)
        _, payments = frame.settle(
            result.grants_w, result.pdu_prices, result.price, 120.0
        )
        assert set(payments) == set(expected)
        for tenant_id, dollars in expected.items():
            assert payments[tenant_id] == pytest.approx(dollars, abs=1e-12)


class TestFrameAdapter:
    def _bids(self):
        return [
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % 2}",
                tenant_id=f"t{i % 3}",
                demand=LinearBid(40.0 + i, 0.05, 10.0, 0.3),
                rack_cap_w=60.0,
            )
            for i in range(6)
        ]

    def test_round_trip_preserves_bid_objects(self):
        bids = self._bids()
        frame = BidFrame.from_bids(bids)
        returned = frame.to_bids()
        assert sorted(b.rack_id for b in returned) == sorted(
            b.rack_id for b in bids
        )
        originals = {b.rack_id: b for b in bids}
        for b in returned:
            assert b is originals[b.rack_id]

    def test_rows_sorted_by_pdu(self):
        frame = BidFrame.from_bids(self._bids())
        assert list(frame.pdu_code) == sorted(frame.pdu_code)
