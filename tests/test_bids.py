"""Bid containers: RackBid, TenantBid, bundling, flattening."""

import pytest

from repro.core.bids import RackBid, TenantBid, bundle_linear_bid, flatten_bids
from repro.core.clearing import clear_market
from repro.core.demand import LinearBid
from repro.core.frame import BidFrame
from repro.core.sharding import IncrementalFrameBuilder
from repro.errors import BidError


def rack_bid(rack="r1", tenant="t1", cap=100.0, pdu="p1"):
    return RackBid(
        rack_id=rack,
        pdu_id=pdu,
        tenant_id=tenant,
        demand=LinearBid(80.0, 0.1, 20.0, 0.3),
        rack_cap_w=cap,
    )


class TestRackBid:
    def test_clipped_demand_respects_rack_cap(self):
        bid = rack_bid(cap=50.0)
        assert bid.clipped_demand_at(0.05) == pytest.approx(50.0)

    def test_clipped_demand_passes_through_below_cap(self):
        bid = rack_bid(cap=100.0)
        assert bid.clipped_demand_at(0.3) == pytest.approx(20.0)

    def test_negative_cap_rejected(self):
        with pytest.raises(BidError):
            rack_bid(cap=-1.0)


class TestTenantBid:
    def test_bundle_parameter_count(self):
        bundle = TenantBid("t1", (rack_bid("r1"), rack_bid("r2")))
        assert bundle.parameter_count == 8

    def test_total_demand_sums_racks(self):
        bundle = TenantBid("t1", (rack_bid("r1", cap=50.0), rack_bid("r2")))
        assert bundle.total_demand_at(0.05) == pytest.approx(50.0 + 80.0)

    def test_empty_bundle_rejected(self):
        with pytest.raises(BidError):
            TenantBid("t1", ())

    def test_foreign_rack_bid_rejected(self):
        with pytest.raises(BidError):
            TenantBid("t1", (rack_bid(tenant="t2"),))

    def test_duplicate_rack_rejected(self):
        with pytest.raises(BidError):
            TenantBid("t1", (rack_bid("r1"), rack_bid("r1")))


class TestBundleLinearBid:
    def test_builds_shared_price_bundle(self):
        bundle = bundle_linear_bid(
            "t1",
            racks=[("r1", "p1", 100.0), ("r2", "p2", 60.0)],
            d_max_w=[40.0, 30.0],
            d_min_w=[10.0, 5.0],
            q_min=0.1,
            q_max=0.3,
        )
        assert len(bundle.rack_bids) == 2
        for bid in bundle.rack_bids:
            assert bid.demand.q_min == 0.1
            assert bid.demand.q_max == 0.3
        assert bundle.rack_bids[0].demand.d_max_w == 40.0
        assert bundle.rack_bids[1].demand.d_min_w == 5.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(BidError):
            bundle_linear_bid(
                "t1", [("r1", "p1", 10.0)], [5.0, 6.0], [1.0], 0.1, 0.2
            )


class TestFlattenBids:
    def test_flattens_in_order(self):
        b1 = TenantBid("t1", (rack_bid("r1"),))
        b2 = TenantBid("t2", (rack_bid("r2", tenant="t2"), rack_bid("r3", tenant="t2")))
        flat = flatten_bids([b1, b2])
        assert [b.rack_id for b in flat] == ["r1", "r2", "r3"]

    def test_cross_bundle_duplicate_rejected(self):
        b1 = TenantBid("t1", (rack_bid("r1"),))
        b2 = TenantBid("t2", (rack_bid("r1", tenant="t2"),))
        with pytest.raises(BidError):
            flatten_bids([b1, b2])

    def test_empty_input(self):
        assert flatten_bids([]) == []

    def test_repeated_rack_rejected_at_the_frame(self):
        # r104 bids on p0 and on p2.  The frame adapter, the one-shot
        # clear and the incremental builder's list path refuse the bids
        # as flatten_bids refuses the bundles, instead of collapsing the
        # two rows into one grants_w entry.
        bids = [
            rack_bid(f"r10{i}", tenant=f"t{i}", pdu=f"p{i % 3}") for i in range(5)
        ] + [rack_bid("r104", tenant="t9", pdu="p0")]
        message = "rack r104 appears in multiple bundles"
        with pytest.raises(BidError, match=message):
            BidFrame.from_bids(bids)
        for per_pdu in (True, False):
            with pytest.raises(BidError, match=message):
                clear_market(bids, {"p0": 60.0, "p1": 60.0, "p2": 60.0}, 150.0, per_pdu=per_pdu)
        builder = IncrementalFrameBuilder()
        builder.build(bids[:5])
        with pytest.raises(BidError, match=message):
            builder.build(bids)
