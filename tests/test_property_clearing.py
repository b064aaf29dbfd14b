"""Property-based tests: market clearing never violates constraints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters
from repro.core.allocation import verify_allocation
from repro.core.bids import RackBid, TenantBid
from repro.core.clearing import MarketClearing
from repro.core.demand import LinearBid, StepBid
from repro.recovery import QUARANTINE_REASONS, inspect_rack_bid, screen_bids
from repro.tenants.misbehaving import MalformedBidTenant


@st.composite
def bid_sets(draw):
    n_racks = draw(st.integers(min_value=1, max_value=12))
    n_pdus = draw(st.integers(min_value=1, max_value=3))
    bids = []
    for i in range(n_racks):
        d_min = draw(st.floats(min_value=0.0, max_value=40.0))
        d_max = d_min + draw(st.floats(min_value=0.0, max_value=80.0))
        q_min = draw(st.floats(min_value=0.0, max_value=0.3))
        q_max = q_min + draw(st.floats(min_value=0.001, max_value=0.4))
        use_step = draw(st.booleans())
        demand = (
            StepBid(d_max, q_max)
            if use_step
            else LinearBid(d_max, q_min, d_min, q_max)
        )
        bids.append(
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % n_pdus}",
                tenant_id=f"t{i}",
                demand=demand,
                rack_cap_w=draw(st.floats(min_value=0.0, max_value=150.0)),
            )
        )
    pdu_spot = {
        f"p{j}": draw(st.floats(min_value=0.0, max_value=200.0))
        for j in range(n_pdus)
    }
    ups_spot = draw(st.floats(min_value=0.0, max_value=400.0))
    return bids, pdu_spot, ups_spot


class TestClearingInvariants:
    @given(data=bid_sets())
    @settings(max_examples=120, deadline=None)
    def test_outcome_always_verifies(self, data):
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear(bids, pdu_spot, ups_spot)
        verify_allocation(result, bids, pdu_spot, ups_spot)

    @given(data=bid_sets())
    @settings(max_examples=120, deadline=None)
    def test_revenue_consistent_and_non_negative(self, data):
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear(bids, pdu_spot, ups_spot)
        assert result.revenue_rate >= 0.0
        expected = result.price * result.total_granted_w / 1000.0
        assert result.revenue_rate == pytest.approx(expected, abs=1e-9)

    @given(data=bid_sets())
    @settings(max_examples=80, deadline=None)
    def test_grants_match_demand_at_price(self, data):
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear(bids, pdu_spot, ups_spot)
        for bid in bids:
            grant = result.grant_for(bid.rack_id)
            assert grant <= bid.clipped_demand_at(result.price) + 1e-9

    @given(data=bid_sets())
    @settings(max_examples=60, deadline=None)
    def test_finer_grid_never_loses_revenue(self, data):
        bids, pdu_spot, ups_spot = data
        coarse = MarketClearing(
            params=MarketParameters(price_step=0.02),
            include_breakpoints=False,
        ).clear(bids, pdu_spot, ups_spot)
        # A superset of candidate prices can only improve the optimum;
        # 0.01 does not strictly refine 0.02's grid offsets, so compare
        # against a true refinement.
        fine = MarketClearing(
            params=MarketParameters(price_step=0.01),
            include_breakpoints=False,
        ).clear(bids, pdu_spot, ups_spot)
        assert fine.revenue_rate >= coarse.revenue_rate - 1e-9

    @given(data=bid_sets())
    @settings(max_examples=60, deadline=None)
    def test_ample_supply_dominates_any_constrained_supply(self, data):
        # Note: revenue is NOT monotone in supply slot-by-slot — extra
        # supply can admit a large inelastic bid whose joint
        # infeasibility forces the uniform price above other bids' caps.
        # The true invariant: with supply ample enough that nothing
        # constrains (every bid admitted, every price feasible), revenue
        # upper-bounds every constrained outcome.
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        base = engine.clear(bids, pdu_spot, ups_spot)
        ample_total = sum(b.demand.max_demand_w for b in bids) + 1.0
        ample = engine.clear(
            bids,
            {p: ample_total for p in pdu_spot},
            ample_total,
        )
        assert ample.revenue_rate >= base.revenue_rate - 1e-9

    @given(data=bid_sets())
    @settings(max_examples=60, deadline=None)
    def test_per_pdu_clearing_verifies(self, data):
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear_per_pdu(bids, pdu_spot, ups_spot)
        verify_allocation(result, bids, pdu_spot, ups_spot)
        assert result.total_granted_w <= ups_spot + 1e-6

    @given(data=bid_sets())
    @settings(max_examples=40, deadline=None)
    def test_per_pdu_revenue_consistent(self, data):
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear_per_pdu(bids, pdu_spot, ups_spot)
        expected = sum(
            result.price_for_pdu(bid.pdu_id)
            * result.grant_for(bid.rack_id)
            / 1000.0
            for bid in bids
        )
        assert result.revenue_rate == pytest.approx(expected, abs=1e-9)


@st.composite
def degenerate_bid_sets(draw):
    """Degenerate-but-valid bids: every boundary equality allowed.

    Admission rejects only strict violations (``q_max < q_min``,
    ``D_min > D_max``), so zero-width demand segments, flat price
    curves, zero demand, and demand exactly at the rack cap are all
    legal inputs the clearing scan must survive.
    """
    n_racks = draw(st.integers(min_value=1, max_value=8))
    bids = []
    for i in range(n_racks):
        shape = draw(
            st.sampled_from(
                ["zero_width", "flat_price", "zero_demand", "cap_exact"]
            )
        )
        if shape == "zero_width":  # D_min == D_max: perfectly inelastic
            d = draw(st.floats(min_value=0.0, max_value=60.0))
            q_min = draw(st.floats(min_value=0.0, max_value=0.2))
            q_max = q_min + draw(st.floats(min_value=0.0, max_value=0.2))
            demand = LinearBid(d, q_min, d, q_max)
            cap = d + draw(st.floats(min_value=0.0, max_value=20.0))
        elif shape == "flat_price":  # q_min == q_max: all breakpoints equal
            d_min = draw(st.floats(min_value=0.0, max_value=30.0))
            d_max = d_min + draw(st.floats(min_value=0.0, max_value=50.0))
            q = draw(st.floats(min_value=0.0, max_value=0.3))
            demand = LinearBid(d_max, q, d_min, q)
            cap = d_max + draw(st.floats(min_value=0.0, max_value=20.0))
        elif shape == "zero_demand":
            q = draw(st.floats(min_value=0.001, max_value=0.3))
            demand = StepBid(0.0, q)
            cap = draw(st.floats(min_value=0.0, max_value=50.0))
        else:  # cap_exact: demand exactly at the rack's headroom
            d = draw(st.floats(min_value=0.1, max_value=60.0))
            q = draw(st.floats(min_value=0.001, max_value=0.3))
            demand = StepBid(d, q)
            cap = d
        bids.append(
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % 2}",
                tenant_id=f"t{i}",
                demand=demand,
                rack_cap_w=cap,
            )
        )
    pdu_spot = {
        "p0": draw(st.floats(min_value=0.0, max_value=150.0)),
        "p1": draw(st.floats(min_value=0.0, max_value=150.0)),
    }
    ups_spot = draw(st.floats(min_value=0.0, max_value=250.0))
    return bids, pdu_spot, ups_spot


class TestDegenerateBids:
    @given(data=degenerate_bid_sets())
    @settings(max_examples=100, deadline=None)
    def test_admission_accepts_degenerate_bids(self, data):
        bids, _, _ = data
        for bid in bids:
            assert inspect_rack_bid(bid) is None

    @given(data=degenerate_bid_sets())
    @settings(max_examples=100, deadline=None)
    def test_clearing_survives_degenerate_bids(self, data):
        bids, pdu_spot, ups_spot = data
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear(bids, pdu_spot, ups_spot)
        verify_allocation(result, bids, pdu_spot, ups_spot)


@st.composite
def mixed_bundles(draw):
    """Tenant bundles where a random subset of rack bids is corrupted."""
    n_tenants = draw(st.integers(min_value=1, max_value=5))
    bundles = []
    dirty = {}
    rack = 0
    for t in range(n_tenants):
        n_bids = draw(st.integers(min_value=1, max_value=4))
        rack_bids = []
        corrupt_any = False
        for _ in range(n_bids):
            bid = RackBid(
                rack_id=f"r{rack}",
                pdu_id=f"p{rack % 2}",
                tenant_id=f"t{t}",
                demand=LinearBid(50.0, 0.02, 10.0, 0.30),
                rack_cap_w=50.0,
            )
            rack += 1
            mode = draw(
                st.sampled_from((None,) + MalformedBidTenant.CORRUPTIONS)
            )
            if mode is not None:
                bid = MalformedBidTenant._corrupt(bid, mode)
                corrupt_any = True
            rack_bids.append(bid)
        bundles.append(
            TenantBid(tenant_id=f"t{t}", rack_bids=tuple(rack_bids))
        )
        dirty[f"t{t}"] = corrupt_any
    return bundles, dirty


class TestAdmissionProperties:
    @given(data=mixed_bundles())
    @settings(max_examples=100, deadline=None)
    def test_bundles_admitted_whole_or_not_at_all(self, data):
        bundles, dirty = data
        admitted, quarantined, _ = screen_bids(bundles)
        admitted_tenants = {b.tenant_id for b in admitted}
        quarantined_tenants = {q.tenant_id for q in quarantined}
        # A bundle with any corrupt bid is quarantined whole; a clean
        # bundle is admitted untouched.  No tenant appears on both sides.
        assert admitted_tenants.isdisjoint(quarantined_tenants)
        for tenant_id, corrupt in dirty.items():
            if corrupt:
                assert tenant_id in quarantined_tenants
            else:
                assert tenant_id in admitted_tenants
        assert all(q.reason in QUARANTINE_REASONS for q in quarantined)

    @given(data=mixed_bundles())
    @settings(max_examples=60, deadline=None)
    def test_admitted_bids_always_clear_cleanly(self, data):
        bundles, _ = data
        admitted, _, _ = screen_bids(bundles)
        bids = [rb for bundle in admitted for rb in bundle.rack_bids]
        pdu_spot = {"p0": 120.0, "p1": 120.0}
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear(bids, pdu_spot, 200.0)
        verify_allocation(result, bids, pdu_spot, 200.0)
