"""Tenant models and bidding behaviour."""

import pytest

from repro.core.demand import FullBid, LinearBid, StepBid
from repro.errors import ConfigurationError
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.tenants.bidding import (
    FullCurveStrategy,
    LinearElasticStrategy,
    PricePredictionStrategy,
    SimpleNeededPowerStrategy,
    StepStrategy,
)
from repro.tenants.tenant import (
    NonParticipatingTenant,
    OpportunisticTenant,
    SprintingTenant,
)


@pytest.fixture(scope="module")
def scenario():
    built = build_testbed(seed=5)
    built.prepare(600)
    return built


def tenant_by_id(scenario, tenant_id):
    return next(t for t in scenario.tenants if t.tenant_id == tenant_id)


def first_bid_slot(tenant, limit=600, min_need_w=0.0):
    for slot in range(limit):
        needed = tenant.needed_spot_w(slot)
        if needed and sum(needed.values()) >= min_need_w:
            return slot
    pytest.fail(f"{tenant.tenant_id} never needed spot capacity")


class TestSprintingTenant:
    def test_kind_and_participation(self, scenario):
        tenant = tenant_by_id(scenario, "Search-1")
        assert tenant.kind == "sprinting"
        assert tenant.participates

    def test_needed_spot_matches_workload(self, scenario):
        tenant = tenant_by_id(scenario, "Search-1")
        slot = first_bid_slot(tenant)
        rack = tenant.racks[0]
        needed = tenant.needed_spot_w(slot)[rack.rack_id]
        expected = rack.workload.desired_power_w(slot) - rack.guaranteed_w
        assert needed == pytest.approx(min(expected, rack.max_spot_w))

    def test_bid_is_linear_with_anchored_prices(self, scenario):
        tenant = tenant_by_id(scenario, "Search-1")
        slot = first_bid_slot(tenant, min_need_w=15.0)
        bid = tenant.make_bid(slot)
        assert bid is not None
        demand = bid.rack_bids[0].demand
        assert isinstance(demand, LinearBid)
        assert demand.q_min == tenant.q_low
        assert demand.q_max == tenant.q_high
        assert 0 < demand.d_min_w <= demand.d_max_w

    def test_no_bid_when_not_needed(self, scenario):
        tenant = tenant_by_id(scenario, "Search-1")
        quiet = next(s for s in range(600) if not tenant.needed_spot_w(s))
        assert tenant.make_bid(quiet) is None

    def test_value_curve_cache_stable(self, scenario):
        tenant = tenant_by_id(scenario, "Search-1")
        slot = first_bid_slot(tenant)
        a = tenant.value_curves(slot)
        b = tenant.value_curves(slot)
        assert a[tenant.racks[0].rack_id] is b[tenant.racks[0].rack_id]

    def test_rejects_batch_workload(self, scenario):
        opportunistic = tenant_by_id(scenario, "Count-1")
        with pytest.raises(ConfigurationError):
            SprintingTenant(
                "bad",
                opportunistic.racks,
                cost_models={},
                q_low=0.1,
                q_high=0.2,
            )


class TestOpportunisticTenant:
    def test_kind(self, scenario):
        assert tenant_by_id(scenario, "Count-1").kind == "opportunistic"

    def test_needs_spot_only_when_backlogged(self, scenario):
        tenant = tenant_by_id(scenario, "Count-1")
        # Slot 0: no backlog yet.
        assert tenant.needed_spot_w(0) == {}

    def test_value_curve_cached_once(self, scenario):
        tenant = tenant_by_id(scenario, "Count-1")
        a = tenant.value_curves(0)
        b = tenant.value_curves(5)
        rack_id = tenant.racks[0].rack_id
        assert a[rack_id] is b[rack_id]

    def test_price_cap_at_amortized_rate(self, scenario):
        tenant = tenant_by_id(scenario, "Count-1")
        assert tenant.q_high == pytest.approx(0.205)


class TestLazyValueCurves:
    """``make_bid`` builds value curves only for the racks that bid."""

    PAIRS = {
        SprintingTenant: ("Search-1", "Web"),
        OpportunisticTenant: ("Count-1", "Graph-1"),
    }

    @staticmethod
    def _cached_racks(tenant):
        return {k[0] if isinstance(k, tuple) else k for k in tenant._curve_cache}

    @pytest.mark.parametrize(
        "cls", [SprintingTenant, OpportunisticTenant], ids=lambda c: c.kind
    )
    def test_make_bid_skips_racks_that_need_nothing(self, cls):
        # One tenant owning two testbed racks, each with its own models.
        # Batch racks want spot only once a backlog builds, so the racks
        # run at their guaranteed budgets until exactly one of them bids.
        fresh = build_testbed(seed=5)
        fresh.prepare(600)
        owners = [tenant_by_id(fresh, t) for t in self.PAIRS[cls]]
        tenant = cls(
            "pair",
            [owner.racks[0] for owner in owners],
            cost_models={
                owner.racks[0].rack_id: owner.cost_models[owner.racks[0].rack_id]
                for owner in owners
            },
            q_low=owners[0].q_low,
            q_high=owners[0].q_high,
        )
        for slot in range(600):
            if len(tenant.needed_spot_w(slot)) == 1:
                break
            tenant.execute_slot(slot, {}, fresh.slot_seconds)
        else:
            pytest.fail("no slot where exactly one of the two racks bids")
        (bidding,) = tenant.needed_spot_w(slot)
        bid = tenant.make_bid(slot)
        assert bid is not None
        assert [b.rack_id for b in bid.rack_bids] == [bidding]
        assert self._cached_racks(tenant) == {bidding}
        curves = tenant.value_curves(slot)
        assert set(curves) == {r.rack_id for r in tenant.racks if r.useful_spot_w > 0}
        assert len(curves) == 2
        assert self._cached_racks(tenant) == set(curves)


class TestNonParticipating:
    def test_never_bids(self, scenario):
        tenant = tenant_by_id(scenario, "Other-1")
        assert isinstance(tenant, NonParticipatingTenant)
        assert not tenant.participates
        assert tenant.make_bid(0) is None
        assert tenant.needed_spot_w(0) == {}
        assert tenant.value_curves(0) == {}


class TestExecuteSlot:
    def test_budgets_default_to_guaranteed(self, scenario):
        fresh = build_testbed(seed=6)
        fresh.prepare(5)
        tenant = tenant_by_id(fresh, "Search-1")
        outcomes = tenant.execute_slot(0, {}, 120.0)
        rack = tenant.racks[0]
        assert outcomes[rack.rack_id].power_w <= rack.guaranteed_w + 1e-9

    def test_spot_budget_passed_through(self):
        fresh = build_testbed(seed=6)
        fresh.prepare(5)
        tenant = tenant_by_id(fresh, "Search-2")
        rack = tenant.racks[0]
        outcomes = tenant.execute_slot(
            0, {rack.rack_id: rack.guaranteed_w + 30.0}, 120.0
        )
        assert outcomes[rack.rack_id].power_w <= rack.guaranteed_w + 30.0 + 1e-9


class TestBiddingStrategies:
    def _context(self, scenario, tenant_id="Search-1"):
        tenant = tenant_by_id(scenario, tenant_id)
        slot = first_bid_slot(tenant)
        return tenant._contexts(slot, None)[0]

    def test_simple_strategy_flat_at_needed(self, scenario):
        ctx = self._context(scenario)
        demand = SimpleNeededPowerStrategy().make_rack_bid(ctx)
        assert isinstance(demand, LinearBid)
        assert demand.d_max_w == pytest.approx(demand.d_min_w)
        assert demand.d_max_w == pytest.approx(
            min(ctx.needed_w, ctx.rack.max_spot_w)
        )

    def test_step_strategy_all_or_nothing(self, scenario):
        ctx = self._context(scenario)
        demand = StepStrategy().make_rack_bid(ctx)
        assert isinstance(demand, StepBid)
        assert demand.price_cap == ctx.q_high

    def test_full_strategy_returns_capped_curve(self, scenario):
        ctx = self._context(scenario)
        demand = FullCurveStrategy().make_rack_bid(ctx)
        assert isinstance(demand, FullBid)
        assert demand.demand_at(ctx.q_high + 0.01) == 0.0

    def test_linear_matches_value_curve_anchors(self, scenario):
        ctx = self._context(scenario)
        demand = LinearElasticStrategy().make_rack_bid(ctx)
        d_low = min(
            ctx.value_curve.optimal_demand_w(ctx.q_low), ctx.rack.max_spot_w
        )
        assert demand.d_max_w == pytest.approx(d_low)

    def test_strategies_never_exceed_rack_cap(self, scenario):
        ctx = self._context(scenario)
        for strategy in (
            LinearElasticStrategy(),
            SimpleNeededPowerStrategy(),
            StepStrategy(),
            FullCurveStrategy(),
        ):
            demand = strategy.make_rack_bid(ctx)
            assert demand.max_demand_w <= ctx.rack.max_spot_w + 1e-9

    def test_price_prediction_bids_optimum_at_forecast(self, scenario):
        tenant = tenant_by_id(scenario, "Search-1")
        slot = first_bid_slot(tenant, min_need_w=15.0)
        q_hat = 0.25
        ctx = tenant._contexts(slot, q_hat)[0]
        demand = PricePredictionStrategy().make_rack_bid(ctx)
        assert isinstance(demand, LinearBid)
        expected = min(
            ctx.value_curve.optimal_demand_w(q_hat), ctx.rack.max_spot_w
        )
        assert demand.demand_at(q_hat) == pytest.approx(expected)

    def test_price_prediction_falls_back_without_forecast(self, scenario):
        ctx = self._context(scenario)
        with_forecast = PricePredictionStrategy().make_rack_bid(ctx)
        fallback = LinearElasticStrategy().make_rack_bid(ctx)
        assert with_forecast.as_parameters() == fallback.as_parameters()
