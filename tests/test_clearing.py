"""Uniform-price market clearing (the core of SpotDC)."""

import numpy as np
import pytest

from repro.config import MarketParameters
from repro.core.allocation import verify_allocation
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing, clear_market
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.errors import CapacityError, ClearingError

from tests import oracle


def bid(rack, pdu, demand, cap=1000.0, tenant=None):
    return RackBid(
        rack_id=rack,
        pdu_id=pdu,
        tenant_id=tenant or f"tenant-{rack}",
        demand=demand,
        rack_cap_w=cap,
    )


class TestBasicClearing:
    def test_no_bids_empty_allocation(self):
        result = clear_market([], {"p1": 100.0}, 100.0)
        assert result.total_granted_w == 0.0
        assert result.revenue_rate == 0.0

    def test_single_unconstrained_bid_clears_at_profit_max(self):
        # Demand 100 flat to 0.1, declining to 20 at 0.4.
        # q*D: at 0.1 -> 10; interior optimum near q where derivative 0.
        result = clear_market(
            [bid("r1", "p1", LinearBid(100.0, 0.1, 20.0, 0.4))],
            {"p1": 1000.0},
            1000.0,
        )
        # Analytic optimum of q*(100 - (q-0.1)*80/0.3) on [0.1, 0.4]:
        # d/dq = 100 + 80/3 - 2q*800/3 = 0 -> q ~ 0.2375
        assert result.price == pytest.approx(0.2375, abs=0.002)
        grant = result.grants_w["r1"]
        assert grant == pytest.approx(100 - (result.price - 0.1) * 80 / 0.3, abs=0.5)

    def test_revenue_rate_matches_price_times_quantity(self):
        result = clear_market(
            [bid("r1", "p1", StepBid(50.0, 0.2))], {"p1": 100.0}, 100.0
        )
        assert result.revenue_rate == pytest.approx(
            result.price * result.total_granted_w / 1000.0
        )

    def test_rack_cap_clips_demand(self):
        result = clear_market(
            [bid("r1", "p1", StepBid(500.0, 0.2), cap=50.0)],
            {"p1": 1000.0},
            1000.0,
        )
        assert result.grants_w["r1"] <= 50.0 + 1e-9


class TestConstraints:
    def test_pdu_constraint_forces_price_up(self):
        bids = [
            bid("r1", "p1", LinearBid(100.0, 0.1, 0.0, 0.4)),
            bid("r2", "p1", LinearBid(100.0, 0.1, 0.0, 0.4)),
        ]
        result = clear_market(bids, {"p1": 80.0}, 1000.0)
        total = result.total_granted_w
        assert total <= 80.0 + 1e-6
        # The price must be high enough to ration demand to the PDU cap.
        assert result.price > 0.1

    def test_ups_constraint_binds_across_pdus(self):
        bids = [
            bid("r1", "p1", StepBid(60.0, 0.5)),
            bid("r2", "p2", StepBid(60.0, 0.5)),
        ]
        result = clear_market(bids, {"p1": 100.0, "p2": 100.0}, 70.0)
        assert result.total_granted_w <= 70.0 + 1e-6

    def test_unlisted_pdu_treated_as_zero_capacity(self):
        result = clear_market(
            [bid("r1", "ghost-pdu", StepBid(50.0, 0.3))], {}, 1000.0
        )
        assert result.grants_w.get("r1", 0.0) == 0.0

    def test_infeasible_step_demand_gets_priced_out(self):
        # A step bid larger than the PDU capacity can never be satisfied;
        # market clears above its cap with zero revenue.
        result = clear_market(
            [bid("r1", "p1", StepBid(200.0, 0.3))], {"p1": 100.0}, 1000.0
        )
        assert result.total_granted_w == 0.0
        assert result.revenue_rate == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ClearingError):
            clear_market([bid("r1", "p1", StepBid(10, 0.1))], {"p1": -5.0}, 10.0)
        with pytest.raises(ClearingError):
            clear_market([bid("r1", "p1", StepBid(10, 0.1))], {"p1": 5.0}, -10.0)

    @pytest.mark.parametrize(
        "entry, n_bids, pdu_spot, ups_spot",
        [
            pytest.param(entry, n_bids, pdu_spot, ups_spot, id=f"{entry}-{n_bids}{tag}")
            for tag, pdu_spot, ups_spot in (
                ("", {"p1": -5.0, "p2": 40.0}, 100.0),
                ("-nan_pdu", {"p1": float("nan"), "p2": 40.0}, 100.0),
                ("-nan_ups", {"p1": 40.0, "p2": 40.0}, float("nan")),
            )
            for n_bids in (2, 0)
            for entry in ("clear", "clear_per_pdu")
        ],
    )
    def test_negative_pdu_capacity_rejected_by_every_entry_point(
        self, entry, n_bids, pdu_spot, ups_spot
    ):
        # One capacity check for both clears: a negative or NaN cap
        # is an inconsistent input, never a priced-out PDU, a NaN grant
        # or a silently dropped Eq. 3-4 bound.
        bids = [
            bid("r1", "p1", LinearBid(50.0, 0.05, 10.0, 0.3)),
            bid("r2", "p2", LinearBid(50.0, 0.05, 10.0, 0.3)),
        ][:n_bids]
        engine = MarketClearing()
        with pytest.raises(ClearingError):
            getattr(engine, entry)(bids, pdu_spot, ups_spot)

    def test_every_outcome_verifies(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bids = [
                bid(
                    f"r{i}",
                    f"p{i % 3}",
                    LinearBid(
                        float(rng.uniform(10, 100)),
                        float(rng.uniform(0.01, 0.2)),
                        float(rng.uniform(0, 10)),
                        float(rng.uniform(0.21, 0.5)),
                    ),
                    cap=float(rng.uniform(20, 120)),
                )
                for i in range(8)
            ]
            pdu_spot = {f"p{j}": float(rng.uniform(30, 150)) for j in range(3)}
            ups = float(rng.uniform(50, 250))
            result = clear_market(bids, pdu_spot, ups)
            verify_allocation(result, bids, pdu_spot, ups)


class TestPriceSelection:
    def test_lowest_price_wins_ties(self):
        # Perfectly inelastic demand: every feasible price yields
        # price-proportional revenue, so the maximum is at q_max; but two
        # identical candidate grids must produce a deterministic result.
        bids = [bid("r1", "p1", StepBid(10.0, 0.3))]
        r1 = clear_market(bids, {"p1": 100.0}, 100.0)
        r2 = clear_market(bids, {"p1": 100.0}, 100.0)
        assert r1.price == r2.price

    def test_reserve_price_floors_scan(self):
        params = MarketParameters(reserve_price=0.15)
        result = MarketClearing(params=params).clear(
            [bid("r1", "p1", StepBid(50.0, 0.3))], {"p1": 100.0}, 100.0
        )
        assert result.price >= 0.15

    def test_step_size_controls_candidates(self):
        coarse = MarketClearing(
            params=MarketParameters(price_step=0.01), include_breakpoints=False
        ).clear([bid("r1", "p1", StepBid(50.0, 0.3))], {"p1": 100.0}, 100.0)
        fine = MarketClearing(
            params=MarketParameters(price_step=0.001), include_breakpoints=False
        ).clear([bid("r1", "p1", StepBid(50.0, 0.3))], {"p1": 100.0}, 100.0)
        assert fine.candidate_prices > coarse.candidate_prices

    def test_breakpoints_recover_kink_profit_on_coarse_grid(self):
        # Optimal price is exactly the step's cap (0.3), which a coarse
        # 0.07-step grid misses without breakpoint augmentation.
        bids = [bid("r1", "p1", StepBid(50.0, 0.3))]
        with_bp = MarketClearing(
            params=MarketParameters(price_step=0.07), include_breakpoints=True
        ).clear(bids, {"p1": 100.0}, 100.0)
        without_bp = MarketClearing(
            params=MarketParameters(price_step=0.07), include_breakpoints=False
        ).clear(bids, {"p1": 100.0}, 100.0)
        assert with_bp.revenue_rate >= without_bp.revenue_rate
        assert with_bp.price == pytest.approx(0.3)

    def test_feasible_set_is_upward_closed(self):
        # Verify the monotone-feasibility property the scan exploits.
        bids = [
            bid("r1", "p1", LinearBid(100.0, 0.05, 10.0, 0.45)),
            bid("r2", "p1", LinearBid(80.0, 0.1, 5.0, 0.5)),
        ]
        engine = MarketClearing()
        prices = engine.candidate_prices(bids)
        pdu_cap = {"p1": 90.0}
        feasible = []
        for p in prices:
            total = sum(b.clipped_demand_at(float(p)) for b in bids)
            feasible.append(total <= pdu_cap["p1"] + 1e-9)
        first_true = next((i for i, f in enumerate(feasible) if f), None)
        assert first_true is not None
        assert all(feasible[first_true:])


class TestMixedDemandFunctions:
    def test_mixed_bid_types_clear_together(self):
        full = FullBid.from_value_curve(
            lambda d: 5.0 * (1 - np.exp(-d / 30.0)), 100.0, price_cap=0.4
        )
        bids = [
            bid("r1", "p1", LinearBid(60.0, 0.1, 10.0, 0.3)),
            bid("r2", "p1", StepBid(40.0, 0.25)),
            bid("r3", "p2", full),
        ]
        result = clear_market(bids, {"p1": 80.0, "p2": 60.0}, 120.0)
        verify_allocation(result, bids, {"p1": 80.0, "p2": 60.0}, 120.0)
        assert result.total_granted_w > 0

    def test_verify_catches_overgrant(self):
        from repro.core.allocation import AllocationResult

        bids = [bid("r1", "p1", StepBid(50.0, 0.3), cap=50.0)]
        bad = AllocationResult(
            price=0.1, grants_w={"r1": 60.0}, revenue_rate=0.006
        )
        with pytest.raises(CapacityError):
            verify_allocation(bad, bids, {"p1": 100.0}, 100.0)

    def test_verify_catches_unknown_rack(self):
        from repro.core.allocation import AllocationResult

        bad = AllocationResult(price=0.1, grants_w={"ghost": 5.0}, revenue_rate=0.0)
        with pytest.raises(CapacityError):
            verify_allocation(bad, [], {}, 100.0)

    def test_verify_catches_pdu_violation(self):
        from repro.core.allocation import AllocationResult

        bids = [
            bid("r1", "p1", StepBid(50.0, 0.3)),
            bid("r2", "p1", StepBid(50.0, 0.3)),
        ]
        bad = AllocationResult(
            price=0.1, grants_w={"r1": 50.0, "r2": 50.0}, revenue_rate=0.01
        )
        with pytest.raises(CapacityError):
            verify_allocation(bad, bids, {"p1": 80.0}, 1000.0)

    def test_verify_catches_nan_ups_capacity(self):
        from repro.core.allocation import AllocationResult

        # Every bound compared against NaN must fail, not pass: a NaN UPS
        # cap would otherwise wave any facility total through Eq. 4.
        bids = [
            bid("r1", "p1", LinearBid(50.0, 0.05, 10.0, 0.3)),
            bid("r2", "p2", LinearBid(50.0, 0.05, 10.0, 0.3)),
        ]
        result = AllocationResult(
            price=0.1, grants_w={"r1": 29.04, "r2": 29.04}, revenue_rate=0.0
        )
        pdu_spot = {"p1": 40.0, "p2": 40.0}
        verify_allocation(result, bids, pdu_spot, 100.0)
        with pytest.raises(CapacityError):
            verify_allocation(result, bids, pdu_spot, float("nan"))


class TestVectorizedLinearPath:
    """The vectorised LinearBid accumulation must agree exactly with the
    generic per-bid path (exercised by subclassing LinearBid, which the
    fast path deliberately does not match)."""

    class _OpaqueLinear(LinearBid):
        """A LinearBid the type check routes through the generic path."""

    def _random_bids(self, rng, n, opaque):
        cls = self._OpaqueLinear if opaque else LinearBid
        bids = []
        for i in range(n):
            d_min = float(rng.uniform(0, 30))
            d_max = d_min + float(rng.uniform(0, 60))
            q_min = float(rng.uniform(0, 0.2))
            q_max = q_min + float(rng.uniform(0.001, 0.3))
            bids.append(
                bid(
                    f"r{i}",
                    f"p{i % 3}",
                    cls(d_max, q_min, d_min, q_max),
                    cap=float(rng.uniform(10, 80)),
                )
            )
        return bids

    def test_paths_agree(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            fast = self._random_bids(rng, 15, opaque=False)
            slow = [
                bid(b.rack_id, b.pdu_id,
                    self._OpaqueLinear(*b.demand.as_parameters()),
                    cap=b.rack_cap_w)
                for b in fast
            ]
            pdu_spot = {f"p{j}": float(rng.uniform(20, 200)) for j in range(3)}
            ups = float(rng.uniform(50, 400))
            a = clear_market(fast, pdu_spot, ups)
            b2 = clear_market(slow, pdu_spot, ups)
            assert a.price == pytest.approx(b2.price)
            assert a.revenue_rate == pytest.approx(b2.revenue_rate)
            for rack_id, grant in a.grants_w.items():
                assert grant == pytest.approx(b2.grants_w[rack_id])

    def test_paths_agree_with_constraints(self):
        from repro.infrastructure.constraints import CapacityConstraint

        rng = np.random.default_rng(9)
        fast = self._random_bids(rng, 10, opaque=False)
        slow = [
            bid(b.rack_id, b.pdu_id,
                self._OpaqueLinear(*b.demand.as_parameters()),
                cap=b.rack_cap_w)
            for b in fast
        ]
        constraint = CapacityConstraint(
            "zone", frozenset(b.rack_id for b in fast[:5]), 40.0
        )
        pdu_spot = {f"p{j}": 150.0 for j in range(3)}
        a = clear_market(fast, pdu_spot, 400.0, extra_constraints=[constraint])
        b2 = clear_market(slow, pdu_spot, 400.0, extra_constraints=[constraint])
        assert a.price == pytest.approx(b2.price)
        assert a.total_granted_w == pytest.approx(b2.total_granted_w)


class TestPriceGrid:
    """Regression tests for the counted-step grid and breakpoint merge."""

    def _engine(self, step, max_price, breakpoints=True):
        return MarketClearing(
            params=MarketParameters(price_step=step, max_price=max_price),
            include_breakpoints=breakpoints,
        )

    def test_grid_never_overshoots_max_acceptable_price(self):
        # np.arange(lo, hi + step, step) can emit a whole extra element
        # past hi under float error; the counted-step grid must not.
        cases = [(0.01, 0.07), (0.001, 0.256), (0.007, 0.7), (0.03, 0.3)]
        for step, hi in cases:
            engine = self._engine(step, 1.0, breakpoints=False)
            grid = engine.candidate_prices([bid("r1", "p1", StepBid(10.0, hi))])
            assert grid[-1] <= hi + step * 1e-6, (step, hi)
            # ... while still reaching hi (no short grid either).
            assert hi - grid[-1] < step, (step, hi)

    def test_grid_element_count_is_exact(self):
        engine = self._engine(0.01, 0.4, breakpoints=False)
        grid = engine.candidate_prices([bid("r1", "p1", StepBid(10.0, 0.3))])
        assert len(grid) == 31  # 0.00, 0.01, ..., 0.30
        assert grid[0] == 0.0

    def test_breakpoint_near_grid_point_deduplicates(self):
        # 0.1 + 0.2 lands one ulp off 0.3; the q_max breakpoint must
        # merge with the grid point instead of surviving as a duplicate
        # candidate price.
        q_max = 0.1 + 0.2  # 0.30000000000000004
        engine = self._engine(0.01, 0.5)
        grid = engine.candidate_prices(
            [bid("r1", "p1", LinearBid(50.0, 0.05, 10.0, q_max))]
        )
        near = grid[np.abs(grid - 0.3) < 1e-6]
        assert near.size == 1
        assert np.all(np.diff(grid) > 0.01 * 1e-9)

    def test_off_grid_kink_survives_merge(self):
        # A q_max kink between coarse grid points must be added, and the
        # tolerance dedupe must keep it (the smaller of any near-pair).
        engine = self._engine(0.1, 0.5)
        grid = engine.candidate_prices(
            [bid("r1", "p1", LinearBid(50.0, 0.05, 10.0, 0.23))]
        )
        assert 0.23 in grid
        assert 0.05 in grid


class TestAdmission:
    def test_rejected_bid_gets_exact_zero_grant(self):
        # r1's minimum demand (60 W at its price cap) exceeds its PDU's
        # spot capacity: rejected at admission, but it must still appear
        # in the outcome with an exact 0.0 grant.
        result = clear_market(
            [
                bid("r1", "p1", LinearBid(80.0, 0.05, 60.0, 0.3)),
                bid("r2", "p2", StepBid(40.0, 0.25)),
            ],
            {"p1": 50.0, "p2": 100.0},
            200.0,
        )
        assert result.grants_w["r1"] == 0.0
        assert result.grants_w["r2"] > 0.0

    def test_all_bids_rejected_yields_zero_grants(self):
        result = clear_market(
            [bid("r1", "p1", LinearBid(80.0, 0.05, 60.0, 0.3))],
            {"p1": 10.0},
            10.0,
        )
        assert result.grants_w == {"r1": 0.0}
        assert result.total_granted_w == 0.0

    def test_rejection_matches_object_path(self):
        bids = [
            bid("r1", "p1", LinearBid(80.0, 0.05, 60.0, 0.3)),
            bid("r2", "p1", StepBid(30.0, 0.25)),
        ]
        frame_result = clear_market(bids, {"p1": 45.0}, 100.0)
        object_result = oracle.clear(MarketClearing(), bids, {"p1": 45.0}, 100.0)
        assert frame_result.grants_w == object_result.grants_w
        assert frame_result.price == object_result.price
