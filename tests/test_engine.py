"""Simulation engine: Algorithm 1 end to end."""

import numpy as np
import pytest

from repro.core.baselines import MaxPerfAllocator, PowerCappedAllocator
from repro.core.market import SpotDCAllocator
from repro.errors import SimulationError
from repro.forecast import CurrentDrawSignal
from repro.prediction.price import EwmaPricePredictor
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed

SLOTS = 400


@pytest.fixture(scope="module")
def spotdc_result():
    return run_simulation(build_testbed(seed=21), SLOTS)


@pytest.fixture(scope="module")
def capped_result():
    return run_simulation(
        build_testbed(seed=21), SLOTS, allocator=PowerCappedAllocator()
    )


class TestBasicRun:
    def test_slot_count(self, spotdc_result):
        assert spotdc_result.slots == SLOTS

    def test_slot_zero_has_no_market(self, spotdc_result):
        assert spotdc_result.collector.price_array()[0] == 0.0
        assert spotdc_result.collector.spot_granted_array()[0] == 0.0

    def test_market_activity_exists(self, spotdc_result):
        assert spotdc_result.collector.spot_granted_array().sum() > 0
        assert spotdc_result.total_spot_revenue() > 0

    def test_powercapped_never_grants(self, capped_result):
        assert capped_result.collector.spot_granted_array().sum() == 0.0
        assert capped_result.total_spot_revenue() == 0.0

    def test_rejects_nonpositive_slots(self):
        engine = SimulationEngine(build_testbed(seed=21))
        with pytest.raises(SimulationError):
            engine.run(0)

    def test_deterministic_given_seed(self):
        a = run_simulation(build_testbed(seed=33), 150)
        b = run_simulation(build_testbed(seed=33), 150)
        assert np.array_equal(a.price_series(), b.price_series())
        assert np.array_equal(
            a.collector.spot_granted_array(), b.collector.spot_granted_array()
        )


class TestPhysicalConsistency:
    def test_rack_power_never_exceeds_budget(self, spotdc_result):
        collector = spotdc_result.collector
        for rack_id, info in spotdc_result.racks.items():
            power = collector.rack_power_array(rack_id)
            granted = collector.rack_granted_array(rack_id)
            budget = info.guaranteed_w + granted
            assert np.all(power <= budget + 1e-6)

    def test_grants_only_to_wanting_racks(self, spotdc_result):
        collector = spotdc_result.collector
        for rack_id in spotdc_result.racks:
            granted = collector.rack_granted_array(rack_id) > 1e-9
            wanted = collector.rack_wanted_array(rack_id)
            assert np.all(wanted[granted])

    def test_spot_adds_no_emergencies(self, spotdc_result, capped_result):
        assert (
            spotdc_result.emergencies.count()
            <= capped_result.emergencies.count() + 1
        )

    def test_ups_power_is_sum_of_racks(self, spotdc_result):
        collector = spotdc_result.collector
        total = sum(
            collector.rack_power_array(rack_id)
            for rack_id in spotdc_result.racks
        )
        assert np.allclose(total, collector.ups_power_array())

    def test_payments_match_revenue(self, spotdc_result):
        collector = spotdc_result.collector
        payments = sum(
            collector.tenant_payment_array(t).sum()
            for t in spotdc_result.tenants
        )
        assert payments == pytest.approx(spotdc_result.total_spot_revenue())


class TestEconomicConsistency:
    def test_subscription_revenue_matches_rate(self, spotdc_result):
        ledger = spotdc_result.ledger
        expected = (
            spotdc_result.total_guaranteed_w() / 1000.0
            * spotdc_result.guaranteed_rate_per_kw_hour
            * spotdc_result.duration_hours
        )
        assert ledger.subscription_revenue == pytest.approx(expected)

    def test_baseline_has_no_rack_capex(self, capped_result):
        assert capped_result.ledger.rack_capex_cost == 0.0

    def test_spotdc_pays_rack_capex(self, spotdc_result):
        assert spotdc_result.ledger.rack_capex_cost > 0.0

    def test_profit_increase_positive(self, spotdc_result, capped_result):
        assert spotdc_result.operator_profit_increase_vs(capped_result) > 0.0


class TestAllocatorVariants:
    def test_maxperf_grants_without_payments(self):
        result = run_simulation(
            build_testbed(seed=21), 300, allocator=MaxPerfAllocator()
        )
        assert result.collector.spot_granted_array().sum() > 0
        assert result.total_spot_revenue() == 0.0
        payments = sum(
            result.collector.tenant_payment_array(t).sum()
            for t in result.tenants
        )
        assert payments == 0.0

    def test_under_prediction_reduces_grants(self):
        exact = run_simulation(build_testbed(seed=21), 300)
        under = run_simulation(
            build_testbed(seed=21),
            300,
            signal=CurrentDrawSignal(under_prediction_factor=0.6),
        )
        assert (
            under.collector.spot_granted_array().sum()
            <= exact.collector.spot_granted_array().sum() + 1e-6
        )

    def test_price_forecasting_runs(self):
        engine = SimulationEngine(
            build_testbed(seed=21), price_predictor=EwmaPricePredictor()
        )
        result = engine.run(200)
        assert result.slots == 200

    def test_oracle_rebid_runs(self):
        result = run_simulation(
            build_testbed(seed=21),
            200,
            allocator=SpotDCAllocator(oracle_rebid=True),
        )
        assert result.slots == 200
