"""Communication-loss failure injection (paper §III-C exceptions)."""

import numpy as np
import pytest

from repro.config import make_rng
from repro.core.baselines import PowerCappedAllocator
from repro.economics.settlement import reconcile
from repro.errors import ConfigurationError
from repro.resilience import BernoulliLoss, FaultInjector
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed

SLOTS = 800


def comm_faults(bid_p=0.0, grant_p=0.0, **kwargs):
    """Independent Bernoulli bid/grant losses (paper §III-C)."""
    return FaultInjector(
        sources=(BernoulliLoss("bid", bid_p), BernoulliLoss("grant", grant_p)),
        **kwargs,
    )


def grant_lost(model, slot, rack_id):
    fault = model.grant_fault(slot, rack_id, 0.0)
    return fault is not None and fault.kind == "lost"


def run_with_faults(bid_p=0.0, grant_p=0.0, seed=55, slots=SLOTS):
    fault_model = comm_faults(bid_p, grant_p, rng=make_rng(1234))
    engine = SimulationEngine(
        build_testbed(seed=seed), fault_model=fault_model
    )
    return engine.run(slots), fault_model


class TestFaultModel:
    def test_requires_rng(self):
        with pytest.raises(ConfigurationError):
            comm_faults(bid_p=0.1)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            comm_faults(bid_p=1.5, rng=make_rng(0))
        with pytest.raises(ConfigurationError):
            comm_faults(grant_p=-0.1, rng=make_rng(0))

    def test_zero_probability_never_fires(self):
        model = comm_faults(rng=make_rng(0))
        assert not any(model.bid_lost(s, "t") for s in range(100))
        assert not any(grant_lost(model, s, "r") for s in range(100))
        assert model.log.lost_bids == 0

    def test_certain_loss_always_fires(self):
        model = comm_faults(bid_p=1.0, rng=make_rng(0))
        assert all(model.bid_lost(s, "t") for s in range(10))
        assert model.log.lost_bids == 10


class TestFaultInjection:
    def test_no_faults_identical_to_clean_run(self):
        clean = run_simulation(build_testbed(seed=55), 300)
        faulty, _ = run_with_faults(0.0, 0.0, slots=300)
        assert np.array_equal(
            clean.collector.spot_granted_array(),
            faulty.collector.spot_granted_array(),
        )

    def test_total_bid_loss_means_no_market(self):
        result, model = run_with_faults(bid_p=1.0, slots=300)
        assert result.collector.spot_granted_array().sum() == 0.0
        assert result.total_spot_revenue() == 0.0
        assert model.log.lost_bids > 0

    def test_total_grant_loss_means_no_delivery_and_no_billing(self):
        result, model = run_with_faults(grant_p=1.0, slots=300)
        assert result.collector.spot_granted_array().sum() == 0.0
        assert result.total_spot_revenue() == 0.0
        assert model.log.lost_grants > 0

    def test_partial_faults_degrade_gracefully(self):
        clean = run_simulation(build_testbed(seed=55), SLOTS)
        faulty, model = run_with_faults(bid_p=0.1, grant_p=0.1)
        assert model.log.lost_bids > 0
        assert model.log.lost_grants > 0
        clean_sold = clean.collector.spot_granted_array().sum()
        faulty_sold = faulty.collector.spot_granted_array().sum()
        assert 0 < faulty_sold < clean_sold
        # Graceful: ~20% loss rate should cost far less than half the
        # market, not collapse it.
        assert faulty_sold > 0.5 * clean_sold

    def test_books_still_balance_under_faults(self):
        faulty, _ = run_with_faults(bid_p=0.15, grant_p=0.15)
        reconcile(faulty)

    def test_faults_add_no_emergencies(self):
        baseline = run_simulation(
            build_testbed(seed=55), SLOTS, allocator=PowerCappedAllocator()
        )
        faulty, _ = run_with_faults(bid_p=0.1, grant_p=0.1)
        assert faulty.emergencies.count() <= baseline.emergencies.count() + 1

    def test_faulty_run_still_beats_powercapped(self):
        baseline = run_simulation(
            build_testbed(seed=55), SLOTS, allocator=PowerCappedAllocator()
        )
        faulty, _ = run_with_faults(bid_p=0.1, grant_p=0.1)
        assert faulty.operator_profit_increase_vs(baseline) > 0
        ratios = [
            faulty.tenant_performance_improvement_vs(baseline, t)
            for t in faulty.participating_tenant_ids()
        ]
        assert np.mean(ratios) > 1.05
