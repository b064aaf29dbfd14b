"""SpotDCAllocator configuration and SlotMarketRecord semantics."""

import pytest

from repro.core.allocation import AllocationResult
from repro.core.bids import RackBid
from repro.core.demand import LinearBid
from repro.core.market import SlotMarketRecord, SpotDCAllocator
from repro.experiments.common import (
    opportunistic_ids,
    run_comparison,
    sprinting_ids,
)


class TestSpotDCAllocatorConfig:
    def test_default_is_locational(self):
        assert SpotDCAllocator().pricing == "per_pdu"

    def test_uniform_mode_accepted(self):
        assert SpotDCAllocator(pricing="uniform").pricing == "uniform"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SpotDCAllocator(pricing="vickrey")

    def test_flags(self):
        allocator = SpotDCAllocator()
        assert allocator.charges_tenants
        assert allocator.provisions_spot

    def test_the_integrity_check_is_always_on(self):
        # The Eq. 2-4 check runs on every clear; there is no switch.
        assert SpotDCAllocator.verify is True
        with pytest.raises(TypeError):
            SpotDCAllocator(verify=False)


class TestSlotMarketRecord:
    def test_payments_keyed_by_tenant(self):
        result = AllocationResult(
            price=0.1, grants_w={"r1": 10.0}, revenue_rate=0.001
        )
        bid = RackBid("r1", "p1", "t1", LinearBid(10, 0.05, 10, 0.2), 20.0)
        record = SlotMarketRecord(
            result=result, bids=(bid,), payments={"t1": 0.5}
        )
        assert record.payments["t1"] == 0.5
        assert record.result.grant_for("r1") == 10.0

    def test_allocation_result_empty(self):
        empty = AllocationResult.empty(price=0.3)
        assert empty.total_granted_w == 0.0
        assert empty.price == 0.3
        assert empty.revenue_for_slot(120.0) == 0.0
        assert empty.price_for_pdu("anything") == 0.3


class TestComparisonHelpers:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_comparison(slots=250, seed=41)

    def test_class_partitions(self, runs):
        sprint = sprinting_ids(runs.spotdc)
        opportunistic = opportunistic_ids(runs.spotdc)
        assert set(sprint) == {"Search-1", "Web", "Search-2"}
        assert set(opportunistic) == {
            "Count-1", "Graph-1", "Count-2", "Sort", "Graph-2",
        }
        assert not set(sprint) & set(opportunistic)

    def test_profit_increase_shortcut(self, runs):
        assert runs.profit_increase() == pytest.approx(
            runs.spotdc.operator_profit_increase_vs(runs.powercapped)
        )

    def test_no_maxperf_by_default(self, runs):
        assert runs.maxperf is None


class TestGoldenTable1:
    def test_render_is_stable(self):
        """Table I's rendering is a stable artifact: byte-identical
        across runs (it encodes only paper constants)."""
        from repro.experiments import render_table1, run_table1

        a = render_table1(run_table1())
        b = render_table1(run_table1())
        assert a == b
        for fragment in (
            "Search-1", "Web", "Count-1", "Graph-1", "Other-1",
            "Search-2", "Count-2", "Sort", "Graph-2", "Other-2",
            "750 / 714.3", "760 / 723.8", "1369.6",
        ):
            assert fragment in a
