"""The phases of ``SimulationEngine.step_slot``, each run alone.

A phase reads what the phases before it left on the slot's ``_Slot``
and the engine's state.  Each test builds those inputs by hand on a
testbed engine after ``begin_run``, runs one phase, and checks its
effect.  Tenants execute their slots in order, so ``_enforce`` (which
runs them) is tested at slot 0.
"""

import pytest

from repro.core.allocation import AllocationResult
from repro.core.market import SlotMarketRecord
from repro.forecast.signals import BandedForecast
from repro.prediction.spot import SpotCapacityForecast
from repro.recovery import ClearingDeadlineGuard, ManualClock
from repro.resilience.faults import FaultInjector, GrantDelaySource, ScriptedLoss
from repro.sim.engine import SimulationEngine, _Slot
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.telemetry import TelemetryConfig
from repro.workloads.base import SlotPerformance

#: Seed 10's testbed has two racks requesting spot capacity at slot 7.
SEED, BID_SLOT = 10, 7


def _engine(**kwargs) -> SimulationEngine:
    engine = SimulationEngine(
        build_testbed(seed=SEED), telemetry=TelemetryConfig(), **kwargs
    )
    engine.begin_run(20)
    return engine


def _trace(engine):
    return engine.telemetry.tracer.finish()


def _record(grants_w, payments=None, price=0.1) -> SlotMarketRecord:
    result = AllocationResult(
        price=price,
        grants_w=dict(grants_w),
        revenue_rate=price * sum(grants_w.values()) / 1000.0,
    )
    return SlotMarketRecord(result=result, bids=(), payments=payments or {})


def _ample_forecast(topology) -> SpotCapacityForecast:
    return SpotCapacityForecast({pdu_id: 200.0 for pdu_id in topology.pdus}, 300.0)


class TestPredict:
    def test_resets_budgets_and_forecasts_for_the_requesting_racks(self):
        engine = _engine()
        topology = engine.scenario.topology
        topology.rack("rack:Sort").set_spot_budget(10.0)
        s = _Slot(BID_SLOT)
        engine._predict(s)
        assert all(rack.spot_budget_w == 0.0 for rack in topology.racks.values())
        assert s.requesting == {"rack:Search-1", "rack:Web"}
        # The default policy releases the point forecast.
        assert s.forecast is s.banded.point
        (span,) = _trace(engine).spans_named("predict")
        assert span.attrs == {
            "requesting_racks": 2,
            "ups_spot_w": s.forecast.ups_spot_w,
            "pdu_spot_w": s.forecast.total_pdu_spot_w,
        }


class TestClear:
    def test_slot_zero_is_an_empty_but_traced_market(self):
        engine = _engine()
        s = _Slot(0)
        s.forecast = _ample_forecast(engine.scenario.topology)
        engine._clear(s)
        assert s.record.result.grants_w == {}
        assert s.record.bids == ()
        assert [span.name for span in _trace(engine).spans] == ["bid_collect", "clear"]
        assert engine._last_price is None

    def test_a_clear_in_budget_keeps_its_price(self):
        engine = _engine()
        s = _Slot(BID_SLOT)
        s.forecast = _ample_forecast(engine.scenario.topology)
        engine._clear(s)
        assert {bid.rack_id for bid in s.record.bids} == {"rack:Search-1", "rack:Web"}
        assert s.record.result.total_granted_w > 0.0
        assert engine._last_price == s.record.result.price

    def test_over_the_deadline_returns_the_fallback_record(self):
        engine = _engine()
        engine.deadline_guard = ClearingDeadlineGuard(
            0.5, clock=ManualClock(step_s=1.0)
        )
        s = _Slot(BID_SLOT)
        s.forecast = _ample_forecast(engine.scenario.topology)
        engine._clear(s)
        # No earlier clear to reuse a price from: no spot at all.
        assert engine.deadline_guard.hits == {"no_spot": 1}
        assert s.record.result.total_granted_w == 0.0
        assert engine._last_price is None
        (event,) = [e for e in _trace(engine).events if e.name == "deadline.exceeded"]
        assert event.attrs["fallback"] == "no_spot"

    def test_lost_bids_sit_the_slot_out(self):
        engine = _engine()
        engine.fault_model = FaultInjector([ScriptedLoss("bid", slots=[BID_SLOT])], seed=1)
        s = _Slot(BID_SLOT)
        s.forecast = _ample_forecast(engine.scenario.topology)
        engine._clear(s)
        assert s.record.bids == ()
        assert engine.fault_model.log.lost_bids == len(engine._run.participants)


class TestGrant:
    def test_sets_budgets_and_leaves_a_lost_grant_at_zero(self):
        engine = _engine()
        engine.fault_model = FaultInjector(
            [ScriptedLoss("grant", slots=[3], unit_ids=["rack:Web"])], seed=1
        )
        topology = engine.scenario.topology
        s = _Slot(3)
        s.record = _record({"rack:Search-1": 40.0, "rack:Web": 30.0})
        engine._grant(s)
        assert topology.rack("rack:Search-1").spot_budget_w == 40.0
        assert topology.rack("rack:Web").spot_budget_w == 0.0
        # The lost grant is unbilled.
        assert s.record.result.grants_w["rack:Web"] == 0.0
        (span,) = _trace(engine).spans_named("grant")
        assert span.attrs["granted_racks"] == 1
        assert span.attrs["lost_grants"] == 1
        assert span.attrs["delayed_grants"] == 0

    def test_a_delayed_grant_lands_stale_only_where_no_fresh_grant_did(self):
        engine = _engine()
        engine.fault_model = FaultInjector([GrantDelaySource(1.0, delay_slots=2)], seed=1)
        topology = engine.scenario.topology
        sort = topology.rack("rack:Sort")
        s = _Slot(3)
        s.record = _record({"rack:Sort": sort.max_spot_w + 25.0, "rack:Web": 30.0})
        engine._grant(s)
        assert s.record.result.total_granted_w == 0.0
        assert sort.spot_budget_w == 0.0
        # Slot 5: rack:Web got a fresh grant; rack:Sort's stale one lands,
        # capped at the rack's spot limit.
        topology.rack("rack:Web").set_spot_budget(5.0)
        s = _Slot(5)
        s.record = _record({})
        engine._grant(s)
        assert sort.spot_budget_w == sort.max_spot_w
        assert topology.rack("rack:Web").spot_budget_w == 5.0
        assert [
            (r.slot, r.unit_id) for r in engine.fault_model.log.of_kind("stale_grant_applied")
        ] == [(5, "rack:Sort")]
        delayed, landed = _trace(engine).spans_named("grant")
        assert delayed.attrs["delayed_grants"] == 2
        assert landed.attrs["stale_grants_applied"] == 1


class TestEnforce:
    def test_tenants_execute_and_the_monitor_sees_their_draw(self):
        engine = _engine()
        s = _Slot(0)
        s.record = _record({})
        engine._enforce(s)
        assert set(s.outcomes) == set(engine.scenario.topology.racks)
        assert engine.monitor.latest_ups_power_w() == pytest.approx(
            sum(perf.power_w for perf in s.outcomes.values())
        )
        (span,) = _trace(engine).spans_named("enforce")
        assert span.attrs["revoked_grants"] == 0

    def test_degradation_revokes_a_grant_over_a_derated_pdu(self):
        # Any fault model brings the degradation controller.
        engine = _engine(fault_model=FaultInjector([], seed=1))
        topology = engine.scenario.topology
        engine.monitor.record_slot(
            {rack_id: rack.guaranteed_w for rack_id, rack in topology.racks.items()}
        )
        rack = topology.rack("rack:Search-1")
        rack.set_spot_budget(50.0)
        topology.pdu(rack.pdu_id).apply_derating(0.2)
        s = _Slot(0)
        s.record = _record({"rack:Search-1": 50.0})
        engine._enforce(s)
        assert s.record.result.grants_w["rack:Search-1"] == 0.0
        assert rack.spot_budget_w == 0.0
        trace = _trace(engine)
        (span,) = trace.spans_named("enforce")
        assert span.attrs["revoked_grants"] == 1
        assert span.attrs["revoked_w"] == 50.0
        assert "settlement.credit" in {event.name for event in trace.events}


class TestSettle:
    def test_bills_books_and_records_the_slot(self):
        engine = _engine()
        topology = engine.scenario.topology
        st = engine._run
        s = _Slot(BID_SLOT)
        s.record = _record({"rack:Web": 40.0}, payments={"Web": 0.002}, price=0.1)
        s.forecast = _ample_forecast(topology)
        s.banded = BandedForecast(s.forecast, usable_fraction=0.9)
        s.requesting = frozenset({"rack:Web"})
        s.outcomes = {
            rack_id: SlotPerformance(
                BID_SLOT, rack.guaranteed_w, rack.guaranteed_w, False,
                "throughput", 1.0, False, False,
            )
            for rack_id, rack in topology.racks.items()
        }
        engine._settle(s)
        assert s.spot_revenue == s.record.result.revenue_for_slot(st.slot_seconds)
        assert engine.ledger.spot_revenue == s.spot_revenue
        assert list(engine.collector.price_array()) == [0.1]
        assert list(engine.collector.spot_revenue_array()) == [s.spot_revenue]
        realized = max(0.0, topology.ups.capacity_w * 0.9 - st.total_guaranteed)
        assert st.forecast_slots == 1
        assert st.forecast_error_sum == pytest.approx(300.0 - realized)
        (span,) = _trace(engine).spans_named("settle")
        assert span.attrs == {
            "price": 0.1, "spot_revenue": s.spot_revenue, "billed_tenants": 1,
        }


class TestRecord:
    def test_updates_the_registry_and_the_slot_span(self):
        engine = _engine()
        registry = engine.telemetry.registry
        s = _Slot(BID_SLOT)
        s.record = _record({"rack:Web": 40.0, "rack:Sort": 0.0}, price=0.1)
        s.spot_revenue = 0.5
        with engine.telemetry.tracer.span("slot", slot=BID_SLOT) as slot_span:
            engine._record(s, slot_span)
        assert registry.counter("slots_total").value == 1
        assert registry.counter("grants_total").value == 1
        assert registry.counter("spot_revenue_dollars_total").value == 0.5
        assert registry.gauge("clearing_price_dollars_per_kwh").value == 0.1
        assert registry.histogram("slot_granted_watts").count == 1
        assert slot_span.attrs == {"price": 0.1, "granted_w": 40.0}
