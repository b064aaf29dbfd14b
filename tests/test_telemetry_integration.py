"""Engine/CLI integration of the telemetry subsystem."""

import pytest

from repro.core.baselines import MaxPerfAllocator, PowerCappedAllocator
from repro.sim.builder import ScenarioBuilder
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.telemetry import (
    PHASES,
    Telemetry,
    TelemetryConfig,
    set_default_config,
)

SLOTS = 8


@pytest.fixture
def result():
    return run_simulation(
        build_testbed(seed=11), slots=SLOTS, telemetry=TelemetryConfig()
    )


class TestEngineTracing:
    def test_every_slot_has_every_phase(self, result):
        trace = result.trace
        assert trace.slots() == list(range(SLOTS))
        for slot in range(SLOTS):
            assert set(trace.phase_spans(slot)) == set(PHASES)

    def test_clear_span_carries_market_attrs(self, result):
        # Slot 1 is the first truly cleared slot (slot 0 has no prior bids).
        clear = result.trace.phase_spans(1)["clear"]
        assert clear.attrs["pricing"] == "per_pdu"
        assert "price" in clear.attrs
        assert "granted_w" in clear.attrs

    def test_slot0_market_phases_are_trivial(self, result):
        phases = result.trace.phase_spans(0)
        assert phases["bid_collect"].attrs["racks_bid"] == 0
        assert phases["clear"].attrs["granted_racks"] == 0

    def test_granted_racks_count_positive_grants(self, result):
        collector = result.collector
        granted = [
            sum(1 for r in collector.rack_ids if collector.rack_granted_array(r)[slot] > 0)
            for slot in range(SLOTS)
        ]
        assert max(granted) > 0
        for slot, count in enumerate(granted):
            phases = result.trace.phase_spans(slot)
            assert phases["clear"].attrs["granted_racks"] == count
            assert phases["grant"].attrs["granted_racks"] == count

    def test_invoice_events_one_per_tenant(self, result):
        invoices = [
            e for e in result.trace.events if e.name == "settlement.invoice"
        ]
        assert len(invoices) == len(result.tenants)

    def test_metrics_counters_match_run(self):
        tel = Telemetry(TelemetryConfig())
        run_simulation(build_testbed(seed=11), slots=SLOTS, telemetry=tel)
        assert tel.registry.counter("slots_total").value == SLOTS
        assert tel.registry.timer(
            "phase_seconds", {"phase": "clear"}
        ).count == SLOTS

    def test_disabled_run_carries_nothing(self):
        result = run_simulation(build_testbed(seed=11), slots=SLOTS)
        assert result.trace is None
        assert result.telemetry_artifacts == []

    def test_engine_rejects_bad_telemetry_arg(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulationEngine(build_testbed(seed=11), telemetry="on")


class TestBaselineAllocators:
    @pytest.mark.parametrize(
        "allocator", [PowerCappedAllocator(), MaxPerfAllocator()]
    )
    def test_baselines_emit_market_phases(self, allocator):
        result = run_simulation(
            build_testbed(seed=11),
            slots=SLOTS,
            allocator=allocator,
            telemetry=TelemetryConfig(),
        )
        for slot in range(SLOTS):
            assert set(result.trace.phase_spans(slot)) == set(PHASES)


class TestConfigPropagation:
    def test_scenario_carries_config(self):
        scenario = build_testbed(seed=11)
        scenario.telemetry = TelemetryConfig()
        result = run_simulation(scenario, slots=SLOTS)
        assert result.trace is not None

    def test_builder_with_telemetry(self):
        scenario = (
            ScenarioBuilder(seed=4)
            .add_pdu("row-a")
            .add_search_tenant("search", 200.0, "row-a")
            .add_other_group("colo", 400.0, "row-a")
            .with_telemetry(TelemetryConfig())
            .build()
        )
        result = run_simulation(scenario, slots=SLOTS)
        assert result.trace is not None

    def test_process_default_reaches_engine(self):
        previous = set_default_config(TelemetryConfig())
        try:
            result = run_simulation(build_testbed(seed=11), slots=SLOTS)
        finally:
            set_default_config(previous)
        assert result.trace is not None

    def test_explicit_argument_wins_over_scenario(self):
        scenario = build_testbed(seed=11)
        scenario.telemetry = TelemetryConfig()
        result = run_simulation(
            scenario, slots=SLOTS, telemetry=TelemetryConfig.disabled()
        )
        assert result.trace is None

    def test_exports_land_in_out_dir(self, tmp_path):
        result = run_simulation(
            build_testbed(seed=11),
            slots=SLOTS,
            telemetry=TelemetryConfig(out_dir=tmp_path),
        )
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "spotdc-001_metrics.prom",
            "spotdc-001_summary.json",
            "spotdc-001_trace.jsonl",
        ]
        assert len(result.telemetry_artifacts) == 3
