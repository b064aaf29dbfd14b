"""Power monitoring and PDU variation statistics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.infrastructure.monitor import PowerMonitor
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups


def _topology():
    return PowerTopology.build(
        Ups("u", 1000.0),
        [Pdu("p1", 500.0), Pdu("p2", 500.0)],
        [
            Rack("r1", "t1", "p1", 100.0, 150.0),
            Rack("r2", "t2", "p1", 100.0, 150.0),
            Rack("r3", "t3", "p2", 100.0, 150.0),
        ],
    )


@pytest.fixture
def topology():
    return _topology()


#: Rack samples, NaN and both signed zeros included.
SAMPLES = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0]), st.floats(0.0, 1e4)
)


def full_sample(a=10.0, b=20.0, c=30.0):
    return {"r1": a, "r2": b, "r3": c}


class TestRecording:
    def test_records_and_aggregates(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample())
        assert monitor.slots_recorded == 1
        assert monitor.latest_pdu_power_w("p1") == pytest.approx(30.0)
        assert monitor.latest_ups_power_w() == pytest.approx(60.0)

    def test_updates_rack_state(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample())
        assert topology.rack("r2").power_w == pytest.approx(20.0)

    def test_missing_rack_rejected(self, topology):
        monitor = PowerMonitor(topology)
        with pytest.raises(SimulationError):
            monitor.record_slot({"r1": 10.0})

    def test_unknown_rack_rejected(self, topology):
        monitor = PowerMonitor(topology)
        sample = full_sample()
        sample["ghost"] = 5.0
        with pytest.raises(SimulationError):
            monitor.record_slot(sample)

    def test_series_order(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample(a=1.0))
        monitor.record_slot(full_sample(a=2.0))
        assert np.array_equal(monitor.rack_series("r1"), [1.0, 2.0])

    def test_history_bounded(self, topology):
        monitor = PowerMonitor(topology, history_slots=2)
        for i in range(5):
            monitor.record_slot(full_sample(a=float(i)))
        assert monitor.slots_recorded == 5
        assert np.array_equal(monitor.rack_series("r1"), [3.0, 4.0])

    def test_empty_latest_is_zero(self, topology):
        monitor = PowerMonitor(topology)
        assert monitor.latest_ups_power_w() == 0.0
        assert monitor.latest_pdu_power_w("p1") == 0.0


class TestRecentMax:
    def test_window(self, topology):
        monitor = PowerMonitor(topology)
        for value in (5.0, 50.0, 10.0):
            monitor.record_slot(full_sample(a=value))
        assert monitor.rack_recent_max_w("r1", window=2) == pytest.approx(50.0)
        assert monitor.rack_recent_max_w("r1", window=1) == pytest.approx(10.0)

    def test_before_any_sample(self, topology):
        assert PowerMonitor(topology).rack_recent_max_w("r1") == 0.0

    def test_rejects_bad_window(self, topology):
        with pytest.raises(SimulationError):
            PowerMonitor(topology).rack_recent_max_w("r1", window=0)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.tuples(SAMPLES, SAMPLES), min_size=1, max_size=30),
        window=st.integers(1, 40),
        history=st.integers(1, 40),
    )
    def test_reads_the_operands_copying_the_series_would(
        self, samples, window, history
    ):
        # Reading only the last ``window`` samples hands ``max`` the same
        # float objects, oldest first, as copying the whole series did —
        # so NaN and signed-zero ties resolve exactly as before.
        monitor = PowerMonitor(_topology(), history_slots=history)
        for true, metered in samples:
            monitor.record_slot(
                full_sample(a=true), full_sample(a=metered)
            )
        copied = max(list(monitor._rack_series["r1"])[-window:])
        assert monitor.rack_recent_max_w("r1", window) is copied
        shadow = monitor._true_rack_series
        if shadow is not None:
            copied = max(list(shadow["r1"])[-window:])
        assert monitor.rack_recent_true_max_w("r1", window) is copied


class TestHistory:
    def test_pickle_and_history_parts_restore_every_series(self, topology):
        # Checkpoints pickle the monitor without its series and append
        # them in parts; parts written before the true series existed
        # restore it from the metered samples.
        monitor = PowerMonitor(topology, history_slots=7)
        parts, saved = [], 0
        for slot in range(9):
            true = full_sample(a=float(slot))
            metered = true if slot < 4 else full_sample(a=float(slot) + 0.5)
            monitor.record_slot(true, metered)
            if slot % 3 == 2:
                parts.append(monitor.history_since(saved))
                saved = monitor.slots_recorded
        restored = pickle.loads(pickle.dumps(monitor))
        assert restored.ups_series().size == 0
        for part in parts:
            restored.extend_history(part)
        for rack_id in ("r1", "r2", "r3"):
            assert list(restored._rack_series[rack_id]) == list(
                monitor._rack_series[rack_id]
            )
            assert list(restored._true_rack_series[rack_id]) == list(
                monitor._true_rack_series[rack_id]
            )
        assert np.array_equal(restored.pdu_series("p1"), monitor.pdu_series("p1"))
        assert np.array_equal(restored.ups_series(), monitor.ups_series())
        assert restored.slots_recorded == 9


class TestVariationStats:
    def test_variation_of_constant_series_is_zero(self, topology):
        monitor = PowerMonitor(topology)
        for _ in range(10):
            monitor.record_slot(full_sample())
        assert monitor.pdu_variation_quantile("p1", 0.99) == 0.0

    def test_variation_detects_step(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample(a=100.0, b=100.0))
        monitor.record_slot(full_sample(a=110.0, b=100.0))
        rel = monitor.pdu_slot_variation("p1")
        assert rel.shape == (1,)
        assert rel[0] == pytest.approx(10.0 / 200.0)

    def test_variation_needs_two_slots(self, topology):
        monitor = PowerMonitor(topology)
        monitor.record_slot(full_sample())
        assert monitor.pdu_slot_variation("p1").size == 0

    def test_rejects_nonpositive_history(self, topology):
        with pytest.raises(SimulationError):
            PowerMonitor(topology, history_slots=0)
