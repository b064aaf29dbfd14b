"""Power monitoring over a bounded window of recent slots."""

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
        monitor = PowerMonitor(topology, 5)
        monitor.record_slot(full_sample())
        assert np.array_equal(monitor.rack_recent_w("r1", 5), [10.0])
        assert np.array_equal(monitor.pdu_recent_w("p1", 5), [30.0])
        assert monitor.latest_ups_power_w() == pytest.approx(60.0)

    def test_updates_rack_state(self, topology):
        monitor = PowerMonitor(topology, 5)
        monitor.record_slot(full_sample())
        assert topology.rack("r2").power_w == pytest.approx(20.0)

    def test_missing_rack_rejected(self, topology):
        monitor = PowerMonitor(topology, 5)
        with pytest.raises(SimulationError):
            monitor.record_slot({"r1": 10.0})

    def test_unknown_rack_rejected(self, topology):
        monitor = PowerMonitor(topology, 5)
        sample = full_sample()
        sample["ghost"] = 5.0
        with pytest.raises(SimulationError):
            monitor.record_slot(sample)

    def test_series_order(self, topology):
        monitor = PowerMonitor(topology, 5)
        monitor.record_slot(full_sample(a=1.0))
        monitor.record_slot(full_sample(a=2.0))
        assert np.array_equal(monitor.rack_recent_w("r1", 5), [1.0, 2.0])
        assert np.array_equal(monitor.rack_recent_w("r1", 1), [2.0])

    def test_history_bounded(self, topology):
        monitor = PowerMonitor(topology, 2)
        for i in range(5):
            monitor.record_slot(full_sample(a=float(i)))
        assert np.array_equal(monitor.rack_recent_w("r1", 2), [3.0, 4.0])
        assert np.array_equal(monitor.ups_recent_w(2), [53.0, 54.0])

    def test_empty_latest_is_zero(self, topology):
        monitor = PowerMonitor(topology, 5)
        assert monitor.latest_ups_power_w() == 0.0
        assert monitor.pdu_recent_w("p1", 5).size == 0


class TestRecentMax:
    def test_window(self, topology):
        monitor = PowerMonitor(topology, 5)
        for value in (5.0, 50.0, 10.0):
            monitor.record_slot(full_sample(a=value))
        assert monitor.rack_recent_max_w("r1", window=2) == pytest.approx(50.0)
        assert monitor.rack_recent_max_w("r1", window=1) == pytest.approx(10.0)

    def test_before_any_sample(self, topology):
        assert PowerMonitor(topology, 5).rack_recent_max_w("r1") == 0.0

    def test_rejects_bad_window(self, topology):
        with pytest.raises(SimulationError):
            PowerMonitor(topology, 5).rack_recent_max_w("r1", window=0)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.tuples(SAMPLES, SAMPLES), min_size=1, max_size=30),
        window=st.integers(1, 40),
        keep=st.integers(1, 40),
    )
    def test_reads_the_operands_copying_the_series_would(
        self, samples, window, keep
    ):
        # Reading only the last ``window`` samples hands ``max`` the same
        # float objects, oldest first, as copying the whole series did —
        # so NaN and signed-zero ties resolve exactly as before.
        window = min(window, keep)
        monitor = PowerMonitor(_topology(), keep)
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


class TestWindow:
    """The monitor keeps exactly ``keep`` slots of every series."""

    @staticmethod
    def _fed(keep, slots, faults=False):
        monitor = PowerMonitor(_topology(), keep)
        for slot in range(slots):
            true = full_sample(a=float(slot), b=2.0 * slot, c=3.0 * slot)
            metered = {**true, "r1": slot + 0.5} if faults and slot >= 2 else true
            monitor.record_slot(true, metered)
        return monitor

    @staticmethod
    def _windows(monitor):
        true = monitor._true_rack_series or {}
        return [
            *monitor._rack_series.values(), *monitor._pdu_series.values(),
            monitor._ups_series, *true.values(),
        ]

    @pytest.mark.parametrize("faults", [False, True], ids=["plain", "meter-faults"])
    def test_every_series_holds_keep_samples(self, faults):
        keep = 4
        monitor = self._fed(keep, 3 * keep, faults)
        assert (monitor._true_rack_series is not None) == faults
        windows = self._windows(monitor)
        assert len(windows) == (9 if faults else 6)
        assert all(len(series) == keep for series in windows)
        assert np.array_equal(monitor.rack_recent_w("r2", keep), [16.0, 18.0, 20.0, 22.0])
        expected = [8.5, 9.5, 10.5, 11.5] if faults else [8.0, 9.0, 10.0, 11.0]
        assert np.array_equal(monitor.rack_recent_w("r1", keep), expected)
        assert monitor.rack_recent_true_max_w("r1", keep) == 11.0

    def test_a_read_beyond_the_window_raises(self):
        monitor = self._fed(4, 12, faults=True)
        reads = (
            lambda n: monitor.rack_recent_w("r1", n),
            lambda n: monitor.pdu_recent_w("p1", n),
            lambda n: monitor.ups_recent_w(n),
            lambda n: monitor.rack_recent_max_w("r1", n),
            lambda n: monitor.rack_recent_true_max_w("r1", n),
        )
        for read in reads:
            read(4)
            with pytest.raises(SimulationError, match="keeps 4"):
                read(5)

    def test_pickle_keeps_every_window(self):
        # Checkpoints pickle the window as live state, in lists; loading
        # rebuilds bounded deques, and the shadow keeps its true draws.
        for slots in (0, 3, 12):
            monitor = self._fed(4, slots, faults=True)
            state = monitor.__getstate__()
            leaves = [state["_ups_series"]]
            for name in ("_rack_series", "_pdu_series", "_true_rack_series"):
                leaves += (state[name] or {}).values()
            assert all(type(leaf) is list for leaf in leaves)
            assert b"deque" not in pickle.dumps(monitor)
            restored = pickle.loads(pickle.dumps(monitor))
            assert (restored._true_rack_series is None) == (monitor._true_rack_series is None)
            for kept, back in zip(self._windows(monitor), self._windows(restored)):
                assert back == kept and back.maxlen == 4
            restored.record_slot(full_sample(a=99.0), full_sample(a=98.0))
            assert restored.rack_recent_max_w("r1", 1) == 98.0
            assert restored.rack_recent_true_max_w("r1", 1) == 99.0
            windows = self._windows(restored)
            assert all(len(series) == min(slots + 1, 4) for series in windows)
