"""repro.forecast: signals, bands, risk-aware release, byte-identity.

Three property suites pin the subsystem's contract:

* no signal, at any risk quantile, releases more than the usable
  (margin-adjusted) physical capacity at any level;
* released capacity is monotone non-decreasing in the risk quantile;
* the quantile ensemble's empirical coverage matches the nominal level
  on seeded synthetic noise.

Plus the integration contract: every default-path construction route
(implicit default, explicit signal, spec-built scenario, all-defaults
profile) produces byte-identical JSONL traces.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.forecast import (
    BAND_LEVELS,
    SIGNAL_NAMES,
    BandedForecast,
    CurrentDrawSignal,
    PredictionProfile,
    QuantileEnsembleSignal,
    RiskAwareReleasePolicy,
    build_signal,
)
from repro.infrastructure.monitor import PowerMonitor
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.prediction.spot import SpotCapacityPredictor

UPS_W = 1000.0
PDU_W = 1000.0
GUARANTEED_W = 300.0


def make_topology() -> PowerTopology:
    return PowerTopology.build(
        Ups("ups", UPS_W),
        [Pdu("p0", PDU_W)],
        [
            Rack("r0", "t0", "p0", GUARANTEED_W, 500.0),
            Rack("r1", "t1", "p0", GUARANTEED_W, 500.0),
        ],
    )


#: A monitor window long enough for every signal at its defaults.
KEEP = max(build_signal(name).lookback for name in SIGNAL_NAMES)


def feed(seed: int, slots: int, low: float = 0.0, high: float = 290.0, keep: int = KEEP):
    """A monitored topology with ``slots`` of seeded rack draws recorded."""
    rng = np.random.default_rng(seed)
    topology = make_topology()
    monitor = PowerMonitor(topology, keep)
    for _ in range(slots):
        monitor.record_slot(
            {
                "r0": float(rng.uniform(low, high)),
                "r1": float(rng.uniform(low, high)),
            }
        )
    return topology, monitor


QUANTILE_GRID = (0.05, 0.25, 0.5, 0.75, 0.95, 1.0)


# -- Property: release never exceeds usable physical capacity ----------


@settings(max_examples=25, deadline=None)
@given(
    signal_name=st.sampled_from(SIGNAL_NAMES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    slots=st.integers(min_value=1, max_value=80),
)
def test_release_never_exceeds_usable_capacity(signal_name, seed, slots):
    topology, monitor = feed(seed, slots)
    signal = build_signal(signal_name)
    banded = signal.forecast_slot(topology, [], monitor, slots)
    usable = signal.usable_fraction
    for q in QUANTILE_GRID:
        released = RiskAwareReleasePolicy(q).release(banded, topology)
        assert released.ups_spot_w <= UPS_W * usable + 1e-6
        for pdu_id, pdu in topology.pdus.items():
            assert released.pdu_spot_w[pdu_id] <= pdu.capacity_w * usable + 1e-6
    # The point release obeys the same ceiling (predictor construction).
    point = RiskAwareReleasePolicy(None).release(banded, topology)
    assert point.ups_spot_w <= UPS_W * usable + 1e-6


# -- Property: release is monotone non-decreasing in the quantile ------


@settings(max_examples=25, deadline=None)
@given(
    signal_name=st.sampled_from(SIGNAL_NAMES),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    slots=st.integers(min_value=3, max_value=80),
)
def test_release_monotone_in_risk_quantile(signal_name, seed, slots):
    topology, monitor = feed(seed, slots)
    signal = build_signal(signal_name)
    banded = signal.forecast_slot(topology, [], monitor, slots)
    releases = [
        RiskAwareReleasePolicy(q).release(banded, topology)
        for q in QUANTILE_GRID
    ]
    for lower, upper in zip(releases, releases[1:]):
        assert lower.ups_spot_w <= upper.ups_spot_w + 1e-9
        for pdu_id in lower.pdu_spot_w:
            assert lower.pdu_spot_w[pdu_id] <= upper.pdu_spot_w[pdu_id] + 1e-9


# -- Property: ensemble coverage matches the nominal level -------------


def test_ensemble_coverage_matches_nominal():
    """P(realised headroom >= release at q) ~ 1 - q on i.i.d. noise.

    A single-member ensemble over ``CurrentDrawSignal(window=1)`` makes
    the point reference exactly the current draw, so the coverage
    identity ``release <= realised  <=>  e_{t+1} <= Q_e(1 - q)`` is
    exact under i.i.d. innovations.
    """
    rng = np.random.default_rng(7)
    n = 600
    warmup = 60
    draws = {
        "r0": np.clip(rng.normal(200.0, 15.0, n), 100.0, 290.0),
        "r1": np.clip(rng.normal(180.0, 12.0, n), 100.0, 290.0),
    }
    topology = make_topology()
    signal = QuantileEnsembleSignal(
        members=(CurrentDrawSignal(window=1),), band_window=400
    )
    monitor = PowerMonitor(topology, signal.lookback)
    usable = signal.usable_fraction
    quantiles = (0.25, 0.5, 0.75)
    covered = {q: 0 for q in quantiles}
    total = 0
    for t in range(n - 1):
        monitor.record_slot({rid: float(draws[rid][t]) for rid in draws})
        if t < warmup:
            continue
        banded = signal.forecast_slot(topology, [], monitor, t + 1)
        assert banded.has_band
        realised = UPS_W * usable - float(
            draws["r0"][t + 1] + draws["r1"][t + 1]
        )
        total += 1
        for q in quantiles:
            released = RiskAwareReleasePolicy(q).release(banded, topology)
            if released.ups_spot_w <= realised + 1e-9:
                covered[q] += 1
    assert total > 400
    for q in quantiles:
        assert abs(covered[q] / total - (1.0 - q)) < 0.12


# -- Property: a monitor keeping the lookback forecasts like one keeping all


def _bits(banded) -> tuple:
    """Every float of a banded forecast, exactly (signed zeros apart)."""
    point = banded.point
    return (
        sorted((k, v.hex()) for k, v in point.pdu_spot_w.items()),
        point.ups_spot_w.hex(),
        banded.quantiles,
        sorted((k, [v.hex() for v in vs]) for k, vs in banded.pdu_quantiles.items()),
        [v.hex() for v in banded.ups_quantiles],
    )


@settings(max_examples=150, deadline=None)
@given(
    signal_name=st.sampled_from(SIGNAL_NAMES),
    window=st.one_of(st.none(), st.integers(min_value=1, max_value=70)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.sampled_from([(0, 3), (1, -1), (1, 0), (1, 1), (3, 7)]),
    requesting=st.sampled_from([(), ("r0",), ("r0", "r1")]),
)
def test_lookback_window_forecasts_like_the_whole_history(
    signal_name, window, seed, length, requesting
):
    # The engine's monitor keeps only ``signal.lookback`` slots: every
    # signal must read nothing older, so its point and band equal, bit
    # for bit, what it reads from a monitor that kept every slot fed.
    signal = build_signal(signal_name, window=window)
    lookback = signal.lookback
    lookbacks, extra = length
    slots = max(1, lookbacks * lookback + extra)
    rng = np.random.default_rng(seed)
    bounded_topology, whole_topology = make_topology(), make_topology()
    bounded = PowerMonitor(bounded_topology, lookback)
    whole = PowerMonitor(whole_topology, max(slots, lookback))
    for _ in range(slots):
        draws = {rid: float(rng.uniform(0.0, 290.0)) for rid in ("r0", "r1")}
        bounded.record_slot(draws)
        whole.record_slot(draws)
    expected = signal.forecast_slot(whole_topology, requesting, whole, slots)
    got = signal.forecast_slot(bounded_topology, requesting, bounded, slots)
    assert _bits(got) == _bits(expected)


def test_lookback_covers_what_each_signal_reads():
    assert [build_signal(name).lookback for name in SIGNAL_NAMES] == [5, 30, 12, 60, 201]
    assert build_signal("rolling_max", window=2).lookback == 5
    assert build_signal("ensemble", window=90).lookback == 201
    wide = QuantileEnsembleSignal(members=(CurrentDrawSignal(window=300),))
    assert wide.lookback == 300


# -- Unit: band mechanics and validation -------------------------------


class TestBandedForecast:
    def test_degenerate_band_returns_point(self):
        topology, monitor = feed(3, 10)
        signal = CurrentDrawSignal()
        banded = signal.forecast_slot(topology, [], monitor, 10)
        assert not banded.has_band
        assert banded.at_quantile(0.05) is banded.point
        assert banded.at_quantile(0.95) is banded.point

    def test_quantile_out_of_range_rejected(self):
        banded = BandedForecast(point=None)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="risk quantile"):
                banded.at_quantile(bad)

    def test_band_clamps_outside_knots(self):
        topology, monitor = feed(11, 50)
        signal = build_signal("moving_average")
        banded = signal.forecast_slot(topology, [], monitor, 50)
        assert banded.has_band
        lowest = banded.at_quantile(min(BAND_LEVELS))
        below = banded.at_quantile(0.001)
        assert below.ups_spot_w == lowest.ups_spot_w

    def test_slot_zero_is_the_zero_forecast(self):
        topology, monitor = feed(5, 0)
        for name in SIGNAL_NAMES:
            banded = build_signal(name).forecast_slot(topology, [], monitor, 0)
            assert banded.point.ups_spot_w == 0.0
            assert set(banded.point.pdu_spot_w) == set(topology.pdus)
            assert not banded.has_band

    def test_current_draw_matches_inline_rule(self):
        # The refactored paper rule must be float-identical to feeding
        # rack_recent_max_w references into the predictor directly.
        topology, monitor = feed(13, 25)
        signal = CurrentDrawSignal()
        banded = signal.forecast_slot(topology, ["r0"], monitor, 25)
        predictor = SpotCapacityPredictor()
        expected = predictor.forecast(
            topology,
            ["r0"],
            {
                rid: monitor.rack_recent_max_w(rid, 5)
                for rid in topology.racks
            },
        )
        assert banded.point == expected

    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown forecasting"):
            build_signal("oracle")

    def test_profile_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            PredictionProfile(signal="nope")
        with pytest.raises(ConfigurationError):
            PredictionProfile(risk_quantile=2.0)
        with pytest.raises(ConfigurationError):
            PredictionProfile(window=0)
        with pytest.raises(ConfigurationError):
            PredictionProfile(under_prediction_factor=0.0)


# -- Integration: one forecast-producing code path ---------------------


def _trace_bytes(tmp_path, label, **run_kwargs) -> bytes:
    from repro.sim.engine import run_simulation
    from repro.sim.scenario import testbed_scenario
    from repro.telemetry import TelemetryConfig

    scenario = run_kwargs.pop("scenario", None)
    if scenario is None:
        scenario = testbed_scenario(seed=3)
    run_simulation(
        scenario,
        40,
        telemetry=TelemetryConfig(out_dir=tmp_path / label, label="run"),
        **run_kwargs,
    )
    return (tmp_path / label / "run_trace.jsonl").read_bytes()


def test_default_path_trace_byte_identity(tmp_path):
    """Every default-path construction route emits the same bytes."""
    from repro.scenarios import build_scenario, testbed_spec
    from repro.sim.scenario import testbed_scenario

    reference = _trace_bytes(tmp_path, "default")
    assert reference  # non-empty trace

    # Explicit default signal.
    assert _trace_bytes(
        tmp_path, "signal", signal=CurrentDrawSignal()
    ) == reference
    # All-defaults profile carried on the scenario.
    assert _trace_bytes(
        tmp_path,
        "profile",
        scenario=dataclasses.replace(
            testbed_scenario(seed=3), prediction=PredictionProfile()
        ),
    ) == reference
    # Spec-built scenario without a prediction component.
    assert _trace_bytes(
        tmp_path, "spec", scenario=build_scenario(testbed_spec(seed=3))
    ) == reference


def test_forecast_telemetry_summary_keys(tmp_path):
    """A banded run exports forecast-error and coverage telemetry."""
    from repro.sim.engine import run_simulation
    from repro.sim.scenario import testbed_scenario
    from repro.telemetry import TelemetryConfig

    scenario = dataclasses.replace(
        testbed_scenario(seed=3),
        prediction=PredictionProfile(signal="ensemble", risk_quantile=0.5),
    )
    run_simulation(
        scenario,
        30,
        telemetry=TelemetryConfig(out_dir=tmp_path, label="banded"),
    )
    summary = json.loads((tmp_path / "banded_summary.json").read_text())
    data = summary["data"]
    assert data["signal"] == "ensemble"
    assert data["risk_quantile"] == 0.5
    assert 0.0 <= data["forecast_coverage"] <= 1.0
    assert "forecast_mean_error_w" in data
    assert "forecast_mean_abs_error_w" in data
    # The banded predict span carries the band edges.
    trace = (tmp_path / "banded_trace.jsonl").read_text().splitlines()
    predict_spans = [
        r for r in map(json.loads, trace)
        if r.get("kind") == "span" and r.get("name") == "predict"
    ]
    banded_spans = [s for s in predict_spans if "band_low_ups_w" in s["attrs"]]
    assert banded_spans
    assert all(
        s["attrs"]["band_low_ups_w"] <= s["attrs"]["band_high_ups_w"] + 1e-9
        for s in banded_spans
    )
