"""Forecast subsystem benchmarks: predict-phase overhead + frontier.

Two jobs:

* ``test_default_signal_predict_overhead`` pins the subsystem's core
  promise: the default ``CurrentDrawSignal`` + point release — the one
  forecast-producing path the engine now has — costs < 2% wall time
  versus the pre-refactor inline rule (reference dict comprehension
  straight into ``SpotCapacityPredictor.forecast``), reconstructed here
  verbatim.  Timed on a synthetic facility large enough that the
  per-call reference work dominates timer noise, as the median ratio
  of many short signal/inline batch pairs.  Writes
  ``results/BENCH_forecast.json`` so the predict phase accumulates a
  cost trajectory across PRs.
* ``test_prediction_risk_frontier_smoke`` regenerates the
  ``ext_prediction_risk`` predictor x risk-quantile frontier (strict
  machine checks on), archives the rendered figure, and writes
  ``results/BENCH_prediction_risk.json`` via the summary exporter.

``BENCH_SMOKE=1`` (the CI job) shrinks sizes; assertions are identical.
"""

import os
import pathlib
import statistics
import time

import numpy as np

from repro.config import DEFAULT_SEED
from repro.experiments.ext_prediction_risk import (
    run_prediction_risk,
    render_prediction_risk,
    write_prediction_risk_summary,
)
from repro.forecast import CurrentDrawSignal, RiskAwareReleasePolicy, build_signal
from repro.infrastructure.monitor import PowerMonitor
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.prediction.spot import SpotCapacityPredictor
from repro.telemetry import write_summary_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
#: Smoke runs archive into the git-ignored ``results/smoke/``.
RESULTS_DIR = pathlib.Path(__file__).parent / "results" / ("smoke" if SMOKE else "")

#: Worker processes for the frontier cells; 1 (default) runs serially.
JOBS = int(os.environ.get("BENCH_JOBS", "1"))

#: Synthetic facility size for the per-call predict timing.
RACKS = 120 if SMOKE else 480
RACKS_PER_PDU = 12
#: Predict calls per timed batch, and the signal/inline batch pairs
#: the overhead gate takes its median over.
CALLS = 50
PAIRS = 201 if SMOKE else 101
#: Min-of-N batches for the informational ensemble timing.
REPEATS = 5
#: History depth recorded before timing (> the 5-slot window).
WARM_SLOTS = 40
#: Monitor window: the widest lookback of the signals timed here.
KEEP = build_signal("ensemble").lookback

#: Frontier smoke size — the tier-2 CI invocation uses the same slots.
FRONTIER_SLOTS = 120


def _warm_monitor(racks: int):
    """A synthetic topology with ``WARM_SLOTS`` of seeded draws recorded."""
    n_pdus = racks // RACKS_PER_PDU
    pdus = [Pdu(f"p{i}", RACKS_PER_PDU * 500.0) for i in range(n_pdus)]
    rack_objs = [
        Rack(f"r{i}", f"t{i % 8}", f"p{i % n_pdus}", 300.0, 500.0)
        for i in range(racks)
    ]
    topology = PowerTopology.build(Ups("ups", racks * 500.0), pdus, rack_objs)
    monitor = PowerMonitor(topology, KEEP)
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(WARM_SLOTS):
        draws = rng.uniform(50.0, 290.0, racks)
        monitor.record_slot(
            {f"r{i}": float(draws[i]) for i in range(racks)}
        )
    return topology, monitor


def _batch_seconds(fn) -> float:
    """Wall time of ``CALLS`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(CALLS):
        fn()
    return time.perf_counter() - start


def _paired_seconds(inline, signal) -> "list[tuple[float, float]]":
    """``(inline_s, signal_s)`` batch times of ``PAIRS`` pairs.

    Each pair times the two batches back to back, the inline one first
    in even pairs and second in odd ones, so a drift in machine speed
    and the position within a pair hit both sides alike.
    """
    pairs = []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            inline_s = _batch_seconds(inline)
            signal_s = _batch_seconds(signal)
        else:
            signal_s = _batch_seconds(signal)
            inline_s = _batch_seconds(inline)
        pairs.append((inline_s, signal_s))
    return pairs


def test_default_signal_predict_overhead(archive):
    topology, monitor = _warm_monitor(RACKS)
    requesting = [f"r{i}" for i in range(0, RACKS, 7)]
    slot = WARM_SLOTS

    signal = CurrentDrawSignal()
    policy = RiskAwareReleasePolicy(None)
    predictor = SpotCapacityPredictor()
    window = signal.window

    def signal_path():
        banded = signal.forecast_slot(topology, requesting, monitor, slot)
        return policy.release(banded, topology)

    def inline_path():
        # The engine's pre-refactor predict phase, verbatim.
        references = {
            rid: monitor.rack_recent_max_w(rid, window)
            for rid in topology.racks
        }
        return predictor.forecast(topology, requesting, references)

    assert signal_path() == inline_path()  # identical maths, and a warm-up
    pairs = _paired_seconds(inline_path, signal_path)
    ratio = statistics.median(signal_s / inline_s for inline_s, signal_s in pairs)
    overhead = ratio - 1.0
    inline_s = statistics.median(inline_s for inline_s, _ in pairs)
    signal_s = statistics.median(signal_s for _, signal_s in pairs)

    # Informational: the banded ensemble path, for the cost trajectory.
    ensemble = build_signal("ensemble")
    ensemble_s = min(
        _batch_seconds(lambda: ensemble.forecast_slot(topology, requesting, monitor, slot))
        for _ in range(REPEATS)
    )

    data = {
        "racks": RACKS,
        "calls_per_batch": CALLS,
        "pairs": PAIRS,
        "inline_us_per_call": 1e6 * inline_s / CALLS,
        "signal_us_per_call": 1e6 * signal_s / CALLS,
        "ensemble_us_per_call": 1e6 * ensemble_s / CALLS,
        "default_signal_overhead": overhead,
    }
    write_summary_json(
        RESULTS_DIR / "BENCH_forecast.json",
        bench="forecast",
        data=data,
        meta={"seed": DEFAULT_SEED, "smoke": SMOKE},
    )
    archive(
        "forecast_predict_overhead",
        "\n".join(
            f"{k}: {v:.4f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in data.items()
        ),
    )
    assert ratio < 1.02, (
        f"default signal adds {100 * overhead:.2f}% to the {RACKS}-rack "
        f"predict phase, median of {PAIRS} pairs (budget: 2%)"
    )


def test_prediction_risk_frontier_smoke(archive):
    study = run_prediction_risk(slots=FRONTIER_SLOTS, jobs=JOBS)
    archive("ext_prediction_risk", render_prediction_risk(study))
    write_prediction_risk_summary(
        study, RESULTS_DIR / "BENCH_prediction_risk.json"
    )
    # run_prediction_risk is strict by default; re-assert the headline
    # invariants so a future default flip cannot silently weaken this.
    assert not study.violations()
    assert study.fig17_profit is not None  # current-draw column == Fig. 17
