"""End-to-end slot-loop benchmark and the telemetry overhead guard.

Two jobs:

* ``test_engine_slot_loop`` times the full simulation loop (testbed
  scenario, SpotDC market) with telemetry enabled and disabled and
  writes ``results/BENCH_engine.json`` via the summary exporter, so the
  engine's end-to-end throughput accumulates a trajectory across PRs.
* ``test_disabled_telemetry_overhead`` pins the subsystem's core
  promise: with telemetry *disabled*, the instrumentation wrapped
  around the 15,000-rack clearing hot path costs < 2% wall time versus
  the bare, registry-free call.

``BENCH_SMOKE=1`` (the CI job) shrinks both to smoke sizes; the
assertions are identical.
"""

import os
import pathlib
import statistics
import time

from repro.config import DEFAULT_SEED, MarketParameters, make_rng
from repro.core.clearing import MarketClearing
from repro.core.frame import BidFrame
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.sim.engine import run_simulation
from repro.sim.scenario import testbed_scenario as _testbed_scenario
from repro.sweep import parallel_map
from repro.telemetry import TelemetryConfig, write_summary_json
from repro.telemetry.registry import NULL_REGISTRY
from repro.telemetry.tracing import NULL_TRACER

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
#: Smoke runs archive into the git-ignored ``results/smoke/``.
RESULTS_DIR = pathlib.Path(__file__).parent / "results" / ("smoke" if SMOKE else "")

#: Worker processes for the telemetry-mode timing runs; 1 (default)
#: times them serially for the least contention noise.
JOBS = int(os.environ.get("BENCH_JOBS", "1"))

#: (slots, clearing racks, timed bare/wrapped clearing pairs) per mode.
SLOTS = 80 if SMOKE else 400
CLEARING_RACKS = 2_000 if SMOKE else 15_000
REPEATS = 51 if SMOKE else 21


def _run_once(slots: int, telemetry: TelemetryConfig | None) -> float:
    scenario = _testbed_scenario(seed=DEFAULT_SEED)
    start = time.perf_counter()
    run_simulation(scenario, slots=slots, telemetry=telemetry)
    return time.perf_counter() - start


def _timed_mode(telemetry_enabled: bool) -> float:
    """Module-level cell for :func:`parallel_map` (must pickle).

    Builds the :class:`TelemetryConfig` inside the worker — in-memory
    trace + metrics, no export — so the payload is a plain bool.
    """
    config = TelemetryConfig() if telemetry_enabled else None
    return _run_once(SLOTS, config)


def test_engine_slot_loop(archive):
    disabled_s, enabled_s = parallel_map(_timed_mode, [False, True], jobs=JOBS)
    scenario = _testbed_scenario(seed=DEFAULT_SEED)
    result = run_simulation(
        scenario, slots=SLOTS, telemetry=TelemetryConfig()
    )
    trace = result.trace
    data = {
        "slots": SLOTS,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "telemetry_overhead": enabled_s / disabled_s - 1.0,
        "slots_per_second_disabled": SLOTS / disabled_s,
        "spans": len(trace.spans),
        "events": len(trace.events),
    }
    write_summary_json(
        RESULTS_DIR / "BENCH_engine.json",
        bench="engine",
        data=data,
        meta={"seed": DEFAULT_SEED, "smoke": SMOKE, "jobs": JOBS},
    )
    archive(
        "engine_slot_loop",
        "\n".join(f"{k}: {v:.4f}" if isinstance(v, float) else f"{k}: {v}"
                  for k, v in data.items()),
    )
    # Structural sanity: one root + six phase spans per slot.
    assert len(trace.spans) == 7 * SLOTS
    # Enabled telemetry stays cheap even end-to-end (generous bound —
    # the hard guarantee is for the *disabled* path, below).
    assert enabled_s < 2.0 * disabled_s


def _paired_clear_ratios(engine, frame, pdu_spot, ups_spot) -> list[float]:
    """Null-instrumented over bare wall time of one clearing, per pair.

    Each pair times a bare and a wrapped call back to back, the bare one
    first in even pairs and second in odd ones, so a drift in machine
    speed and the position within a pair hit both sides alike.  The
    wrapped call reproduces exactly what the disabled telemetry path
    adds around a clearing call: one null span enter/exit and one null
    counter increment.
    """
    ratios = []
    for pair in range(REPEATS):
        seconds = {}
        for wrapped in (pair % 2 == 1, pair % 2 == 0):
            start = time.perf_counter()
            if wrapped:
                with NULL_TRACER.span("clear", slot=0):
                    engine.clear(frame, pdu_spot, ups_spot)
                NULL_REGISTRY.counter("clearings_total").inc()
            else:
                engine.clear(frame, pdu_spot, ups_spot)
            seconds[wrapped] = time.perf_counter() - start
        ratios.append(seconds[True] / seconds[False])
    return ratios


def test_disabled_telemetry_overhead():
    rng = make_rng(DEFAULT_SEED)
    bids, pdu_spot, ups_spot = make_synthetic_bids(CLEARING_RACKS, rng)
    frame = BidFrame.from_bids(bids)
    engine = MarketClearing(
        params=MarketParameters(price_step=0.001), include_breakpoints=False
    )
    # Warm both code paths before timing.
    engine.clear(frame, pdu_spot, ups_spot)
    ratio = statistics.median(_paired_clear_ratios(engine, frame, pdu_spot, ups_spot))
    overhead = ratio - 1.0
    print(
        f"\n{CLEARING_RACKS} racks: null-instrumented / bare, median of "
        f"{REPEATS} pairs: overhead {100 * overhead:+.3f}%"
    )
    assert ratio < 1.02, (
        f"disabled telemetry adds {100 * overhead:.2f}% to the "
        f"{CLEARING_RACKS}-rack clearing (budget: 2%)"
    )
