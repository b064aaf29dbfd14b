"""Fig. 7: (a) PDU power variation; (b) clearing time at scale.

Besides the paper-style text archive, both panels emit machine-readable
summaries in the telemetry exporter's envelope format
(``results/fig07a_pdu_variation.json`` and ``results/BENCH_clearing.json``:
racks x price-step x wall-ms for both the columnar BidFrame clear and the
object-at-a-time reference clear of ``tests/oracle.py``) so future PRs
can track the perf trajectory — see ``docs/observability.md``.
"""

import os
import pathlib
import time

from repro.config import DEFAULT_SEED, MarketParameters, make_rng, spawn_rngs
from repro.core.clearing import MarketClearing
from repro.experiments import render_fig07, run_fig07a, run_fig07b
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.telemetry import write_summary_json

from tests import oracle

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Worker processes for the per-rack-count sweep cells.  Defaults to
#: serial (least timing noise); CI smoke runs can raise it to trade a
#: little noise for wall-clock.
JOBS = int(os.environ.get("BENCH_JOBS", "1"))


def test_fig07a_pdu_variation(benchmark, archive):
    result = benchmark.pedantic(
        run_fig07a, kwargs={"slots": 20_000}, rounds=1, iterations=1
    )
    # Paper: PDU power changes < ±2.5% within one minute for 99% of slots.
    assert result.p99 < 0.025
    archive("fig07a_pdu_variation", f"p50={result.p50:.4f} p90={result.p90:.4f} "
            f"p99={result.p99:.4f} max={result.max:.4f}")
    write_summary_json(
        RESULTS_DIR / "fig07a_pdu_variation.json",
        bench="fig07a_pdu_variation",
        data={"p50": result.p50, "p90": result.p90,
              "p99": result.p99, "max": result.max},
    )


def time_object_clear(result, repeats, seed=DEFAULT_SEED):
    """Mean object-clear time per (step, racks) cell of a Fig. 7b run.

    Regenerates each column's bids exactly as ``run_fig07b`` does (one
    generator spawned per rack count from ``seed``) and times the
    reference object clear on them with the same engine settings.
    """
    rngs = spawn_rngs(make_rng(seed), len(result.rack_counts))
    seconds = {step: [] for step in result.price_steps}
    for racks, rng in zip(result.rack_counts, rngs):
        bids, pdu_spot, ups_spot = make_synthetic_bids(racks, rng)
        for step in result.price_steps:
            engine = MarketClearing(
                params=MarketParameters(price_step=step),
                include_breakpoints=False,
            )
            start = time.perf_counter()
            for _ in range(repeats):
                oracle.clear(engine, bids, pdu_spot, ups_spot)
            seconds[step].append((time.perf_counter() - start) / repeats)
    return seconds


def test_fig07b_clearing_time(benchmark, archive):
    repeats = 2
    result = benchmark.pedantic(
        run_fig07b,
        kwargs={
            "rack_counts": (100, 1000, 5000, 15000),
            "price_steps": (0.001, 0.01),
            "repeats": repeats,
            "jobs": JOBS,
        },
        rounds=1,
        iterations=1,
    )
    object_s = time_object_clear(result, repeats)
    variation = run_fig07a(slots=5000, pdus=2)
    archive("fig07b_clearing_time", render_fig07(variation, result))
    _write_clearing_json(result, object_s)
    # Paper: < 1 s at 15,000 racks with a 0.1 cent/kW step; < 100 ms-ish
    # with a 1 cent/kW step (we allow slack for slower machines).
    fine = result.mean_seconds[0.001][-1]
    coarse = result.mean_seconds[0.01][-1]
    assert fine < 2.0
    assert coarse <= 1.2 * fine  # coarse grids never meaningfully slower
    # Clearing time grows with the number of racks (150x more racks).
    assert result.mean_seconds[0.001][0] < result.mean_seconds[0.001][-1]
    # The columnar BidFrame clear must beat the object clear by >= 5x on
    # the paper's headline cell (15,000 racks, 0.1 cent/kW step).
    assert object_s[0.001][-1] >= 5.0 * fine


def _write_clearing_json(result, object_s) -> None:
    """Persist racks x step x wall-ms for both clears (perf trajectory)."""
    cells = []
    for i, racks in enumerate(result.rack_counts):
        for step in result.price_steps:
            cells.append(
                {
                    "racks": racks,
                    "price_step": step,
                    "frame_ms": result.mean_seconds[step][i] * 1e3,
                    "object_ms": object_s[step][i] * 1e3,
                    "speedup": object_s[step][i] / result.mean_seconds[step][i],
                    "frame_build_ms": result.frame_build_seconds[i] * 1e3,
                }
            )
    write_summary_json(
        RESULTS_DIR / "BENCH_clearing.json",
        bench="clearing",
        data={"cells": cells},
    )
