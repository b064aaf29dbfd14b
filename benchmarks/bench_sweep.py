"""Parallel sweep-runner benchmark: serial vs ``--jobs 4``.

Runs the same 12-cell sweep grid twice — serially and fanned out over
4 worker processes — asserts the results are *identical* (the sweep
runner's determinism contract), and writes
``results/BENCH_sweep.json`` with both wall times.

The >= 2x speedup assertion only arms on machines with at least 4 CPU
cores; single-core CI sandboxes still run the benchmark for the
result-identity check and record their core count in the envelope.

``BENCH_SMOKE=1`` shrinks the per-cell horizon; grid shape and
assertions are unchanged.
"""

import os
import pathlib
import time

from repro.sweep import run_sweep
from repro.telemetry import write_summary_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
#: Smoke runs archive into the git-ignored ``results/smoke/``.
RESULTS_DIR = pathlib.Path(__file__).parent / "results" / ("smoke" if SMOKE else "")

#: Per-cell horizon: long enough that pool startup amortises away.
SLOTS = 30 if SMOKE else 150

#: The benchmark grid: 3 x 2 x 2 = 12 cells over the testbed preset.
SWEEP_CONFIG = {
    "name": "bench",
    "base": {"preset": "testbed"},
    "slots": SLOTS,
    "seed": 7,
    "compare": True,
    "axes": {
        "supply.ups_oversubscription": [1.0, 1.05, 1.1],
        "time.slot_seconds": [60, 120],
        "supply.infrastructure_cost_per_watt": [15.0, 25.0],
    },
}

PARALLEL_JOBS = 4


def _timed_sweep(jobs: int) -> tuple[dict, float]:
    start = time.perf_counter()
    data = run_sweep(SWEEP_CONFIG, jobs=jobs)
    return data, time.perf_counter() - start


def test_sweep_parallel_speedup(archive):
    cpus = os.cpu_count() or 1
    serial, serial_s = _timed_sweep(jobs=1)
    parallel, parallel_s = _timed_sweep(jobs=PARALLEL_JOBS)

    # The determinism contract holds on any machine: fan-out may change
    # wall-clock, never a number.
    assert serial == parallel

    speedup = serial_s / parallel_s
    data = {
        "cells": len(serial["cells"]),
        "slots": SLOTS,
        "jobs": PARALLEL_JOBS,
        "cpu_count": cpus,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
        "speedup_asserted": cpus >= PARALLEL_JOBS,
    }
    write_summary_json(
        RESULTS_DIR / "BENCH_sweep.json",
        bench="sweep",
        data=data,
        meta={"seed": SWEEP_CONFIG["seed"], "smoke": SMOKE},
    )
    archive(
        "sweep_parallel",
        "\n".join(
            f"{k}: {v:.4f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in data.items()
        ),
    )
    if cpus >= PARALLEL_JOBS:
        assert speedup >= 2.0, (
            f"12-cell sweep at --jobs {PARALLEL_JOBS} on {cpus} cores sped "
            f"up only {speedup:.2f}x (serial {serial_s:.2f}s, parallel "
            f"{parallel_s:.2f}s)"
        )
