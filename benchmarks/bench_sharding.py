"""The million-rack slot: incremental frame delta + sharded clear.

The ROADMAP's scaling target is one slot — re-aggregate what changed,
clear, reconcile — inside a 1-minute market slot at 1M racks.  This
bench pins that budget in ``results/BENCH_sharding.json`` with a
per-phase breakdown, and separately pins the incremental builder's
unchanged-slot speedup at the 15k-rack reference point, against the
from-scratch frame build it was first measured against: the PDU-block
build that walked each ``RackBid``, kept as ``tests/oracle.py``'s
``from_bids``.

Slot model: every tenant re-submits fresh bid objects (equal values —
the builder must prove them unchanged), while ~1% of PDUs carry a
genuinely changed bid and re-aggregate.  The clear then runs sharded
through the same decomposition the engine uses.

``BENCH_SMOKE=1`` shrinks the fleet; assertions are identical except
the 60 s budget, which only means something at full scale.
"""

import os
import pathlib
import time

from repro.config import DEFAULT_SEED, MarketParameters, make_rng
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import LinearBid
from repro.core.sharding import IncrementalFrameBuilder, clear_per_pdu_sharded
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.telemetry import write_summary_json

from tests import oracle

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
#: Smoke runs archive into the git-ignored ``results/smoke/``.
RESULTS_DIR = pathlib.Path(__file__).parent / "results" / ("smoke" if SMOKE else "")
JOBS = int(os.environ.get("BENCH_JOBS", "1"))

RACKS = 20_000 if SMOKE else 1_000_000
RACKS_PER_PDU = 250
SHARDS = 16
SLOT_BUDGET_S = 60.0

#: The incremental builder's reference point: the 15k-rack from-scratch
#: frame build, and the speedup the builder must keep over it.
REFERENCE_RACKS = 2_000 if SMOKE else 15_000
MIN_UNCHANGED_SPEEDUP = 5.0


def _rebid(bids, mutate_every_pdu=0):
    """Fresh bid objects for every rack, as tenants submit each slot.

    Demand objects are re-used (value-identical curves), so the builder
    must walk every bid's parameters to prove blocks clean.  When
    ``mutate_every_pdu`` is n > 0, the first rack of every n-th PDU gets
    a genuinely different curve — those PDUs must re-aggregate.
    """
    fresh = []
    for i, b in enumerate(bids):
        demand = b.demand
        if mutate_every_pdu and i % (RACKS_PER_PDU * mutate_every_pdu) == 0:
            demand = LinearBid(
                b.demand.d_max_w * 0.9,
                b.demand.q_min,
                b.demand.d_min_w,
                b.demand.q_max,
            )
        fresh.append(
            RackBid(b.rack_id, b.pdu_id, b.tenant_id, demand, b.rack_cap_w)
        )
    return fresh


def test_million_rack_slot(archive):
    rng = make_rng(DEFAULT_SEED)
    bids, pdu_spot, ups_spot = make_synthetic_bids(
        RACKS, rng, racks_per_pdu=RACKS_PER_PDU
    )
    engine = MarketClearing(
        params=MarketParameters(price_step=0.001), include_breakpoints=False
    )
    builder = IncrementalFrameBuilder()

    start = time.perf_counter()
    builder.build(bids)
    initial_build_s = time.perf_counter() - start

    # The timed slot: fresh equal bids everywhere, 1-in-100 PDUs dirty.
    slot_bids = _rebid(bids, mutate_every_pdu=100)
    start = time.perf_counter()
    frame = builder.build(slot_bids)
    frame_delta_s = time.perf_counter() - start
    dirty_pdus = len(builder.last_dirty)
    assert 0 < dirty_pdus <= len(pdu_spot) // 50

    start = time.perf_counter()
    result = clear_per_pdu_sharded(
        engine, frame, pdu_spot, ups_spot, shards=SHARDS, jobs=JOBS
    )
    clear_s = time.perf_counter() - start
    slot_s = frame_delta_s + clear_s
    assert result.grants_w and result.price > 0.0

    data = {
        "racks": RACKS,
        "pdus": len(pdu_spot),
        "shards": SHARDS,
        "jobs": JOBS,
        "initial_build_seconds": initial_build_s,
        "frame_delta_seconds": frame_delta_s,
        "dirty_pdus": dirty_pdus,
        "clear_seconds": clear_s,
        "slot_seconds": slot_s,
        "slot_budget_seconds": SLOT_BUDGET_S,
        "granted_racks": sum(1 for g in result.grants_w.values() if g > 0),
    }
    write_summary_json(
        RESULTS_DIR / "BENCH_sharding.json",
        bench="sharding",
        data=data,
        meta={"seed": DEFAULT_SEED, "smoke": SMOKE},
    )
    archive(
        "sharding_slot",
        "\n".join(
            f"{k}: {v:.4f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in data.items()
        ),
    )
    if not SMOKE:
        assert slot_s < SLOT_BUDGET_S, (
            f"1M-rack slot took {slot_s:.1f} s "
            f"(budget {SLOT_BUDGET_S:.0f} s)"
        )


def test_unchanged_slot_build_speedup(archive):
    rng = make_rng(DEFAULT_SEED)
    bids, _, _ = make_synthetic_bids(REFERENCE_RACKS, rng)
    builder = IncrementalFrameBuilder()
    builder.build(bids)

    best_scratch = float("inf")
    best_delta = float("inf")
    for _ in range(5):
        fresh = _rebid(bids)
        start = time.perf_counter()
        oracle.from_bids(fresh)
        best_scratch = min(best_scratch, time.perf_counter() - start)
        start = time.perf_counter()
        builder.build(fresh)
        best_delta = min(best_delta, time.perf_counter() - start)
        assert builder.last_dirty == ()

    speedup = best_scratch / best_delta
    archive(
        "sharding_unchanged_build",
        f"racks: {REFERENCE_RACKS}\n"
        f"from_scratch_ms: {best_scratch * 1e3:.3f}\n"
        f"unchanged_delta_ms: {best_delta * 1e3:.3f}\n"
        f"speedup: {speedup:.1f}x",
    )
    assert speedup >= MIN_UNCHANGED_SPEEDUP, (
        f"unchanged-slot frame build only {speedup:.1f}x faster than "
        f"from-scratch (need >= {MIN_UNCHANGED_SPEEDUP:.0f}x)"
    )
