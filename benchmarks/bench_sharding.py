"""The incremental frame builder's unchanged-slot build.

An unchanged slot's frame build (``IncrementalFrameBuilder.build`` over
the previous slot's frame) is held to at least 5x the from-scratch
build it was first measured against, at the 15k-rack reference point:
the PDU-block build that walked each ``RackBid``, kept as
``tests/oracle.py``'s ``from_bids``.  Both sides are timed as the best
of five slots.

``BENCH_SMOKE=1`` shrinks the fleet; the assertion is the same.
"""

import os
import time

from repro.config import DEFAULT_SEED, make_rng
from repro.core.bids import RackBid
from repro.core.sharding import IncrementalFrameBuilder
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids

from tests import oracle

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: The incremental builder's reference point: the 15k-rack from-scratch
#: frame build, and the speedup the builder must keep over it.
REFERENCE_RACKS = 2_000 if SMOKE else 15_000
MIN_UNCHANGED_SPEEDUP = 5.0


def _rebid(bids):
    """Fresh bid objects for every rack, as tenants submit each slot.

    Demand objects are re-used (value-identical curves), so the builder
    must walk every bid's parameters to prove blocks clean.
    """
    return [
        RackBid(b.rack_id, b.pdu_id, b.tenant_id, b.demand, b.rack_cap_w)
        for b in bids
    ]


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
