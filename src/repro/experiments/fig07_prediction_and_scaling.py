"""Fig. 7: (a) PDU power variation; (b) market-clearing time at scale.

Fig. 7(a) validates the predictor's core assumption: PDU-level power
changes slowly across consecutive slots (the paper reports <±2.5% within
one minute for 99% of slots).  We measure the same statistic on a
simulated run.

Fig. 7(b) measures the uniform-price scan's wall-clock clearing time for
up to 15,000 bidding racks at two price-step sizes (0.1 and 1 cent/kW);
the paper reports <1 s and <100 ms respectively on a desktop.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.analysis.reporting import format_kv, format_series
from repro.config import DEFAULT_SEED, MarketParameters, make_rng
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import LinearBid
from repro.core.frame import BidFrame

__all__ = [
    "PduVariationResult",
    "ClearingTimeResult",
    "run_fig07a",
    "run_fig07b",
    "make_synthetic_bids",
    "render_fig07",
]


@dataclasses.dataclass
class PduVariationResult:
    """Fig. 7(a): slot-to-slot PDU power variation statistics.

    Attributes:
        p50 / p90 / p99: Quantiles of the relative slot-to-slot change
            ``|dP| / P`` pooled over all PDUs.
        max: Largest observed relative change.
    """

    p50: float
    p90: float
    p99: float
    max: float


@dataclasses.dataclass
class ClearingTimeResult:
    """Fig. 7(b): mean clearing wall-clock time per (racks, step) cell.

    Attributes:
        rack_counts: Number of bidding racks per column.
        price_steps: Scan step sizes, $/kW/h.
        mean_seconds: ``mean_seconds[step][racks]`` mean clearing time on
            the columnar (:class:`BidFrame`) path, frame prebuilt once
            per rack count — the per-slot steady state.
        frame_build_seconds: ``BidFrame.from_bids`` wall-clock per rack
            count (the once-per-slot adapter cost).
    """

    rack_counts: list[int]
    price_steps: list[float]
    mean_seconds: dict[float, list[float]]
    frame_build_seconds: list[float] = dataclasses.field(default_factory=list)


def run_fig07a(
    seed: int = DEFAULT_SEED,
    slots: int = 20_000,
    pdus: int = 4,
    groups_per_pdu: int = 5,
    group_subscription_w: float = 150.0,
) -> PduVariationResult:
    """Measure slot-to-slot PDU power variation on the simulation trace.

    As in the paper, the statistic is computed on the *power trace* fed
    to the simulation (the colo trace standing in for the measured
    commercial-facility trace), aggregated to PDU level: each PDU's
    series is the sum of several tenant-group traces, and the reported
    quantiles are over ``|dP| / P`` across consecutive slots.

    Args:
        seed: Trace seed.
        slots: Trace length per PDU.
        pdus: Number of PDU aggregates sampled.
        groups_per_pdu: Tenant groups summed per PDU.
        group_subscription_w: Per-group subscription scale.
    """
    from repro.config import make_rng, spawn_rngs
    from repro.workloads.traces import ColoPowerTrace

    rng = make_rng(seed)
    variations = []
    for p in range(pdus):
        group_rngs = spawn_rngs(rng, groups_per_pdu)
        series = np.zeros(slots)
        for g, group_rng in enumerate(group_rngs):
            trace = ColoPowerTrace(
                subscription_w=group_subscription_w,
                phase=float(rng.uniform(0, 1)),
            )
            series += trace.generate(slots, group_rng)
        rel = np.abs(np.diff(series)) / series[:-1]
        variations.append(rel)
    pooled = np.concatenate(variations)
    return PduVariationResult(
        p50=float(np.quantile(pooled, 0.50)),
        p90=float(np.quantile(pooled, 0.90)),
        p99=float(np.quantile(pooled, 0.99)),
        max=float(pooled.max()),
    )


def make_synthetic_bids(
    racks: int,
    rng: np.random.Generator,
    racks_per_pdu: int = 60,
) -> tuple[list[RackBid], dict[str, float], float]:
    """Generate a large random bid set with realistic structure.

    Rack demands and prices are drawn around the testbed's ranges; PDUs
    host ``racks_per_pdu`` racks each with spot capacity for roughly a
    third of the aggregate maximum demand (so constraints genuinely
    bind, as in a busy facility).

    Returns:
        (bids, per-PDU spot capacity, UPS spot capacity).
    """
    bids = []
    pdu_demand: dict[str, float] = {}
    for i in range(racks):
        pdu_id = f"pdu:{i // racks_per_pdu}"
        d_max = float(rng.uniform(10.0, 80.0))
        d_min = float(rng.uniform(0.1, 0.9)) * d_max
        q_min = float(rng.uniform(0.02, 0.2))
        q_max = q_min + float(rng.uniform(0.02, 0.3))
        bids.append(
            RackBid(
                rack_id=f"rack:{i}",
                pdu_id=pdu_id,
                tenant_id=f"tenant:{i}",
                demand=LinearBid(d_max, q_min, d_min, q_max),
                rack_cap_w=d_max,
            )
        )
        pdu_demand[pdu_id] = pdu_demand.get(pdu_id, 0.0) + d_max
    pdu_spot = {p: total / 3.0 for p, total in pdu_demand.items()}
    ups_spot = sum(pdu_spot.values()) / 1.5
    return bids, pdu_spot, ups_spot


def _fig07b_cell(payload) -> dict:
    """Time one rack-count column of Fig. 7(b).

    Module-level and plain-data in/out so it can cross a
    :func:`repro.sweep.parallel_map` process boundary.  ``payload`` is
    ``(racks, price_steps, repeats, rng)`` — the generator is spawned
    per cell *by the parent*, so the bid set for a rack count never
    depends on ``jobs`` or on which other rack counts run.
    """
    racks, price_steps, repeats, rng = payload
    bids, pdu_spot, ups_spot = make_synthetic_bids(racks, rng)
    start = time.perf_counter()
    frame = BidFrame.from_bids(bids)
    cell = {"frame_build": time.perf_counter() - start, "mean": {}}
    for step in price_steps:
        engine = MarketClearing(
            params=MarketParameters(price_step=step),
            include_breakpoints=False,  # pure fixed-step scan, as timed
        )
        start = time.perf_counter()
        for _ in range(repeats):
            engine.clear(frame, pdu_spot, ups_spot)
        cell["mean"][step] = (time.perf_counter() - start) / repeats
    return cell


def run_fig07b(
    rack_counts=(100, 1000, 5000, 15000),
    price_steps=(0.001, 0.01),
    repeats: int = 3,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> ClearingTimeResult:
    """Measure clearing wall-clock time versus scale (Fig. 7b).

    The timing is the columnar :class:`BidFrame` path with the frame
    prebuilt per rack count (the per-slot steady state — the frame
    is built once per slot, then every stage consumes it).

    Args:
        rack_counts: Bidding-rack counts to scan (paper: up to 15,000).
        price_steps: Price-grid steps in $/kW/h; 0.001 ≈ 0.1 cent/kW and
            0.01 ≈ 1 cent/kW match the paper's two curves.
        repeats: Clearing repetitions averaged per cell.
        seed: Bid-generation seed.
        jobs: Worker processes for the per-rack-count cells; 1 times
            them serially in-process (the least-noisy option — parallel
            cells contend for cores, so use ``jobs > 1`` for quick scans,
            not for archived timings).  Each cell draws its bids from a
            generator spawned in the parent, so the bid sets are
            identical at any job count.
    """
    from repro.config import spawn_rngs
    from repro.sweep.runner import parallel_map

    rngs = spawn_rngs(make_rng(seed), len(rack_counts))
    payloads = [
        (racks, tuple(price_steps), repeats, rng)
        for racks, rng in zip(rack_counts, rngs)
    ]
    cells = parallel_map(_fig07b_cell, payloads, jobs=jobs)
    mean_seconds: dict[float, list[float]] = {
        step: [cell["mean"][step] for cell in cells] for step in price_steps
    }
    frame_build_seconds = [cell["frame_build"] for cell in cells]
    return ClearingTimeResult(
        rack_counts=list(rack_counts),
        price_steps=list(price_steps),
        mean_seconds=mean_seconds,
        frame_build_seconds=frame_build_seconds,
    )


def render_fig07(
    variation: PduVariationResult, timing: ClearingTimeResult
) -> str:
    """Paper-style text for both panels."""
    part_a = format_kv(
        {
            "PDU |dP|/P p50": variation.p50,
            "PDU |dP|/P p90": variation.p90,
            "PDU |dP|/P p99 (paper: < 0.025)": variation.p99,
            "PDU |dP|/P max": variation.max,
        },
        title="Fig. 7(a): slot-to-slot PDU power variation",
    )
    series = {
        f"step={step:g} $/kW/h [s]": [round(v, 4) for v in timing.mean_seconds[step]]
        for step in timing.price_steps
    }
    part_b = format_series(
        "racks", timing.rack_counts, series,
        title="Fig. 7(b): mean market clearing time",
    )
    return part_a + "\n\n" + part_b
