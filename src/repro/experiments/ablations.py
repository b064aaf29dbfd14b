"""Ablations of SpotDC's design choices.

DESIGN.md commits to justifying four mechanisms that the paper either
leaves implicit or that this reproduction added; each ablation switches
one off and measures the damage:

* **Pricing locality** — per-PDU locational prices vs the literal single
  facility-wide price, across facility scale (the Fig. 18 stability
  finding).
* **Predictor safety margin** — the 2.5% capacity hold-back vs none:
  emergencies avoided vs revenue forgone.
* **Conservative rack references** — rolling-peak reference power vs
  instantaneous draw.
* **Breakpoint augmentation** — adding bid kinks to a coarse price grid
  vs the pure fixed-step scan: profit recovered per price evaluated.

Every sweep point is a pure, module-level cell function of its payload,
so each runner takes ``jobs=N`` and fans cells out over worker
processes via :func:`repro.sweep.parallel_map` without changing any
number.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.reporting import (
    format_rounded_series,
    format_table,
)
from repro.config import DEFAULT_SEED, MarketParameters, make_rng
from repro.core.baselines import PowerCappedAllocator
from repro.core.clearing import MarketClearing
from repro.core.market import SpotDCAllocator
from repro.experiments.common import (
    mean_perf_improvement,
    parallel_map,
    powercapped_baseline,
)
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.forecast.signals import CurrentDrawSignal
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.scenario import scaled_scenario, testbed_scenario

__all__ = [
    "PricingAblation",
    "ReservePriceSweep",
    "SafetyAblation",
    "BreakpointAblation",
    "run_pricing_ablation",
    "run_safety_ablation",
    "run_breakpoint_ablation",
    "render_pricing_ablation",
    "render_safety_ablation",
    "render_breakpoint_ablation",
    "run_reserve_price_sweep",
    "render_reserve_price_sweep",
    "SlotLengthSweep",
    "run_slot_length_sweep",
    "render_slot_length_sweep",
]


@dataclasses.dataclass
class PricingAblation:
    """Per-PDU vs facility-wide pricing across scale.

    Attributes:
        tenant_counts: Facility sizes swept.
        profit_per_pdu / profit_uniform: Operator profit increase vs
            PowerCapped under each pricing mode.
        perf_per_pdu / perf_uniform: Mean tenant performance improvement.
    """

    tenant_counts: list[int]
    profit_per_pdu: list[float]
    profit_uniform: list[float]
    perf_per_pdu: list[float]
    perf_uniform: list[float]


def _pricing_cell(payload) -> tuple[int, float, float, float, float]:
    """One facility size: PowerCapped baseline plus both pricing modes."""
    seed, slots, count = payload
    baseline = run_simulation(
        scaled_scenario(groups=count, seed=seed),
        slots,
        allocator=PowerCappedAllocator(),
    )
    outcomes = []
    for mode in ("per_pdu", "uniform"):
        result = run_simulation(
            scaled_scenario(groups=count, seed=seed),
            slots,
            allocator=SpotDCAllocator(pricing=mode),
        )
        outcomes.append(
            (
                result.operator_profit_increase_vs(baseline),
                mean_perf_improvement(result, baseline),
            )
        )
    (profit_per_pdu, perf_per_pdu), (profit_uniform, perf_uniform) = outcomes
    return (10 * count, profit_per_pdu, profit_uniform, perf_per_pdu, perf_uniform)


def run_pricing_ablation(
    seed: int = DEFAULT_SEED,
    slots: int = 500,
    groups=(1, 5, 15),
    jobs: int = 1,
) -> PricingAblation:
    """Measure how each pricing mode scales with facility size."""
    rows = parallel_map(
        _pricing_cell, [(seed, slots, count) for count in groups], jobs=jobs
    )
    ablation = PricingAblation([], [], [], [], [])
    for tenants, profit_pp, profit_u, perf_pp, perf_u in rows:
        ablation.tenant_counts.append(tenants)
        ablation.profit_per_pdu.append(profit_pp)
        ablation.profit_uniform.append(profit_u)
        ablation.perf_per_pdu.append(perf_pp)
        ablation.perf_uniform.append(perf_u)
    return ablation


def render_pricing_ablation(ablation: PricingAblation) -> str:
    """Table of profit/performance per pricing mode across scale."""
    return format_rounded_series(
        "tenants",
        ablation.tenant_counts,
        {
            "profit +% (per-PDU)": ("percent", ablation.profit_per_pdu),
            "profit +% (uniform)": ("percent", ablation.profit_uniform),
            "perf x (per-PDU)": ("ratio", ablation.perf_per_pdu),
            "perf x (uniform)": ("ratio", ablation.perf_uniform),
        },
        title="Ablation: locational vs facility-wide pricing",
    )


@dataclasses.dataclass
class SafetyAblation:
    """Predictor conservatism: margins and references on vs off.

    Attributes:
        labels: Configuration labels.
        emergencies: Capacity-excursion count per configuration (the
            PowerCapped baseline count is the floor).
        baseline_emergencies: The PowerCapped run's count.
        profit_increase: Operator profit increase per configuration.
    """

    labels: list[str]
    emergencies: list[int]
    baseline_emergencies: int
    profit_increase: list[float]


#: The four conservatism configurations: (label, safety margin override
#: — ``None`` keeps the predictor's default — and reference window).
_SAFETY_CONFIGS = (
    ("margin + rolling refs (default)", None, 5),
    ("no safety margin", 0.0, 5),
    ("instantaneous references", None, 1),
    ("neither", 0.0, 1),
)


def _safety_cell(payload) -> tuple[str, int, float]:
    """One predictor-conservatism configuration."""
    seed, slots, label, margin, window = payload
    baseline = powercapped_baseline(seed, slots)
    signal = (
        CurrentDrawSignal(window=window)
        if margin is None
        else CurrentDrawSignal(safety_margin_fraction=margin, window=window)
    )
    engine = SimulationEngine(
        testbed_scenario(seed=seed),
        signal=signal,
        reference_window=window,
    )
    result = engine.run(slots)
    return (
        label,
        result.emergencies.count(),
        result.operator_profit_increase_vs(baseline),
    )


def run_safety_ablation(
    seed: int = DEFAULT_SEED, slots: int = 3000, jobs: int = 1
) -> SafetyAblation:
    """Switch off the safety margin and the rolling-peak references."""
    payloads = [
        (seed, slots, label, margin, window)
        for label, margin, window in _SAFETY_CONFIGS
    ]
    rows = parallel_map(_safety_cell, payloads, jobs=jobs)
    ablation = SafetyAblation(
        labels=[],
        emergencies=[],
        baseline_emergencies=powercapped_baseline(seed, slots)
        .emergencies.count(),
        profit_increase=[],
    )
    for label, emergencies, profit in rows:
        ablation.labels.append(label)
        ablation.emergencies.append(emergencies)
        ablation.profit_increase.append(profit)
    return ablation


def render_safety_ablation(ablation: SafetyAblation) -> str:
    """Table of emergencies vs profit across predictor conservatism."""
    rows = [
        [label, count, round(100 * profit, 2)]
        for label, count, profit in zip(
            ablation.labels, ablation.emergencies, ablation.profit_increase
        )
    ]
    table = format_table(
        ["configuration", "emergencies", "profit +%"],
        rows,
        title="Ablation: predictor conservatism",
    )
    return (
        table
        + f"\n(PowerCapped baseline emergencies: {ablation.baseline_emergencies})"
    )


@dataclasses.dataclass
class BreakpointAblation:
    """Breakpoint augmentation of the price grid.

    Attributes:
        price_steps: Grid steps swept, $/kW/h.
        revenue_plain / revenue_breakpoints: Mean clearing revenue rate
            over the random bid sets, without/with bid-kink candidates.
    """

    price_steps: list[float]
    revenue_plain: list[float]
    revenue_breakpoints: list[float]


def _breakpoint_cell(payload) -> tuple[float, float, float]:
    """One price-step point.

    Regenerates the shared synthetic bid sets from the seed rather than
    shipping them across the process boundary: ``make_rng(seed)`` is
    deterministic, so every cell sees the byte-identical sets the
    original single-loop implementation shared.
    """
    seed, racks, trials, step = payload
    rng = make_rng(seed)
    bid_sets = [make_synthetic_bids(racks, rng) for _ in range(trials)]
    plain = MarketClearing(
        params=MarketParameters(price_step=step), include_breakpoints=False
    )
    augmented = MarketClearing(
        params=MarketParameters(price_step=step), include_breakpoints=True
    )
    plain_revenue = np.mean(
        [plain.clear(b, p, u).revenue_rate for b, p, u in bid_sets]
    )
    augmented_revenue = np.mean(
        [augmented.clear(b, p, u).revenue_rate for b, p, u in bid_sets]
    )
    return (step, float(plain_revenue), float(augmented_revenue))


def run_breakpoint_ablation(
    seed: int = DEFAULT_SEED,
    price_steps=(0.05, 0.02, 0.01, 0.005, 0.001),
    racks: int = 200,
    trials: int = 10,
    jobs: int = 1,
) -> BreakpointAblation:
    """Measure the profit recovered by breakpoint candidates per step size."""
    rows = parallel_map(
        _breakpoint_cell,
        [(seed, racks, trials, step) for step in price_steps],
        jobs=jobs,
    )
    ablation = BreakpointAblation([], [], [])
    for step, plain, augmented in rows:
        ablation.price_steps.append(step)
        ablation.revenue_plain.append(plain)
        ablation.revenue_breakpoints.append(augmented)
    return ablation


def render_breakpoint_ablation(ablation: BreakpointAblation) -> str:
    """Table of revenue with and without breakpoint augmentation."""
    gain = [
        (b / p - 1.0) if p > 0 else 0.0
        for p, b in zip(ablation.revenue_plain, ablation.revenue_breakpoints)
    ]
    return format_rounded_series(
        "price step [$/kW/h]",
        ablation.price_steps,
        {
            "revenue, plain grid [$/h]": (4, ablation.revenue_plain),
            "revenue, +breakpoints [$/h]": (4, ablation.revenue_breakpoints),
            "gain [%]": ("percent", gain),
        },
        title="Ablation: breakpoint augmentation of the price grid",
    )


@dataclasses.dataclass
class ReservePriceSweep:
    """Operator reserve-price sweep (the paper's reservation-price note).

    Attributes:
        reserve_prices: Floors swept, $/kW/h.
        profit_increase: Operator profit increase vs PowerCapped.
        perf_improvement: Mean tenant performance improvement.
        mean_price: Mean positive clearing price.
    """

    reserve_prices: list[float]
    profit_increase: list[float]
    perf_improvement: list[float]
    mean_price: list[float]


def _reserve_cell(payload) -> tuple[float, float, float, float]:
    """One reserve-price point."""
    seed, slots, reserve = payload
    baseline = powercapped_baseline(seed, slots)
    allocator = SpotDCAllocator(params=MarketParameters(reserve_price=reserve))
    result = run_simulation(
        testbed_scenario(seed=seed), slots, allocator=allocator
    )
    prices = result.price_series()
    positive = prices[prices > 0]
    return (
        reserve,
        result.operator_profit_increase_vs(baseline),
        mean_perf_improvement(result, baseline),
        float(positive.mean()) if positive.size else 0.0,
    )


def run_reserve_price_sweep(
    seed: int = DEFAULT_SEED,
    slots: int = 1500,
    reserve_prices=(0.0, 0.02, 0.05, 0.1, 0.15),
    jobs: int = 1,
) -> ReservePriceSweep:
    """Sweep the market's price floor.

    The paper notes a reservation price can recoup energy costs
    (Section III-A); this sweep measures what a floor costs: low floors
    are free (the profit-maximising price already sits above them),
    high floors start pricing out the cheap opportunistic demand.
    """
    rows = parallel_map(
        _reserve_cell,
        [(seed, slots, reserve) for reserve in reserve_prices],
        jobs=jobs,
    )
    sweep = ReservePriceSweep([], [], [], [])
    for reserve, profit, perf, price in rows:
        sweep.reserve_prices.append(reserve)
        sweep.profit_increase.append(profit)
        sweep.perf_improvement.append(perf)
        sweep.mean_price.append(price)
    return sweep


def render_reserve_price_sweep(sweep: ReservePriceSweep) -> str:
    """Table of market outcomes across reserve prices."""
    return format_rounded_series(
        "reserve price [$/kW/h]",
        sweep.reserve_prices,
        {
            "profit +%": ("percent", sweep.profit_increase),
            "perf x": ("ratio", sweep.perf_improvement),
            "mean price [$/kW/h]": ("ratio", sweep.mean_price),
        },
        title="Ablation: operator reserve price",
    )


@dataclasses.dataclass
class SlotLengthSweep:
    """Slot-length sensitivity (the paper's "1-5 minutes" claim).

    Attributes:
        slot_seconds: Slot lengths swept.
        profit_increase: Operator profit increase vs PowerCapped (each
            point simulates the same wall-clock duration).
        perf_improvement: Mean tenant performance improvement.
        emergencies: Capacity excursions per simulated day.
    """

    slot_seconds: list[float]
    profit_increase: list[float]
    perf_improvement: list[float]
    emergencies: list[float]


def _slot_length_cell(payload) -> tuple[float, float, float, float]:
    """One slot-length point (fixed simulated duration)."""
    seed, duration_hours, slot_seconds = payload
    slots = int(duration_hours * 3600.0 / slot_seconds)
    baseline = run_simulation(
        testbed_scenario(seed=seed, slot_seconds=slot_seconds),
        slots,
        allocator=PowerCappedAllocator(),
    )
    result = run_simulation(
        testbed_scenario(seed=seed, slot_seconds=slot_seconds), slots
    )
    days = duration_hours / 24.0
    return (
        slot_seconds,
        result.operator_profit_increase_vs(baseline),
        mean_perf_improvement(result, baseline),
        result.emergencies.count() / days,
    )


def run_slot_length_sweep(
    seed: int = DEFAULT_SEED,
    duration_hours: float = 80.0,
    slot_lengths=(60.0, 120.0, 300.0),
    jobs: int = 1,
) -> SlotLengthSweep:
    """Sweep the market slot length at a fixed simulated duration.

    The paper asserts slots of 1-5 minutes all work ("each time slot can
    be 1-5 minutes" §III-A); this sweep verifies the outcomes are not an
    artifact of the 2-minute default: headline profit and performance
    should be stable and no slot length should add emergencies.
    """
    rows = parallel_map(
        _slot_length_cell,
        [(seed, duration_hours, s) for s in slot_lengths],
        jobs=jobs,
    )
    sweep = SlotLengthSweep([], [], [], [])
    for slot_seconds, profit, perf, emergencies in rows:
        sweep.slot_seconds.append(slot_seconds)
        sweep.profit_increase.append(profit)
        sweep.perf_improvement.append(perf)
        sweep.emergencies.append(emergencies)
    return sweep


def render_slot_length_sweep(sweep: SlotLengthSweep) -> str:
    """Table of outcomes across slot lengths."""
    return format_rounded_series(
        "slot length [s]",
        sweep.slot_seconds,
        {
            "profit +%": ("percent", sweep.profit_increase),
            "perf x": ("ratio", sweep.perf_improvement),
            "emergencies/day": (2, sweep.emergencies),
        },
        title="Ablation: market slot length (paper: 1-5 minutes)",
    )
