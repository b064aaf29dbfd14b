"""Fig. 17: impact of spot-capacity under-prediction.

The operator can conservatively scale down its predicted spot capacity
to guard against power emergencies.  The paper multiplies the predicted
headroom by an under-prediction factor (15% under-prediction = x0.85)
and finds nearly no impact on the operator's profit or tenants'
performance — because the profit-maximising price usually leaves spot
capacity unsold anyway.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.reporting import format_rounded_series
from repro.config import DEFAULT_SEED
from repro.experiments.common import (
    DEFAULT_SLOTS,
    mean_perf_improvement,
    parallel_map,
    powercapped_baseline,
)
from repro.forecast.signals import CurrentDrawSignal
from repro.sim.engine import run_simulation
from repro.sim.scenario import testbed_scenario

__all__ = ["UnderPredictionSweep", "run_fig17", "render_fig17"]

_DEFAULT_FACTORS = (1.0, 0.95, 0.90, 0.85, 0.80, 0.75)


@dataclasses.dataclass
class UnderPredictionSweep:
    """Fig. 17's series.

    Attributes:
        under_prediction: Fraction under-predicted per point (0 = exact,
            0.15 = the paper's "15% under-prediction").
        profit_increase: Operator profit increase vs PowerCapped.
        perf_improvement: Mean tenant performance improvement.
    """

    under_prediction: list[float]
    profit_increase: list[float]
    perf_improvement: list[float]


def _fig17_cell(payload) -> tuple[float, float, float]:
    """One under-prediction-factor point (module-level: picklable)."""
    seed, slots, factor = payload
    baseline = powercapped_baseline(seed, slots)
    result = run_simulation(
        testbed_scenario(seed=seed),
        slots,
        signal=CurrentDrawSignal(under_prediction_factor=factor),
    )
    return (
        1.0 - factor,
        result.operator_profit_increase_vs(baseline),
        mean_perf_improvement(result, baseline),
    )


def run_fig17(
    seed: int = DEFAULT_SEED,
    slots: int = DEFAULT_SLOTS,
    factors=_DEFAULT_FACTORS,
    jobs: int = 1,
) -> UnderPredictionSweep:
    """Sweep the under-prediction factor (shared traces via the seed).

    ``jobs > 1`` fans the factor points out over worker processes; every
    run is deterministic in the seed, so results are identical to the
    serial path.
    """
    rows = parallel_map(
        _fig17_cell, [(seed, slots, f) for f in factors], jobs=jobs
    )
    sweep = UnderPredictionSweep([], [], [])
    for under, profit, perf in rows:
        sweep.under_prediction.append(under)
        sweep.profit_increase.append(profit)
        sweep.perf_improvement.append(perf)
    return sweep


def render_fig17(sweep: UnderPredictionSweep) -> str:
    """Paper-style text: profit and performance vs under-prediction."""
    xs = [round(100 * u, 0) for u in sweep.under_prediction]
    return format_rounded_series(
        "under-prediction [%]",
        xs,
        {
            "profit +%": ("percent", sweep.profit_increase),
            "perf x": ("ratio", sweep.perf_improvement),
        },
        title="Fig. 17: impact of spot-capacity under-prediction",
    )
