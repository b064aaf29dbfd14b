"""Spot-capacity value curves: performance gain in dollars (Fig. 9).

A tenant values spot capacity by the reduction in its performance cost:
``V(d) = c(no spot) - c(with d watts of spot)`` (paper Section IV-C).
This module builds those value curves from the power/performance models
and the cost models, producing the concave, saturating dollar-per-hour
curves of Fig. 9 — the raw material for both the bidding strategies and
the FullBid/MaxPerf comparisons.

A curve is tabulated in one pass over its whole grid through the
models' array forms (:meth:`LatencyModel.latencies_ms`,
:meth:`ThroughputModel.rates_at`,
:meth:`SprintingCostModel.cost_rates_per_hour`), which repeat the scalar
formulas' float operations in the same order, so every gain equals the
point-by-point tabulation bit for bit (``tests/oracle.py`` keeps that
one as the reference).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.economics.cost import OpportunisticCostModel, SprintingCostModel
from repro.errors import ConfigurationError
from repro.power.latency import LatencyModel
from repro.power.throughput import ThroughputModel

__all__ = [
    "SpotValueCurve",
    "sprinting_value_curve",
    "opportunistic_value_curve",
]


@dataclasses.dataclass(frozen=True)
class SpotValueCurve:
    """A tenant's dollar-per-hour gain from spot capacity on one rack.

    Attributes:
        base_power_w: The rack's budget without spot capacity (its
            guaranteed capacity, or its current capped operating point).
        max_spot_w: Largest meaningful spot allocation (rack headroom or
            the point where the workload saturates).
        _grid_w: Tabulation grid of spot quantities (0 .. max_spot_w).
        _gains: Gain in $/h at each grid point; non-decreasing and
            concave by construction.
    """

    base_power_w: float
    max_spot_w: float
    _grid_w: np.ndarray
    _gains: np.ndarray

    def gain_per_hour(self, spot_w: float) -> float:
        """Dollar-per-hour gain from ``spot_w`` watts of spot capacity."""
        if spot_w <= 0:
            return 0.0
        return float(np.interp(spot_w, self._grid_w, self._gains))

    def marginal_gain_per_hour(self, spot_w: float, delta_w: float = 1.0) -> float:
        """Finite-difference marginal gain in $/h per watt at ``spot_w``."""
        if delta_w <= 0:
            raise ConfigurationError("delta_w must be positive")
        lo = self.gain_per_hour(spot_w)
        hi = self.gain_per_hour(spot_w + delta_w)
        return (hi - lo) / delta_w

    def optimal_demand_w(self, price_per_kw_hour: float) -> float:
        """The rational demand at a price: largest quantity whose marginal
        value still covers the price (the "Reference" curve of Fig. 3a).
        """
        price_per_watt_hour = price_per_kw_hour / 1000.0
        # Net benefit at each grid point; pick the argmax (concave gain
        # makes this the inverse-marginal solution up to grid resolution).
        net = self._gains - price_per_watt_hour * self._grid_w
        best = int(np.argmax(net))
        if net[best] <= 0:
            return 0.0
        return float(self._grid_w[best])

    @classmethod
    def from_gain_samples(
        cls, base_power_w: float, grid_w: np.ndarray, gains: np.ndarray
    ) -> "SpotValueCurve":
        """Build a curve from raw gain samples, enforcing shape.

        Gains are clipped to be non-negative and non-decreasing, and then
        concavified (running minimum of marginal increments) so downstream
        demand curves are well-behaved even if the underlying performance
        model has numeric wobble.
        """
        grid = np.asarray(grid_w, dtype=float)
        raw = np.asarray(gains, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigurationError("grid_w needs at least two points")
        if grid[0] != 0.0:
            raise ConfigurationError("grid_w must start at 0")
        if np.any(np.diff(grid) <= 0):
            raise ConfigurationError("grid_w must be strictly increasing")
        if grid.shape != raw.shape:
            raise ConfigurationError("grid_w and gains must align")
        monotone = np.maximum.accumulate(np.maximum(raw, 0.0))
        increments = np.diff(monotone) / np.diff(grid)
        concave_inc = np.minimum.accumulate(increments)
        concave = np.concatenate([[monotone[0]], monotone[0] + np.cumsum(concave_inc * np.diff(grid))])
        return cls(
            base_power_w=base_power_w,
            max_spot_w=float(grid[-1]),
            _grid_w=grid,
            _gains=concave,
        )


def sprinting_value_curve(
    latency_model: LatencyModel,
    cost_model: SprintingCostModel,
    base_power_w: float,
    arrival_rps: float,
    max_spot_w: float,
    grid_points: int = 100,
) -> SpotValueCurve:
    """Value curve for a sprinting (interactive) tenant's rack.

    The gain is the reduction of the latency-cost accrual rate when the
    rack budget rises from ``base_power_w`` to ``base_power_w + d``:
    dominated by avoided quadratic SLO penalties when the base budget
    forces latency above the SLO.

    Args:
        latency_model: The rack's tail-latency model.
        cost_model: The tenant's SLO cost model.
        base_power_w: Budget without spot capacity.
        arrival_rps: Anticipated request rate for the slot being bid on.
        max_spot_w: Rack spot headroom ``P_r^R``.
        grid_points: Tabulation resolution.
    """
    if max_spot_w <= 0:
        raise ConfigurationError("max_spot_w must be positive")
    grid = np.linspace(0.0, max_spot_w, grid_points + 1)
    # grid[0] is 0, so costs[0] is the cost at the base budget itself.
    costs = cost_model.cost_rates_per_hour(
        latency_model.latencies_ms(base_power_w + grid, arrival_rps), arrival_rps
    )
    return SpotValueCurve.from_gain_samples(base_power_w, grid, costs[0] - costs)


def opportunistic_value_curve(
    throughput_model: ThroughputModel,
    cost_model: OpportunisticCostModel,
    base_power_w: float,
    backlog_units: float,
    max_spot_w: float,
    grid_points: int = 100,
) -> SpotValueCurve:
    """Value curve for an opportunistic (batch) tenant's rack.

    The gain is the completion-cost saving on the current backlog,
    normalised to a per-hour rate over the backlog's base completion
    time: ``V(d) = rho * (W/R0 - W/R(d)) / (W/R0 / 3600)``, which reduces
    to ``rho * 3600 * (1 - R0/R(d))`` — concave and saturating in ``d``.

    Args:
        throughput_model: The rack's processing-rate model.
        cost_model: The tenant's linear completion-time cost model.
        base_power_w: Budget without spot capacity.
        backlog_units: Outstanding work (only its positivity matters for
            the normalised gain; retained for API symmetry/documentation).
        max_spot_w: Rack spot headroom ``P_r^R``.
        grid_points: Tabulation resolution.
    """
    if max_spot_w <= 0:
        raise ConfigurationError("max_spot_w must be positive")
    if backlog_units < 0:
        raise ConfigurationError("backlog_units must be >= 0")
    grid = np.linspace(0.0, max_spot_w, grid_points + 1)
    base_rate = throughput_model.rate_at(base_power_w)
    if backlog_units == 0 or base_rate <= 0:
        # No backlog (nothing to speed up) or base budget below idle (the
        # tenant needs guaranteed capacity, not spot, to make progress).
        gains = np.zeros_like(grid)
        return SpotValueCurve.from_gain_samples(base_power_w, grid, gains)
    rates = throughput_model.rates_at(base_power_w + grid)
    gains = cost_model.rho * 3600.0 * (1.0 - base_rate / np.maximum(rates, 1e-12))
    return SpotValueCurve.from_gain_samples(base_power_w, grid, gains)
