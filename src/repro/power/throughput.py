"""Throughput model for batch (opportunistic) workloads.

Hadoop WordCount/TeraSort and graph analytics in the paper's Fig. 8 show
processing rate growing near-linearly with the power budget above idle —
more watts buy proportionally more active cores/frequency for
embarrassingly parallel work.  :class:`ThroughputModel` captures exactly
that affine relation, with an efficiency exponent available for
sub-linear scaling (stragglers, shuffle overheads).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.power.server import ServerPowerModel

__all__ = ["ThroughputModel"]


@dataclasses.dataclass(frozen=True)
class ThroughputModel:
    """Processing rate as a function of the rack power budget.

    Attributes:
        power_model: The rack's utilization/power model.
        rate_max: Processing rate at full power, in workload units per
            second (MB/s for WordCount/TeraSort, nodes/s for graph
            analytics — the paper's metrics).
        scaling_exponent: ``rate = rate_max * x ** scaling_exponent``
            where ``x`` is the fraction of the dynamic power range in
            use.  1.0 (default) is the paper's near-linear regime; values
            below 1 model diminishing returns.
    """

    power_model: ServerPowerModel
    rate_max: float
    scaling_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_max <= 0:
            raise ConfigurationError("rate_max must be positive")
        if not 0 < self.scaling_exponent <= 1.5:
            raise ConfigurationError("scaling_exponent must be in (0, 1.5]")

    def rate_at(self, power_w: float) -> float:
        """Processing rate sustainable within a power budget."""
        span = self.power_model.dynamic_range_w
        usable = min(max(power_w - self.power_model.idle_w, 0.0), span)
        return self.rate_max * (usable / span) ** self.scaling_exponent

    def rates_at(self, power_w: np.ndarray) -> np.ndarray:
        """:meth:`rate_at` at every budget of an array, bit for bit."""
        span = self.power_model.dynamic_range_w
        # np.where keeps the first operand on ties and NaN, as max() and
        # min() do (np.maximum would turn -0.0 into 0.0).
        above_idle = power_w - self.power_model.idle_w
        floored = np.where(0.0 > above_idle, 0.0, above_idle)
        usable = np.where(span < floored, span, floored)
        exponent = self.scaling_exponent
        # Python's float pow: np.power rounds differently in the last ulp.
        return self.rate_max * np.array([x ** exponent for x in (usable / span).tolist()])

    def completion_time_s(self, work_units: float, power_w: float) -> float:
        """Time to finish ``work_units`` at a fixed power budget.

        Returns ``inf`` when the budget is at or below idle (no useful
        work can be done).
        """
        if work_units < 0:
            raise ConfigurationError(f"work_units must be >= 0, got {work_units}")
        if work_units == 0:
            return 0.0
        rate = self.rate_at(power_w)
        if rate <= 0:
            return float("inf")
        return work_units / rate

    def power_for_rate(self, target_rate: float) -> float:
        """Smallest power budget sustaining a target processing rate.

        Targets above ``rate_max`` return the rack's peak power.
        """
        if target_rate < 0:
            raise ConfigurationError(f"target_rate must be >= 0, got {target_rate}")
        if target_rate >= self.rate_max:
            return self.power_model.peak_w
        x = (target_rate / self.rate_max) ** (1.0 / self.scaling_exponent)
        return self.power_model.idle_w + x * self.power_model.dynamic_range_w
