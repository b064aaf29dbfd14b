"""Tenant performance-cost models (paper Section IV-C).

These models convert a performance measurement into an equivalent
monetary cost, which tenants use to value spot capacity.  They are the
paper's models verbatim:

* **Sprinting** (interactive): ``c = a*d`` below the SLO threshold and
  ``c = a*d + b*(d - d_th)**2`` above it — linear cost in latency, plus a
  quadratic SLO-violation penalty.
* **Opportunistic** (batch): ``c = rho * T_job`` — linear in job
  completion time (equivalently, inversely proportional to throughput).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SLO_LATENCY_MS
from repro.errors import ConfigurationError

__all__ = ["SprintingCostModel", "OpportunisticCostModel"]


@dataclasses.dataclass(frozen=True)
class SprintingCostModel:
    """Latency cost with a quadratic SLO-violation penalty.

    Attributes:
        a: Linear cost coefficient, dollars per job per millisecond.
        b: Quadratic penalty coefficient, dollars per job per ms^2 above
            the SLO.
        slo_ms: Service-level objective (paper: 100 ms for all sprinting
            tenants).
    """

    a: float
    b: float
    slo_ms: float = SLO_LATENCY_MS

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ConfigurationError("cost coefficients must be >= 0")
        if self.slo_ms <= 0:
            raise ConfigurationError("slo_ms must be positive")

    def cost_per_job(self, latency_ms: float) -> float:
        """Equivalent monetary cost of serving one request at a latency."""
        if latency_ms < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency_ms}")
        cost = self.a * latency_ms
        if latency_ms > self.slo_ms:
            cost += self.b * (latency_ms - self.slo_ms) ** 2
        return cost

    def cost_rate_per_hour(self, latency_ms: float, request_rate_rps: float) -> float:
        """Cost accrual rate in $/h at a latency and request rate."""
        if request_rate_rps < 0:
            raise ConfigurationError("request rate must be >= 0")
        return self.cost_per_job(latency_ms) * request_rate_rps * 3600.0

    def cost_rates_per_hour(
        self, latency_ms: np.ndarray, request_rate_rps: float
    ) -> np.ndarray:
        """:meth:`cost_rate_per_hour` at every latency of an array, bit for bit."""
        if request_rate_rps < 0:
            raise ConfigurationError("request rate must be >= 0")
        if np.any(latency_ms < 0):
            raise ConfigurationError(
                f"latency must be >= 0, got {float(latency_ms.min())}"
            )
        cost = self.a * latency_ms
        over = latency_ms > self.slo_ms
        # Python's float pow: np.power (and even x * x) rounds
        # differently from x ** 2 in the last ulp.
        excess = (latency_ms[over] - self.slo_ms).tolist()
        cost[over] += self.b * np.array([x ** 2 for x in excess])
        return cost * request_rate_rps * 3600.0

    def violates_slo(self, latency_ms: float) -> bool:
        """Whether a latency breaches the SLO."""
        return latency_ms > self.slo_ms

    def scaled(self, factor: float) -> "SprintingCostModel":
        """A copy with cost coefficients scaled (tenant-diversity jitter)."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return SprintingCostModel(self.a * factor, self.b * factor, self.slo_ms)


@dataclasses.dataclass(frozen=True)
class OpportunisticCostModel:
    """Linear completion-time cost for delay-tolerant batch work.

    Attributes:
        rho: Scaling parameter, dollars per second of job completion
            time (per unit of work in flight).
    """

    rho: float

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ConfigurationError("rho must be >= 0")

    def cost_per_job(self, completion_time_s: float) -> float:
        """Cost of one job finishing in ``completion_time_s`` seconds."""
        if completion_time_s < 0:
            raise ConfigurationError("completion time must be >= 0")
        return self.rho * completion_time_s

    def backlog_cost(self, work_units: float, rate_units_per_s: float) -> float:
        """Cost of clearing a fixed backlog at a fixed processing rate.

        This is how the linear model values speed: a backlog of
        ``work_units`` at rate ``R`` completes in ``work / R`` seconds and
        costs ``rho * work / R``.  Spot capacity raises ``R`` and the
        saving is the difference of this cost at the two rates.
        """
        if work_units < 0:
            raise ConfigurationError("work_units must be >= 0")
        if work_units == 0:
            return 0.0
        if rate_units_per_s <= 0:
            return float("inf")
        return self.cost_per_job(work_units / rate_units_per_s)

    def scaled(self, factor: float) -> "OpportunisticCostModel":
        """A copy with ``rho`` scaled (tenant-diversity jitter)."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return OpportunisticCostModel(self.rho * factor)
