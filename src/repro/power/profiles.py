"""Power-performance profiling (the tenant-side groundwork of Fig. 8).

"Tenants routinely evaluate server power under different workloads prior
to service deployment" (paper Section III-B3).  A
:class:`PowerPerformanceProfile` is that evaluation in code: it samples a
latency or throughput model over a power grid at fixed workload
intensities, yielding exactly the curves of the paper's Fig. 8, which
tenants then feed into value curves and bids.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.power.latency import LatencyModel
from repro.power.throughput import ThroughputModel

__all__ = ["ProfileCurve", "PowerPerformanceProfile"]


@dataclasses.dataclass(frozen=True)
class ProfileCurve:
    """One profiled curve: performance versus power at a fixed intensity.

    Attributes:
        intensity: The workload intensity the curve was measured at
            (requests/s for latency profiles; backlog level for
            throughput profiles — throughput curves do not actually
            depend on it but carry it for labelling).
        power_w: Sampled power budgets, ascending.
        performance: Performance at each budget — milliseconds of tail
            latency for latency profiles (lower is better), units/s for
            throughput profiles (higher is better).
        metric: ``"latency_ms"`` or ``"throughput"``.
    """

    intensity: float
    power_w: np.ndarray
    performance: np.ndarray
    metric: str

    def performance_at(self, power_w: float) -> float:
        """Interpolated performance at an arbitrary budget."""
        return float(np.interp(power_w, self.power_w, self.performance))


class PowerPerformanceProfile:
    """A family of profiled curves for one rack's workload."""

    def __init__(self, curves: Sequence[ProfileCurve]) -> None:
        if not curves:
            raise ConfigurationError("profile needs at least one curve")
        metrics = {c.metric for c in curves}
        if len(metrics) != 1:
            raise ConfigurationError(f"mixed metrics in one profile: {metrics}")
        self.curves = tuple(sorted(curves, key=lambda c: c.intensity))
        self.metric = curves[0].metric

    @classmethod
    def profile_latency(
        cls,
        model: LatencyModel,
        arrival_rates_rps: Sequence[float],
        samples: int = 50,
    ) -> "PowerPerformanceProfile":
        """Profile tail latency over the rack's power range (Fig. 8 left).

        Args:
            model: The rack's latency model.
            arrival_rates_rps: Workload intensities to profile at.
            samples: Power-grid resolution per curve.
        """
        grid = np.linspace(
            model.power_model.idle_w, model.power_model.peak_w, samples
        )
        curves = [
            ProfileCurve(
                intensity=rate,
                power_w=grid,
                performance=model.latencies_ms(grid, rate),
                metric="latency_ms",
            )
            for rate in arrival_rates_rps
        ]
        return cls(curves)

    @classmethod
    def profile_throughput(
        cls,
        model: ThroughputModel,
        intensities: Sequence[float] = (1.0,),
        samples: int = 50,
    ) -> "PowerPerformanceProfile":
        """Profile processing rate over the power range (Fig. 8 right)."""
        grid = np.linspace(
            model.power_model.idle_w, model.power_model.peak_w, samples
        )
        curves = [
            ProfileCurve(
                intensity=level,
                power_w=grid,
                performance=model.rates_at(grid),
                metric="throughput",
            )
            for level in intensities
        ]
        return cls(curves)

    def curve_for(self, intensity: float) -> ProfileCurve:
        """The profiled curve closest to a requested intensity."""
        return min(self.curves, key=lambda c: abs(c.intensity - intensity))

    def is_monotone(self) -> bool:
        """Check the expected monotonicity in power for every curve.

        Latency must be non-increasing and throughput non-decreasing in
        the power budget — the shape property Fig. 8 exhibits and the
        bidding guideline relies on.
        """
        for curve in self.curves:
            diffs = np.diff(curve.performance)
            if self.metric == "latency_ms":
                if np.any(diffs > 1e-9):
                    return False
            else:
                if np.any(diffs < -1e-9):
                    return False
        return True
