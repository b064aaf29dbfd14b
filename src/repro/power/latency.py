"""Tail-latency model for interactive (sprinting) workloads.

The paper's Fig. 8 profiles p99/p90 latency against the rack power
budget at several workload intensities: latency falls steeply as power
(hence CPU frequency, hence service rate) rises, and rises with load.
We reproduce that shape with a DVFS frequency model plus an M/M/1-style
tail approximation:

* frequency from power:
  ``f = ((p - idle) / (peak - idle)) ** (1 / alpha)``, the inverse of the
  classic ``p ~ idle + span * f**alpha`` DVFS power law;
* service rate ``mu(p) = mu_max * f``;
* tail latency ``d = d_min / f + (tail_const / mu) * rho / (1 - rho)``
  with ``rho = lambda / mu``, saturating at ``saturated_latency_ms`` when
  the arrival rate meets or exceeds the service rate.

This is a *behavioural* substitute for the paper's CloudSuite testbed
runs: monotone decreasing and convex in power, monotone increasing in
load, with a saturation wall — the properties the market mechanism and
the SLO-driven bidding actually exercise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.power.server import ServerPowerModel

__all__ = ["LatencyModel"]


@dataclasses.dataclass(frozen=True)
class LatencyModel:
    """Tail latency as a function of power budget and request rate.

    Attributes:
        power_model: The rack's utilization/power model (supplies the
            idle/peak range the frequency model maps over).
        mu_max_rps: Service rate at full power, requests/second.
        d_min_ms: Deterministic floor of the tail latency at full
            frequency and vanishing load.
        alpha: DVFS power-law exponent (2-3 for real silicon).
        tail_const_ms_rps: Queueing-term scale: ``tail_const / mu`` is in
            milliseconds when ``mu`` is in requests/second.  Calibrates
            the percentile being modelled (p99 vs p90).
        min_frequency: DVFS floor as a fraction of full frequency.
        saturated_latency_ms: Latency reported when the rack is
            overloaded (``rho >= 1``); also the model's upper clip.
    """

    power_model: ServerPowerModel
    mu_max_rps: float
    d_min_ms: float = 20.0
    alpha: float = 2.0
    tail_const_ms_rps: float = 4000.0
    min_frequency: float = 0.2
    saturated_latency_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.mu_max_rps <= 0:
            raise ConfigurationError("mu_max_rps must be positive")
        if self.d_min_ms <= 0:
            raise ConfigurationError("d_min_ms must be positive")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if not 0 < self.min_frequency <= 1:
            raise ConfigurationError("min_frequency must be in (0, 1]")
        if self.saturated_latency_ms <= self.d_min_ms:
            raise ConfigurationError(
                "saturated_latency_ms must exceed d_min_ms"
            )

    def frequency(self, power_w: float) -> float:
        """Effective CPU frequency fraction sustainable at a power budget."""
        span = self.power_model.dynamic_range_w
        usable = min(max(power_w - self.power_model.idle_w, 0.0), span)
        f = (usable / span) ** (1.0 / self.alpha)
        return max(self.min_frequency, min(1.0, f))

    def frequencies(self, power_w: np.ndarray) -> np.ndarray:
        """:meth:`frequency` at every budget of an array, bit for bit."""
        span = self.power_model.dynamic_range_w
        # np.where, not np.minimum/np.maximum: like min() and max(), it
        # keeps the first operand on a tie (-0.0 vs 0.0) and on NaN.
        above_idle = power_w - self.power_model.idle_w
        floored = np.where(0.0 > above_idle, 0.0, above_idle)
        usable = np.where(span < floored, span, floored)
        exponent = 1.0 / self.alpha
        # Python's float pow: np.power rounds differently in the last ulp.
        f = np.array([x ** exponent for x in (usable / span).tolist()])
        capped = np.where(f < 1.0, f, 1.0)
        return np.where(capped > self.min_frequency, capped, self.min_frequency)

    def latency_ms(self, power_w: float, arrival_rps: float) -> float:
        """Tail latency at a power budget under a given arrival rate.

        Args:
            power_w: Enforced power budget for the rack.
            arrival_rps: Offered request rate; must be >= 0.
        """
        if arrival_rps < 0:
            raise ConfigurationError(f"arrival_rps must be >= 0, got {arrival_rps}")
        f = self.frequency(power_w)
        mu = self.mu_max_rps * f
        if arrival_rps >= mu:
            return self.saturated_latency_ms
        rho = arrival_rps / mu
        latency = self.d_min_ms / f + (self.tail_const_ms_rps / mu) * rho / (1 - rho)
        return min(latency, self.saturated_latency_ms)

    def latencies_ms(self, power_w: np.ndarray, arrival_rps: float) -> np.ndarray:
        """:meth:`latency_ms` at every budget of an array, bit for bit."""
        if arrival_rps < 0:
            raise ConfigurationError(f"arrival_rps must be >= 0, got {arrival_rps}")
        f = self.frequencies(power_w)
        mu = self.mu_max_rps * f
        saturated = arrival_rps >= mu
        # Saturated budgets take rho = 0 so that 1 - rho never divides by
        # zero; their latency is replaced below.
        rho = np.where(saturated, 0.0, arrival_rps / mu)
        latency = self.d_min_ms / f + (self.tail_const_ms_rps / mu) * rho / (1 - rho)
        cap = self.saturated_latency_ms
        return np.where(saturated | (cap < latency), cap, latency)

    def power_for_latency(
        self, target_ms: float, arrival_rps: float, tolerance_w: float = 0.01
    ) -> float:
        """Smallest power budget meeting a latency target (bisection).

        Returns the rack's peak power when the target is unreachable even
        at full power (the caller then knows spot capacity alone cannot
        restore the SLO).
        """
        if target_ms <= 0:
            raise ConfigurationError("target_ms must be positive")
        peak = self.power_model.peak_w
        if self.latency_ms(peak, arrival_rps) > target_ms:
            return peak
        lo, hi = self.power_model.idle_w, peak
        while hi - lo > tolerance_w:
            mid = (lo + hi) / 2
            if self.latency_ms(mid, arrival_rps) <= target_ms:
                hi = mid
            else:
                lo = mid
        return hi
