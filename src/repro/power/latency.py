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

The array forms (:class:`LatencyColumns`) evaluate the model on many
budgets, rates and models at once and equal the scalar methods bit for
bit; :func:`powers_for_latency` runs the minimum-power bisection on
every element of a batch in lockstep.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.power.server import ServerPowerModel

__all__ = ["LatencyModel", "LatencyColumns", "powers_for_latency"]

#: Elements per pass of :func:`powers_for_latency`, which bounds its
#: working arrays whatever the batch (a day of one-minute slots at 10^4
#: racks is 4.3 M elements).
CHUNK_ELEMENTS = 1 << 16


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

    @property
    def columns(self) -> "LatencyColumns":
        """This model's parameters as scalar :class:`LatencyColumns`."""
        power = self.power_model
        return LatencyColumns(
            power.idle_w,
            power.peak_w,
            power.dynamic_range_w,
            1.0 / self.alpha,
            self.mu_max_rps,
            self.d_min_ms,
            self.tail_const_ms_rps,
            self.min_frequency,
            self.saturated_latency_ms,
        )

    def frequency(self, power_w: float) -> float:
        """Effective CPU frequency fraction sustainable at a power budget."""
        span = self.power_model.dynamic_range_w
        usable = min(max(power_w - self.power_model.idle_w, 0.0), span)
        f = (usable / span) ** (1.0 / self.alpha)
        return max(self.min_frequency, min(1.0, f))

    def frequencies(self, power_w: np.ndarray) -> np.ndarray:
        """:meth:`frequency` at every budget of an array, bit for bit."""
        return self.columns.frequencies(power_w)

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
        return self.columns.latencies_ms(power_w, arrival_rps)

    def power_for_latency(
        self, target_ms: float, arrival_rps: float, tolerance_w: float = 0.01
    ) -> float:
        """Smallest power budget meeting a latency target (bisection).

        Returns the rack's peak power when the target is unreachable even
        at full power (the caller then knows spot capacity alone cannot
        restore the SLO).  One element of :func:`powers_for_latency`.
        """
        return float(
            powers_for_latency(
                LatencyColumns.of([self]),
                np.array([target_ms], dtype=float),
                np.zeros(1, dtype=np.intp),
                np.array([arrival_rps], dtype=float),
                tolerance_w,
            )[0]
        )


class LatencyColumns(typing.NamedTuple):
    """A :class:`LatencyModel`'s parameters, for the array forms.

    Each field is a Python float, which every element shares, or an
    array with one entry per element (:meth:`of` gives one per model,
    :meth:`take` picks rows).  ``span_w`` and ``exponent`` are ``peak_w
    - idle_w`` and ``1 / alpha``, computed as the scalar methods compute
    them.
    """

    idle_w: typing.Any
    peak_w: typing.Any
    span_w: typing.Any
    exponent: typing.Any
    mu_max_rps: typing.Any
    d_min_ms: typing.Any
    tail_const_ms_rps: typing.Any
    min_frequency: typing.Any
    saturated_latency_ms: typing.Any

    @classmethod
    def of(cls, models: Sequence[LatencyModel]) -> "LatencyColumns":
        """One row per model, in order."""
        columns = np.array([list(model.columns) for model in models], dtype=float)
        return cls(*columns.reshape(len(models), len(cls._fields)).T.copy())

    def take(self, rows: np.ndarray) -> "LatencyColumns":
        """The rows at ``rows``, in that order."""
        return LatencyColumns(*(column[rows] for column in self))

    def frequencies(self, power_w: np.ndarray) -> np.ndarray:
        """:meth:`LatencyModel.frequency` per element, bit for bit."""
        # np.where, not np.minimum/np.maximum: like min() and max(), it
        # keeps the first operand on a tie (-0.0 vs 0.0) and on NaN.
        above_idle = power_w - self.idle_w
        floored = np.where(0.0 > above_idle, 0.0, above_idle)
        usable = np.where(self.span_w < floored, self.span_w, floored)
        ratio = usable / self.span_w
        # Python's float pow: np.power rounds differently in the last ulp.
        exponents = np.full(ratio.shape, self.exponent).tolist()
        f = np.fromiter(map(pow, ratio.tolist(), exponents), float, ratio.size)
        capped = np.where(f < 1.0, f, 1.0)
        return np.where(capped > self.min_frequency, capped, self.min_frequency)

    def latencies_ms(self, power_w: np.ndarray, arrival_rps) -> np.ndarray:
        """:meth:`LatencyModel.latency_ms` per element, bit for bit.

        The rates are not checked: callers reject negative ones first.
        """
        f = self.frequencies(power_w)
        mu = self.mu_max_rps * f
        saturated = arrival_rps >= mu
        # Saturated budgets take rho = 0 so that 1 - rho never divides by
        # zero; their latency is replaced below.
        rho = np.where(saturated, 0.0, arrival_rps / mu)
        latency = self.d_min_ms / f + (self.tail_const_ms_rps / mu) * rho / (1 - rho)
        cap = self.saturated_latency_ms
        return np.where(saturated | (cap < latency), cap, latency)


def powers_for_latency(
    models: LatencyColumns,
    target_ms: np.ndarray,
    rows: np.ndarray,
    arrival_rps: np.ndarray,
    tolerance_w: float = 0.01,
) -> np.ndarray:
    """Smallest power budget meeting each element's latency target.

    Element ``i`` asks for model row ``rows[i]`` of ``models`` to meet
    ``target_ms[rows[i]]`` under ``arrival_rps[i]``.  Every element runs
    the scalar bisection on its own (``tests/oracle.py``
    ``power_for_latency``): the peak exit, then halving ``[idle, peak]``
    while its own ``hi - lo`` exceeds ``tolerance_w``, each step taking
    ``hi`` where the midpoint meets the target.  So each result equals
    the scalar one bit for bit.  Elements go through in chunks of
    :data:`CHUNK_ELEMENTS`.

    Raises:
        ConfigurationError: The first element, in order, whose target is
            not positive or whose rate is negative, as the scalar
            bisection would raise on it.
    """
    target_ms = np.asarray(target_ms, dtype=float)
    arrival_rps = np.asarray(arrival_rps, dtype=float)
    rows = np.asarray(rows, dtype=np.intp)
    bad = np.flatnonzero((target_ms <= 0)[rows] | (arrival_rps < 0))
    if bad.size:
        first = bad[0]
        if target_ms[rows[first]] <= 0:
            raise ConfigurationError("target_ms must be positive")
        raise ConfigurationError(
            f"arrival_rps must be >= 0, got {float(arrival_rps[first])}"
        )
    powers = np.empty(arrival_rps.size)
    for start in range(0, powers.size, CHUNK_ELEMENTS):
        chunk = slice(start, start + CHUNK_ELEMENTS)
        part = rows[chunk]
        powers[chunk] = _bisect(
            models.take(part), target_ms[part], arrival_rps[chunk], tolerance_w
        )
    return powers


def _bisect(
    models: LatencyColumns,
    target_ms: np.ndarray,
    arrival_rps: np.ndarray,
    tolerance_w: float,
) -> np.ndarray:
    """One chunk of :func:`powers_for_latency`, one model row per element."""
    powers = models.peak_w.copy()
    # Unreachable even at peak (NaN compares false): the result is peak.
    live = np.flatnonzero(~(models.latencies_ms(models.peak_w, arrival_rps) > target_ms))
    models, target_ms, arrival_rps = models.take(live), target_ms[live], arrival_rps[live]
    lo, hi = models.idle_w, models.peak_w
    while True:
        # Each element stops on its own test.
        going = hi - lo > tolerance_w
        if not going.all():
            powers[live[~going]] = hi[~going]
            live, lo, hi = live[going], lo[going], hi[going]
            models, target_ms, arrival_rps = (
                models.take(going), target_ms[going], arrival_rps[going]
            )
        if not live.size:
            return powers
        mid = (lo + hi) / 2
        meets = models.latencies_ms(mid, arrival_rps) <= target_ms
        hi = np.where(meets, mid, hi)
        lo = np.where(meets, lo, mid)
