"""Per-slot metrics collection for simulation runs.

The collector is append-only during a run and finalises into the numpy
arrays that :class:`repro.sim.results.SimulationResult` exposes.  It
records exactly the quantities the paper's evaluation plots: market
price and grants (Fig. 10), per-rack performance (Fig. 11), payments and
energy (Fig. 12), PDU/UPS power (Fig. 13), and forecast spot capacity
(Figs. 14-15).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.workloads.base import SlotPerformance

__all__ = ["MetricsCollector"]

#: The per-slot series, facility-wide and per id: checkpoints append them
#: to a history segment, not the pickle (:mod:`repro.recovery.checkpoint`).
_SERIES = (
    "_price", "_spot_granted", "_spot_revenue", "_forecast_ups",
    "_forecast_pdu_total", "_ups_power",
)
_SERIES_BY_ID = (
    "_pdu_power", "_pdu_price", "_rack_power", "_rack_perf", "_rack_wanted",
    "_rack_granted", "_rack_slo_violation", "_tenant_payment",
)


class MetricsCollector:
    """Accumulates one simulation run's telemetry."""

    def __init__(
        self,
        rack_ids: list[str],
        pdu_ids: list[str],
        tenant_ids: list[str],
    ) -> None:
        if not rack_ids or not pdu_ids or not tenant_ids:
            raise SimulationError("collector needs racks, PDUs and tenants")
        self.rack_ids = list(rack_ids)
        self.pdu_ids = list(pdu_ids)
        self.tenant_ids = list(tenant_ids)
        self._price: list[float] = []
        self._spot_granted: list[float] = []
        self._spot_revenue: list[float] = []
        self._forecast_ups: list[float] = []
        self._forecast_pdu_total: list[float] = []
        self._ups_power: list[float] = []
        self._pdu_power: dict[str, list[float]] = {p: [] for p in pdu_ids}
        self._pdu_price: dict[str, list[float]] = {p: [] for p in pdu_ids}
        self._rack_power: dict[str, list[float]] = {r: [] for r in rack_ids}
        self._rack_perf: dict[str, list[float]] = {r: [] for r in rack_ids}
        self._rack_wanted: dict[str, list[bool]] = {r: [] for r in rack_ids}
        self._rack_granted: dict[str, list[float]] = {r: [] for r in rack_ids}
        self._rack_slo_violation: dict[str, list[bool]] = {r: [] for r in rack_ids}
        self._tenant_payment: dict[str, list[float]] = {t: [] for t in tenant_ids}
        self._slots = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _SERIES + _SERIES_BY_ID:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["rack_ids"], state["pdu_ids"], state["tenant_ids"])
        self.__dict__.update(state)

    @property
    def slots(self) -> int:
        """Slots recorded so far."""
        return self._slots

    def _all_series(self) -> list:
        by_id = (getattr(self, name).values() for name in _SERIES_BY_ID)
        return [getattr(self, name) for name in _SERIES] + [s for v in by_id for s in v]

    def history_since(self, start: int) -> list:
        """One row per slot from the ``start``-th on: every series' entry,
        in id order."""
        return list(zip(*(series[start:] for series in self._all_series())))

    def extend_history(self, rows: list) -> None:
        """Append :meth:`history_since` rows to the series."""
        for series, column in zip(self._all_series(), zip(*rows)):
            series.extend(column)

    def record_slot(
        self,
        price: float,
        grants_w: Mapping[str, float],
        spot_revenue: float,
        forecast_ups_w: float,
        forecast_pdu_total_w: float,
        ups_power_w: float,
        pdu_power_w: Mapping[str, float],
        rack_outcomes: Mapping[str, SlotPerformance],
        payments: Mapping[str, float],
        wanted_rack_ids: frozenset[str] | set[str] = frozenset(),
        pdu_prices: Mapping[str, float] | None = None,
    ) -> None:
        """Record everything observable about one completed slot.

        ``wanted_rack_ids`` is the participation signal — racks whose
        tenants requested spot capacity this slot, *independent of what
        they were granted* (a rack that received everything it asked for
        still "wanted" spot capacity; deriving the flag from the final
        budget would bias performance averages toward under-granted
        slots).
        """
        missing = set(self.rack_ids) - set(rack_outcomes)
        if missing:
            raise SimulationError(
                f"missing outcomes for racks {sorted(missing)[:5]}"
            )
        self._price.append(price)
        self._spot_granted.append(sum(grants_w.values()))
        self._spot_revenue.append(spot_revenue)
        self._forecast_ups.append(forecast_ups_w)
        self._forecast_pdu_total.append(forecast_pdu_total_w)
        self._ups_power.append(ups_power_w)
        pdu_prices = pdu_prices or {}
        for pdu_id in self.pdu_ids:
            self._pdu_power[pdu_id].append(pdu_power_w.get(pdu_id, 0.0))
            # Under locational pricing each PDU has its own price; under
            # a facility-wide price every PDU shares the headline price.
            self._pdu_price[pdu_id].append(pdu_prices.get(pdu_id, price))
        for rack_id in self.rack_ids:
            outcome = rack_outcomes[rack_id]
            self._rack_power[rack_id].append(outcome.power_w)
            self._rack_perf[rack_id].append(outcome.value)
            self._rack_wanted[rack_id].append(rack_id in wanted_rack_ids)
            self._rack_granted[rack_id].append(grants_w.get(rack_id, 0.0))
            self._rack_slo_violation[rack_id].append(outcome.slo_violated)
        for tenant_id in self.tenant_ids:
            self._tenant_payment[tenant_id].append(payments.get(tenant_id, 0.0))
        self._slots += 1

    # ------------------------------------------------------------------
    # Finalised arrays
    # ------------------------------------------------------------------

    def price_array(self) -> np.ndarray:
        """Clearing price per slot, $/kW/h."""
        return np.asarray(self._price)

    def spot_granted_array(self) -> np.ndarray:
        """Total spot capacity granted per slot, watts."""
        return np.asarray(self._spot_granted)

    def spot_revenue_array(self) -> np.ndarray:
        """Spot revenue per slot, dollars."""
        return np.asarray(self._spot_revenue)

    def forecast_ups_array(self) -> np.ndarray:
        """Forecast UPS spot capacity per slot, watts."""
        return np.asarray(self._forecast_ups)

    def forecast_pdu_total_array(self) -> np.ndarray:
        """Summed forecast PDU spot capacity per slot, watts."""
        return np.asarray(self._forecast_pdu_total)

    def ups_power_array(self) -> np.ndarray:
        """Facility draw per slot, watts."""
        return np.asarray(self._ups_power)

    def pdu_power_array(self, pdu_id: str) -> np.ndarray:
        """One PDU's draw per slot, watts."""
        return np.asarray(self._pdu_power[pdu_id])

    def pdu_price_array(self, pdu_id: str) -> np.ndarray:
        """One PDU's clearing price per slot, $/kW/h."""
        return np.asarray(self._pdu_price[pdu_id])

    def rack_power_array(self, rack_id: str) -> np.ndarray:
        """One rack's draw per slot, watts."""
        return np.asarray(self._rack_power[rack_id])

    def rack_perf_array(self, rack_id: str) -> np.ndarray:
        """One rack's performance metric per slot."""
        return np.asarray(self._rack_perf[rack_id])

    def rack_wanted_array(self, rack_id: str) -> np.ndarray:
        """Whether the rack wanted spot capacity, per slot."""
        return np.asarray(self._rack_wanted[rack_id], dtype=bool)

    def rack_granted_array(self, rack_id: str) -> np.ndarray:
        """Spot watts granted to the rack per slot."""
        return np.asarray(self._rack_granted[rack_id])

    def rack_slo_violation_array(self, rack_id: str) -> np.ndarray:
        """SLO-violation flags per slot (interactive racks only)."""
        return np.asarray(self._rack_slo_violation[rack_id], dtype=bool)

    def tenant_payment_array(self, tenant_id: str) -> np.ndarray:
        """Spot payments per slot for one tenant, dollars."""
        return np.asarray(self._tenant_payment[tenant_id])
