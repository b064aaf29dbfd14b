"""Rack/PDU/UPS power monitoring with bounded history.

The operator "continuously monitors power usage at rack levels" (paper
Algorithm 1, line 1).  :class:`PowerMonitor` records one sample per rack
per slot and derives the PDU- and UPS-level series the spot-capacity
predictor and the evaluation figures need — notably the slot-to-slot
PDU power-variation statistics of Fig. 7(a).

Under meter-fault injection (:mod:`repro.resilience.faults`) the monitor
keeps two views: the *metered* series — what the operator's billing
meters reported, which is what the spot-capacity predictor and the
energy accounting consume — and the *true* series, the physical draws.
The true series models the hardened protection path (breaker-level
telemetry) that the degradation controller projects excursions from;
it is only materialised when a metered sample ever diverges, so
fault-free simulations pay nothing for it.
"""

from __future__ import annotations

import collections
import itertools
from collections.abc import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.infrastructure.topology import PowerTopology

__all__ = ["PowerMonitor"]


def _last(series: collections.deque, n: int) -> list:
    """The last ``n`` samples of a series (all, if fewer), oldest first,
    read from its end without copying the rest."""
    return list(itertools.islice(reversed(series), n))[::-1]


class PowerMonitor:
    """Per-slot power telemetry for a facility.

    Args:
        topology: The facility to monitor.
        history_slots: Number of most-recent slots retained per series.
            Year-long simulations keep memory bounded by default; pass a
            larger value when a full series is needed for CDF figures.
    """

    def __init__(self, topology: PowerTopology, history_slots: int = 100_000) -> None:
        if history_slots <= 0:
            raise SimulationError("history_slots must be positive")
        self._topology = topology
        self._history_slots = history_slots
        self._rack_series: dict[str, collections.deque[float]] = {
            rack_id: collections.deque(maxlen=history_slots)
            for rack_id in topology.racks
        }
        self._pdu_series: dict[str, collections.deque[float]] = {
            pdu_id: collections.deque(maxlen=history_slots)
            for pdu_id in topology.pdus
        }
        self._ups_series: collections.deque[float] = collections.deque(
            maxlen=history_slots
        )
        # True (physical) rack series; materialised lazily on the first
        # slot whose metered samples diverge from the true draws.
        self._true_rack_series: dict[str, collections.deque[float]] | None = None
        self._slots_recorded = 0

    def __getstate__(self) -> dict:
        # A checkpoint appends the series to its history segment and
        # restores them from it; the pickle keeps whether a true series
        # exists.
        state = self.__dict__.copy()
        del state["_rack_series"], state["_pdu_series"], state["_ups_series"]
        state["_true_rack_series"] = self._true_rack_series is not None
        return state

    def __setstate__(self, state: dict) -> None:
        shadowed = state.pop("_true_rack_series")
        self.__init__(state["_topology"], state["_history_slots"])
        self.__dict__.update(state)
        if shadowed:
            self._true_rack_series = {
                rack_id: collections.deque(maxlen=self._history_slots)
                for rack_id in self._rack_series
            }

    def _all_series(self) -> list:
        true = self._true_rack_series or {}
        return [
            *self._rack_series.values(), *self._pdu_series.values(),
            self._ups_series, *true.values(),
        ]

    def history_since(self, start: int) -> list:
        """One row per slot from the ``start``-th on, oldest first (fewer
        when ``history_slots`` dropped some): every series' sample."""
        n = self._slots_recorded - start
        return list(zip(*(_last(series, n) for series in self._all_series())))

    def extend_history(self, rows: list) -> None:
        """Append :meth:`history_since` rows to the series."""
        series = self._all_series()
        # Rows written before the true series existed lack it: until the
        # first divergence the true draws are the metered ones.
        rows = [row + row[: len(series) - len(row)] for row in rows]
        for entries, column in zip(series, zip(*rows)):
            entries.extend(column)

    @property
    def slots_recorded(self) -> int:
        """Total slots sampled since construction (not capped by history)."""
        return self._slots_recorded

    def record_slot(
        self,
        rack_power_w: Mapping[str, float],
        metered_power_w: Mapping[str, float] | None = None,
    ) -> None:
        """Record one slot of rack power samples.

        Args:
            rack_power_w: True physical power draw per rack id.  Every
                rack in the topology must be present — partial telemetry
                would silently corrupt PDU aggregates.
            metered_power_w: Operator-visible meter readings per rack id
                (defaults to the true draws).  Under meter-fault
                injection these diverge: the metered values feed the
                retained series (and hence the spot-capacity predictor
                and energy accounting), while the true draws stay on the
                topology and in the true-series shadow.
        """
        missing = set(self._topology.racks) - set(rack_power_w)
        if missing:
            raise SimulationError(
                f"missing power samples for racks: {sorted(missing)[:5]}"
            )
        metered = rack_power_w if metered_power_w is None else metered_power_w
        if metered is not rack_power_w:
            missing_meters = set(self._topology.racks) - set(metered)
            if missing_meters:
                raise SimulationError(
                    f"missing meter readings for racks: "
                    f"{sorted(missing_meters)[:5]}"
                )
            if self._true_rack_series is None and any(
                metered[rid] != rack_power_w[rid] for rid in rack_power_w
            ):
                # First divergence: shadow the (identical so far) history.
                self._true_rack_series = {
                    rack_id: collections.deque(
                        series, maxlen=self._history_slots
                    )
                    for rack_id, series in self._rack_series.items()
                }
        for rack_id, watts in rack_power_w.items():
            if rack_id not in self._rack_series:
                raise SimulationError(f"sample for unknown rack {rack_id!r}")
            self._topology.rack(rack_id).record_power(watts)
            self._rack_series[rack_id].append(float(metered[rack_id]))
            if self._true_rack_series is not None:
                self._true_rack_series[rack_id].append(float(watts))
        for pdu_id, pdu in self._topology.pdus.items():
            self._pdu_series[pdu_id].append(
                sum(float(metered[rid]) for rid in pdu.rack_ids)
            )
        self._ups_series.append(sum(float(w) for w in metered.values()))
        self._slots_recorded += 1

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------

    def rack_series(self, rack_id: str) -> np.ndarray:
        """Retained power series for one rack, oldest first."""
        return np.asarray(self._rack_series[rack_id], dtype=float)

    def pdu_series(self, pdu_id: str) -> np.ndarray:
        """Retained aggregate power series for one PDU, oldest first."""
        return np.asarray(self._pdu_series[pdu_id], dtype=float)

    def ups_series(self) -> np.ndarray:
        """Retained facility-level power series, oldest first."""
        return np.asarray(self._ups_series, dtype=float)

    def rack_recent_max_w(self, rack_id: str, window: int = 5) -> float:
        """Maximum of a rack's last ``window`` samples (0 before any).

        Used by the conservative spot-capacity predictor: a rack that
        recently drew close to its budget may do so again next slot, so
        its recent peak is a safer reference than its instantaneous draw.
        """
        if window <= 0:
            raise SimulationError("window must be positive")
        series = self._rack_series[rack_id]
        if not series:
            return 0.0
        return max(_last(series, window))

    def rack_recent_true_max_w(self, rack_id: str, window: int = 5) -> float:
        """Maximum of a rack's last ``window`` *true* samples.

        The hardened-path counterpart of :meth:`rack_recent_max_w`: the
        degradation controller projects excursions from physical draws,
        not from (possibly corrupted) meter readings.  Identical to
        :meth:`rack_recent_max_w` until a metered sample diverges.
        """
        if window <= 0:
            raise SimulationError("window must be positive")
        if self._true_rack_series is None:
            return self.rack_recent_max_w(rack_id, window)
        series = self._true_rack_series[rack_id]
        if not series:
            return 0.0
        return max(_last(series, window))

    def latest_pdu_power_w(self, pdu_id: str) -> float:
        """Most recent aggregate draw at a PDU (0 before any sample)."""
        series = self._pdu_series[pdu_id]
        return series[-1] if series else 0.0

    def latest_ups_power_w(self) -> float:
        """Most recent facility draw (0 before any sample)."""
        return self._ups_series[-1] if self._ups_series else 0.0

    # ------------------------------------------------------------------
    # Derived statistics (Fig. 7a)
    # ------------------------------------------------------------------

    def pdu_slot_variation(self, pdu_id: str) -> np.ndarray:
        """Relative slot-to-slot PDU power changes ``|ΔP| / P``.

        The paper observes PDU power changes of less than ±2.5% within one
        minute for 99% of slots (Section III-C); this series lets callers
        verify the generated traces reproduce that slow variation.
        """
        series = self.pdu_series(pdu_id)
        if series.size < 2:
            return np.empty(0)
        prev = series[:-1]
        delta = np.abs(np.diff(series))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(prev > 0, delta / prev, 0.0)
        return rel

    def pdu_variation_quantile(self, pdu_id: str, quantile: float = 0.99) -> float:
        """A quantile of the relative slot-to-slot PDU variation."""
        rel = self.pdu_slot_variation(pdu_id)
        if rel.size == 0:
            return 0.0
        return float(np.quantile(rel, quantile))
