"""Rack/PDU/UPS power monitoring over the window its readers need.

The operator "continuously monitors power usage at rack levels" (paper
Algorithm 1, line 1) and forecasts next-slot spot capacity from racks'
*recent* draw, because PDU power barely moves within minutes (Section
III-C, Fig. 7a).  :class:`PowerMonitor` records one sample per rack per
slot, derives the PDU and UPS aggregates, and keeps only the last
``keep`` slots of each series: the engine sizes that window from its
forecasting signal's ``lookback`` and its degradation reference window.
The run record — every slot of every series an evaluation figure
plots — is :class:`~repro.sim.metrics.MetricsCollector`'s.

Every read takes a sample count and reads from the end; asking for more
samples than the monitor keeps raises :class:`SimulationError`, so a
reader that understates its lookback fails loudly instead of silently
reading less.

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

#: The per-id windows; the UPS window is a single series.
_WINDOWS_BY_ID = ("_rack_series", "_pdu_series", "_true_rack_series")


def _last(series: collections.deque, n: int) -> list:
    """The last ``n`` samples of a series (all, if fewer), oldest first,
    read from its end without copying the rest."""
    return list(itertools.islice(reversed(series), n))[::-1]


class PowerMonitor:
    """Per-slot power telemetry for a facility, over its last ``keep`` slots.

    Args:
        topology: The facility to monitor.
        keep: Slots of history kept per series: the most samples any
            reader asks for.
    """

    def __init__(self, topology: PowerTopology, keep: int) -> None:
        self._topology = topology
        self._keep = keep
        self._rack_series: dict[str, collections.deque[float]] = {
            rack_id: collections.deque(maxlen=keep) for rack_id in topology.racks
        }
        self._pdu_series: dict[str, collections.deque[float]] = {
            pdu_id: collections.deque(maxlen=keep) for pdu_id in topology.pdus
        }
        self._ups_series: collections.deque[float] = collections.deque(maxlen=keep)
        # True (physical) rack series; materialised lazily on the first
        # slot whose metered samples diverge from the true draws.
        self._true_rack_series: dict[str, collections.deque[float]] | None = None

    def __getstate__(self) -> dict:
        # Checkpoints pickle the window as live state, in lists: a deque
        # pickles an order of magnitude slower than its floats in a list.
        state = self.__dict__.copy()
        for name in _WINDOWS_BY_ID:
            if state[name] is not None:
                state[name] = {key: list(series) for key, series in state[name].items()}
        state["_ups_series"] = list(self._ups_series)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        keep = self._keep
        for name in _WINDOWS_BY_ID:
            if state[name] is not None:
                setattr(self, name, {
                    key: collections.deque(series, maxlen=keep)
                    for key, series in state[name].items()
                })
        self._ups_series = collections.deque(state["_ups_series"], maxlen=keep)

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
                kept series (and hence the spot-capacity predictor and
                energy accounting), while the true draws stay on the
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
                # First divergence: shadow the (identical so far) window.
                self._true_rack_series = {
                    rack_id: collections.deque(series, maxlen=self._keep)
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

    # ------------------------------------------------------------------
    # Counted reads
    # ------------------------------------------------------------------

    def _tail(self, series: collections.deque, samples: int) -> list:
        if not 0 < samples <= self._keep:
            raise SimulationError(
                f"read of {samples} samples from a monitor that keeps {self._keep}"
            )
        return _last(series, samples)

    def rack_recent_w(self, rack_id: str, samples: int) -> np.ndarray:
        """A rack's last ``samples`` metered draws (fewer before that
        many slots), oldest first."""
        return np.array(self._tail(self._rack_series[rack_id], samples), dtype=float)

    def pdu_recent_w(self, pdu_id: str, samples: int) -> np.ndarray:
        """A PDU's last ``samples`` aggregate metered draws, oldest first."""
        return np.array(self._tail(self._pdu_series[pdu_id], samples), dtype=float)

    def ups_recent_w(self, samples: int) -> np.ndarray:
        """The facility's last ``samples`` metered draws, oldest first."""
        return np.array(self._tail(self._ups_series, samples), dtype=float)

    def rack_recent_max_w(self, rack_id: str, window: int = 5) -> float:
        """Maximum of a rack's last ``window`` samples (0 before any).

        Used by the conservative spot-capacity predictor: a rack that
        recently drew close to its budget may do so again next slot, so
        its recent peak is a safer reference than its instantaneous draw.
        """
        tail = self._tail(self._rack_series[rack_id], window)
        return max(tail) if tail else 0.0

    def rack_recent_true_max_w(self, rack_id: str, window: int = 5) -> float:
        """Maximum of a rack's last ``window`` *true* samples.

        The hardened-path counterpart of :meth:`rack_recent_max_w`: the
        degradation controller projects excursions from physical draws,
        not from (possibly corrupted) meter readings.  Identical to
        :meth:`rack_recent_max_w` until a metered sample diverges.
        """
        if self._true_rack_series is None:
            return self.rack_recent_max_w(rack_id, window)
        tail = self._tail(self._true_rack_series[rack_id], window)
        return max(tail) if tail else 0.0

    def latest_ups_power_w(self) -> float:
        """Most recent facility draw (0 before any sample)."""
        return self._ups_series[-1] if self._ups_series else 0.0
