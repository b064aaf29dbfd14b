"""Oversubscription planning: sizing PDUs/UPS below the leased capacity.

Operators deliberately lease more capacity than the infrastructure can
physically deliver, because tenants' peaks rarely coincide (paper
Section II-B).  The paper's testbed applies 5% oversubscription at both
levels: a PDU leasing 750 W of guaranteed capacity is physically sized at
750 / 1.05 ≈ 715 W, and the UPS at the sum of PDU physical capacities
divided by 1.05 again.

:class:`OversubscriptionPlan` captures that arithmetic so scenarios can
state subscriptions and an oversubscription ratio and get consistent
physical capacities; the evaluation sweeps (Figs. 14-15) vary the ratio
to vary the available spot capacity.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.config import DEFAULT_OVERSUBSCRIPTION
from repro.errors import ConfigurationError

__all__ = ["OversubscriptionPlan"]


@dataclasses.dataclass(frozen=True)
class OversubscriptionPlan:
    """Sizing rule mapping leased capacity to physical capacity.

    Attributes:
        pdu_ratio: Leased / physical at each PDU (>= 1).  1.0 means no
            oversubscription; the paper's default is 1.05.
        ups_ratio: Sum-of-PDU-physical / UPS-physical (>= 1).
    """

    pdu_ratio: float = DEFAULT_OVERSUBSCRIPTION
    ups_ratio: float = DEFAULT_OVERSUBSCRIPTION

    def __post_init__(self) -> None:
        if self.pdu_ratio < 1.0:
            raise ConfigurationError(
                f"pdu_ratio must be >= 1, got {self.pdu_ratio}"
            )
        if self.ups_ratio < 1.0:
            raise ConfigurationError(
                f"ups_ratio must be >= 1, got {self.ups_ratio}"
            )

    def pdu_capacity_w(self, leased_w: float) -> float:
        """Physical PDU capacity for a given total leased capacity."""
        if leased_w < 0:
            raise ConfigurationError(f"leased capacity must be >= 0, got {leased_w}")
        return leased_w / self.pdu_ratio

    def ups_capacity_w(self, pdu_capacities_w: Mapping[str, float]) -> float:
        """Physical UPS capacity given the PDUs' physical capacities.

        Matches the paper's testbed arithmetic:
        ``1370 W = (715 W + 724 W) / 1.05``.
        """
        total = sum(pdu_capacities_w.values())
        if total <= 0:
            raise ConfigurationError("PDU capacities must sum to a positive value")
        return total / self.ups_ratio

    @classmethod
    def for_spot_fraction(
        cls, spot_fraction: float, mean_utilization: float
    ) -> "OversubscriptionPlan":
        """Derive a plan that yields a target average spot-capacity fraction.

        The evaluation measures spot availability "in percentage of total
        guaranteed capacity" and adjusts the shared PDU capacity to sweep
        it (Section V-C).  If tenants draw ``mean_utilization`` of their
        subscriptions on average, then the physical capacity that leaves
        ``spot_fraction`` of the subscribed capacity spare is
        ``physical = (mean_utilization + spot_fraction) * leased``, i.e. a
        ratio of ``1 / (mean_utilization + spot_fraction)``.

        Args:
            spot_fraction: Target average spot capacity as a fraction of
                total guaranteed capacity (e.g. 0.15 for the paper's 15%).
            mean_utilization: Tenants' average draw as a fraction of
                subscriptions, excluding any spot usage.
        """
        if not 0 <= spot_fraction < 1:
            raise ConfigurationError("spot_fraction must be in [0, 1)")
        if not 0 < mean_utilization <= 1:
            raise ConfigurationError("mean_utilization must be in (0, 1]")
        denom = mean_utilization + spot_fraction
        ratio = max(1.0, 1.0 / denom)
        return cls(pdu_ratio=ratio, ups_ratio=1.0)
