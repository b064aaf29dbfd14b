"""Demand functions for spot-capacity bidding.

The heart of SpotDC is how tenants communicate their *elastic* rack-level
spot-capacity demand to the operator (paper Section III-B1).  Three demand
function families are implemented, matching the paper's comparison
(Fig. 14):

* :class:`LinearBid` — the paper's proposal: a piece-wise linear curve
  defined by four parameters ``(D_max, q_min), (D_min, q_max)``.
* :class:`StepBid` — the Amazon-spot-style all-or-nothing bid: a fixed
  quantity at up to a fixed price.
* :class:`FullBid` — the complete (true) demand curve, an upper bound on
  what any parameterised bid can extract.

Price convention: all prices are **$/kW/h** (see :mod:`repro.units`), and
demand quantities are **watts**.  Every demand function is non-increasing
in price and zero above its maximum acceptable price.
"""

from __future__ import annotations

import abc
import bisect
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import BidError

__all__ = [
    "DemandFunction",
    "LinearBid",
    "StepBid",
    "FullBid",
    "demand_matrix",
]


class DemandFunction(abc.ABC):
    """A non-increasing mapping from market price to demanded watts."""

    @abc.abstractmethod
    def demand_at(self, price: float) -> float:
        """Demanded spot capacity (watts) at ``price`` ($/kW/h)."""

    @property
    @abc.abstractmethod
    def max_demand_w(self) -> float:
        """Demand at a zero price — the most this bid can ever request."""

    @property
    @abc.abstractmethod
    def max_price(self) -> float:
        """Lowest price at and above which demand may be zero.

        Used by the clearing engine to prune its price scan.
        """

    def demand_grid(self, prices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`demand_at` over an array of prices.

        Subclasses override this with closed-form vector math; the base
        implementation loops (correct but slow for large scans).
        """
        return np.array([self.demand_at(float(p)) for p in prices])

    def validate_monotone(self, prices: Sequence[float]) -> bool:
        """Check non-increasing demand over the given price samples."""
        demands = [self.demand_at(p) for p in sorted(prices)]
        return all(a >= b - 1e-9 for a, b in zip(demands, demands[1:]))


class LinearBid(DemandFunction):
    """The paper's piece-wise linear demand function (Fig. 3a).

    Three segments:

    1. flat at ``d_max_w`` for prices up to ``q_min``;
    2. linearly decreasing from ``d_max_w`` to ``d_min_w`` on
       ``(q_min, q_max]``;
    3. zero above ``q_max`` (the vertical segment — ``q_max`` is the
       maximum acceptable price, at which the tenant still wants
       ``d_min_w``).

    Degenerate parameter choices are allowed exactly as the paper states:
    ``d_max_w == d_min_w`` or ``q_min == q_max`` each reduce the curve to
    a step function.

    Args:
        d_max_w: Maximum spot-capacity demand, watts.
        q_min: Price up to which the full ``d_max_w`` is demanded, $/kW/h.
        d_min_w: Minimum demand, held at the maximum acceptable price.
        q_max: Maximum acceptable price, $/kW/h.
    """

    def __init__(self, d_max_w: float, q_min: float, d_min_w: float, q_max: float):
        if d_max_w < 0 or d_min_w < 0:
            raise BidError(f"demands must be >= 0 (got {d_max_w}, {d_min_w})")
        if d_min_w > d_max_w:
            raise BidError(f"D_min ({d_min_w}) must not exceed D_max ({d_max_w})")
        if q_min < 0 or q_max < 0:
            raise BidError(f"prices must be >= 0 (got {q_min}, {q_max})")
        if q_max < q_min:
            raise BidError(f"q_max ({q_max}) must not be below q_min ({q_min})")
        self.d_max_w = float(d_max_w)
        self.q_min = float(q_min)
        self.d_min_w = float(d_min_w)
        self.q_max = float(q_max)

    def demand_at(self, price: float) -> float:
        if price > self.q_max:
            return 0.0
        if price <= self.q_min:
            return self.d_max_w
        if self.q_max == self.q_min:
            return self.d_max_w
        frac = (price - self.q_min) / (self.q_max - self.q_min)
        return self.d_max_w + frac * (self.d_min_w - self.d_max_w)

    def demand_grid(self, prices: np.ndarray) -> np.ndarray:
        prices = np.asarray(prices, dtype=float)
        if self.q_max == self.q_min:
            return np.where(prices <= self.q_max, self.d_max_w, 0.0)
        # A near-degenerate price range can overflow the division; the
        # clip makes the overflow harmless, so silence it locally.
        with np.errstate(over="ignore"):
            frac = np.clip(
                (prices - self.q_min) / (self.q_max - self.q_min), 0.0, 1.0
            )
        demand = self.d_max_w + frac * (self.d_min_w - self.d_max_w)
        return np.where(prices <= self.q_max, demand, 0.0)

    @property
    def max_demand_w(self) -> float:
        return self.d_max_w

    @property
    def max_price(self) -> float:
        return self.q_max

    def as_parameters(self) -> tuple[float, float, float, float]:
        """The paper's four bid parameters ``(D_max, q_min, D_min, q_max)``."""
        return (self.d_max_w, self.q_min, self.d_min_w, self.q_max)

    def __repr__(self) -> str:
        return (
            f"LinearBid(d_max_w={self.d_max_w:.1f}, q_min={self.q_min:.4f}, "
            f"d_min_w={self.d_min_w:.1f}, q_max={self.q_max:.4f})"
        )


class StepBid(DemandFunction):
    """All-or-nothing bid: ``demand_w`` at any price up to ``price_cap``.

    This is the Amazon-spot-style demand function the paper compares
    against: it cannot express elasticity, so the operator can satisfy a
    rack's demand only fully or not at all (Section III-B1).
    """

    def __init__(self, demand_w: float, price_cap: float):
        if demand_w < 0:
            raise BidError(f"demand must be >= 0, got {demand_w}")
        if price_cap < 0:
            raise BidError(f"price cap must be >= 0, got {price_cap}")
        self.demand_w = float(demand_w)
        self.price_cap = float(price_cap)

    def demand_at(self, price: float) -> float:
        return self.demand_w if price <= self.price_cap else 0.0

    def demand_grid(self, prices: np.ndarray) -> np.ndarray:
        prices = np.asarray(prices, dtype=float)
        return np.where(prices <= self.price_cap, self.demand_w, 0.0)

    @property
    def max_demand_w(self) -> float:
        return self.demand_w

    @property
    def max_price(self) -> float:
        return self.price_cap

    def __repr__(self) -> str:
        return f"StepBid(demand_w={self.demand_w:.1f}, price_cap={self.price_cap:.4f})"


class FullBid(DemandFunction):
    """The complete (true) demand curve, tabulated on a demand grid.

    ``FullBid`` represents the hypothetical market in which tenants hand
    the operator their *exact* demand curve — the "Reference" curve of
    Fig. 3(a) and the FullBid comparison point of Fig. 14.  It is built
    from a tenant's marginal-value curve: at price ``q`` the rational
    demand is the largest quantity whose marginal value (in $/W/h) still
    exceeds the price (in $/W/h, i.e. ``q / 1000``).

    Args:
        demands_w: Increasing grid of candidate spot quantities, watts.
            Must start at a value >= 0.
        marginal_values: Marginal value in **$/h per watt** at each grid
            point; must be non-increasing (concave total value).
        price_cap: Maximum acceptable price, $/kW/h; demand is zero above
            it regardless of marginal value (the paper's guideline that
            spot capacity should never cost more than guaranteed
            capacity applies to complete-curve bidders too).  ``None``
            means the curve's own top marginal value is the cap.
    """

    def __init__(
        self,
        demands_w: Sequence[float],
        marginal_values: Sequence[float],
        price_cap: float | None = None,
    ) -> None:
        demands = np.asarray(demands_w, dtype=float)
        marginals = np.asarray(marginal_values, dtype=float)
        if demands.ndim != 1 or demands.size == 0:
            raise BidError("demands_w must be a non-empty 1-D sequence")
        if demands.shape != marginals.shape:
            raise BidError("demands_w and marginal_values must align")
        if np.any(np.diff(demands) <= 0):
            raise BidError("demands_w must be strictly increasing")
        if np.any(demands < 0):
            raise BidError("demands_w must be non-negative")
        if np.any(np.diff(marginals) > 1e-12):
            raise BidError("marginal_values must be non-increasing (concave value)")
        if price_cap is not None and price_cap < 0:
            raise BidError(f"price_cap must be >= 0, got {price_cap}")
        self._demands = demands
        self._marginals = marginals
        self._price_cap = price_cap
        # Descending marginal values -> demand at price q is the largest
        # grid quantity with marginal value >= q.
        self._marginals_desc = marginals[::-1]

    @classmethod
    def from_value_curve(
        cls,
        gain_per_hour: Callable[[float], float],
        max_demand_w: float,
        grid_points: int = 200,
        price_cap: float | None = None,
    ) -> "FullBid":
        """Tabulate the true demand curve from a concave value function.

        Args:
            gain_per_hour: Total performance gain in $/h as a function of
                allocated spot watts (concave, increasing).
            max_demand_w: Upper end of the useful demand range.
            grid_points: Tabulation resolution.
            price_cap: Maximum acceptable price, $/kW/h (see class docs).
        """
        if max_demand_w <= 0:
            raise BidError("max_demand_w must be positive")
        if grid_points < 2:
            raise BidError("grid_points must be >= 2")
        demands = np.linspace(0.0, max_demand_w, grid_points + 1)[1:]
        values = np.array([gain_per_hour(float(d)) for d in demands])
        values = np.concatenate([[gain_per_hour(0.0)], values])
        marginals = np.diff(values) / np.diff(np.concatenate([[0.0], demands]))
        # Enforce non-increasing marginals (guards numeric noise on curves
        # that are concave only up to round-off).
        marginals = np.minimum.accumulate(marginals)
        return cls(demands, marginals, price_cap=price_cap)

    def demand_at(self, price: float) -> float:
        if self._price_cap is not None and price > self._price_cap:
            return 0.0
        price_per_watt_hour = price / 1000.0
        # Largest index with marginal >= price.  _marginals is descending
        # in index order already (non-increasing), so search the reversed
        # ascending copy.
        idx = bisect.bisect_left(self._marginals_desc.tolist(), price_per_watt_hour)
        count_at_least = self._marginals_desc.size - idx
        if count_at_least == 0:
            return 0.0
        return float(self._demands[count_at_least - 1])

    def demand_grid(self, prices: np.ndarray) -> np.ndarray:
        prices = np.asarray(prices, dtype=float)
        scaled = prices / 1000.0
        # For each price, count grid points whose marginal >= price.
        counts = np.searchsorted(self._marginals_desc, scaled, side="left")
        counts = self._marginals_desc.size - counts
        out = np.zeros_like(prices)
        nonzero = counts > 0
        out[nonzero] = self._demands[counts[nonzero] - 1]
        if self._price_cap is not None:
            out = np.where(prices <= self._price_cap, out, 0.0)
        return out

    @property
    def max_demand_w(self) -> float:
        return float(self._demands[-1])

    @property
    def max_price(self) -> float:
        curve_top = float(self._marginals[0] * 1000.0)
        if self._price_cap is not None:
            return min(curve_top, self._price_cap)
        return curve_top

    def __repr__(self) -> str:
        return (
            f"FullBid(points={self._demands.size}, "
            f"max_demand_w={self.max_demand_w:.1f}, max_price={self.max_price:.4f})"
        )


def demand_matrix(
    d_max_w: np.ndarray,
    q_min: np.ndarray,
    d_min_w: np.ndarray,
    q_max: np.ndarray,
    rack_cap_w: np.ndarray,
    prices: np.ndarray,
    sampled_rows: np.ndarray | None = None,
    sampled_demands: Sequence[DemandFunction] = (),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate a whole bid column-set over a price grid in one kernel.

    This is the market core's hot demand kernel: given the columnar bid
    parameters of a :class:`~repro.core.frame.BidFrame`, it produces the
    rack-clipped ``(n_bids, n_prices)`` demand matrix with the *exact*
    arithmetic of :meth:`LinearBid.demand_grid` / :meth:`StepBid.demand_grid`
    (StepBid rows are encoded as the degenerate ``q_min == q_max`` linear
    curve, which evaluates identically).  Rows whose demand has no closed
    form (``FullBid`` and custom :class:`DemandFunction` subclasses) are
    listed in ``sampled_rows`` and sampled through their own
    :meth:`~DemandFunction.demand_grid`.

    Args:
        d_max_w / q_min / d_min_w / q_max: Piece-wise linear parameters,
            one entry per bid row (values for sampled rows are ignored).
        rack_cap_w: Physical rack headroom per row; clips every demand.
        prices: Ascending price grid shared by every row, shape
            ``(n_prices,)``, or one grid per row, shape
            ``(n_bids, n_prices)`` (grant extraction evaluates each row
            at its own market's price).
        sampled_rows: Row indices evaluated through ``sampled_demands``.
        sampled_demands: Demand objects aligned with ``sampled_rows``.
        out: Optional preallocated ``(n_bids, n_prices)`` output buffer —
            reused across price chunks to avoid re-allocation.

    Returns:
        The clipped demand matrix (``out`` when provided).
    """
    n = d_max_w.shape[0]
    prices = np.asarray(prices, dtype=float)
    per_row = prices.ndim == 2
    grid = prices if per_row else prices[None, :]
    if out is None:
        out = np.empty((n, grid.shape[1]))
    span = q_max - q_min
    degenerate = span <= 0
    # Mirrors LinearBid.demand_grid step for step: same operations in
    # the same order, so the kernel and the per-bid curve produce
    # bit-identical demand.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        frac = np.clip(
            (grid - q_min[:, None])
            / np.where(degenerate, 1.0, span)[:, None],
            0.0,
            1.0,
        )
    demand = d_max_w[:, None] + frac * (d_min_w - d_max_w)[:, None]
    demand = np.where(degenerate[:, None], d_max_w[:, None], demand)
    demand = np.where(grid <= q_max[:, None], demand, 0.0)
    np.minimum(demand, rack_cap_w[:, None], out=out)
    if sampled_rows is not None and sampled_rows.size:
        for row, fn in zip(sampled_rows, sampled_demands):
            row_prices = grid[row] if per_row else prices
            np.minimum(fn.demand_grid(row_prices), rack_cap_w[row], out=out[row])
    return out
