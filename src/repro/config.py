"""Global constants and randomness policy for the SpotDC reproduction.

Every number here is traceable either to the paper's text or to a stated
calibration choice; nothing else in the library hard-codes a paper
constant.  The scenario presets, the spec normaliser, the builder and
the CLI read their facility defaults (oversubscription, slot length,
infrastructure cost, SLO) from here, so each has one home.  Stochastic
components never construct their own random state —
they accept a :class:`numpy.random.Generator` so that scenarios are fully
reproducible from a single seed (see :func:`make_rng`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_SLOT_SECONDS",
    "DEFAULT_SEED",
    "GUARANTEED_RATE_PER_KW_MONTH",
    "GUARANTEED_RATE_RANGE_PER_KW_MONTH",
    "ENERGY_TARIFF_PER_KWH",
    "RACK_CAPEX_PER_WATT",
    "RACK_CAPEX_AMORTIZATION_YEARS",
    "UPS_CAPEX_PER_WATT_RANGE",
    "DEFAULT_INFRASTRUCTURE_COST_PER_WATT",
    "DEFAULT_OVERSUBSCRIPTION",
    "RACK_HEADROOM_FRACTION",
    "SLO_LATENCY_MS",
    "DEFAULT_PRICE_STEP",
    "MAX_PRICE_PER_KW_HOUR",
    "MarketParameters",
    "make_rng",
    "spawn_rngs",
]

#: Market time-slot length, seconds.  The paper uses 1-5 minute slots; the
#: testbed experiment (Fig. 10) divides 20 minutes into 10 slots of 120 s.
DEFAULT_SLOT_SECONDS = 120.0

#: Library-wide default seed used by scenario builders when none is given.
DEFAULT_SEED = 20180224  # HPCA 2018 conference dates.

#: Guaranteed-capacity subscription rate, $/kW/month (paper: US$120-250).
GUARANTEED_RATE_PER_KW_MONTH = 150.0
GUARANTEED_RATE_RANGE_PER_KW_MONTH = (120.0, 250.0)

#: Metered energy tariff, $/kWh (typical US commercial rate; tenants pay
#: for metered energy regardless of spot participation).
ENERGY_TARIFF_PER_KWH = 0.10

#: Rack-level capacity over-provisioning capital cost, $/W (paper: US$0.4/W
#: amortised over 15 years, Section V-B1; rack PDUs cost US¢20-50/W).
RACK_CAPEX_PER_WATT = 0.4
RACK_CAPEX_AMORTIZATION_YEARS = 15.0

#: Shared UPS/PDU infrastructure capital cost, $/W (paper: US$10-25/W).
UPS_CAPEX_PER_WATT_RANGE = (10.0, 25.0)

#: Shared-infrastructure capex every scenario charges unless told
#: otherwise: the top of the paper's range, so the operator's profit
#: accounting is conservative.
DEFAULT_INFRASTRUCTURE_COST_PER_WATT = UPS_CAPEX_PER_WATT_RANGE[1]

#: Facility oversubscription used throughout the evaluation: leased
#: capacity is 105% of physical capacity at both PDU and UPS levels
#: (Section IV-A: 750 W leased = 715 W physical x 105%).
DEFAULT_OVERSUBSCRIPTION = 1.05

#: Rack-level physical headroom above the guaranteed subscription that the
#: intelligent rack PDU can unlock for spot capacity.  The paper notes a
#: 20% rack-level capacity margin is already standard (Section II-A); we
#: default to 50% so the rack level is "not a bottleneck" (Section II-C).
RACK_HEADROOM_FRACTION = 0.5

#: Service-level objective for sprinting tenants (paper: 100 ms for all).
SLO_LATENCY_MS = 100.0

#: Default market price-scan step, $/kW/h.  The paper reports clearing
#: times for steps of 0.1 and 1 cent/kW (Fig. 7b).
DEFAULT_PRICE_STEP = 0.001

#: Upper bound of the clearing-price scan, $/kW/h.  Set above any sane bid
#: (~2x the amortised rate of the most expensive guaranteed capacity).
MAX_PRICE_PER_KW_HOUR = 1.0


@dataclasses.dataclass(frozen=True)
class MarketParameters:
    """Operator-side market knobs, bundled for convenient threading.

    Attributes:
        slot_seconds: Length of one allocation slot.
        price_step: Granularity of the uniform clearing-price scan,
            $/kW/h.
        max_price: Upper end of the price scan, $/kW/h.
        reserve_price: Minimum price the operator will accept, $/kW/h.
            The paper notes a reservation price can recoup energy costs;
            zero by default because tenants pay metered energy anyway.
        under_prediction_factor: Multiplier (0, 1] applied to predicted
            spot capacity.  ``1.0`` means no under-prediction; ``0.85``
            reproduces the paper's "15% under-prediction" (Fig. 17).
    """

    slot_seconds: float = DEFAULT_SLOT_SECONDS
    price_step: float = DEFAULT_PRICE_STEP
    max_price: float = MAX_PRICE_PER_KW_HOUR
    reserve_price: float = 0.0
    under_prediction_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ConfigurationError("slot_seconds must be positive")
        if self.price_step <= 0:
            raise ConfigurationError("price_step must be positive")
        if self.max_price <= self.reserve_price:
            raise ConfigurationError("max_price must exceed reserve_price")
        if not 0 < self.under_prediction_factor <= 1:
            raise ConfigurationError("under_prediction_factor must be in (0, 1]")


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create the library's canonical random generator.

    Args:
        seed: Seed for reproducibility; ``None`` falls back to
            :data:`DEFAULT_SEED` (never to OS entropy — simulations must
            be reproducible by default).
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used by scenario builders to give each tenant/trace its own stream so
    that adding a tenant does not perturb the randomness of the others.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    return list(rng.spawn(count))
