"""Spec emitters for the paper's canonical facilities.

These produce *data* — normal-form scenario specs — for the two
facilities the paper evaluates: the Table I testbed and Fig. 18's
scaled-up variant.  These functions own the facilities' parameters:
:func:`repro.sim.scenario.testbed_scenario` and
:func:`~repro.sim.scenario.scaled_scenario` forward every argument but
``strategy_factory`` here and feed the spec to
:func:`repro.scenarios.loader.build_scenario`.

The scaled preset *materialises* the ±jitter tenant-diversity draws into
explicit per-tenant subscriptions (same RNG, same draw order as the
pre-spec implementation), so the emitted spec is self-contained: loading
it from disk reproduces the exact facility, byte for byte.
"""

from __future__ import annotations

from repro.config import (
    DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
    DEFAULT_OVERSUBSCRIPTION,
    DEFAULT_SEED,
    DEFAULT_SLOT_SECONDS,
    RACK_HEADROOM_FRACTION,
    make_rng,
)
from repro.errors import ConfigurationError

__all__ = ["PRESETS", "preset_spec", "testbed_spec", "scaled_spec"]


def _tenant_record(name, workload, subscription_w, pdu_id, volatile=False):
    record = {
        "name": name,
        "workload": workload,
        "subscription_w": float(subscription_w),
        "pdu": pdu_id,
    }
    if workload == "other":
        record["volatile"] = volatile
    return record


def testbed_spec(
    seed: int = DEFAULT_SEED,
    slot_seconds: float = DEFAULT_SLOT_SECONDS,
    pdu_oversubscription: float = DEFAULT_OVERSUBSCRIPTION,
    ups_oversubscription: float = DEFAULT_OVERSUBSCRIPTION,
    rack_headroom_fraction: float = RACK_HEADROOM_FRACTION,
    volatile_other: bool = False,
    infrastructure_cost_per_watt: float = DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
    strategy: str = "linear_elastic",
) -> dict:
    """The paper's Table I testbed as a normal-form spec.

    Defaults reproduce the paper's arithmetic: PDU#1 leases 750 W and is
    sized at 750/1.05 ≈ 715 W, PDU#2 760 W → ≈724 W, and the UPS at
    (715+724)/1.05 ≈ 1370 W; ten tenants.

    Args:
        seed: Master seed for every stochastic component.
        slot_seconds: Market slot length (paper: 120 s in the testbed).
        pdu_oversubscription: Leased/physical ratio at PDUs; sweeping
            this sweeps the available spot capacity (Figs. 14-15).
        ups_oversubscription: Sum-of-PDUs/UPS ratio.
        rack_headroom_fraction: Rack PDU over-provisioning above the
            subscription.
        volatile_other: Use the high-volatility "Other" trace of the
            20-minute experiment (Fig. 10).
        infrastructure_cost_per_watt: Shared-infrastructure capex, $/W.
        strategy: Named bidding strategy of every participating tenant.
    """
    from repro.scenarios.spec import normalize_spec
    from repro.sim.scenario import TABLE1_SPECS

    pdu_indices = sorted({spec.pdu for spec in TABLE1_SPECS})
    return normalize_spec(
        {
            "spec_version": 1,
            "name": "testbed",
            "seed": seed,
            "topology": {
                "pdus": [
                    {"id": f"pdu:{i}", "oversubscription": pdu_oversubscription}
                    for i in pdu_indices
                ],
                "rack_headroom_fraction": rack_headroom_fraction,
            },
            "time": {"slot_seconds": slot_seconds},
            "demand": {
                "strategy": strategy,
                "tenants": [
                    _tenant_record(
                        spec.name,
                        spec.workload,
                        spec.subscription_w,
                        f"pdu:{spec.pdu}",
                        volatile=volatile_other,
                    )
                    for spec in TABLE1_SPECS
                ],
            },
            "supply": {
                "ups_oversubscription": ups_oversubscription,
                "infrastructure_cost_per_watt": infrastructure_cost_per_watt,
            },
        }
    )


def scaled_spec(
    groups: int,
    seed: int = DEFAULT_SEED,
    slot_seconds: float = DEFAULT_SLOT_SECONDS,
    jitter: float = 0.2,
    pdu_oversubscription: float = DEFAULT_OVERSUBSCRIPTION,
    ups_oversubscription: float = DEFAULT_OVERSUBSCRIPTION,
    rack_headroom_fraction: float = RACK_HEADROOM_FRACTION,
    infrastructure_cost_per_watt: float = DEFAULT_INFRASTRUCTURE_COST_PER_WATT,
    strategy: str = "linear_elastic",
) -> dict:
    """Fig. 18's scaled facility as a normal-form spec.

    Replicates the Table I composition ``groups`` times (two PDUs and
    ten tenants per group).  The first group is exact; every later
    tenant's subscription is jittered by up to ±``jitter`` for
    diversity, and PDU and UPS capacities scale with the subscriptions.
    The draws are materialised into explicit subscriptions so the spec
    stands alone: one uniform per tenant for every group after the
    first, consumed even when ``jitter`` is zero.  Cost models and
    workload phases follow each tenant's class, unjittered.

    Args:
        groups: Number of Table I replicas.
        seed: Master seed (draws the jitter, then every tenant stream).
        slot_seconds: Market slot length.
        jitter: Subscription diversity scale (paper: 20%).
        pdu_oversubscription: Leased/physical ratio at each PDU.
        ups_oversubscription: Facility-level oversubscription.
        rack_headroom_fraction: Rack PDU over-provisioning.
        infrastructure_cost_per_watt: Shared-infrastructure capex, $/W.
        strategy: Named bidding strategy of every participating tenant.
    """
    from repro.scenarios.spec import normalize_spec
    from repro.sim.scenario import TABLE1_SPECS

    if groups < 1:
        raise ConfigurationError("groups must be >= 1")
    rng = make_rng(seed)
    tenants = []
    pdu_indices: list[int] = []
    for g in range(groups):
        group_jitter = 0.0 if g == 0 else jitter
        for spec in TABLE1_SPECS:
            pdu_index = 2 * g + spec.pdu
            if pdu_index not in pdu_indices:
                pdu_indices.append(pdu_index)
            scale = 1.0 if g == 0 else float(
                1.0 + rng.uniform(-group_jitter, group_jitter)
            )
            tenants.append(
                _tenant_record(
                    f"{spec.name}@{g}" if g > 0 else spec.name,
                    spec.workload,
                    spec.subscription_w * scale,
                    f"pdu:{pdu_index}",
                )
            )
    return normalize_spec(
        {
            "spec_version": 1,
            "name": f"scaled-{groups}x",
            "seed": seed,
            "topology": {
                "pdus": [
                    {"id": f"pdu:{i}", "oversubscription": pdu_oversubscription}
                    for i in pdu_indices
                ],
                "rack_headroom_fraction": rack_headroom_fraction,
            },
            "time": {"slot_seconds": slot_seconds},
            "demand": {"strategy": strategy, "tenants": tenants},
            "supply": {
                "ups_oversubscription": ups_oversubscription,
                "infrastructure_cost_per_watt": infrastructure_cost_per_watt,
            },
        }
    )


#: Named presets for the CLI (``spotdc scenario show --preset ...``) and
#: sweep-config ``base: {preset: ...}`` references.
PRESETS = {
    "testbed": testbed_spec,
    "scaled": scaled_spec,
}


def preset_spec(name: str, **kwargs) -> dict:
    """Emit one named preset spec (``testbed`` or ``scaled``)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        choices = ", ".join(sorted(PRESETS))
        raise ConfigurationError(
            f"unknown scenario preset {name!r} (known: {choices})"
        ) from None
    return factory(**kwargs)
