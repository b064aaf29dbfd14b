"""Named, seedable fault profiles.

A :class:`FaultProfile` is the declarative form of a
:class:`~repro.resilience.faults.FaultInjector`: a frozen bundle of
fault-class parameters that scenarios, the CLI (``--fault-profile``),
and the chaos experiment all share.  Profiles accept a plain seed int,
and identical seeds yield identical fault traces.

Named classes (scaled by one ``intensity`` knob):

* ``"none"`` — no faults (control cell);
* ``"comm"`` — independent Bernoulli bid/grant losses (the paper's
  §III-C communication-loss model);
* ``"bursty"`` — Gilbert-Elliott bursty losses on both channels;
* ``"delay"`` — delayed/stale grant delivery;
* ``"meter"`` — stuck-at / dropout / noisy rack meters feeding the
  spot-capacity predictor;
* ``"derating"`` — random PDU/UPS capacity-derating events;
* ``"duplicate"`` — at-least-once bid delivery (bundles arrive twice;
  absorbed by the market's idempotent ingestion, settlement-neutral by
  invariant);
* ``"chaos"`` — all of the above at once.
"""

from __future__ import annotations

import dataclasses

from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError
from repro.resilience.faults import (
    BernoulliLoss,
    CrashFault,
    DeratingEvent,
    DeratingSource,
    DuplicateDeliverySource,
    FaultInjector,
    FaultSource,
    GilbertElliottLoss,
    GrantDelaySource,
    MeterFaultSource,
)

__all__ = ["DEFAULT_FAULT_INTENSITY", "FAULT_CLASSES", "FaultProfile"]

#: Named fault classes accepted by :meth:`FaultProfile.named` and the CLI.
FAULT_CLASSES = (
    "none",
    "comm",
    "bursty",
    "delay",
    "meter",
    "derating",
    "duplicate",
    "chaos",
)

#: Intensity of :meth:`FaultProfile.named` when none is given — also the
#: default of a spec's named ``faults`` form and of ``--fault-intensity``.
DEFAULT_FAULT_INTENSITY = 0.1


@dataclasses.dataclass(frozen=True)
class FaultProfile:
    """Declarative fault configuration for a run.

    All probabilities are per unit per slot; zero disables the
    corresponding fault source entirely.

    Attributes:
        name: Profile label (shown in reports).
        bid_loss: Bernoulli bid-submission loss probability.
        grant_loss: Bernoulli grant-broadcast loss probability.
        burst_enter: Gilbert-Elliott good-to-bad probability (0 disables
            bursty loss on both channels).
        burst_exit: Gilbert-Elliott bad-to-good probability.
        burst_loss: Loss probability while a channel is bad.
        delay_probability: Probability a grant broadcast is delayed.
        delay_slots: Delivery delay of a delayed grant, slots.
        meter_stuck: Probability a healthy meter enters a stuck episode.
        meter_dropout: Probability a healthy meter enters a dropout
            episode.
        meter_noise_sigma: Ambient relative meter noise σ.
        meter_episode_slots: Mean meter-fault episode length.
        derating_rate: Per-slot probability a random derating event
            starts.
        derating_fraction: Capacity fraction lost while derated.
        derating_slots: Mean derating window length.
        derating_events: Explicit, deterministic derating schedule.
        duplicate_probability: Probability a tenant's bid bundle is
            delivered twice in a slot (at-least-once transports).
            Settlement-neutral by invariant: the market's idempotent
            ingestion absorbs the second copy.
        crash_at_slot: Slot at which an injected operator crash kills
            the run (``None`` disables; see
            :class:`~repro.resilience.faults.CrashFault`).  Used by the
            recovery experiments to exercise checkpoint/restore.
        seed: Default seed for :meth:`build` (``None`` falls back to the
            library default).
    """

    name: str = "custom"
    bid_loss: float = 0.0
    grant_loss: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 0.3
    burst_loss: float = 0.9
    delay_probability: float = 0.0
    delay_slots: int = 3
    meter_stuck: float = 0.0
    meter_dropout: float = 0.0
    meter_noise_sigma: float = 0.0
    meter_episode_slots: int = 5
    derating_rate: float = 0.0
    derating_fraction: float = 0.2
    derating_slots: int = 12
    derating_events: tuple[DeratingEvent, ...] = ()
    duplicate_probability: float = 0.0
    crash_at_slot: int | None = None
    seed: int | None = None

    @classmethod
    def named(
        cls, name: str, intensity: float = DEFAULT_FAULT_INTENSITY
    ) -> "FaultProfile":
        """Build one of the named fault classes at a given intensity.

        Args:
            name: One of :data:`FAULT_CLASSES`.
            intensity: Scales the dominant probability of the class;
                roughly "fraction of unit-slots disturbed".
        """
        if name not in FAULT_CLASSES:
            raise ConfigurationError(
                f"unknown fault class {name!r}; choose from {FAULT_CLASSES}"
            )
        if not 0 <= intensity <= 1:
            raise ConfigurationError(
                f"intensity must be in [0, 1], got {intensity}"
            )
        x = float(intensity)
        if name == "none" or x == 0:
            return cls(name="none")
        if name == "comm":
            return cls(name=name, bid_loss=x, grant_loss=x)
        if name == "bursty":
            return cls(name=name, burst_enter=x / 3.0)
        if name == "delay":
            return cls(name=name, delay_probability=x)
        if name == "meter":
            return cls(
                name=name,
                meter_stuck=x / 2.0,
                meter_dropout=x / 2.0,
                meter_noise_sigma=0.02,
            )
        if name == "derating":
            return cls(name=name, derating_rate=x / 10.0)
        if name == "duplicate":
            return cls(name=name, duplicate_probability=x)
        return cls(  # chaos: every class at once
            name=name,
            bid_loss=x / 2.0,
            grant_loss=x / 2.0,
            burst_enter=x / 3.0,
            delay_probability=x / 2.0,
            meter_stuck=x / 2.0,
            meter_dropout=x / 2.0,
            meter_noise_sigma=0.02,
            derating_rate=x / 10.0,
            duplicate_probability=x / 2.0,
        )

    def derating_only(self) -> "FaultProfile":
        """This profile's infrastructure faults alone.

        Used for the invariant baseline: the PowerCapped comparison run
        must face the *identical* derating schedule (same seed → same
        random stream, because streams are keyed per channel) while
        market-channel faults, which cannot affect a marketless run,
        are dropped.
        """
        return FaultProfile(
            name=f"{self.name}+derating_only",
            derating_rate=self.derating_rate,
            derating_fraction=self.derating_fraction,
            derating_slots=self.derating_slots,
            derating_events=self.derating_events,
            seed=self.seed,
        )

    def sources(self) -> list[FaultSource]:
        """Instantiate this profile's fault sources (unbound)."""
        sources: list[FaultSource] = []
        if self.bid_loss > 0:
            sources.append(BernoulliLoss("bid", self.bid_loss))
        if self.grant_loss > 0:
            sources.append(BernoulliLoss("grant", self.grant_loss))
        if self.burst_enter > 0:
            sources.append(
                GilbertElliottLoss(
                    "bid", self.burst_enter, self.burst_exit, self.burst_loss
                )
            )
            sources.append(
                GilbertElliottLoss(
                    "grant", self.burst_enter, self.burst_exit, self.burst_loss
                )
            )
        if self.delay_probability > 0:
            sources.append(
                GrantDelaySource(self.delay_probability, self.delay_slots)
            )
        if self.meter_stuck > 0 or self.meter_dropout > 0 or (
            self.meter_noise_sigma > 0
        ):
            sources.append(
                MeterFaultSource(
                    stuck_probability=self.meter_stuck,
                    dropout_probability=self.meter_dropout,
                    noise_sigma=self.meter_noise_sigma,
                    episode_slots=self.meter_episode_slots,
                )
            )
        if self.derating_rate > 0 or self.derating_events:
            sources.append(
                DeratingSource(
                    events=self.derating_events,
                    event_rate=self.derating_rate,
                    fraction=self.derating_fraction,
                    duration_slots=self.derating_slots,
                )
            )
        if self.crash_at_slot is not None:
            sources.append(CrashFault(self.crash_at_slot))
        if self.duplicate_probability > 0:
            sources.append(
                DuplicateDeliverySource(self.duplicate_probability)
            )
        return sources

    def build(self, seed: int | None = None) -> FaultInjector | None:
        """Build the injector, or ``None`` if the profile is fault-free.

        Args:
            seed: Overrides the profile's own seed; falls back to
                :data:`repro.config.DEFAULT_SEED`.
        """
        sources = self.sources()
        if not sources:
            return None
        if seed is None:
            seed = self.seed if self.seed is not None else DEFAULT_SEED
        return FaultInjector(sources, seed=seed)
