"""Composable fault injection for the market loop.

Real colocation incidents are correlated and infrastructural: network
loss comes in bursts, meters stick or drop out for minutes at a time,
and a PDU/UPS can temporarily lose part of its capacity (maintenance,
failed modules, thermal derating).  Independent per-slot Bernoulli
drops (:class:`BernoulliLoss`, the paper's fault model) cannot express
any of that on their own, so this module is a pluggable framework:

* a :class:`FaultSource` models one failure mechanism on one *channel*
  (``"bid"``, ``"grant"``, ``"meter"``, or ``"capacity"``);
* a :class:`FaultInjector` composes any number of sources, derives a
  deterministic per-source random stream from a single seed, keeps
  the per-slot :class:`FaultLog` the chaos experiments localise bursts
  with, and delivers each slot's bids, grants and meter readings
  through its channels — holding delayed grant broadcasts until they
  land.

Safety framing (paper §III-C): every channel's failure state degrades to
the *default of "no spot capacity"* — a lost bid skips participation, a
lost or delayed grant leaves the rack at its guaranteed budget and is
never billed.  The two channels that can genuinely endanger the
infrastructure — corrupted meter readings inflating the operator's
headroom estimate, and capacity derating invalidating already-issued
grants — are exactly what the
:class:`repro.resilience.degradation.DegradationController` exists to
contain.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, OperatorCrash

__all__ = [
    "FaultRecord",
    "FaultLog",
    "GrantFault",
    "FaultSource",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "ScriptedLoss",
    "GrantDelaySource",
    "MeterFaultSource",
    "DeratingEvent",
    "DeratingSource",
    "CrashFault",
    "DuplicateDeliverySource",
    "FaultInjector",
]

#: Valid fault channels, in the order their random streams are derived.
#: New channels are strictly *appended* so the stream keys of earlier
#: channels — and therefore every existing seeded fault trace — are
#: unchanged: ``"crash"`` came after the original four (it never draws
#: randomness anyway: crashes are scripted), ``"duplicate"`` after that.
CHANNELS = ("bid", "grant", "meter", "capacity", "crash", "duplicate")


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """One injected fault occurrence.

    Attributes:
        slot: Simulation slot the fault was in force.
        kind: Fault kind, e.g. ``"bid_lost"``, ``"grant_lost"``,
            ``"grant_delayed"``, ``"stale_grant_applied"``,
            ``"meter_stuck"``, ``"meter_dropout"``, ``"derating_start"``,
            ``"derating_end"``.
        unit_id: Affected tenant, rack, PDU, or UPS identifier.
        magnitude: Kind-specific size: delayed slots, watts held by a
            stale grant, derated fraction, ... (0 when meaningless).
    """

    slot: int
    kind: str
    unit_id: str
    magnitude: float = 0.0


class FaultLog:
    """Per-slot time series of injected faults.

    Upgraded from the original scalar counters so experiments can
    localise bursts; :attr:`lost_bids` and :attr:`lost_grants` remain as
    derived properties for backward compatibility.
    """

    def __init__(self) -> None:
        self._records: list[FaultRecord] = []

    @property
    def records(self) -> tuple[FaultRecord, ...]:
        """Every injected fault, in injection order."""
        return tuple(self._records)

    def record(
        self, slot: int, kind: str, unit_id: str, magnitude: float = 0.0
    ) -> None:
        """Append one fault occurrence."""
        self._records.append(FaultRecord(slot, kind, unit_id, magnitude))

    def count(self, kind: str | None = None) -> int:
        """Number of recorded faults, optionally filtered by kind."""
        if kind is None:
            return len(self._records)
        return sum(1 for r in self._records if r.kind == kind)

    def slots(self, kind: str | None = None) -> list[int]:
        """Distinct slots with at least one (matching) fault, ascending."""
        return sorted(
            {r.slot for r in self._records if kind is None or r.kind == kind}
        )

    def of_kind(self, kind: str) -> list[FaultRecord]:
        """All records of one kind, in injection order."""
        return [r for r in self._records if r.kind == kind]

    def tail(self, start: int) -> list[FaultRecord]:
        """Records appended at or after index ``start``.

        Incremental consumers (the engine's telemetry event bridge)
        remember ``len(log)`` between slots and fetch only the delta —
        no per-slot full-log copies.
        """
        return self._records[start:]

    def __len__(self) -> int:
        return len(self._records)

    # Backward-compatible scalar views (the original FaultLog fields).

    @property
    def lost_bids(self) -> int:
        """Tenant-slots whose bid submission was dropped."""
        return self.count("bid_lost")

    @property
    def lost_grants(self) -> int:
        """Rack-slots whose grant/budget broadcast was dropped."""
        return self.count("grant_lost")


@dataclasses.dataclass(frozen=True)
class GrantFault:
    """Outcome of a faulty grant delivery.

    Attributes:
        kind: ``"lost"`` (broadcast never arrives) or ``"delayed"``
            (broadcast arrives ``delay_slots`` slots late and applies as
            a stale budget).
        delay_slots: Delivery delay for ``"delayed"`` faults.
    """

    kind: str
    delay_slots: int = 0


def _check_probability(name: str, p: float) -> float:
    if not 0 <= p <= 1:
        raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
    return float(p)


class FaultSource:
    """One failure mechanism on one channel.

    Subclasses implement the hook matching their channel:
    ``lost(slot, unit_id)`` for ``"bid"``/``"grant"`` loss sources,
    ``grant_fault(slot, rack_id, grant_w)`` for grant-delivery sources,
    ``metered(slot, rack_id, true_w)`` for ``"meter"`` sources, and
    ``transitions(slot, topology)`` for ``"capacity"`` sources.
    """

    #: Channel this source participates in (one of :data:`CHANNELS`).
    channel: str = "bid"
    #: Stable short name (used in logs and for stream derivation).
    name: str = "source"

    def __init__(self) -> None:
        self._rng: np.random.Generator | None = None

    def bind(self, rng: np.random.Generator) -> None:
        """Attach this source's dedicated random stream."""
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            raise ConfigurationError(
                f"fault source {self.name!r} used before FaultInjector bound "
                "its random stream"
            )
        return self._rng

    def lost(self, slot: int, unit_id: str) -> bool:  # pragma: no cover
        """Whether the unit's message is dropped this slot."""
        return False


class BernoulliLoss(FaultSource):
    """Independent per-slot message loss (the paper's §III-C fault model).

    Args:
        channel: ``"bid"`` or ``"grant"``.
        probability: Per-unit-per-slot loss probability.
    """

    def __init__(self, channel: str, probability: float) -> None:
        super().__init__()
        if channel not in ("bid", "grant"):
            raise ConfigurationError(
                f"BernoulliLoss channel must be 'bid' or 'grant', got {channel!r}"
            )
        self.channel = channel
        self.name = f"bernoulli_{channel}"
        self.probability = _check_probability("probability", probability)

    def lost(self, slot: int, unit_id: str) -> bool:
        if self.probability <= 0:
            return False
        return bool(self.rng.random() < self.probability)


class GilbertElliottLoss(FaultSource):
    """Bursty two-state (good/bad) Markov loss channel.

    The classic Gilbert-Elliott model: each unit's channel is either in
    the *good* state (loss probability ``loss_good``, usually 0) or the
    *bad* state (``loss_bad``, usually near 1), with geometric sojourn
    times.  Losses therefore arrive in bursts — the failure shape of
    congested or flapping management networks, which independent
    Bernoulli drops cannot produce.

    Args:
        channel: ``"bid"`` or ``"grant"``.
        enter_bad: Per-slot probability a good channel turns bad.
        exit_bad: Per-slot probability a bad channel recovers.
        loss_bad: Loss probability while bad.
        loss_good: Loss probability while good.
    """

    def __init__(
        self,
        channel: str,
        enter_bad: float,
        exit_bad: float = 0.25,
        loss_bad: float = 0.9,
        loss_good: float = 0.0,
    ) -> None:
        super().__init__()
        if channel not in ("bid", "grant"):
            raise ConfigurationError(
                f"GilbertElliottLoss channel must be 'bid' or 'grant', got "
                f"{channel!r}"
            )
        self.channel = channel
        self.name = f"gilbert_elliott_{channel}"
        self.enter_bad = _check_probability("enter_bad", enter_bad)
        self.exit_bad = _check_probability("exit_bad", exit_bad)
        self.loss_bad = _check_probability("loss_bad", loss_bad)
        self.loss_good = _check_probability("loss_good", loss_good)
        self._bad: dict[str, bool] = {}

    def lost(self, slot: int, unit_id: str) -> bool:
        if self.enter_bad <= 0 and not self._bad:
            return False
        bad = self._bad.get(unit_id, False)
        flip = self.exit_bad if bad else self.enter_bad
        if self.rng.random() < flip:
            bad = not bad
        self._bad[unit_id] = bad
        p = self.loss_bad if bad else self.loss_good
        return bool(p > 0 and self.rng.random() < p)


class ScriptedLoss(FaultSource):
    """Deterministic loss at scripted slots (regression-test harness).

    Args:
        channel: ``"bid"`` or ``"grant"``.
        slots: Slots at which the loss fires.
        unit_ids: Restrict the loss to these units (``None`` = all).
    """

    def __init__(
        self,
        channel: str,
        slots: Iterable[int],
        unit_ids: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        if channel not in ("bid", "grant"):
            raise ConfigurationError(
                f"ScriptedLoss channel must be 'bid' or 'grant', got {channel!r}"
            )
        self.channel = channel
        self.name = f"scripted_{channel}"
        self.slots = frozenset(int(s) for s in slots)
        self.unit_ids = None if unit_ids is None else frozenset(unit_ids)

    def lost(self, slot: int, unit_id: str) -> bool:
        return slot in self.slots and (
            self.unit_ids is None or unit_id in self.unit_ids
        )


class GrantDelaySource(FaultSource):
    """Delayed/stale grant delivery.

    With probability ``probability`` a rack's grant broadcast is delayed
    by ``delay_slots`` slots: the rack misses the grant for the slot it
    was cleared for (reverting to the guaranteed budget, unbilled) and
    the *stale* budget later applies to a slot the market never cleared
    it for — the hazardous half that the degradation controller must
    contain.
    """

    channel = "grant"

    def __init__(self, probability: float, delay_slots: int = 3) -> None:
        super().__init__()
        self.name = "grant_delay"
        self.probability = _check_probability("probability", probability)
        if delay_slots < 1:
            raise ConfigurationError("delay_slots must be >= 1")
        self.delay_slots = int(delay_slots)

    def grant_fault(
        self, slot: int, rack_id: str, grant_w: float
    ) -> GrantFault | None:
        if self.probability <= 0:
            return None
        if self.rng.random() < self.probability:
            return GrantFault("delayed", self.delay_slots)
        return None


class MeterFaultSource(FaultSource):
    """Rack power-meter faults: stuck-at, dropout, and reading noise.

    Faulty meters are episodic: once a meter sticks (keeps reporting the
    reading it froze at) or drops out (reports zero), it stays faulty
    for a geometrically distributed number of slots.  Ambient
    multiplicative Gaussian noise models calibration error on healthy
    meters.  Corrupted readings flow through the operator's
    :class:`~repro.infrastructure.monitor.PowerMonitor` into the
    spot-capacity predictor — the operator then clears the market on
    wrong headroom, which is precisely the excursion path the
    degradation controller closes.

    Args:
        stuck_probability: Per-rack-per-slot probability a healthy meter
            enters a stuck episode.
        dropout_probability: Likewise for a zero-reading episode.
        noise_sigma: Relative σ of ambient reading noise (0 disables).
        episode_slots: Mean episode length, slots (geometric).
        unit_ids: Restrict faults to these racks (``None`` = all).
    """

    channel = "meter"

    def __init__(
        self,
        stuck_probability: float = 0.0,
        dropout_probability: float = 0.0,
        noise_sigma: float = 0.0,
        episode_slots: int = 5,
        unit_ids: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        self.name = "meter"
        self.stuck_probability = _check_probability(
            "stuck_probability", stuck_probability
        )
        self.dropout_probability = _check_probability(
            "dropout_probability", dropout_probability
        )
        if noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if episode_slots < 1:
            raise ConfigurationError("episode_slots must be >= 1")
        self.noise_sigma = float(noise_sigma)
        self.episode_slots = int(episode_slots)
        self.unit_ids = None if unit_ids is None else frozenset(unit_ids)
        # rack_id -> (kind, remaining_slots, frozen_reading)
        self._episodes: dict[str, tuple[str, int, float]] = {}

    def _maybe_start_episode(self, rack_id: str, true_w: float) -> None:
        draw = self.rng.random()
        if draw < self.stuck_probability:
            kind = "meter_stuck"
        elif draw < self.stuck_probability + self.dropout_probability:
            kind = "meter_dropout"
        else:
            return
        length = 1 + int(self.rng.geometric(1.0 / self.episode_slots))
        self._episodes[rack_id] = (kind, length, true_w)

    def metered(self, slot: int, rack_id: str, true_w: float, log: FaultLog) -> float:
        if self.unit_ids is not None and rack_id not in self.unit_ids:
            return true_w
        episode = self._episodes.get(rack_id)
        if episode is None:
            if self.stuck_probability > 0 or self.dropout_probability > 0:
                self._maybe_start_episode(rack_id, true_w)
            episode = self._episodes.get(rack_id)
        reading = true_w
        if episode is not None:
            kind, remaining, frozen = episode
            reading = frozen if kind == "meter_stuck" else 0.0
            log.record(slot, kind, rack_id, reading)
            if remaining <= 1:
                del self._episodes[rack_id]
            else:
                self._episodes[rack_id] = (kind, remaining - 1, frozen)
        if self.noise_sigma > 0:
            reading *= max(0.0, 1.0 + self.rng.normal(0.0, self.noise_sigma))
        return reading


@dataclasses.dataclass(frozen=True)
class DeratingEvent:
    """One scheduled infrastructure derating window.

    Attributes:
        slot: First slot the derating is in force.
        duration_slots: Window length.
        unit_id: PDU id, or the UPS id for a facility-level derating.
        fraction: Fraction of capacity lost, in (0, 1).
    """

    slot: int
    duration_slots: int
    unit_id: str
    fraction: float

    def __post_init__(self) -> None:
        if self.duration_slots < 1:
            raise ConfigurationError("duration_slots must be >= 1")
        if not 0 < self.fraction < 1:
            raise ConfigurationError(
                f"derating fraction must be in (0, 1), got {self.fraction}"
            )


class DeratingSource(FaultSource):
    """PDU/UPS capacity derating: scheduled or randomly arriving events.

    A derated unit temporarily loses ``fraction`` of its physical
    capacity mid-run (failed power module, thermal derating, maintenance
    bypass).  Grants already issued against the full capacity may become
    infeasible the moment the event starts — the degradation controller
    revokes them.  Events apply to the *live* topology capacities, so
    the emergency log and next-slot predictions both see them.

    Args:
        events: Explicit schedule (deterministic).
        event_rate: Per-slot probability a random event starts somewhere.
        fraction: Capacity fraction lost by random events.
        duration_slots: Mean random-event length (geometric).
        include_ups: Whether random events may hit the UPS (else PDUs
            only).
    """

    channel = "capacity"

    def __init__(
        self,
        events: Sequence[DeratingEvent] = (),
        event_rate: float = 0.0,
        fraction: float = 0.15,
        duration_slots: int = 10,
        include_ups: bool = True,
    ) -> None:
        super().__init__()
        self.name = "derating"
        self.events = tuple(events)
        self.event_rate = _check_probability("event_rate", event_rate)
        if not 0 < fraction < 1:
            raise ConfigurationError(
                f"derating fraction must be in (0, 1), got {fraction}"
            )
        if duration_slots < 1:
            raise ConfigurationError("duration_slots must be >= 1")
        self.fraction = float(fraction)
        self.duration_slots = int(duration_slots)
        self.include_ups = include_ups
        self._active: dict[str, int] = {}  # unit_id -> end slot (exclusive)

    def _unit(self, unit_id: str, topology):
        if unit_id == topology.ups.ups_id:
            return topology.ups
        return topology.pdu(unit_id)

    def transitions(self, slot: int, topology, log: FaultLog) -> None:
        """Apply this slot's derating starts/ends to the topology."""
        for unit_id, end in list(self._active.items()):
            if slot >= end:
                self._unit(unit_id, topology).restore_capacity()
                del self._active[unit_id]
                log.record(slot, "derating_end", unit_id)
        starting: list[DeratingEvent] = [
            e for e in self.events if e.slot == slot
        ]
        if self.event_rate > 0 and self.rng.random() < self.event_rate:
            units = list(topology.pdus)
            if self.include_ups:
                units.append(topology.ups.ups_id)
            unit_id = units[int(self.rng.integers(len(units)))]
            duration = 1 + int(self.rng.geometric(1.0 / self.duration_slots))
            starting.append(
                DeratingEvent(slot, duration, unit_id, self.fraction)
            )
        for event in starting:
            if event.unit_id in self._active:
                continue  # unit already derated; ignore the overlap
            self._unit(event.unit_id, topology).apply_derating(event.fraction)
            self._active[event.unit_id] = slot + event.duration_slots
            log.record(slot, "derating_start", event.unit_id, event.fraction)


class CrashFault(FaultSource):
    """Scripted operator-process crash at a fixed slot.

    Unlike every other source, a crash does not corrupt an *input* — it
    kills the operator's slot loop itself, by raising
    :class:`repro.errors.OperatorCrash` at the top of slot ``at_slot``
    (before any market work for that slot).  It exists to exercise the
    checkpoint/restore path end to end: crash at slot *k*, resume from
    the latest checkpoint, and demand byte-identical results vs. the
    uninterrupted run.

    The crash is deliberately **not** recorded in the :class:`FaultLog`
    and draws no randomness: either would make the crashed-then-resumed
    run observably different from the uninterrupted one, breaking the
    recovery invariant the source exists to test.

    Args:
        at_slot: Slot at which the crash fires (once).
    """

    channel = "crash"

    def __init__(self, at_slot: int) -> None:
        super().__init__()
        self.name = "crash"
        if at_slot < 1:
            raise ConfigurationError(
                f"CrashFault at_slot must be >= 1 (slot 0 has no market), "
                f"got {at_slot}"
            )
        self.at_slot = int(at_slot)
        self.armed = True

    def check(self, slot: int) -> None:
        """Raise :class:`OperatorCrash` if armed for this slot."""
        if self.armed and slot == self.at_slot:
            self.armed = False
            raise OperatorCrash(slot)


class DuplicateDeliverySource(FaultSource):
    """At-least-once transport: a tenant's bid bundle arrives twice.

    With probability ``probability`` per tenant per slot, the tenant's
    submitted bundle is delivered to the market a second time — the
    failure shape of any at-least-once transport (a client that retried
    after a lost ack, a message bus redelivering on timeout).  Unlike
    the loss channels, a duplicate is *not* supposed to change anything:
    the market's idempotent ingestion
    (:func:`repro.recovery.admission.dedupe_bundles`) absorbs the extra
    copy, and the chaos sweep machine-checks that settlement totals are
    identical with and without this channel.

    Args:
        probability: Per-tenant-per-slot duplicate-delivery probability.
        unit_ids: Restrict duplicates to these tenants (``None`` = all).
    """

    channel = "duplicate"

    def __init__(
        self, probability: float, unit_ids: Iterable[str] | None = None
    ) -> None:
        super().__init__()
        self.name = "duplicate_delivery"
        self.probability = _check_probability("probability", probability)
        self.unit_ids = None if unit_ids is None else frozenset(unit_ids)

    def duplicated(self, slot: int, tenant_id: str) -> bool:
        """Whether this tenant's bundle is delivered twice this slot."""
        if self.probability <= 0:
            return False
        if self.unit_ids is not None and tenant_id not in self.unit_ids:
            return False
        return bool(self.rng.random() < self.probability)


class FaultInjector:
    """Composable fault injection with one seed and one log.

    Args:
        sources: The fault sources to compose.  Sources are grouped by
            channel; within a channel they are consulted in the given
            order (for grant delivery, any loss wins over a delay).
        seed: Seed from which each source derives its own independent
            random stream.  Streams are keyed by *(seed, channel,
            ordinal within channel)*, so e.g. a derating-only injector
            and a full chaos injector built from the same seed produce
            byte-identical derating schedules — the property the
            SpotDC-vs-PowerCapped invariant check rests on.
        rng: Alternatively, a pre-built generator shared by all sources
            in call order (one draw per consulted source).
            Exactly one of ``seed``/``rng`` must be provided.
    """

    def __init__(
        self,
        sources: Sequence[FaultSource] = (),
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if (seed is None) == (rng is None):
            raise ConfigurationError(
                "pass exactly one of seed= or rng= (reproducibility is "
                "not optional)"
            )
        self.log = FaultLog()
        # Delayed grant broadcasts awaiting delivery:
        # delivery slot -> [(rack_id, grant_w), ...].
        self._pending: dict[int, list[tuple[str, float]]] = {}
        self._by_channel: dict[str, list[FaultSource]] = {
            c: [] for c in CHANNELS
        }
        for source in sources:
            if source.channel not in self._by_channel:
                raise ConfigurationError(
                    f"source {source.name!r} has unknown channel "
                    f"{source.channel!r}"
                )
            self._by_channel[source.channel].append(source)
        for channel_index, channel in enumerate(CHANNELS):
            for ordinal, source in enumerate(self._by_channel[channel]):
                if rng is not None:
                    source.bind(rng)
                else:
                    source.bind(
                        np.random.default_rng(
                            [int(seed), channel_index, ordinal]
                        )
                    )

    @property
    def sources(self) -> tuple[FaultSource, ...]:
        """All sources, grouped by channel in derivation order."""
        return tuple(
            s for channel in CHANNELS for s in self._by_channel[channel]
        )

    @property
    def has_meter_faults(self) -> bool:
        """Whether any meter source is configured."""
        return bool(self._by_channel["meter"])

    @property
    def has_duplicate_sources(self) -> bool:
        """Whether any duplicate-delivery source is configured."""
        return bool(self._by_channel["duplicate"])

    # ------------------------------------------------------------------
    # Channel queries (called by the simulation engine)
    # ------------------------------------------------------------------

    def bid_lost(self, slot: int, tenant_id: str) -> bool:
        """Whether this tenant's bid submission is lost this slot."""
        for source in self._by_channel["bid"]:
            if source.lost(slot, tenant_id):
                self.log.record(slot, "bid_lost", tenant_id)
                return True
        return False

    def bid_duplicated(self, slot: int, tenant_id: str) -> bool:
        """Whether this tenant's bundle is delivered twice this slot."""
        for source in self._by_channel["duplicate"]:
            if source.duplicated(slot, tenant_id):
                self.log.record(slot, "bid_duplicated", tenant_id)
                return True
        return False

    def deliver_bids(self, slot: int, tenants):
        """The tenants whose bids arrive, and whose bundles arrive twice.

        A tenant whose bid is lost sits the slot out, the default "no
        spot capacity" state (§III-C).  The second value holds the ids of
        the arriving tenants whose bundle is delivered twice, or is
        ``None`` when no duplicate-delivery source is configured; the
        market's idempotent ingestion absorbs the extra copies.
        """
        active = [t for t in tenants if not self.bid_lost(slot, t.tenant_id)]
        duplicated = None
        if self.has_duplicate_sources:
            duplicated = frozenset(
                t.tenant_id for t in active if self.bid_duplicated(slot, t.tenant_id)
            )
        return active, duplicated

    def deliver_grants(self, slot: int, grants_w) -> tuple[list[str], list[str]]:
        """Broadcast this slot's positive grants; return the lost and delayed racks.

        One :meth:`grant_fault` per positive grant, in ``grants_w``
        order.  A lost or delayed rack misses the grant it was cleared
        for, so that slot is unbilled; a delayed grant is held here and
        lands as a stale budget :attr:`GrantFault.delay_slots` later
        (:meth:`land_stale_grants`).
        """
        lost: list[str] = []
        delayed: list[str] = []
        for rack_id, grant_w in grants_w.items():
            if grant_w <= 0:
                continue
            fault = self.grant_fault(slot, rack_id, grant_w)
            if fault is None:
                continue
            if fault.kind == "delayed":
                delayed.append(rack_id)
                self._pending.setdefault(slot + fault.delay_slots, []).append(
                    (rack_id, grant_w)
                )
            else:
                lost.append(rack_id)
        return lost, delayed

    def land_stale_grants(self, slot: int, topology) -> int:
        """Apply the grants delayed into this slot; return how many landed.

        The rack PDU obeys the late budget reset unless a fresh grant
        already arrived this slot, and never above the rack's spot cap.
        The stale budget was never cleared for this slot and is never
        billed — it is a hazard for the degradation controller, not a
        market outcome.
        """
        landed = 0
        for rack_id, grant_w in self._pending.pop(slot, []):
            rack = topology.rack(rack_id)
            if rack.spot_budget_w > 0:
                continue
            rack.set_spot_budget(min(grant_w, rack.max_spot_w))
            landed += 1
            self.log.record(slot, "stale_grant_applied", rack_id, grant_w)
        return landed

    def grant_fault(
        self, slot: int, rack_id: str, grant_w: float
    ) -> GrantFault | None:
        """Delivery fault, if any, for this rack's grant broadcast."""
        delay: GrantFault | None = None
        for source in self._by_channel["grant"]:
            if hasattr(source, "grant_fault"):
                fault = source.grant_fault(slot, rack_id, grant_w)
                if fault is not None and delay is None:
                    delay = fault
            elif source.lost(slot, rack_id):
                self.log.record(slot, "grant_lost", rack_id, grant_w)
                return GrantFault("lost")
        if delay is not None:
            self.log.record(
                slot, "grant_delayed", rack_id, float(delay.delay_slots)
            )
        return delay

    def metered_power_w(self, slot: int, rack_id: str, true_w: float) -> float:
        """The operator-visible meter reading for a true draw."""
        reading = true_w
        for source in self._by_channel["meter"]:
            reading = source.metered(slot, rack_id, reading, self.log)
        return reading

    def apply_capacity_faults(self, slot: int, topology) -> None:
        """Apply this slot's derating transitions to the live topology."""
        for source in self._by_channel["capacity"]:
            source.transitions(slot, topology, self.log)

    def check_crash(self, slot: int) -> None:
        """Raise :class:`repro.errors.OperatorCrash` if a crash is due.

        Called by the engine at the top of every slot, *after* the
        previous slot's checkpoint was written, so a resumed run replays
        the crashed slot from its beginning.
        """
        for source in self._by_channel["crash"]:
            source.check(slot)

    def disarm_next_crash(self, start_slot: int) -> None:
        """Disarm the next crash at or after ``start_slot``.

        Called on resume: the restored injector still carries the armed
        :class:`CrashFault` that killed the previous process, and
        without disarming it the resumed run would crash at the same
        slot forever.  Only the *earliest* armed crash at or after the
        resume point is disarmed, so multi-crash schedules (crash →
        resume → crash again → resume) work.
        """
        armed = [
            s
            for s in self._by_channel["crash"]
            if getattr(s, "armed", False) and s.at_slot >= start_slot
        ]
        if armed:
            min(armed, key=lambda s: s.at_slot).armed = False
