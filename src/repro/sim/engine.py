"""The time-slotted simulation engine (paper Algorithm 1, end to end).

Each slot ``t >= 1``:

1. tenants analyse their anticipated slot-``t`` workload and submit
   demand-function bids (during slot ``t-1`` in the paper's timing,
   Fig. 6);
2. the operator predicts the available spot capacity from current rack
   telemetry;
3. the allocator decides grants — the SpotDC market clears a uniform
   price; baselines allocate by their own policy;
4. rack budgets are reset through the intelligent rack PDUs and tenants
   execute the slot under their enforced budgets;
5. telemetry, emergencies, billing, and operator accounting are
   recorded.

Slot 0 runs without spot capacity (bids for a slot are placed during
the *previous* slot, and there is none).

Under fault injection (:mod:`repro.resilience`) the loop gains three
stages: capacity-derating transitions are applied to the live topology
before budgets are final, delayed (stale) grant broadcasts from earlier
slots land on racks with no fresh grant, and the
:class:`~repro.resilience.degradation.DegradationController` then
projects every PDU/UPS constraint from hardened (true) telemetry and
revokes grants — cheapest clearing value first — until the slot is
provably safe, crediting revoked energy in settlement.

Batch and daemon mode share one slot-step function
--------------------------------------------------

The loop is exposed as three phases so :mod:`repro.daemon` can drive
the *same* per-slot market work from an asyncio service:

* :meth:`SimulationEngine.begin_run` — validate, adopt a checkpoint (or
  prepare the scenario fresh), and build the picklable run state;
* :meth:`SimulationEngine.step_slot` — process exactly one slot,
  optionally against externally submitted bid bundles;
* :meth:`SimulationEngine.finish_run` — restore the topology and build
  the :class:`~repro.sim.results.SimulationResult`.

:meth:`SimulationEngine.run` is the batch driver: ``begin_run`` →
``step_slot`` per slot → ``finish_run``.  The run state lives on the
engine, so a recovery checkpoint taken between slots captures it
automatically and a resumed run continues mid-loop.
"""

from __future__ import annotations

from repro.config import MarketParameters
from repro.core.market import Allocator, SlotMarketRecord, SpotDCAllocator
from repro.economics.profit import OperatorLedger
from repro.errors import RecoveryError, SimulationError
from repro.events.absorber import ShockAbsorber
from repro.forecast.release import RiskAwareReleasePolicy
from repro.forecast.signals import CurrentDrawSignal, Signal
from repro.infrastructure.emergencies import EmergencyLog
from repro.infrastructure.monitor import PowerMonitor
from repro.prediction.price import EwmaPricePredictor, PricePredictor
from repro.recovery.checkpoint import load_checkpoint, save_checkpoint
from repro.recovery.deadline import (
    ClearingDeadlineGuard,
    build_fallback_record,
    default_budget_s,
)
from repro.resilience.degradation import DegradationController, revoke_and_rebill
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.telemetry import Telemetry, default_config
from repro.telemetry.registry import DEFAULT_PRICE_BUCKETS, DEFAULT_WATTS_BUCKETS
from repro.workloads.base import SlotPerformance

__all__ = ["SimulationEngine", "run_simulation"]


class _RunState:
    """Loop state shared by every slot of one run.

    Everything the next :meth:`SimulationEngine.step_slot` call depends
    on that is not already an engine attribute lives here — metric
    handles (created once, in a fixed order, so the exported registry
    is identical to the historical single-function loop) and the
    "seen" cursors for incremental fault/degradation event bridging.
    The object is plain data and picklable: it is checkpointed with the
    engine, so a resumed run continues mid-loop — cursors, handles and
    the forecast-accuracy accumulators included — without re-deriving
    anything.
    """

    def __init__(
        self,
        *,
        slots,
        checkpoint_every,
        checkpoint_dir,
        participants,
        slot_seconds,
        total_guaranteed,
        m_slots,
        m_bids,
        m_grants,
        m_revoked_w,
        m_revenue,
        m_emergencies,
        g_price,
        g_ups,
        h_price,
        h_granted,
        g_forecast_error,
        m_forecast_slots,
        m_forecast_covered,
        guaranteed_by_rack,
        faults_seen,
        actions_seen,
        credits_seen,
        emergencies_seen,
        next_slot,
    ) -> None:
        self.slots = slots
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.participants = participants
        self.slot_seconds = slot_seconds
        self.slot_hours = slot_seconds / 3600.0
        self.total_guaranteed = total_guaranteed
        self.m_slots = m_slots
        self.m_bids = m_bids
        self.m_grants = m_grants
        self.m_revoked_w = m_revoked_w
        self.m_revenue = m_revenue
        self.m_emergencies = m_emergencies
        self.g_price = g_price
        self.g_ups = g_ups
        self.h_price = h_price
        self.h_granted = h_granted
        self.g_forecast_error = g_forecast_error
        self.m_forecast_slots = m_forecast_slots
        self.m_forecast_covered = m_forecast_covered
        self.guaranteed_by_rack = guaranteed_by_rack
        # Released-forecast accuracy accumulators (summary JSON).
        self.forecast_error_sum = 0.0
        self.forecast_abs_error_sum = 0.0
        self.forecast_covered = 0
        self.forecast_slots = 0
        self.faults_seen = faults_seen
        self.actions_seen = actions_seen
        self.credits_seen = credits_seen
        self.emergencies_seen = emergencies_seen
        self.next_slot = next_slot


class SimulationEngine:
    """Runs one scenario under one allocation policy.

    Args:
        scenario: The facility, tenants, and prices.
        allocator: Slot-level allocation policy (default: SpotDC).
        signal: Forecasting :class:`~repro.forecast.signals.Signal`
            producing the per-slot banded forecast.  ``None`` falls back
            to the scenario's ``prediction`` profile, then the paper's
            default :class:`~repro.forecast.signals.CurrentDrawSignal`
            (built with ``reference_window``).
        release_policy: :class:`~repro.forecast.release.RiskAwareReleasePolicy`
            choosing the band quantile actually released to the market;
            ``None`` falls back to the scenario's ``prediction`` profile
            (when the signal also came from it) and then to releasing
            the point forecast — the paper's behaviour.
        price_predictor: Tenant-side market-price forecaster handed to
            bidding strategies (only strategies that use forecasts react
            to it).  ``None`` disables forecasting.
        history_slots: Monitor history retention.
        reference_window: Rolling window (slots) for the conservative
            per-rack reference power used in spot-capacity prediction.
        constraint_provider: Optional zero-argument callable returning
            this slot's extra capacity constraints (phase balance, heat
            density) — evaluated after telemetry is current, e.g.
            ``lambda: phase_assignment.phase_headroom()`` or
            ``lambda: zone_constraints(zones, scenario.topology)``.
        enforcement: Optional
            :class:`repro.infrastructure.enforcement.EnforcementPolicy`
            policing budget overdraws: warned racks escalate to an
            involuntary spot-market bar (paper §III-C).
        fault_model: Optional
            :class:`repro.resilience.faults.FaultInjector` injecting
            bid/grant communication losses, delayed grants, meter
            faults, and capacity deratings
            (paper §III-C "Handling exceptions").  ``None`` falls back
            to the scenario's own ``fault_profile``, if any.
        degradation: Excursion containment under faults.  ``None``
            (default) auto-creates a
            :class:`~repro.resilience.degradation.DegradationController`
            whenever a fault model is active; pass ``False`` to disable
            containment (e.g. to demonstrate the unprotected excursion),
            or a pre-built controller to tune its margins.
        telemetry: Observability for the run: a
            :class:`repro.telemetry.TelemetryConfig`, a pre-built
            :class:`repro.telemetry.Telemetry`, or ``None`` to fall back
            to the scenario's ``telemetry`` config and then the
            process-wide default (:func:`repro.telemetry.default_config`)
            — disabled when neither is set.  When enabled, every slot is
            traced as one span tree (``predict -> bid_collect -> clear ->
            grant -> enforce -> settle``), faults/revocations/invoices
            become events, and artifacts are exported at the end of the
            run if the config names an output directory.
    """

    #: Written once per run by checkpoints (:mod:`repro.recovery.checkpoint`).
    run_inputs = ("_rack_infos", "_tenant_infos")

    def __init__(
        self,
        scenario: Scenario,
        allocator: Allocator | None = None,
        signal: Signal | None = None,
        release_policy: RiskAwareReleasePolicy | None = None,
        price_predictor: PricePredictor | None = None,
        history_slots: int = 200_000,
        reference_window: int = 5,
        constraint_provider=None,
        fault_model=None,
        enforcement=None,
        degradation=None,
        telemetry=None,
    ) -> None:
        self.scenario = scenario
        if telemetry is None:
            telemetry = getattr(scenario, "telemetry", None)
        if telemetry is None:
            telemetry = default_config()
        self.telemetry = Telemetry.resolve(telemetry)
        self.reference_window = reference_window
        self.constraint_provider = constraint_provider
        if fault_model is None:
            profile = getattr(scenario, "fault_profile", None)
            if profile is not None:
                seed = profile.seed if profile.seed is not None else scenario.seed
                fault_model = profile.build(seed=seed)
        self.fault_model = fault_model
        self.enforcement = enforcement
        events = getattr(scenario, "events", None)
        self.shock_absorber = ShockAbsorber(events) if events is not None else None
        if degradation is None:
            # Grid events need the §III-C revocation ladder (rung 3 of
            # the shock absorber) even in fault-free runs.
            degradation = (
                DegradationController()
                if fault_model is not None or self.shock_absorber is not None
                else None
            )
        elif degradation is False:
            degradation = None
        self.degradation = degradation
        self.allocator = allocator or SpotDCAllocator(
            params=MarketParameters(slot_seconds=scenario.slot_seconds)
        )
        # Exactly one forecast-producing code path: every entry point —
        # an explicit signal, a scenario `prediction` block, or nothing
        # at all — resolves to a Signal + release policy.
        prediction = getattr(scenario, "prediction", None)
        if signal is None:
            if prediction is not None:
                signal = prediction.build_signal()
                if release_policy is None:
                    release_policy = prediction.build_policy()
            else:
                signal = CurrentDrawSignal(window=reference_window)
        self.signal = signal
        self.release_policy = release_policy or RiskAwareReleasePolicy()
        self.price_predictor = price_predictor
        self.monitor = PowerMonitor(scenario.topology, history_slots=history_slots)
        self.emergencies = EmergencyLog()
        self.ledger = OperatorLedger(
            price_sheet=scenario.price_sheet,
            overprovisioned_w=(
                scenario.overprovisioned_w()
                if self.allocator.provisions_spot
                else 0.0
            ),
            infrastructure_cost_per_hour=scenario.infrastructure_cost_per_hour,
        )
        rack_infos = scenario.rack_infos()
        tenant_infos = scenario.tenant_infos()
        self.collector = MetricsCollector(
            rack_ids=[r.rack_id for r in rack_infos],
            pdu_ids=list(scenario.topology.pdus),
            tenant_ids=[t.tenant_id for t in tenant_infos],
        )
        self._rack_infos = rack_infos
        self._tenant_infos = tenant_infos
        # Delayed (stale) grant broadcasts awaiting delivery:
        # delivery slot -> [(rack_id, grant_w), ...].
        self._pending_stale: dict[int, list[tuple[str, float]]] = {}
        # Last *successfully cleared* market price, feeding the deadline
        # guard's reuse_price fallback.  A fallback slot does not update
        # it: falling back twice in a row must not compound.
        self._last_price: float | None = None
        # Bundles quarantined by the admission front door, per tenant.
        self._quarantined_by_tenant: dict[str, int] = {}
        # Active run state; set by begin_run, cleared by finish_run.
        self._run: _RunState | None = None
        # Where checkpoints go and what they hold (repro.recovery.checkpoint).
        self._checkpoint_cursor = None
        deadline = getattr(scenario, "clearing_deadline_s", None)
        if deadline is None or deadline is False:
            self.deadline_guard = None
        else:
            budget = (
                default_budget_s(scenario.slot_seconds)
                if deadline is True
                else float(deadline)
            )
            self.deadline_guard = ClearingDeadlineGuard(budget)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self.run_inputs:
            del state[name]
        # Each checkpoint envelope records its own cursor.
        state["_checkpoint_cursor"] = None
        return state

    def begin_run(
        self,
        slots: int,
        *,
        checkpoint_every: int | None = None,
        checkpoint_dir=None,
        resume_from=None,
    ) -> int:
        """Prepare (or resume) a run and return the first slot to process.

        On a fresh run the scenario is prepared (tenant RNGs re-seeded)
        and the run state built from scratch; with ``resume_from`` (a
        checkpoint path, or the envelope :func:`load_checkpoint` returned)
        the engine's entire state — including the mid-loop run state — is
        replaced by the checkpointed one and the first unprocessed slot
        is returned.  Callers then drive :meth:`step_slot` for every
        slot in ``range(start, slots)`` and finish with
        :meth:`finish_run`.

        Raises:
            RecoveryError: On a bad checkpoint, a horizon mismatch, or a
                checkpoint that already covers the full horizon.
            SimulationError: On invalid ``slots``/checkpoint arguments.
        """
        if slots <= 0:
            raise SimulationError("slots must be positive")
        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise SimulationError("checkpoint_every must be positive")
            if checkpoint_dir is None:
                raise SimulationError(
                    "checkpoint_every requires a checkpoint_dir"
                )
        if resume_from is not None:
            envelope = (
                resume_from if isinstance(resume_from, dict) else load_checkpoint(resume_from)
            )
            if envelope["horizon"] != slots:
                raise RecoveryError(
                    f"checkpoint was written for a {envelope['horizon']}-slot "
                    f"run, cannot resume a {slots}-slot one"
                )
            start_slot = envelope["slot"] + 1
            if start_slot >= slots:
                raise RecoveryError(
                    f"checkpoint already covers slot {envelope['slot']} of "
                    f"{slots}; nothing left to resume"
                )
            # Adopt the checkpointed engine wholesale: every attribute —
            # RNG streams, monitor history, ledger, telemetry, fault and
            # degradation state, and the mid-loop run state with its
            # cursors and accumulators — continues exactly where the
            # crashed run left it.
            self.__dict__.update(envelope["engine"].__dict__)
            self._run.checkpoint_every = checkpoint_every
            self._run.checkpoint_dir = checkpoint_dir
            if self.shock_absorber is not None:
                self.shock_absorber.bind_telemetry(self.telemetry.registry)
            if self.fault_model is not None:
                # The crash that killed the previous run must not re-fire
                # on the resumed one (later scheduled crashes still do).
                self.fault_model.disarm_next_crash(start_slot)
            return start_slot
        scenario = self.scenario
        # prepare() re-seeds tenant RNG streams for a fresh run.
        scenario.prepare(slots)
        injector = self.fault_model
        registry = self.telemetry.registry
        absorber = self.shock_absorber
        if absorber is not None:
            # The schedule is materialised once, up front: a crash
            # mid-event resumes the checkpointed absorber (with the
            # already-built schedule) and replays the remaining event
            # window byte-identically.
            absorber.prepare(scenario.seed, slots)
            absorber.bind_telemetry(registry)
        self._run = _RunState(
            slots=slots,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            participants=scenario.participating_tenants(),
            slot_seconds=scenario.slot_seconds,
            total_guaranteed=scenario.total_guaranteed_w(),
            m_slots=registry.counter("slots_total"),
            m_bids=registry.counter("bids_total"),
            m_grants=registry.counter("grants_total"),
            m_revoked_w=registry.counter("revoked_watts_total"),
            m_revenue=registry.counter("spot_revenue_dollars_total"),
            m_emergencies=registry.counter("emergencies_total"),
            g_price=registry.gauge("clearing_price_dollars_per_kwh"),
            g_ups=registry.gauge("ups_power_watts"),
            h_price=registry.histogram(
                "clearing_price", buckets=DEFAULT_PRICE_BUCKETS
            ),
            h_granted=registry.histogram(
                "slot_granted_watts", buckets=DEFAULT_WATTS_BUCKETS
            ),
            g_forecast_error=registry.gauge("forecast_error_watts"),
            m_forecast_slots=registry.counter("forecast_slots_total"),
            m_forecast_covered=registry.counter("forecast_covered_total"),
            guaranteed_by_rack={
                rack_id: rack.guaranteed_w
                for rack_id, rack in scenario.topology.racks.items()
            },
            faults_seen=len(injector.log) if injector is not None else 0,
            actions_seen=(
                len(self.degradation.actions)
                if self.degradation is not None
                else 0
            ),
            credits_seen=(
                len(self.degradation.credits)
                if self.degradation is not None
                else 0
            ),
            emergencies_seen=len(self.emergencies.events),
            next_slot=0,
        )
        return 0

    def _require_run(self) -> _RunState:
        if self._run is None:
            raise SimulationError(
                "no active run: call begin_run() before "
                "step_slot()/finish_run()"
            )
        return self._run

    def step_slot(
        self, slot: int, submitted_bids=None
    ) -> SlotMarketRecord:
        """Process exactly one slot and return its market record.

        Args:
            slot: The slot to process (the caller drives slots in
                order; :attr:`_RunState.next_slot` tracks progress).
            submitted_bids: Externally submitted
                :class:`~repro.core.bids.TenantBid` bundles for this
                slot (daemon mode).  ``None`` (batch mode) solicits bids
                from the scenario's tenants instead.  Either way the
                bundles pass the admission front door and duplicate
                deliveries are absorbed before clearing.

        Raises:
            OperatorCrash: When an armed
                :class:`~repro.resilience.faults.CrashFault` fires — at
                the very top of the slot, before any state is touched,
                so a resume replays the slot from scratch.
        """
        st = self._require_run()
        scenario = self.scenario
        topology = scenario.topology
        participants = st.participants
        slot_seconds = st.slot_seconds
        slot_hours = st.slot_hours
        injector = self.fault_model
        absorber = self.shock_absorber
        tel = self.telemetry
        tracer = tel.tracer
        registry = tel.registry

        if injector is not None:
            # An armed CrashFault kills the run *between* slots — after
            # the previous slot's checkpoint, before this slot touches
            # any state — so a resume replays slot `slot` from scratch.
            injector.check_crash(slot)
        with tracer.span("slot", slot=slot) as slot_span:
            topology.clear_all_spot_budgets()
            if absorber is not None:
                # Grid events resolve at the top of the slot — capacity
                # cuts land before the forecast reads the topology, and
                # the reserve price is pinned before the clear.
                absorber.on_slot_start(slot, topology, self.allocator, tracer)

            requesting = frozenset(
                rack_id
                for tenant in participants
                for rack_id in tenant.needed_spot_w(slot)
            )
            with tracer.span("predict", slot=slot) as predict_span:
                # The signal reads the operator's *metered* telemetry —
                # under meter faults its references can be wrong, which
                # is exactly the hazard the degradation controller
                # exists to contain.  The release policy then picks how
                # much of the banded forecast the market may sell.
                banded = self.signal.forecast_slot(
                    topology, requesting, self.monitor, slot
                )
                release_policy = self.release_policy
                if absorber is not None:
                    # Rung 2: tighten the release quantile while a
                    # capacity event is in force.
                    release_policy = absorber.effective_release_policy(
                        release_policy
                    )
                forecast = release_policy.release(banded, topology)
                if absorber is not None:
                    forecast = absorber.adjust_release(forecast)
                predict_span.set(
                    requesting_racks=len(requesting),
                    ups_spot_w=forecast.ups_spot_w,
                    pdu_spot_w=forecast.total_pdu_spot_w,
                )
                if banded.has_band or self.release_policy.risk_quantile is not None:
                    # Band diagnostics only for non-default signals:
                    # default-path traces must stay byte-identical to the
                    # pre-subsystem engine.
                    band = banded.ups_quantiles
                    predict_span.set(
                        signal=self.signal.name,
                        risk_quantile=self.release_policy.risk_quantile,
                        band_low_ups_w=band[0] if band else banded.point.ups_spot_w,
                        band_high_ups_w=band[-1] if band else banded.point.ups_spot_w,
                    )
            if slot == 0:
                # Bids for a slot are placed during the previous slot, and
                # slot 0 has none: the market phases are structural no-ops
                # but still traced, so every slot carries every phase.
                record = _empty_record()
                with tracer.span("bid_collect", slot=slot) as span:
                    span.set(tenants=0, racks_bid=0)
                with tracer.span("clear", slot=slot) as span:
                    span.set(price=0.0, granted_racks=0, granted_w=0.0)
            else:
                predicted_price = (
                    self.price_predictor.predict() if self.price_predictor else None
                )
                extra_constraints = (
                    tuple(self.constraint_provider())
                    if self.constraint_provider is not None
                    else ()
                )
                # Bid-submission losses: affected tenants sit the slot out
                # (the default "no spot capacity" state — §III-C).
                active = participants
                if injector is not None:
                    active = [
                        tenant
                        for tenant in participants
                        if not injector.bid_lost(slot, tenant.tenant_id)
                    ]
                # Duplicate-delivery faults: the tenant's bundle arrives
                # twice; the market's idempotent ingestion absorbs the
                # extra copy, so settlement is provably unchanged.
                duplicated = None
                if injector is not None and injector.has_duplicate_sources:
                    duplicated = frozenset(
                        tenant.tenant_id
                        for tenant in active
                        if injector.bid_duplicated(slot, tenant.tenant_id)
                    )
                guard = self.deadline_guard
                started = guard.start() if guard is not None else 0.0
                record = self.allocator.allocate(
                    slot,
                    active,
                    forecast,
                    slot_seconds,
                    predicted_price,
                    extra_constraints=extra_constraints,
                    tracer=tracer,
                    submitted_bids=submitted_bids,
                    duplicated=duplicated,
                )
                if guard is not None and guard.over_budget(
                    guard.elapsed(started)
                ):
                    # The clear blew its wall-clock budget: discard its
                    # outcome for the always-safe fallback.  The event
                    # deliberately omits the measured elapsed time —
                    # traces stay deterministic for a given seed.
                    record, fallback = build_fallback_record(
                        record,
                        self._last_price,
                        forecast,
                        slot_seconds,
                        extra_constraints=extra_constraints,
                    )
                    guard.record_hit(fallback)
                    tracer.event(
                        "deadline.exceeded",
                        slot=slot,
                        budget_s=guard.budget_s,
                        fallback=fallback,
                    )
                    registry.counter(
                        "clearing_deadline_hits_total", {"fallback": fallback}
                    ).inc()
                else:
                    self._last_price = record.result.price
                for q in record.quarantined:
                    self._quarantined_by_tenant[q.tenant_id] = (
                        self._quarantined_by_tenant.get(q.tenant_id, 0) + 1
                    )
                    registry.counter(
                        "bids_quarantined_total", {"reason": q.reason}
                    ).inc()

            with tracer.span("grant", slot=slot) as grant_span:
                lost_grants = delayed_grants = barred_grants = 0
                stale_applied = 0
                if slot > 0:
                    if injector is not None:
                        # Grant-delivery faults: a lost broadcast reverts
                        # the rack to "no spot capacity" for good; a
                        # delayed one additionally lands as a *stale*
                        # budget k slots later.  Either way the cleared
                        # slot is unbilled.
                        undelivered: set[str] = set()
                        for rack_id, grant in record.result.grants_w.items():
                            if grant <= 0:
                                continue
                            fault = injector.grant_fault(slot, rack_id, grant)
                            if fault is None:
                                continue
                            undelivered.add(rack_id)
                            if fault.kind == "delayed":
                                delayed_grants += 1
                                self._pending_stale.setdefault(
                                    slot + fault.delay_slots, []
                                ).append((rack_id, grant))
                            else:
                                lost_grants += 1
                        record = revoke_and_rebill(
                            record, undelivered, slot_seconds
                        )
                    if self.enforcement is not None:
                        barred = self.enforcement.barred_racks(slot)
                        revoked = {
                            rack_id
                            for rack_id in record.result.grants_w
                            if rack_id in barred
                        }
                        barred_grants = len(revoked)
                        record = revoke_and_rebill(record, revoked, slot_seconds)
                    for rack_id, grant in record.result.grants_w.items():
                        topology.rack(rack_id).set_spot_budget(grant)

                if injector is not None:
                    # Infrastructure derating events change the live
                    # PDU/UPS capacities before the slot executes.
                    injector.apply_capacity_faults(slot, topology)
                    # Stale (delayed) grant broadcasts land now: the rack
                    # PDU obeys the late budget reset unless a fresh grant
                    # already arrived this slot.  The stale budget was
                    # never cleared for this slot and is never billed — it
                    # is a hazard for the degradation controller, not a
                    # market outcome.
                    for rack_id, grant_w in self._pending_stale.pop(slot, []):
                        rack = topology.rack(rack_id)
                        if rack.spot_budget_w > 0:
                            continue
                        rack.set_spot_budget(min(grant_w, rack.max_spot_w))
                        stale_applied += 1
                        injector.log.record(
                            slot, "stale_grant_applied", rack_id, grant_w
                        )
                    st.faults_seen = self._emit_fault_events(
                        injector, st.faults_seen, slot
                    )
                if tel.enabled:
                    grant_span.set(
                        granted_racks=record.result.granted_racks,
                        granted_w=record.result.total_granted_w,
                        lost_grants=lost_grants,
                        delayed_grants=delayed_grants,
                        barred_racks=barred_grants,
                        stale_grants_applied=stale_applied,
                    )

            with tracer.span("enforce", slot=slot) as enforce_span:
                revoked_this_slot = 0
                revoked_watts = 0.0
                if self.degradation is not None:
                    true_references = {
                        rack_id: self.monitor.rack_recent_true_max_w(
                            rack_id, self.reference_window
                        )
                        for rack_id in topology.racks
                    }
                    record = self.degradation.enforce(
                        topology,
                        record,
                        slot,
                        slot_seconds,
                        true_reference_w=true_references,
                    )
                    new_actions = list(
                        self.degradation.new_actions(st.actions_seen)
                    )
                    for action in new_actions:
                        tracer.event(
                            f"degradation.{action.kind}",
                            slot=slot,
                            level=action.level,
                            unit_id=action.unit_id,
                            rack_id=action.rack_id,
                            watts=action.watts,
                        )
                        if action.kind == "revoke":
                            revoked_this_slot += 1
                            revoked_watts += action.watts
                    st.actions_seen = len(self.degradation.actions)
                    if absorber is not None:
                        # Rung 4 bookkeeping: emergency caps fired during
                        # an event window put the unit in a zero-release
                        # warning state until the window closes.
                        absorber.note_control_actions(slot, new_actions)
                    for note in self.degradation.new_credits(st.credits_seen):
                        tracer.event(
                            "settlement.credit",
                            slot=slot,
                            tenant=note.tenant_id,
                            rack_id=note.rack_id,
                            watts=note.watts,
                            dollars=note.dollars,
                            reason=note.reason,
                        )
                    st.credits_seen = len(self.degradation.credits)

                # Tenants execute the slot under their enforced budgets —
                # as set on the rack PDUs, which is where lost/stale
                # deliveries and degradation-control revocations are
                # visible.
                outcomes: dict[str, SlotPerformance] = {}
                for tenant in scenario.tenants:
                    budgets = {
                        rack.rack_id: topology.rack(rack.rack_id).budget_w
                        for rack in tenant.racks
                    }
                    outcomes.update(
                        tenant.execute_slot(slot, budgets, slot_seconds)
                    )

                rack_power = {rid: perf.power_w for rid, perf in outcomes.items()}
                metered = None
                if injector is not None and injector.has_meter_faults:
                    metered = {
                        rid: injector.metered_power_w(slot, rid, watts)
                        for rid, watts in rack_power.items()
                    }
                    st.faults_seen = self._emit_fault_events(
                        injector, st.faults_seen, slot
                    )
                self.monitor.record_slot(rack_power, metered)
                emergencies = self.emergencies.scan(topology, slot)
                for emergency in emergencies:
                    tracer.event(
                        "emergency",
                        slot=slot,
                        level=emergency.level,
                        unit_id=emergency.unit_id,
                        overload_w=emergency.overload_w,
                    )
                st.m_emergencies.inc(len(emergencies))
                st.emergencies_seen += len(emergencies)
                if absorber is not None:
                    # EDR compliance (invariant 2): close watch windows
                    # whose draw is back under the shocked capacity.
                    absorber.observe_draw(slot, topology)
                if self.enforcement is not None:
                    self.enforcement.review(topology, slot)
                st.m_revoked_w.inc(revoked_watts)
                enforce_span.set(
                    revoked_grants=revoked_this_slot,
                    revoked_w=revoked_watts,
                    emergencies=len(emergencies),
                )

            with tracer.span("settle", slot=slot) as settle_span:
                spot_revenue = (
                    record.result.revenue_for_slot(slot_seconds)
                    if self.allocator.charges_tenants
                    else 0.0
                )
                payments = (
                    record.payments if self.allocator.charges_tenants else {}
                )
                self.ledger.record_slot(
                    slot_hours=slot_hours,
                    guaranteed_w=st.total_guaranteed,
                    spot_revenue=spot_revenue,
                    metered_energy_w=self.monitor.latest_ups_power_w(),
                )
                self.collector.record_slot(
                    price=record.result.price,
                    grants_w=record.result.grants_w,
                    spot_revenue=spot_revenue,
                    forecast_ups_w=forecast.ups_spot_w,
                    forecast_pdu_total_w=forecast.total_pdu_spot_w,
                    ups_power_w=self.monitor.latest_ups_power_w(),
                    pdu_power_w={
                        p: self.monitor.latest_pdu_power_w(p)
                        for p in topology.pdus
                    },
                    rack_outcomes=outcomes,
                    payments=payments,
                    wanted_rack_ids=requesting,
                    pdu_prices=record.result.pdu_prices,
                )
                if slot > 0:
                    # Released-forecast accuracy: compare what the
                    # market was offered against the headroom that
                    # actually materialised (usable UPS capacity minus
                    # the non-spot draws the predictor's references
                    # stand in for).  Registry-only — traces untouched.
                    nonspot_w = sum(
                        min(perf.power_w, st.guaranteed_by_rack[rid])
                        for rid, perf in outcomes.items()
                    )
                    realized_w = max(
                        0.0,
                        topology.ups.capacity_w * banded.usable_fraction
                        - nonspot_w,
                    )
                    error_w = forecast.ups_spot_w - realized_w
                    st.g_forecast_error.set(error_w)
                    st.m_forecast_slots.inc()
                    st.forecast_slots += 1
                    st.forecast_error_sum += error_w
                    st.forecast_abs_error_sum += abs(error_w)
                    if forecast.ups_spot_w <= realized_w + 1e-9:
                        st.m_forecast_covered.inc()
                        st.forecast_covered += 1
                if self.price_predictor is not None:
                    self.price_predictor.observe(record.result.price)
                settle_span.set(
                    price=record.result.price,
                    spot_revenue=spot_revenue,
                    billed_tenants=sum(1 for v in payments.values() if v > 0),
                )

            st.m_slots.inc()
            st.m_bids.inc(len(record.bids))
            if tel.enabled:
                # Racks still granted after enforce: degradation control
                # may have revoked grants the ``grant`` span's
                # ``granted_racks`` counted, so this can read lower.
                st.m_grants.inc(record.result.granted_racks)
            st.m_revenue.inc(spot_revenue)
            st.g_price.set(record.result.price)
            st.g_ups.set(self.monitor.latest_ups_power_w())
            st.h_price.observe(record.result.price)
            st.h_granted.observe(record.result.total_granted_w)
            slot_span.set(
                price=record.result.price,
                granted_w=record.result.total_granted_w,
            )
        # Checkpoint only *between* fully processed slots (the slot
        # span above has closed), so a restore replays the next slot
        # from its very first action.  The final slot needs none: the
        # run is about to finish.
        st.next_slot = slot + 1
        if (
            st.checkpoint_every is not None
            and (slot + 1) % st.checkpoint_every == 0
            and slot + 1 < st.slots
        ):
            save_checkpoint(self, st.checkpoint_dir, slot, st.slots)
        return record

    def finish_run(self) -> SimulationResult:
        """Restore the topology and build the finished result."""
        st = self._require_run()
        scenario = self.scenario
        topology = scenario.topology
        injector = self.fault_model
        tel = self.telemetry

        # Leave the topology as designed: any derating still in force at
        # the end of the run is transient state, not facility structure.
        topology.restore_all_capacities()
        if self.shock_absorber is not None:
            # Rung-1 unwind: the market leaves the run on the scenario's
            # own reserve price even if an event outlived the horizon.
            self.shock_absorber.finish(self.allocator)

        result = SimulationResult(
            allocator_name=self.allocator.name,
            slot_seconds=st.slot_seconds,
            collector=self.collector,
            ledger=self.ledger,
            emergencies=self.emergencies,
            racks=self._rack_infos,
            tenants=self._tenant_infos,
            energy_tariff_per_kwh=scenario.price_sheet.energy_tariff_per_kwh,
            guaranteed_rate_per_kw_hour=scenario.price_sheet.guaranteed_rate_per_kw_hour,
            ups_capacity_w=topology.ups.base_capacity_w,
            pdu_capacities_w={
                pdu_id: pdu.base_capacity_w
                for pdu_id, pdu in topology.pdus.items()
            },
            faults=injector.log if injector is not None else None,
            control_actions=(
                self.degradation.actions if self.degradation is not None else ()
            ),
            credit_notes=(
                self.degradation.credits if self.degradation is not None else ()
            ),
            quarantined_bids=dict(self._quarantined_by_tenant),
        )
        result.events_report = (
            self.shock_absorber.summary()
            if self.shock_absorber is not None
            else None
        )
        if tel.enabled:
            self._emit_settlement_events(result, tel.tracer)
            result.trace = tel.finish(
                fallback_label=self.allocator.name,
                summary_data=self._summary_data(result, st),
            )
            result.telemetry_artifacts = list(tel.config.manifest)
        self._run = None
        return result

    def run(
        self,
        slots: int,
        *,
        checkpoint_every: int | None = None,
        checkpoint_dir=None,
        resume_from=None,
    ) -> SimulationResult:
        """Simulate ``slots`` slots and return the finished result.

        The batch driver over the shared slot-step machinery:
        :meth:`begin_run`, then :meth:`step_slot` for every remaining
        slot, then :meth:`finish_run`.

        Args:
            slots: Run length (the horizon).
            checkpoint_every: Write a recovery checkpoint after every K
                completed slots (requires ``checkpoint_dir``).
            checkpoint_dir: Directory for checkpoint files.
            resume_from: A checkpoint (path or loaded envelope) written
                by an earlier run of the *same* scenario and horizon.
                The engine's entire state is replaced by the checkpointed
                one and the loop restarts at the first unprocessed slot;
                the finished result (and trace, when telemetry is on) is
                identical to the uninterrupted run's.

        Raises:
            RecoveryError: On a bad checkpoint, a horizon mismatch, or a
                checkpoint that already covers the full horizon.
            OperatorCrash: When an armed
                :class:`~repro.resilience.faults.CrashFault` fires.
        """
        start_slot = self.begin_run(
            slots,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
        )
        for slot in range(start_slot, slots):
            self.step_slot(slot)
        return self.finish_run()

    def _emit_fault_events(self, injector, seen: int, slot: int) -> int:
        """Bridge newly logged faults into telemetry events."""
        tracer = self.telemetry.tracer
        if not tracer.enabled:
            return len(injector.log)
        registry = self.telemetry.registry
        for fault in injector.log.tail(seen):
            tracer.event(
                f"fault.{fault.kind}",
                slot=slot,
                unit_id=fault.unit_id,
                magnitude=fault.magnitude,
            )
            registry.counter("faults_total", {"kind": fault.kind}).inc()
        return len(injector.log)

    def _emit_settlement_events(self, result: SimulationResult, tracer) -> None:
        """One run-scoped invoice event per tenant (audit trail)."""
        from repro.economics.settlement import build_all_invoices

        for invoice in build_all_invoices(result):
            tracer.event(
                "settlement.invoice",
                slot=-1,
                tenant=invoice.tenant_id,
                subscription=invoice.subscription_charge,
                energy=invoice.energy_charge,
                spot=invoice.spot_charge,
                credited=invoice.spot_credit,
                quarantined=invoice.quarantined_bids,
                total=invoice.total,
            )

    def _summary_data(self, result: SimulationResult, st: _RunState) -> dict:
        """The deterministic summary payload for the JSON exporter."""
        prices = result.price_series()
        emergencies = st.emergencies_seen
        forecast_slots = st.forecast_slots
        data = {
            "allocator": result.allocator_name,
            "slots": result.slots,
            "slot_seconds": result.slot_seconds,
            "seed": self.scenario.seed,
            "tenants": len(result.tenants),
            "racks": len(result.racks),
            "mean_price": float(prices.mean()) if prices.size else 0.0,
            "max_price": float(prices.max()) if prices.size else 0.0,
            "total_spot_revenue": result.total_spot_revenue(),
            "net_profit": result.ledger.net_profit,
            "mean_ups_power_w": float(result.ups_power_series().mean()),
            "emergencies": emergencies,
            "faults_injected": (
                result.faults.count() if result.faults is not None else 0
            ),
            "revocations": (
                self.degradation.revocation_count()
                if self.degradation is not None
                else 0
            ),
            "credited_dollars": (
                self.degradation.credited_dollars()
                if self.degradation is not None
                else 0.0
            ),
            "quarantined_bids": sum(self._quarantined_by_tenant.values()),
            "deadline_hits": (
                sum(self.deadline_guard.hits.values())
                if self.deadline_guard is not None
                else 0
            ),
            "signal": self.signal.name,
            "forecast_mean_error_w": (
                st.forecast_error_sum / forecast_slots if forecast_slots else 0.0
            ),
            "forecast_mean_abs_error_w": (
                st.forecast_abs_error_sum / forecast_slots if forecast_slots else 0.0
            ),
            "forecast_coverage": (
                st.forecast_covered / forecast_slots if forecast_slots else 0.0
            ),
        }
        if self.release_policy.risk_quantile is not None:
            data["risk_quantile"] = self.release_policy.risk_quantile
        if self.shock_absorber is not None:
            # Only event-coupled runs carry the block: default-path
            # summaries must stay byte-identical to the pre-events engine.
            data["grid_events"] = self.shock_absorber.summary()
        return data


def _empty_record() -> SlotMarketRecord:
    from repro.core.allocation import AllocationResult

    return SlotMarketRecord(result=AllocationResult.empty(), bids=(), payments={})


def run_simulation(
    scenario: Scenario,
    slots: int,
    allocator: Allocator | None = None,
    signal: Signal | None = None,
    release_policy: RiskAwareReleasePolicy | None = None,
    use_price_forecasting: bool = False,
    fault_profile=None,
    telemetry=None,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
    resume_from=None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SimulationEngine`.

    Args:
        scenario: Scenario to run (freshly built — workload state is
            consumed by a run).
        slots: Number of slots.
        allocator: Allocation policy (default SpotDC market).
        signal: Forecasting signal (:mod:`repro.forecast.signals`);
            see :class:`SimulationEngine` for the resolution order
            against the scenario's ``prediction`` profile.
        release_policy: Risk-aware release policy
            (:mod:`repro.forecast.release`).
        use_price_forecasting: Provide tenants an EWMA price forecast
            (strategies that ignore forecasts are unaffected).
        fault_profile: Optional
            :class:`repro.resilience.FaultProfile` to inject faults from
            (overrides the scenario's own profile).
        telemetry: Optional :class:`repro.telemetry.TelemetryConfig` (or
            prebuilt :class:`repro.telemetry.Telemetry`); ``None`` defers
            to the scenario's config, then the process-wide default.
        checkpoint_every: Write a recovery checkpoint after every K
            completed slots (requires ``checkpoint_dir``); see
            :mod:`repro.recovery.checkpoint`.
        checkpoint_dir: Directory for checkpoint files.
        resume_from: Resume a crashed run from this checkpoint or envelope; the
            scenario/allocator arguments still shape the engine that is
            *replaced* by the checkpointed state, so pass the same ones.
    """
    fault_model = None
    if fault_profile is not None:
        seed = (
            fault_profile.seed if fault_profile.seed is not None else scenario.seed
        )
        fault_model = fault_profile.build(seed=seed)
    engine = SimulationEngine(
        scenario,
        allocator=allocator,
        signal=signal,
        release_policy=release_policy,
        price_predictor=EwmaPricePredictor() if use_price_forecasting else None,
        fault_model=fault_model,
        telemetry=telemetry,
    )
    return engine.run(
        slots,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
    )
