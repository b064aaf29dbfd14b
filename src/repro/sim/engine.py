"""The time-slotted simulation engine (paper Algorithm 1, end to end).

:meth:`SimulationEngine.step_slot` runs one slot as a fixed sequence of
phases, one private method each, in the paper's slot timing (Fig. 6):

1. ``_predict`` — every rack starts at "no spot capacity", grid events
   resolve, and the operator forecasts the spot capacity it may release
   from its metered rack telemetry;
2. ``_clear`` — tenants' demand-function bids (placed during slot
   ``t-1`` in the paper) are collected, screened and cleared by the
   allocator, under the clearing-deadline guard when one is set;
3. ``_grant`` — the grants are broadcast to the rack PDUs;
4. ``_enforce`` — degradation control revokes what true telemetry says
   is unsafe, tenants execute the slot under their enforced budgets,
   and the monitor, emergency log and enforcement policy see the draw;
5. ``_settle`` — billing, operator accounting and the per-slot record;
6. ``_record`` — the slot's registry counters and gauges.

Each phase but the last opens the trace span of its name (``_clear``'s
are the allocator's ``bid_collect`` and ``clear``), and they hand each
other one small per-slot object.  Slot 0 runs without spot capacity
(bids for a slot are placed during the *previous* slot, and there is
none).

Under fault injection (:mod:`repro.resilience`) the
:class:`~repro.resilience.faults.FaultInjector` delivers the slot's
bids, grants and meter readings: lost and duplicated bids, lost and
delayed grant broadcasts — a delayed one lands slots later as a *stale*
budget on a rack with no fresh grant — and capacity deratings of the
live topology.  The
:class:`~repro.resilience.degradation.DegradationController` then
projects every PDU/UPS constraint from hardened (true) telemetry and
revokes grants — cheapest clearing value first — until the slot is
provably safe, crediting revoked energy in settlement.

Batch and daemon mode share one slot-step function
--------------------------------------------------

The loop is exposed as three calls so :mod:`repro.daemon` can drive
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

    def __init__(self, engine, slots, checkpoint_every, checkpoint_dir) -> None:
        scenario = engine.scenario
        registry = engine.telemetry.registry
        injector = engine.fault_model
        degradation = engine.degradation
        self.slots = slots
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.participants = scenario.participating_tenants()
        self.slot_seconds = scenario.slot_seconds
        self.slot_hours = self.slot_seconds / 3600.0
        self.total_guaranteed = scenario.total_guaranteed_w()
        self.m_slots = registry.counter("slots_total")
        self.m_bids = registry.counter("bids_total")
        self.m_grants = registry.counter("grants_total")
        self.m_revoked_w = registry.counter("revoked_watts_total")
        self.m_revenue = registry.counter("spot_revenue_dollars_total")
        self.m_emergencies = registry.counter("emergencies_total")
        self.g_price = registry.gauge("clearing_price_dollars_per_kwh")
        self.g_ups = registry.gauge("ups_power_watts")
        self.h_price = registry.histogram("clearing_price", buckets=DEFAULT_PRICE_BUCKETS)
        self.h_granted = registry.histogram("slot_granted_watts", buckets=DEFAULT_WATTS_BUCKETS)
        self.g_forecast_error = registry.gauge("forecast_error_watts")
        self.m_forecast_slots = registry.counter("forecast_slots_total")
        self.m_forecast_covered = registry.counter("forecast_covered_total")
        self.guaranteed_by_rack = {
            rack_id: rack.guaranteed_w
            for rack_id, rack in scenario.topology.racks.items()
        }
        # Released-forecast accuracy accumulators (summary JSON).
        self.forecast_error_sum = 0.0
        self.forecast_abs_error_sum = 0.0
        self.forecast_covered = 0
        self.forecast_slots = 0
        self.faults_seen = len(injector.log) if injector is not None else 0
        self.actions_seen = len(degradation.actions) if degradation is not None else 0
        self.credits_seen = len(degradation.credits) if degradation is not None else 0
        self.emergencies_seen = len(engine.emergencies.events)
        self.next_slot = 0


class _Slot:
    """What one slot's phases hand each other, in the order they set it."""

    __slots__ = (
        "slot", "requesting", "banded", "forecast", "record", "outcomes", "spot_revenue"
    )

    def __init__(self, slot: int) -> None:
        self.slot = slot


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
        reference_window: Rolling window (slots) for the conservative
            per-rack reference power: the default signal's window, and
            the true-draw window degradation control projects from.
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
            to the scenario's own ``fault_profile``, if any.  Whenever
            a fault model or the scenario's grid ``events`` are active,
            a :class:`~repro.resilience.degradation.DegradationController`
            contains the excursions they cause.
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
        reference_window: int = 5,
        constraint_provider=None,
        fault_model=None,
        enforcement=None,
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
            fault_model = _build_injector(getattr(scenario, "fault_profile", None), scenario)
        self.fault_model = fault_model
        self.enforcement = enforcement
        events = getattr(scenario, "events", None)
        self.shock_absorber = ShockAbsorber(events) if events is not None else None
        # Grid events need the §III-C revocation ladder (rung 3 of the
        # shock absorber) even in fault-free runs.
        self.degradation = (
            DegradationController()
            if fault_model is not None or self.shock_absorber is not None
            else None
        )
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
        # The monitor keeps what its readers need: the signal's lookback
        # and degradation control's true-draw window.
        self.monitor = PowerMonitor(
            scenario.topology, max(signal.lookback, reference_window)
        )
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
        self.deadline_guard = None
        if deadline is not None:
            self.deadline_guard = ClearingDeadlineGuard(
                default_budget_s(scenario.slot_seconds) if deadline is True else float(deadline)
            )

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
            # degradation state (delayed grants still in flight
            # included), and the mid-loop run state with its cursors and
            # accumulators — continues exactly where the crashed run
            # left it.
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
        # prepare() re-seeds tenant RNG streams for a fresh run.
        self.scenario.prepare(slots)
        absorber = self.shock_absorber
        if absorber is not None:
            # The schedule is materialised once, up front: a crash
            # mid-event resumes the checkpointed absorber (with the
            # already-built schedule) and replays the remaining event
            # window byte-identically.
            absorber.prepare(self.scenario.seed, slots)
            absorber.bind_telemetry(self.telemetry.registry)
        self._run = _RunState(self, slots, checkpoint_every, checkpoint_dir)
        return 0

    def _require_run(self) -> _RunState:
        if self._run is None:
            raise SimulationError(
                "no active run: call begin_run() before "
                "step_slot()/finish_run()"
            )
        return self._run

    def step_slot(self, slot: int, submitted_bids=None) -> SlotMarketRecord:
        """Process exactly one slot and return its market record.

        The slot runs its phases in order — :meth:`_predict`,
        :meth:`_clear`, :meth:`_grant`, :meth:`_enforce`,
        :meth:`_settle` and :meth:`_record` — inside one ``slot`` span.

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
        if self.fault_model is not None:
            # An armed CrashFault kills the run *between* slots — after
            # the previous slot's checkpoint, before this slot touches
            # any state — so a resume replays slot `slot` from scratch.
            self.fault_model.check_crash(slot)
        s = _Slot(slot)
        with self.telemetry.tracer.span("slot", slot=slot) as slot_span:
            self._predict(s)
            self._clear(s, submitted_bids)
            self._grant(s)
            self._enforce(s)
            self._settle(s)
            self._record(s, slot_span)
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
        return s.record

    def _predict(self, s: _Slot) -> None:
        """Start the slot with no spot budgets and forecast the spot capacity."""
        slot = s.slot
        topology = self.scenario.topology
        tracer = self.telemetry.tracer
        absorber = self.shock_absorber
        topology.clear_all_spot_budgets()
        if absorber is not None:
            # Grid events resolve at the top of the slot — capacity
            # cuts land before the forecast reads the topology, and
            # the reserve price is pinned before the clear.
            absorber.on_slot_start(slot, topology, self.allocator, tracer)
        s.requesting = requesting = frozenset(
            rack_id
            for tenant in self._run.participants
            for rack_id in tenant.needed_spot_w(slot)
        )
        with tracer.span("predict", slot=slot) as span:
            # The signal reads the operator's *metered* telemetry —
            # under meter faults its references can be wrong, which
            # is exactly the hazard the degradation controller
            # exists to contain.  The release policy then picks how
            # much of the banded forecast the market may sell.
            s.banded = banded = self.signal.forecast_slot(topology, requesting, self.monitor, slot)
            release_policy = self.release_policy
            if absorber is not None:
                # Rung 2: tighten the release quantile while a
                # capacity event is in force.
                release_policy = absorber.effective_release_policy(release_policy)
            forecast = release_policy.release(banded, topology)
            if absorber is not None:
                forecast = absorber.adjust_release(forecast)
            s.forecast = forecast
            span.set(
                requesting_racks=len(requesting),
                ups_spot_w=forecast.ups_spot_w,
                pdu_spot_w=forecast.total_pdu_spot_w,
            )
            if banded.has_band or self.release_policy.risk_quantile is not None:
                # Band diagnostics only for non-default signals:
                # default-path traces must stay byte-identical to the
                # pre-subsystem engine.
                band = banded.ups_quantiles
                span.set(
                    signal=self.signal.name,
                    risk_quantile=self.release_policy.risk_quantile,
                    band_low_ups_w=band[0] if band else banded.point.ups_spot_w,
                    band_high_ups_w=band[-1] if band else banded.point.ups_spot_w,
                )

    def _clear(self, s: _Slot, submitted_bids=None) -> None:
        """Collect and clear the bids (the allocator's ``bid_collect`` and ``clear`` spans)."""
        slot = s.slot
        st = self._run
        tracer = self.telemetry.tracer
        if slot == 0:
            # Bids for a slot are placed during the previous slot, and
            # slot 0 has none: the market phases are structural no-ops
            # but still traced, so every slot carries every phase.
            s.record = _empty_record()
            with tracer.span("bid_collect", slot=slot) as span:
                span.set(tenants=0, racks_bid=0)
            with tracer.span("clear", slot=slot) as span:
                span.set(price=0.0, granted_racks=0, granted_w=0.0)
            return
        registry = self.telemetry.registry
        extra_constraints = (
            tuple(self.constraint_provider()) if self.constraint_provider is not None else ()
        )
        active, duplicated = st.participants, None
        if self.fault_model is not None:
            # Lost bids sit the slot out; duplicated bundles arrive twice.
            active, duplicated = self.fault_model.deliver_bids(slot, active)
        guard = self.deadline_guard
        started = guard.start() if guard is not None else 0.0
        record = self.allocator.allocate(
            slot,
            active,
            s.forecast,
            st.slot_seconds,
            extra_constraints=extra_constraints,
            tracer=tracer,
            submitted_bids=submitted_bids,
            duplicated=duplicated,
        )
        if guard is not None and guard.over_budget(guard.elapsed(started)):
            # The clear blew its wall-clock budget: discard its
            # outcome for the always-safe fallback.  The event
            # deliberately omits the measured elapsed time —
            # traces stay deterministic for a given seed.
            record, fallback = build_fallback_record(
                record,
                self._last_price,
                s.forecast,
                st.slot_seconds,
                extra_constraints=extra_constraints,
            )
            guard.record_hit(fallback)
            tracer.event(
                "deadline.exceeded", slot=slot, budget_s=guard.budget_s, fallback=fallback
            )
            registry.counter("clearing_deadline_hits_total", {"fallback": fallback}).inc()
        else:
            self._last_price = record.result.price
        for q in record.quarantined:
            self._quarantined_by_tenant[q.tenant_id] = (
                self._quarantined_by_tenant.get(q.tenant_id, 0) + 1
            )
            registry.counter("bids_quarantined_total", {"reason": q.reason}).inc()
        s.record = record

    def _grant(self, s: _Slot) -> None:
        """Broadcast the grants to the rack PDUs, through the fault channels."""
        slot = s.slot
        st = self._run
        topology = self.scenario.topology
        injector = self.fault_model
        record = s.record
        with self.telemetry.tracer.span("grant", slot=slot) as span:
            lost = delayed = ()
            barred = stale = 0
            if slot > 0:
                if injector is not None:
                    lost, delayed = injector.deliver_grants(slot, record.result.grants_w)
                    record = revoke_and_rebill(record, {*lost, *delayed}, st.slot_seconds)
                if self.enforcement is not None:
                    barred_racks = self.enforcement.barred_racks(slot)
                    revoked = {
                        rack_id
                        for rack_id in record.result.grants_w
                        if rack_id in barred_racks
                    }
                    barred = len(revoked)
                    record = revoke_and_rebill(record, revoked, st.slot_seconds)
                for rack_id, grant in record.result.grants_w.items():
                    topology.rack(rack_id).set_spot_budget(grant)
            if injector is not None:
                # Infrastructure derating events change the live
                # PDU/UPS capacities before the slot executes, and
                # grants delayed into this slot land as stale budgets.
                injector.apply_capacity_faults(slot, topology)
                stale = injector.land_stale_grants(slot, topology)
                self._emit_fault_events(slot)
            if self.telemetry.enabled:
                span.set(
                    granted_racks=record.result.granted_racks,
                    granted_w=record.result.total_granted_w,
                    lost_grants=len(lost),
                    delayed_grants=len(delayed),
                    barred_racks=barred,
                    stale_grants_applied=stale,
                )
        s.record = record

    def _enforce(self, s: _Slot) -> None:
        """Contain the slot, execute the tenants, and watch what they drew."""
        slot = s.slot
        st = self._run
        topology = self.scenario.topology
        tracer = self.telemetry.tracer
        injector = self.fault_model
        with tracer.span("enforce", slot=slot) as span:
            revoked_grants, revoked_w = (
                self._contain(s) if self.degradation is not None else (0, 0.0)
            )
            # Tenants execute the slot under their enforced budgets —
            # as set on the rack PDUs, which is where lost/stale
            # deliveries and degradation-control revocations are
            # visible.
            outcomes: dict[str, SlotPerformance] = {}
            for tenant in self.scenario.tenants:
                budgets = {
                    rack.rack_id: topology.rack(rack.rack_id).budget_w
                    for rack in tenant.racks
                }
                outcomes.update(tenant.execute_slot(slot, budgets, st.slot_seconds))
            s.outcomes = outcomes
            rack_power = {rid: perf.power_w for rid, perf in outcomes.items()}
            metered = None
            if injector is not None and injector.has_meter_faults:
                metered = {
                    rid: injector.metered_power_w(slot, rid, watts)
                    for rid, watts in rack_power.items()
                }
                self._emit_fault_events(slot)
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
            if self.shock_absorber is not None:
                # EDR compliance (invariant 2): close watch windows
                # whose draw is back under the shocked capacity.
                self.shock_absorber.observe_draw(slot, topology)
            if self.enforcement is not None:
                self.enforcement.review(topology, slot)
            st.m_revoked_w.inc(revoked_w)
            span.set(
                revoked_grants=revoked_grants,
                revoked_w=revoked_w,
                emergencies=len(emergencies),
            )

    def _contain(self, s: _Slot) -> tuple[int, float]:
        """Revoke what true telemetry says is unsafe; return the grants and watts revoked.

        The degradation controller's new actions and credit notes become
        trace events.
        """
        slot = s.slot
        st = self._run
        tracer = self.telemetry.tracer
        degradation = self.degradation
        topology = self.scenario.topology
        true_references = {
            rack_id: self.monitor.rack_recent_true_max_w(rack_id, self.reference_window)
            for rack_id in topology.racks
        }
        s.record = degradation.enforce(
            topology, s.record, slot, st.slot_seconds, true_reference_w=true_references
        )
        revoked_grants = 0
        revoked_w = 0.0
        new_actions = list(degradation.new_actions(st.actions_seen))
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
                revoked_grants += 1
                revoked_w += action.watts
        st.actions_seen = len(degradation.actions)
        if self.shock_absorber is not None:
            # Rung 4 bookkeeping: emergency caps fired during an event
            # window put the unit in a zero-release warning state until
            # the window closes.
            self.shock_absorber.note_control_actions(slot, new_actions)
        for note in degradation.new_credits(st.credits_seen):
            tracer.event(
                "settlement.credit",
                slot=slot,
                tenant=note.tenant_id,
                rack_id=note.rack_id,
                watts=note.watts,
                dollars=note.dollars,
                reason=note.reason,
            )
        st.credits_seen = len(degradation.credits)
        return revoked_grants, revoked_w

    def _settle(self, s: _Slot) -> None:
        """Bill the slot, book the operator's money, and record the slot."""
        slot = s.slot
        st = self._run
        topology = self.scenario.topology
        result = s.record.result
        forecast = s.forecast
        charges = self.allocator.charges_tenants
        with self.telemetry.tracer.span("settle", slot=slot) as span:
            s.spot_revenue = spot_revenue = (
                result.revenue_for_slot(st.slot_seconds) if charges else 0.0
            )
            payments = s.record.payments if charges else {}
            self.ledger.record_slot(
                slot_hours=st.slot_hours,
                guaranteed_w=st.total_guaranteed,
                spot_revenue=spot_revenue,
                metered_energy_w=self.monitor.latest_ups_power_w(),
            )
            self.collector.record_slot(
                price=result.price,
                grants_w=result.grants_w,
                spot_revenue=spot_revenue,
                forecast_ups_w=forecast.ups_spot_w,
                ups_power_w=self.monitor.latest_ups_power_w(),
                rack_outcomes=s.outcomes,
                payments=payments,
                wanted_rack_ids=s.requesting,
                pdu_prices=result.pdu_prices,
            )
            if slot > 0:
                # Released-forecast accuracy: compare what the market
                # was offered against the headroom that actually
                # materialised (usable UPS capacity minus the non-spot
                # draws the predictor's references stand in for).
                # Registry-only — traces untouched.
                nonspot_w = sum(
                    min(perf.power_w, st.guaranteed_by_rack[rid])
                    for rid, perf in s.outcomes.items()
                )
                realized_w = max(
                    0.0, topology.ups.capacity_w * s.banded.usable_fraction - nonspot_w
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
            span.set(
                price=result.price,
                spot_revenue=spot_revenue,
                billed_tenants=sum(1 for v in payments.values() if v > 0),
            )

    def _record(self, s: _Slot, slot_span) -> None:
        """The slot's registry updates and the ``slot`` span's attributes."""
        st = self._run
        result = s.record.result
        st.m_slots.inc()
        st.m_bids.inc(len(s.record.bids))
        if self.telemetry.enabled:
            # Racks still granted after enforce: degradation control
            # may have revoked grants the ``grant`` span's
            # ``granted_racks`` counted, so this can read lower.
            st.m_grants.inc(result.granted_racks)
        st.m_revenue.inc(s.spot_revenue)
        st.g_price.set(result.price)
        st.g_ups.set(self.monitor.latest_ups_power_w())
        st.h_price.observe(result.price)
        st.h_granted.observe(result.total_granted_w)
        slot_span.set(price=result.price, granted_w=result.total_granted_w)

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

    def _emit_fault_events(self, slot: int) -> None:
        """Bridge the faults logged since the last bridge into telemetry events."""
        st = self._run
        log = self.fault_model.log
        tracer = self.telemetry.tracer
        if tracer.enabled:
            registry = self.telemetry.registry
            for fault in log.tail(st.faults_seen):
                tracer.event(
                    f"fault.{fault.kind}",
                    slot=slot,
                    unit_id=fault.unit_id,
                    magnitude=fault.magnitude,
                )
                registry.counter("faults_total", {"kind": fault.kind}).inc()
        st.faults_seen = len(log)

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


def _build_injector(profile, scenario):
    """A fault profile's injector, seeded by the profile or else the scenario."""
    if profile is None:
        return None
    return profile.build(seed=profile.seed if profile.seed is not None else scenario.seed)


def run_simulation(
    scenario: Scenario,
    slots: int,
    allocator: Allocator | None = None,
    signal: Signal | None = None,
    release_policy: RiskAwareReleasePolicy | None = None,
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
    engine = SimulationEngine(
        scenario,
        allocator=allocator,
        signal=signal,
        release_policy=release_policy,
        fault_model=_build_injector(fault_profile, scenario),
        telemetry=telemetry,
    )
    return engine.run(
        slots,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume_from=resume_from,
    )
