"""Extension experiment: grid-event survivability (EDR shocks).

Multi-tenant data centers participate in utility emergency demand
response (EDR): the grid occasionally orders the facility to shed load
or survive a capacity derating for a contracted window.  The paper's
market leans on exactly the property EDR needs — spot capacity is
revocable at any time — so an event-coupled market should ride through
capacity shocks by *selling less* (and pricing the scarcity) instead of
browning out guaranteed load.

This experiment machine-checks that story.  For each shock schedule
(single EDR cut, staged derating cascade, and a storm that couples
price spikes with capacity cuts) it runs

* **SpotDC** with the event-coupled shock absorber (reserve-price
  escalation, release tightening, grant revocation, emergency caps),
  and
* **PowerCapped** under the *same* capacity cuts — a static-price,
  marketless operator facing the identical shocked infrastructure;

and checks four invariants:

1. **No additional overloads** — the SpotDC run logs no more UPS/PDU
   overload slots than the PowerCapped run, both *during* event windows
   and *after* they close (shock state must unwind fully).
2. **EDR compliance** — aggregate draw returns under the shocked
   capacity within the profile's compliance budget of event onset.
3. **Settlement neutrality** — revoked-grant credit notes exactly equal
   the spot-credit memo lines on tenant invoices, and the operator
   ledger reconciles.
4. **Crash-safe events** — killing the operator *mid-event* and
   resuming from the latest checkpoint replays the remaining event
   window byte-identically (JSONL trace and numeric results).

The headline economics: the event-coupled market must still beat the
static-price baseline on operator profit under every shock schedule.
"""

from __future__ import annotations

import dataclasses
import pathlib
import tempfile

import numpy as np

from repro.analysis.reporting import format_table
from repro.config import DEFAULT_SEED
from repro.core.baselines import PowerCappedAllocator
from repro.economics.settlement import build_all_invoices, reconcile
from repro.errors import OperatorCrash, SimulationError
from repro.events import DeratingCascade, EdrShock, EventProfile, PriceSpike
from repro.experiments.common import parallel_map
from repro.recovery import load_latest_checkpoint
from repro.resilience import FaultProfile
from repro.sim.engine import run_simulation
from repro.sim.results import SimulationResult
from repro.sim.scenario import testbed_scenario
from repro.telemetry import TelemetryConfig

__all__ = [
    "DEFAULT_SLOTS",
    "EdrCell",
    "EdrRecoveryCell",
    "EdrStudy",
    "render_edr_study",
    "run_edr_cell",
    "run_edr_recovery_check",
    "run_edr_shock_check",
    "run_edr_study",
    "shock_schedules",
]

#: Default horizon: long enough that every schedule's event windows
#: open, deepen, and close with plenty of steady-state on both sides,
#: short enough for CI smoke runs.
DEFAULT_SLOTS = 400

#: Shock depth for the EDR legs.  The Table I testbed runs at ~90% of
#: UPS capacity on guaranteed load alone (peaks near 1,296 W of the
#: 1,370 W UPS), so cuts beyond ~5% leave the shocked capacity below
#: the guaranteed peak and are physically unabsorbable by revoking
#: spot capacity — the market sheds what it sold, not what tenants
#: subscribed to.  5% keeps compliance achievable while still forcing
#: every ladder rung to fire.
_SHOCK_FRACTION = 0.05


def shock_schedules(slots: int) -> dict[str, EventProfile]:
    """The named shock schedules, scaled to the run horizon.

    Event placement scales with ``slots`` (onset near the first
    quarter, window about a quarter of the run) so that short CI
    horizons still contain complete event windows.
    """
    onset = max(2, slots // 4)
    window = max(8, slots // 4)
    stage_slots = max(2, window // 4)
    return {
        "single_edr": EventProfile(
            schedule=(
                EdrShock(
                    slot=onset, duration_slots=window, fraction=_SHOCK_FRACTION
                ),
            ),
        ),
        "cascade": EventProfile(
            schedule=(
                DeratingCascade(
                    slot=onset,
                    stages=3,
                    stage_slots=stage_slots,
                    fraction_per_stage=_SHOCK_FRACTION / 3,
                ),
            ),
            compliance_slots=5,
        ),
        "storm": EventProfile(
            schedule=(
                EdrShock(
                    slot=onset, duration_slots=window, fraction=_SHOCK_FRACTION
                ),
                PriceSpike(
                    slot=onset, duration_slots=window, reserve_price=0.2
                ),
                EdrShock(
                    slot=onset + window + stage_slots,
                    duration_slots=stage_slots,
                    fraction=_SHOCK_FRACTION / 2,
                ),
            ),
            reserve_uplift=0.02,
        ),
    }


@dataclasses.dataclass
class EdrCell:
    """One shock schedule: SpotDC vs PowerCapped under the same events."""

    name: str
    events: int
    event_slots: int
    shed_watts: float
    emergency_caps: int
    compliance_max_lag: int
    compliance_violations: int
    max_reserve_price: float
    spot_profit: float
    capped_profit: float
    credited_dollars: float
    credit_match: bool
    spot_overloads_during: int
    capped_overloads_during: int
    spot_overloads_after: int
    capped_overloads_after: int

    @property
    def overloads_ok(self) -> bool:
        """Invariant 1: no additional overloads, during or after events."""
        return (
            self.spot_overloads_during <= self.capped_overloads_during
            and self.spot_overloads_after <= self.capped_overloads_after
        )

    @property
    def compliance_ok(self) -> bool:
        """Invariant 2: every event reached compliance within budget."""
        return self.compliance_violations == 0

    @property
    def profit_edge(self) -> float:
        """Operator profit of the event-coupled market over the static
        baseline, dollars."""
        return self.spot_profit - self.capped_profit

    @property
    def ok(self) -> bool:
        """All per-cell invariants at once (3 is ``credit_match``)."""
        return (
            self.overloads_ok
            and self.compliance_ok
            and self.credit_match
            and self.profit_edge > 0.0
        )


@dataclasses.dataclass
class EdrRecoveryCell:
    """Invariant 4: SIGKILL mid-event + resume replays byte-identically."""

    schedule: str
    crash_slot: int
    resumed_slot: int
    trace_identical: bool
    result_identical: bool
    events_report_equal: bool

    @property
    def ok(self) -> bool:
        """Crash landed inside the event window and nothing diverged."""
        return (
            self.trace_identical
            and self.result_identical
            and self.events_report_equal
        )


@dataclasses.dataclass
class EdrStudy:
    """Results of the grid-event survivability study."""

    cells: list[EdrCell]
    seed: int
    slots: int
    recovery: EdrRecoveryCell | None = None

    def violations(self) -> list[EdrCell]:
        """Cells that broke any machine-checked invariant."""
        return [c for c in self.cells if not c.ok]


def _event_windows(profile: EventProfile) -> list[tuple[int, int]]:
    """Half-open ``[onset, end)`` windows of a manual schedule."""
    return [(e.slot, e.end_slot) for e in profile.schedule]


def _overload_split(
    result: SimulationResult, windows: list[tuple[int, int]]
) -> tuple[int, int]:
    """(during, after) distinct UPS/PDU overload slot counts."""
    onset = min(start for start, _ in windows)
    during = set()
    after = set()
    for emergency in result.emergencies.events:
        if emergency.level not in ("ups", "pdu"):
            continue
        slot = emergency.slot
        if any(start <= slot < end for start, end in windows):
            during.add((emergency.level, slot))
        elif slot >= onset:
            after.add((emergency.level, slot))
    return len(during), len(after)


def _shocked_scenario(seed: int, profile: EventProfile):
    return dataclasses.replace(testbed_scenario(seed=seed), events=profile)


def run_edr_cell(
    name: str,
    profile: EventProfile | None = None,
    seed: int = DEFAULT_SEED,
    slots: int = DEFAULT_SLOTS,
) -> EdrCell:
    """Run one shock schedule under SpotDC and PowerCapped.

    Both runs share the scenario seed (identical workloads) and the
    identical event profile: capacity cuts shock both operators, while
    the price-coupling rungs only matter to the market run — the
    static-price baseline has no reserve price to raise and no spot
    grants to revoke.
    """
    if profile is None:
        profile = shock_schedules(slots)[name]
    spot = run_simulation(_shocked_scenario(seed, profile), slots)
    capped = run_simulation(
        _shocked_scenario(seed, profile),
        slots,
        allocator=PowerCappedAllocator(),
    )
    reconcile(spot)
    report = getattr(spot, "events_report", None)
    if report is None:
        raise SimulationError(
            f"shock schedule {name!r} produced no events report"
        )
    invoices = build_all_invoices(spot)
    credited = sum(n.dollars for n in spot.credit_notes)
    invoice_credits = sum(i.spot_credit for i in invoices)
    windows = _event_windows(profile)
    spot_during, spot_after = _overload_split(spot, windows)
    capped_during, capped_after = _overload_split(capped, windows)
    return EdrCell(
        name=name,
        events=report["events"],
        event_slots=report["event_slots"],
        shed_watts=report["shed_watts"],
        emergency_caps=report["emergency_caps"],
        compliance_max_lag=report["compliance_max_lag_slots"],
        compliance_violations=report["compliance_violations"],
        max_reserve_price=report["max_reserve_price"],
        spot_profit=spot.ledger.net_profit,
        capped_profit=capped.ledger.net_profit,
        credited_dollars=credited,
        credit_match=abs(credited - invoice_credits) < 1e-6,
        spot_overloads_during=spot_during,
        capped_overloads_during=capped_during,
        spot_overloads_after=spot_after,
        capped_overloads_after=capped_after,
    )


def run_edr_shock_check(
    seed: int = DEFAULT_SEED, slots: int = 200
) -> EdrCell:
    """The single-EDR cell, sized for the resilience study's event leg."""
    return run_edr_cell("single_edr", seed=seed, slots=slots)


def run_edr_recovery_check(
    seed: int = DEFAULT_SEED,
    slots: int = 120,
    schedule: str = "single_edr",
    checkpoint_every: int = 10,
) -> EdrRecoveryCell:
    """Crash the operator *inside* an event window, resume, compare.

    Mirrors :func:`repro.experiments.ext_resilience.run_recovery_check`
    but places the injected crash mid-event, so the resumed run must
    replay the remaining event window — cuts still in force, ladder
    state, compliance watches — from the pickled checkpoint alone.  The
    check is exact: byte-identical JSONL trace, equal numeric results,
    and an equal end-of-run events report.
    """
    profile = shock_schedules(slots)[schedule]
    windows = _event_windows(profile)
    onset = min(start for start, _ in windows)
    end = max(end for _, end in windows)
    crash_at = onset + max(1, (min(end, slots) - onset) // 2)
    crashing = dataclasses.replace(
        FaultProfile.named("none", 0.0), seed=seed, crash_at_slot=crash_at
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        ckpt_dir = tmp / "ckpt"
        try:
            run_simulation(
                _shocked_scenario(seed, profile),
                slots,
                fault_profile=crashing,
                telemetry=TelemetryConfig(out_dir=tmp / "crashed", label="run"),
                checkpoint_every=checkpoint_every,
                checkpoint_dir=ckpt_dir,
            )
        except OperatorCrash:
            pass
        else:
            raise SimulationError(
                f"injected mid-event crash at slot {crash_at} never fired"
            )
        checkpoint = load_latest_checkpoint(ckpt_dir)
        if checkpoint is None:
            raise SimulationError("crashed run left no checkpoint behind")
        resumed_slot = checkpoint["slot"] + 1
        resumed = run_simulation(
            _shocked_scenario(seed, profile),
            slots,
            fault_profile=crashing,
            resume_from=checkpoint,
        )
        reference = run_simulation(
            _shocked_scenario(seed, profile),
            slots,
            telemetry=TelemetryConfig(
                out_dir=tmp / "reference", label="run"
            ),
        )
        trace_identical = (
            (tmp / "crashed" / "run_trace.jsonl").read_bytes()
            == (tmp / "reference" / "run_trace.jsonl").read_bytes()
        )
    result_identical = (
        np.array_equal(resumed.price_series(), reference.price_series())
        and np.array_equal(
            resumed.ups_power_series(), reference.ups_power_series()
        )
        and resumed.total_spot_revenue() == reference.total_spot_revenue()
    )
    return EdrRecoveryCell(
        schedule=schedule,
        crash_slot=crash_at,
        resumed_slot=resumed_slot,
        trace_identical=trace_identical,
        result_identical=result_identical,
        events_report_equal=(
            getattr(resumed, "events_report", None)
            == getattr(reference, "events_report", None)
        ),
    )


def _study_cell(payload) -> EdrCell:
    """One shock cell as a picklable payload (for ``parallel_map``)."""
    name, seed, slots = payload
    return run_edr_cell(name, seed=seed, slots=slots)


def run_edr_study(
    seed: int = DEFAULT_SEED,
    slots: int = DEFAULT_SLOTS,
    schedules: tuple[str, ...] | None = None,
    strict: bool = True,
    with_recovery: bool = True,
    jobs: int = 1,
) -> EdrStudy:
    """Run every shock schedule and machine-check the four invariants.

    Args:
        seed: Shared scenario seed.
        slots: Horizon per run.
        schedules: Schedule names to include (default: all of
            :func:`shock_schedules`).
        strict: Raise :class:`~repro.errors.SimulationError` on any
            invariant violation; pass ``False`` to inspect the study.
        with_recovery: Also run the mid-event crash/resume check.
        jobs: Worker processes for the shock cells.
    """
    names = tuple(schedules or shock_schedules(slots))
    payloads = [(name, seed, slots) for name in names]
    cells = parallel_map(_study_cell, payloads, jobs=jobs)
    recovery = (
        run_edr_recovery_check(seed=seed) if with_recovery else None
    )
    study = EdrStudy(cells=cells, seed=seed, slots=slots, recovery=recovery)
    violations = study.violations()
    if strict and violations:
        worst = violations[0]
        raise SimulationError(
            f"EDR invariant violated in {len(violations)} cell(s) "
            f"(first: {worst.name} — overloads_ok={worst.overloads_ok}, "
            f"compliance_violations={worst.compliance_violations}, "
            f"credit_match={worst.credit_match}, "
            f"profit_edge={worst.profit_edge:.4f})"
        )
    if strict and recovery is not None and not recovery.ok:
        raise SimulationError(
            f"mid-event recovery invariant violated: crash at slot "
            f"{recovery.crash_slot}, resume from slot "
            f"{recovery.resumed_slot} — trace_identical="
            f"{recovery.trace_identical}, result_identical="
            f"{recovery.result_identical}, events_report_equal="
            f"{recovery.events_report_equal}"
        )
    return study


def render_edr_study(study: EdrStudy) -> str:
    """The survivability table, one row per shock schedule."""
    rows = []
    for c in study.cells:
        rows.append(
            [
                c.name,
                c.events,
                c.event_slots,
                round(c.shed_watts, 1),
                c.emergency_caps,
                c.compliance_max_lag,
                c.max_reserve_price,
                round(c.spot_profit, 4),
                round(c.capped_profit, 4),
                f"{c.spot_overloads_during}/{c.capped_overloads_during}",
                f"{c.spot_overloads_after}/{c.capped_overloads_after}",
                "ok" if c.ok else "VIOLATED",
            ]
        )
    table = format_table(
        [
            "schedule", "events", "event slots", "shed [W]", "caps",
            "max lag", "max reserve", "SpotDC profit [$]",
            "PowerCapped profit [$]", "ovl during (spot/capped)",
            "ovl after (spot/capped)", "invariants",
        ],
        rows,
        title=(
            f"Grid-event survivability: event-coupled market vs "
            f"static-price baseline (seed {study.seed}, "
            f"{study.slots} slots)"
        ),
    )
    n_bad = len(study.violations())
    verdict = (
        "invariants hold in every cell: no additional overloads, "
        "compliance within budget, credits balance, and the market "
        "out-earns the static baseline under every shock schedule"
        if n_bad == 0
        else f"INVARIANT VIOLATED in {n_bad} cell(s)"
    )
    lines = [table, verdict]
    r = study.recovery
    if r is not None:
        status = "ok" if r.ok else "VIOLATED"
        lines.append(
            f"mid-event crash/resume ({r.schedule}): killed at slot "
            f"{r.crash_slot}, resumed from slot {r.resumed_slot}, "
            f"byte-identical replay: {r.trace_identical} [{status}]"
        )
    return "\n".join(lines)
