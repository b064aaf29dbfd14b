"""Extension experiment: chaos sweep over fault intensity x fault class.

The paper's safety story (§III-C, §V-B2) is that spot capacity is
*forgeable on failure*: any communication loss degrades to the default
"no spot capacity", the operator can revoke grants at any time, and
spot capacity must introduce **no additional capacity emergencies** over
the no-spot baseline.  This experiment stress-tests that claim far
beyond the paper's fault model: for every fault class in
:data:`repro.resilience.FAULT_CLASSES` (independent losses, bursty
Gilbert-Elliott losses, delayed/stale grants, meter corruption,
PDU/UPS deratings, and all at once) at several intensities, it runs

* **SpotDC** under the full fault profile (with the degradation
  controller active), and
* **PowerCapped** under the *infrastructure faults only* — a marketless
  run cannot lose bids or grants, but it faces the byte-identical
  derating schedule (per-channel seeded streams make that exact);

and machine-checks the invariant: the SpotDC run must log **no more
UPS/PDU overload slots** than the identical PowerCapped run.  The books
must also still balance (revoked grants are credited, never billed).
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
from repro.experiments.common import parallel_map
from repro.recovery import load_latest_checkpoint
from repro.resilience import FAULT_CLASSES, FaultProfile
from repro.sim.engine import run_simulation
from repro.sim.results import SimulationResult
from repro.sim.scenario import testbed_scenario
from repro.telemetry import TelemetryConfig

__all__ = [
    "DuplicateNeutralityCell",
    "RecoveryCell",
    "ResilienceCell",
    "ResilienceStudy",
    "run_duplicate_neutrality_check",
    "run_recovery_check",
    "run_resilience_cell",
    "run_resilience_study",
    "render_resilience_study",
]

#: Default fault intensities swept by the study.
DEFAULT_INTENSITIES = (0.05, 0.25)

#: Default horizon: long enough for bursts, episodes, and derating
#: windows to occur many times over, short enough for CI smoke runs.
DEFAULT_SLOTS = 400


@dataclasses.dataclass(frozen=True)
class ResilienceCell:
    """One (fault class, intensity) cell of the chaos sweep.

    Attributes:
        fault_class: Name from :data:`repro.resilience.FAULT_CLASSES`.
        intensity: Sweep intensity in [0, 1].
        fault_count: Total injected-fault records in the SpotDC run.
        lost_bids / lost_grants / delayed_grants / stale_applied /
            meter_faults / deratings: Per-kind fault counts.
        revocations: Degradation-control grant revocations.
        emergency_caps: Escalations after revocation was exhausted.
        credited_dollars: Settlement credits for revoked grants.
        spot_overload_slots / capped_overload_slots: Distinct UPS+PDU
            overload slots in the SpotDC and PowerCapped runs.
        invariant_ok: Whether SpotDC logged no more overload slots than
            PowerCapped (the §V-B2 invariant) at both levels.
        spot_revenue: SpotDC spot revenue over the run, dollars.
    """

    fault_class: str
    intensity: float
    fault_count: int
    lost_bids: int
    lost_grants: int
    delayed_grants: int
    stale_applied: int
    meter_faults: int
    deratings: int
    revocations: int
    emergency_caps: int
    credited_dollars: float
    spot_overload_slots: int
    capped_overload_slots: int
    invariant_ok: bool
    spot_revenue: float


@dataclasses.dataclass(frozen=True)
class RecoveryCell:
    """The crash-at-slot-k + resume case of the chaos sweep.

    A run is killed mid-flight by an injected
    :class:`~repro.resilience.faults.CrashFault`, restored from its last
    checkpoint, and run to completion; the recovery invariant is that
    the stitched run is *indistinguishable* from the same-seed run that
    never crashed.

    Attributes:
        fault_class: The fault class active alongside the crash.
        intensity: Its sweep intensity.
        crash_slot: Slot at which the run was killed.
        resumed_slot: First slot replayed by the resumed run.
        trace_identical: Whether the resumed run's exported JSONL trace
            is byte-identical to the uninterrupted run's.
        result_identical: Whether prices, UPS power, and revenue match
            the uninterrupted run exactly.
    """

    fault_class: str
    intensity: float
    crash_slot: int
    resumed_slot: int
    trace_identical: bool
    result_identical: bool

    @property
    def ok(self) -> bool:
        """The byte-identical-recovery invariant."""
        return self.trace_identical and self.result_identical


@dataclasses.dataclass(frozen=True)
class DuplicateNeutralityCell:
    """The at-least-once-delivery leg of the chaos sweep.

    A run under the ``"duplicate"`` fault class (tenant bundles randomly
    delivered twice) is compared against the clean same-seed run.  The
    invariant is *settlement neutrality*: idempotent ingestion absorbs
    every duplicate, so the spot price series, spot revenue, and every
    tenant's invoice total must be **exactly** equal — a duplicate that
    moves one cent has double-billed somebody.

    Attributes:
        intensity: Duplicate-delivery probability swept.
        duplicates_injected: ``bid_duplicated`` fault records in the
            duplicate run (must be > 0 for the check to mean anything).
        revenue_equal: Spot revenue identical between the two runs.
        prices_equal: Spot price series identical between the two runs.
        invoices_equal: Every tenant's invoice total identical.
    """

    intensity: float
    duplicates_injected: int
    revenue_equal: bool
    prices_equal: bool
    invoices_equal: bool

    @property
    def ok(self) -> bool:
        """Duplicates fired and changed nothing."""
        return (
            self.duplicates_injected > 0
            and self.revenue_equal
            and self.prices_equal
            and self.invoices_equal
        )


@dataclasses.dataclass
class ResilienceStudy:
    """Results of the chaos sweep.

    Attributes:
        cells: One entry per (fault class, intensity) pair.
        seed: Seed every run shared.
        slots: Horizon of every run.
        recovery: The crash-and-resume recovery check (``None`` when the
            study was run without it).
        duplicate_neutrality: The settlement-neutrality check for
            duplicate deliveries (``None`` when skipped).
        edr: The grid-event (EDR shock) leg: SpotDC under a capacity
            shock must log no more overload slots than PowerCapped
            under the same shock, during *and after* the event window
            (``None`` when skipped).
    """

    cells: list[ResilienceCell]
    seed: int
    slots: int
    recovery: RecoveryCell | None = None
    duplicate_neutrality: DuplicateNeutralityCell | None = None
    edr: "object | None" = None

    def violations(self) -> list[ResilienceCell]:
        """Cells in which SpotDC logged more overload slots than the
        no-spot baseline (must be empty)."""
        return [c for c in self.cells if not c.invariant_ok]


def _overloads(result: SimulationResult) -> tuple[int, int]:
    """(UPS, PDU) distinct overload slot counts for one run."""
    return (
        result.emergencies.overload_slot_count("ups"),
        result.emergencies.overload_slot_count("pdu"),
    )


def run_resilience_cell(
    fault_class: str,
    intensity: float,
    seed: int = DEFAULT_SEED,
    slots: int = DEFAULT_SLOTS,
) -> ResilienceCell:
    """Run one chaos cell: SpotDC vs PowerCapped under one fault profile.

    Both runs are built from the same scenario seed (identical
    workloads) and the same fault seed; the PowerCapped baseline keeps
    only the profile's infrastructure faults, which per-channel stream
    derivation makes byte-identical to the SpotDC run's.
    """
    profile = FaultProfile.named(fault_class, intensity)
    profile = dataclasses.replace(profile, seed=seed)
    spotdc = run_simulation(
        testbed_scenario(seed=seed), slots, fault_profile=profile
    )
    capped = run_simulation(
        testbed_scenario(seed=seed),
        slots,
        allocator=PowerCappedAllocator(),
        fault_profile=profile.derating_only(),
    )
    reconcile(spotdc)
    spot_ups, spot_pdu = _overloads(spotdc)
    capped_ups, capped_pdu = _overloads(capped)
    log = spotdc.faults
    actions = spotdc.control_actions
    return ResilienceCell(
        fault_class=fault_class,
        intensity=intensity,
        fault_count=log.count() if log is not None else 0,
        lost_bids=log.lost_bids if log is not None else 0,
        lost_grants=log.lost_grants if log is not None else 0,
        delayed_grants=log.count("grant_delayed") if log is not None else 0,
        stale_applied=log.count("stale_grant_applied") if log is not None else 0,
        meter_faults=(
            log.count("meter_stuck") + log.count("meter_dropout")
            if log is not None
            else 0
        ),
        deratings=log.count("derating_start") if log is not None else 0,
        revocations=sum(1 for a in actions if a.kind == "revoke"),
        emergency_caps=sum(1 for a in actions if a.kind == "emergency_cap"),
        credited_dollars=sum(n.dollars for n in spotdc.credit_notes),
        spot_overload_slots=spot_ups + spot_pdu,
        capped_overload_slots=capped_ups + capped_pdu,
        invariant_ok=(spot_ups <= capped_ups and spot_pdu <= capped_pdu),
        spot_revenue=spotdc.total_spot_revenue(),
    )


def run_recovery_check(
    seed: int = DEFAULT_SEED,
    slots: int = 120,
    crash_at: int | None = None,
    fault_class: str = "chaos",
    intensity: float = 0.25,
    checkpoint_every: int = 10,
) -> RecoveryCell:
    """Crash a run at slot k, resume it, and compare against never crashing.

    Three runs over one scenario seed: (1) the victim, checkpointing
    every ``checkpoint_every`` slots until an injected
    :class:`~repro.resilience.faults.CrashFault` kills it at
    ``crash_at``; (2) its resumption from the latest checkpoint; (3) the
    uninterrupted reference under the same profile minus the crash (the
    ``crash`` channel draws no randomness, so every other fault stream
    is byte-identical).  The check is exact: the resumed run's exported
    JSONL trace must equal the reference's byte for byte, and the
    numeric results must match with no tolerance.
    """
    crash_at = crash_at if crash_at is not None else max(2, 2 * slots // 3)
    base = dataclasses.replace(FaultProfile.named(fault_class, intensity), seed=seed)
    crashing = dataclasses.replace(base, crash_at_slot=crash_at)
    resumed_slot, trace_identical, result_identical, _, _ = _crash_and_resume(
        lambda: testbed_scenario(seed=seed), slots, crashing, base, checkpoint_every
    )
    return RecoveryCell(
        fault_class=fault_class,
        intensity=intensity,
        crash_slot=crash_at,
        resumed_slot=resumed_slot,
        trace_identical=trace_identical,
        result_identical=result_identical,
    )


def _crash_and_resume(scenario, slots, crashing, reference_profile, checkpoint_every):
    """The crash/resume comparison behind every recovery check.

    Runs a victim on a fresh ``scenario()`` that checkpoints every
    ``checkpoint_every`` slots until ``crashing``'s injected crash kills
    it, resumes it from its latest checkpoint, and runs the
    uninterrupted reference under ``reference_profile`` (``None``: the
    scenario's own).

    Returns:
        ``(resumed_slot, trace_identical, result_identical, resumed,
        reference)``: the first slot the resume replayed, whether the
        stitched JSONL trace equals the reference's byte for byte,
        whether prices, UPS power and revenue match with no tolerance,
        and the two finished results.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        ckpt_dir = tmp / "ckpt"
        try:
            run_simulation(
                scenario(),
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
                f"injected crash at slot {crashing.crash_at_slot} never fired"
            )
        checkpoint = load_latest_checkpoint(ckpt_dir)
        if checkpoint is None:
            raise SimulationError("crashed run left no checkpoint behind")
        # The scenario/telemetry arguments here only shape the engine
        # that the checkpointed state *replaces*; the resumed run keeps
        # exporting into the crashed run's telemetry directory.
        resumed = run_simulation(
            scenario(), slots, fault_profile=crashing, resume_from=checkpoint
        )
        reference = run_simulation(
            scenario(),
            slots,
            fault_profile=reference_profile,
            telemetry=TelemetryConfig(out_dir=tmp / "reference", label="run"),
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
    return checkpoint["slot"] + 1, trace_identical, result_identical, resumed, reference


def run_duplicate_neutrality_check(
    seed: int = DEFAULT_SEED,
    slots: int = 200,
    intensity: float = 0.3,
) -> DuplicateNeutralityCell:
    """Machine-check that duplicate bid deliveries are settlement-neutral.

    Runs SpotDC twice over one scenario seed: once under the
    ``"duplicate"`` fault class (bundles randomly redelivered) and once
    clean.  The duplicate channel draws from its own per-channel random
    stream and every extra copy must be absorbed by the market's
    idempotent ingestion, so the comparison is *exact* — no tolerance.
    """
    profile = dataclasses.replace(
        FaultProfile.named("duplicate", intensity), seed=seed
    )
    duplicated = run_simulation(
        testbed_scenario(seed=seed), slots, fault_profile=profile
    )
    clean = run_simulation(testbed_scenario(seed=seed), slots)
    reconcile(duplicated)
    dup_invoices = {i.tenant_id: i for i in build_all_invoices(duplicated)}
    clean_invoices = {i.tenant_id: i for i in build_all_invoices(clean)}
    return DuplicateNeutralityCell(
        intensity=intensity,
        duplicates_injected=(
            duplicated.faults.count("bid_duplicated")
            if duplicated.faults is not None
            else 0
        ),
        revenue_equal=(
            duplicated.total_spot_revenue() == clean.total_spot_revenue()
        ),
        prices_equal=bool(
            np.array_equal(
                duplicated.price_series(), clean.price_series()
            )
        ),
        invoices_equal=(
            set(dup_invoices) == set(clean_invoices)
            and all(
                dup_invoices[t].total == clean_invoices[t].total
                for t in dup_invoices
            )
        ),
    )


def _study_cell(payload) -> ResilienceCell:
    """One chaos cell as a picklable payload (for ``parallel_map``)."""
    fault_class, intensity, seed, slots = payload
    return run_resilience_cell(fault_class, intensity, seed, slots)


def run_resilience_study(
    seed: int = DEFAULT_SEED,
    slots: int = DEFAULT_SLOTS,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    fault_classes: tuple[str, ...] = FAULT_CLASSES,
    strict: bool = True,
    with_recovery: bool = True,
    with_edr: bool = True,
    jobs: int = 1,
) -> ResilienceStudy:
    """Sweep fault class x intensity and machine-check the invariant.

    Args:
        seed: Shared scenario/fault seed.
        slots: Horizon per run.
        intensities: Fault intensities to sweep (the ``"none"`` control
            cell runs once regardless).
        fault_classes: Fault classes to include.
        strict: Raise :class:`~repro.errors.SimulationError` on any
            invariant violation (the machine check); pass ``False`` to
            inspect violations in the returned study instead.
        with_recovery: Also run the crash-and-resume recovery check
            (byte-identical trace and result after restoring from a
            checkpoint).
        with_edr: Also run the grid-event leg: an EDR capacity shock
            (see :mod:`repro.experiments.ext_edr`) must introduce no
            additional overload slots over the same-shock PowerCapped
            baseline, during or after the event window, and must reach
            compliance within the profile's budget.
        jobs: Worker processes for the chaos cells (each cell is an
            independent, seed-deterministic pair of runs).  The recovery
            check stays serial — it is one stateful crash/resume story,
            not a grid.

    The sweep always runs the duplicate-delivery settlement-neutrality
    leg when the ``"duplicate"`` class is in scope: duplicates must fire
    and must change no price, no revenue, and no invoice total.
    """
    payloads = []
    for fault_class in fault_classes:
        levels = (0.0,) if fault_class == "none" else intensities
        for intensity in levels:
            payloads.append((fault_class, intensity, seed, slots))
    cells = parallel_map(_study_cell, payloads, jobs=jobs)
    recovery = run_recovery_check(seed=seed) if with_recovery else None
    duplicate_neutrality = (
        run_duplicate_neutrality_check(
            seed=seed, slots=slots, intensity=max(intensities)
        )
        if "duplicate" in fault_classes or "chaos" in fault_classes
        else None
    )
    edr = None
    if with_edr:
        from repro.experiments.ext_edr import run_edr_shock_check

        edr = run_edr_shock_check(seed=seed, slots=min(slots, 200))
    study = ResilienceStudy(
        cells=cells,
        seed=seed,
        slots=slots,
        recovery=recovery,
        duplicate_neutrality=duplicate_neutrality,
        edr=edr,
    )
    violations = study.violations()
    if strict and violations:
        worst = violations[0]
        raise SimulationError(
            f"resilience invariant violated: {len(violations)} cell(s) "
            f"logged more overload slots under SpotDC than PowerCapped "
            f"(first: {worst.fault_class}@{worst.intensity} — "
            f"{worst.spot_overload_slots} vs {worst.capped_overload_slots})"
        )
    if strict and recovery is not None and not recovery.ok:
        raise SimulationError(
            f"recovery invariant violated: crash at slot "
            f"{recovery.crash_slot}, resume from slot "
            f"{recovery.resumed_slot} — trace_identical="
            f"{recovery.trace_identical}, result_identical="
            f"{recovery.result_identical}"
        )
    if strict and edr is not None and not (
        edr.overloads_ok and edr.compliance_ok
    ):
        raise SimulationError(
            f"EDR-shock invariant violated: overload slots during "
            f"{edr.spot_overloads_during} (spot) vs "
            f"{edr.capped_overloads_during} (capped), after "
            f"{edr.spot_overloads_after} vs {edr.capped_overloads_after}, "
            f"compliance_violations={edr.compliance_violations}"
        )
    d = duplicate_neutrality
    if strict and d is not None and not d.ok:
        raise SimulationError(
            f"duplicate-delivery invariant violated at intensity "
            f"{d.intensity}: {d.duplicates_injected} duplicates injected, "
            f"revenue_equal={d.revenue_equal}, prices_equal="
            f"{d.prices_equal}, invoices_equal={d.invoices_equal}"
        )
    return study


def render_resilience_study(study: ResilienceStudy) -> str:
    """The chaos-sweep table, one row per cell."""
    rows = []
    for c in study.cells:
        rows.append(
            [
                c.fault_class,
                c.intensity,
                c.fault_count,
                c.lost_bids,
                c.lost_grants,
                c.stale_applied,
                c.deratings,
                c.revocations,
                c.emergency_caps,
                c.credited_dollars,
                c.spot_overload_slots,
                c.capped_overload_slots,
                "ok" if c.invariant_ok else "VIOLATED",
            ]
        )
    table = format_table(
        [
            "fault class", "intensity", "faults", "lost bids", "lost grants",
            "stale applied", "deratings", "revocations", "escalations",
            "credited [$]", "SpotDC ovl slots", "PowerCapped ovl slots",
            "invariant",
        ],
        rows,
        title=(
            f"Chaos sweep: no additional emergencies under faults "
            f"(seed {study.seed}, {study.slots} slots)"
        ),
    )
    n_bad = len(study.violations())
    verdict = (
        "invariant holds in every cell: SpotDC logged no more UPS/PDU "
        "overload slots than the identical PowerCapped run"
        if n_bad == 0
        else f"INVARIANT VIOLATED in {n_bad} cell(s)"
    )
    lines = [table, verdict]
    d = study.duplicate_neutrality
    if d is not None:
        status = "ok" if d.ok else "VIOLATED"
        lines.append(
            f"duplicate-delivery check (p={d.intensity}): "
            f"{d.duplicates_injected} duplicates injected, settlement "
            f"totals unchanged: {d.revenue_equal and d.invoices_equal} "
            f"[{status}]"
        )
    r = study.recovery
    if r is not None:
        status = "ok" if r.ok else "VIOLATED"
        lines.append(
            f"recovery check ({r.fault_class}@{r.intensity}): crash at "
            f"slot {r.crash_slot}, resumed from slot {r.resumed_slot} — "
            f"trace byte-identical: {r.trace_identical}, result "
            f"identical: {r.result_identical} [{status}]"
        )
    e = study.edr
    if e is not None:
        ok = e.overloads_ok and e.compliance_ok
        status = "ok" if ok else "VIOLATED"
        lines.append(
            f"EDR-shock check ({e.name}): {e.event_slots} shocked slots, "
            f"{e.shed_watts:.1f} W shed, overload slots during/after "
            f"{e.spot_overloads_during}/{e.spot_overloads_after} (spot) vs "
            f"{e.capped_overloads_during}/{e.capped_overloads_after} "
            f"(capped), compliance lag {e.compliance_max_lag} [{status}]"
        )
    return "\n".join(lines)
