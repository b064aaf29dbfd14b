"""The ext_edr grid-event survivability study (headline acceptance).

Pins the issue's acceptance criteria end to end: every named shock
schedule absorbs without additional overloads, EDR compliance lands
within budget, credits balance, the event-coupled market out-earns the
static-price PowerCapped baseline, and a crash *inside* an event window
resumes byte-identically.
"""

import pytest

from repro.config import DEFAULT_SEED
from repro.errors import SimulationError
from repro.events import EdrShock, EventProfile
from repro.experiments.ext_edr import (
    DEFAULT_SLOTS,
    render_edr_study,
    run_edr_cell,
    run_edr_recovery_check,
    run_edr_shock_check,
    run_edr_study,
    shock_schedules,
)

STUDY_SLOTS = 160


class TestShockSchedules:
    def test_named_schedules_scale_to_horizon(self):
        schedules = shock_schedules(STUDY_SLOTS)
        assert set(schedules) == {"single_edr", "cascade", "storm"}
        for name, profile in schedules.items():
            assert profile.schedule, name
            last = max(e.end_slot for e in profile.schedule)
            assert last <= STUDY_SLOTS, name

    def test_short_horizon_still_contains_full_windows(self):
        for profile in shock_schedules(60).values():
            for event in profile.schedule:
                assert event.slot >= 1
                assert event.end_slot <= 60


class TestEdrCell:
    def test_single_edr_cell_passes_all_invariants(self):
        cell = run_edr_cell("single_edr", seed=DEFAULT_SEED, slots=120)
        assert cell.events == 1
        assert cell.event_slots > 0
        assert cell.overloads_ok
        assert cell.compliance_ok
        assert cell.credit_match
        assert cell.profit_edge > 0
        assert cell.ok

    def test_shock_check_is_the_resilience_leg(self):
        cell = run_edr_shock_check(seed=DEFAULT_SEED, slots=100)
        assert cell.name == "single_edr"
        assert cell.overloads_ok and cell.compliance_ok

    def test_unabsorbable_shock_is_flagged_not_hidden(self):
        # A 30% UPS cut cannot be absorbed on the testbed: guaranteed
        # load alone exceeds the shocked capacity.  The cell must report
        # the compliance violation rather than declare success.
        deep = EventProfile(
            schedule=(EdrShock(slot=10, duration_slots=20, fraction=0.3),)
        )
        cell = run_edr_cell("deep", profile=deep, seed=DEFAULT_SEED, slots=60)
        assert not cell.ok
        assert cell.compliance_violations >= 1


class TestEdrStudy:
    def test_strict_study_passes_at_headline_settings(self):
        study = run_edr_study(
            seed=DEFAULT_SEED, slots=STUDY_SLOTS, strict=True
        )
        assert study.violations() == []
        assert {c.name for c in study.cells} == {
            "single_edr",
            "cascade",
            "storm",
        }
        for cell in study.cells:
            assert cell.ok, cell.name
            assert cell.profit_edge > 0, cell.name
        assert study.recovery is not None
        assert study.recovery.ok
        assert study.recovery.trace_identical
        assert study.recovery.result_identical
        assert study.recovery.events_report_equal

    def test_render_mentions_the_verdict_and_recovery(self):
        study = run_edr_study(
            seed=DEFAULT_SEED, slots=STUDY_SLOTS, strict=False
        )
        text = render_edr_study(study)
        assert "Grid-event survivability" in text
        assert "invariants hold in every cell" in text
        assert "mid-event crash/resume" in text
        assert "byte-identical replay: True" in text

    def test_strict_study_raises_on_violation(self):
        # Patch in an unabsorbable schedule; strict mode must raise.
        import repro.experiments.ext_edr as ext_edr

        deep = EventProfile(
            schedule=(EdrShock(slot=10, duration_slots=20, fraction=0.3),)
        )
        original = ext_edr.shock_schedules
        ext_edr.shock_schedules = lambda slots: {"deep": deep}
        try:
            with pytest.raises(SimulationError, match="deep"):
                run_edr_study(
                    seed=DEFAULT_SEED,
                    slots=60,
                    strict=True,
                    with_recovery=False,
                )
        finally:
            ext_edr.shock_schedules = original


class TestMidEventRecovery:
    @pytest.mark.recovery
    def test_crash_inside_the_window_replays_byte_identically(self):
        cell = run_edr_recovery_check(
            seed=DEFAULT_SEED, slots=100, checkpoint_every=7
        )
        assert cell.trace_identical
        assert cell.result_identical
        assert cell.events_report_equal
        assert cell.resumed_slot <= cell.crash_slot


class TestCliRegistry:
    def test_edr_registered_with_its_own_default_slots(self):
        from repro.cli import EXPERIMENT_REGISTRY

        assert "edr" in EXPERIMENT_REGISTRY
        assert DEFAULT_SLOTS == 400
