"""Operator survivability: checkpoint/restore, deadline guard, admission.

The recovery invariant is exact: a run that crashes and resumes from a
checkpoint must be *byte-indistinguishable* — identical exported JSONL
trace, identical numeric result — from the same-seed run that never
crashed.  The deadline guard's fallback must hold the paper's Eq. 2-4
capacity constraints by construction, and the admission front door must
quarantine every malformed bundle whole, with a machine-readable reason.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.config import MarketParameters, make_rng
from repro.core.allocation import AllocationResult, verify_allocation
from repro.core.bids import RackBid, TenantBid
from repro.core.demand import LinearBid
from repro.core.frame import BidFrame
from repro.core.market import SlotMarketRecord, SpotDCAllocator
from repro.forecast import RiskAwareReleasePolicy, build_signal
from repro.errors import (
    ConfigurationError,
    OperatorCrash,
    RecoveryError,
    SimulationError,
)
from repro.prediction.spot import SpotCapacityForecast
from repro.recovery import checkpoint as checkpoint_module
from repro.recovery import (
    QUARANTINE_REASONS,
    ClearingDeadlineGuard,
    ManualClock,
    build_fallback_record,
    default_budget_s,
    inspect_rack_bid,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
    screen_bids,
)
from repro.resilience import FaultProfile
from repro.resilience.faults import CrashFault, FaultInjector
from repro.sim import engine as engine_module
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.telemetry import TelemetryConfig
from repro.telemetry.exporters import read_trace_jsonl
from repro.tenants.misbehaving import MalformedBidTenant, OverdrawingTenant

pytestmark = pytest.mark.recovery

SLOTS = 12


def _crashed_then_resumed(
    tmp_path, seed, fault_profile=None, telemetry_dir=None,
    crash_at=8, checkpoint_every=3, slots=SLOTS, **run_args,
):
    """Run to a crash, restore from the latest checkpoint, finish.

    ``run_args`` go to both runs' :func:`run_simulation`.
    """
    base = fault_profile or FaultProfile(name="crash-only")
    crashing = dataclasses.replace(base, crash_at_slot=crash_at)
    telemetry = (
        TelemetryConfig(out_dir=telemetry_dir, label="run")
        if telemetry_dir is not None
        else None
    )
    ckpt_dir = tmp_path / "ckpt"
    with pytest.raises(OperatorCrash):
        run_simulation(
            build_testbed(seed=seed),
            slots,
            fault_profile=crashing,
            telemetry=telemetry,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=ckpt_dir,
            **run_args,
        )
    checkpoint = latest_checkpoint(ckpt_dir)
    assert checkpoint is not None
    return run_simulation(
        build_testbed(seed=seed),
        slots,
        fault_profile=crashing,
        resume_from=checkpoint,
        **run_args,
    )


def _assert_results_equal(a, b):
    assert np.array_equal(a.price_series(), b.price_series())
    assert np.array_equal(a.ups_power_series(), b.ups_power_series())
    assert a.total_spot_revenue() == b.total_spot_revenue()
    assert a.ledger.net_profit == b.ledger.net_profit
    for tenant_id in a.tenants:
        assert a.tenant_spot_payment(tenant_id) == b.tenant_spot_payment(
            tenant_id
        )


class TestCheckpointResume:
    def test_plain_run_resumes_identically(self, tmp_path):
        resumed = _crashed_then_resumed(tmp_path, seed=11)
        reference = run_simulation(build_testbed(seed=11), SLOTS)
        _assert_results_equal(resumed, reference)

    def test_fault_profile_run_resumes_identically(self, tmp_path):
        profile = FaultProfile(
            bid_loss=0.1, grant_loss=0.08, meter_stuck=0.05,
            derating_rate=0.02, seed=3,
        )
        resumed = _crashed_then_resumed(tmp_path, seed=7, fault_profile=profile)
        reference = run_simulation(
            build_testbed(seed=7), SLOTS, fault_profile=profile
        )
        _assert_results_equal(resumed, reference)
        # The profile genuinely perturbed both runs.
        assert reference.faults is not None and reference.faults.count() > 0

    def test_stale_grant_in_flight_resumes_identically(self, tmp_path):
        # Grants delayed at slots 6-8 are still in flight when slot 8's
        # checkpoint is cut; the run crashes at slot 9, and one of them
        # lands at slot 10 after the resume.  The delayed grants travel
        # in the checkpoint, so the resumed run lands the same stale
        # budgets as the uninterrupted one.
        profile = FaultProfile(delay_probability=0.5, seed=3)
        reference = run_simulation(build_testbed(seed=3), SLOTS, fault_profile=profile)
        delayed = reference.faults.of_kind("grant_delayed")
        landed = reference.faults.of_kind("stale_grant_applied")
        assert any(6 <= r.slot <= 8 for r in delayed)
        assert any(r.slot > 9 for r in landed)
        resumed = _crashed_then_resumed(
            tmp_path, seed=3, fault_profile=profile, crash_at=9
        )
        assert resumed.faults.records == reference.faults.records
        _assert_results_equal(resumed, reference)

    def test_telemetry_run_resumes_byte_identically(self, tmp_path):
        # The resumed run keeps exporting into the crashed run's
        # telemetry directory: the stitched trace must equal the
        # uninterrupted run's byte for byte.
        _crashed_then_resumed(
            tmp_path, seed=7, telemetry_dir=tmp_path / "crashed"
        )
        run_simulation(
            build_testbed(seed=7),
            SLOTS,
            telemetry=TelemetryConfig(out_dir=tmp_path / "ref", label="run"),
        )
        crashed = (tmp_path / "crashed" / "run_trace.jsonl").read_bytes()
        reference = (tmp_path / "ref" / "run_trace.jsonl").read_bytes()
        assert crashed == reference

    def test_checkpoints_carry_no_value_curves(self, tmp_path):
        # A cached value curve is a pure function of its rack's models
        # and its key: checkpoints leave the caches out, and the resumed
        # run rebuilds the same curves, so it still matches the
        # uninterrupted run byte for byte.
        slots = 40
        resumed = _crashed_then_resumed(
            tmp_path, seed=7, telemetry_dir=tmp_path / "crashed",
            crash_at=30, checkpoint_every=10, slots=slots,
        )
        envelope = load_checkpoint(latest_checkpoint(tmp_path / "ckpt"))
        restored = envelope["engine"].scenario.participating_tenants()
        assert restored
        assert all(tenant._curve_cache == {} for tenant in restored)
        engine = SimulationEngine(
            build_testbed(seed=7),
            telemetry=TelemetryConfig(out_dir=tmp_path / "ref", label="run"),
        )
        engine.begin_run(slots)
        for slot in range(slots):
            engine.step_slot(slot)
            if slot == envelope["slot"]:
                # The live tenants held curves when the checkpoint was cut.
                live = engine.scenario.participating_tenants()
                assert any(tenant._curve_cache for tenant in live)
        reference = engine.finish_run()
        _assert_results_equal(resumed, reference)
        crashed = (tmp_path / "crashed" / "run_trace.jsonl").read_bytes()
        assert crashed == (tmp_path / "ref" / "run_trace.jsonl").read_bytes()

    def test_full_ensemble_window_in_flight_resumes_identically(self, tmp_path):
        # The ensemble reads 201 slots of monitor history.  The slot-219
        # checkpoint carries a full window of them and the run crashes at
        # 237, so the resumed forecasts read the pickled window back.  An
        # armed crash brings a fault injector and with it degradation
        # control, which revokes grants the 0.8 release overcommits: the
        # reference arms one past its last slot, which never fires.
        def forecasting():
            return dict(
                signal=build_signal("ensemble"), release_policy=RiskAwareReleasePolicy(0.8)
            )

        slots = 260
        resumed = _crashed_then_resumed(
            tmp_path, seed=3, telemetry_dir=tmp_path / "crashed",
            crash_at=237, checkpoint_every=20, slots=slots, **forecasting(),
        )
        envelope = load_checkpoint(latest_checkpoint(tmp_path / "ckpt"))
        assert envelope["slot"] == 219
        monitor = envelope["engine"].monitor
        assert len(monitor._ups_series) == build_signal("ensemble").lookback == 201
        reference = run_simulation(
            build_testbed(seed=3),
            slots,
            fault_profile=FaultProfile(name="crash-only", crash_at_slot=slots),
            telemetry=TelemetryConfig(out_dir=tmp_path / "ref", label="run"),
            **forecasting(),
        )
        assert reference.control_actions
        _assert_results_equal(resumed, reference)
        for name in ("run_trace.jsonl", "run_summary.json"):
            crashed = (tmp_path / "crashed" / name).read_bytes()
            assert crashed == (tmp_path / "ref" / name).read_bytes()

    def test_resumed_summary_matches_uninterrupted(self, tmp_path):
        # The run state's forecast-accuracy accumulators come back with
        # the checkpoint: the summary covers every slot, not only those
        # after the resume.
        _crashed_then_resumed(
            tmp_path, seed=7, telemetry_dir=tmp_path / "crashed"
        )
        run_simulation(
            build_testbed(seed=7),
            SLOTS,
            telemetry=TelemetryConfig(out_dir=tmp_path / "ref", label="run"),
        )
        crashed = (tmp_path / "crashed" / "run_summary.json").read_bytes()
        assert crashed == (tmp_path / "ref" / "run_summary.json").read_bytes()

    def test_crash_between_history_append_and_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # The run dies after appending slot 7's history but before its
        # checkpoint lands, and a torn record follows.  The resume from
        # slot 5 cuts both off: trace, summary and history segment end
        # byte-identical to the uninterrupted run's.
        class Killed(Exception):
            pass

        write = checkpoint_module._write_atomic

        def dying(path, data):
            if path.name == "checkpoint_000007.pkl":
                raise Killed
            write(path, data)

        monkeypatch.setattr(checkpoint_module, "_write_atomic", dying)
        crashed = tmp_path / "crashed"
        with pytest.raises(Killed):
            run_simulation(
                build_testbed(seed=6), SLOTS, checkpoint_every=2,
                checkpoint_dir=crashed / "ckpt",
                telemetry=TelemetryConfig(out_dir=crashed, label="run"),
            )
        monkeypatch.setattr(checkpoint_module, "_write_atomic", write)
        (segment,) = (crashed / "ckpt").glob("history_*.seg")
        with open(segment, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00torn")
        checkpoint = latest_checkpoint(crashed / "ckpt")
        assert checkpoint.name == "checkpoint_000005.pkl"
        run_simulation(
            build_testbed(seed=6), SLOTS, checkpoint_every=2,
            checkpoint_dir=crashed / "ckpt", resume_from=checkpoint,
        )
        ref = tmp_path / "ref"
        run_simulation(
            build_testbed(seed=6), SLOTS, checkpoint_every=2,
            checkpoint_dir=ref / "ckpt",
            telemetry=TelemetryConfig(out_dir=ref, label="run"),
        )
        for name in ("run_trace.jsonl", "run_summary.json"):
            assert (crashed / name).read_bytes() == (ref / name).read_bytes()
        (expected,) = (ref / "ckpt").glob("history_*.seg")
        assert segment.name == expected.name
        assert segment.read_bytes() == expected.read_bytes()

    def test_only_the_newest_two_checkpoints_are_kept(self, tmp_path):
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(12, checkpoint_every=2, checkpoint_dir=tmp_path)
        kept = sorted(p.name for p in tmp_path.glob("checkpoint_*.pkl"))
        assert kept == ["checkpoint_000007.pkl", "checkpoint_000009.pkl"]
        # The older one still has its inputs and history.
        load_checkpoint(tmp_path / kept[0])

    def test_checkpoint_size_does_not_grow_with_the_run(
        self, tmp_path, monkeypatch
    ):
        # History goes to the append-only segment and run inputs to a
        # file written once, so the envelope carries live state only.
        sizes = {}
        save = engine_module.save_checkpoint

        def measured(engine, directory, slot, horizon):
            path = save(engine, directory, slot, horizon)
            sizes[slot] = path.stat().st_size
            return path

        monkeypatch.setattr(engine_module, "save_checkpoint", measured)
        engine = SimulationEngine(build_testbed(seed=3))
        engine.run(400, checkpoint_every=10, checkpoint_dir=tmp_path)
        assert abs(sizes[199] - sizes[19]) <= 0.05 * sizes[19]

    def test_restored_run_inputs_are_read_only_and_equal(self, tmp_path):
        scenario = build_testbed(seed=2)
        # A wrapped tenant's own inputs are found through the wrapper.
        scenario.tenants[0] = OverdrawingTenant(
            scenario.tenants[0], 0.2, 0.1, make_rng(4)
        )
        SimulationEngine(scenario).run(
            SLOTS, checkpoint_every=3, checkpoint_dir=tmp_path
        )
        restored = load_checkpoint(latest_checkpoint(tmp_path))["engine"]
        reference = SimulationEngine(build_testbed(seed=2))
        reference.begin_run(SLOTS)
        assert restored._rack_infos == reference._rack_infos
        assert restored.scenario.spec == reference.scenario.spec
        assert restored.scenario.price_sheet == reference.scenario.price_sheet
        for got, want in zip(
            restored.scenario.tenants, reference.scenario.tenants
        ):
            got = getattr(got, "inner", got)
            assert getattr(got, "cost_models", None) == getattr(
                want, "cost_models", None
            )
            for rack, expected in zip(got.racks, want.racks):
                assert rack.power_model == expected.power_model
                workload = rack.workload
                assert workload.run_inputs
                for name in workload.run_inputs:
                    value = getattr(workload, name)
                    want = getattr(expected.workload, name)
                    if isinstance(value, np.ndarray):
                        assert not value.flags.writeable
                        assert not want.flags.writeable
                        assert value.tobytes() == want.tobytes()
                    else:
                        assert value == want

    def test_later_crash_still_fires_after_resume(self, tmp_path):
        # Only the crash that killed the run is disarmed on resume; a
        # second scheduled crash must still fire.
        scenario = build_testbed(seed=5)
        injector = FaultInjector([CrashFault(4), CrashFault(9)], seed=5)
        engine = SimulationEngine(scenario, fault_model=injector)
        with pytest.raises(OperatorCrash):
            engine.run(SLOTS, checkpoint_every=2, checkpoint_dir=tmp_path)
        checkpoint = latest_checkpoint(tmp_path)
        engine2 = SimulationEngine(
            build_testbed(seed=5),
            fault_model=FaultInjector([CrashFault(4), CrashFault(9)], seed=5),
        )
        with pytest.raises(OperatorCrash) as exc:
            engine2.run(SLOTS, resume_from=checkpoint)
        assert exc.value.slot == 9

    def test_checkpoint_every_requires_directory(self):
        engine = SimulationEngine(build_testbed(seed=1))
        with pytest.raises(SimulationError):
            engine.run(4, checkpoint_every=2)
        with pytest.raises(SimulationError):
            engine.run(4, checkpoint_every=0, checkpoint_dir="x")


class TestResumeLoadsOnce:
    """Finding the newest valid checkpoint loads it in full; the resume
    adopts that envelope instead of loading the file a second time."""

    @staticmethod
    def _count_loads(monkeypatch):
        loaded = []
        real = checkpoint_module.load_checkpoint

        def counting(path):
            loaded.append(path)
            return real(path)

        monkeypatch.setattr(checkpoint_module, "load_checkpoint", counting)
        monkeypatch.setattr(engine_module, "load_checkpoint", counting)
        return loaded

    def test_auto_resume_loads_the_checkpoint_once(self, tmp_path, monkeypatch):
        from repro.cli import main

        run = [
            "simulate", "--seed", "3", "--slots", str(SLOTS),
            "--checkpoint-every", "3", "--checkpoint-dir", str(tmp_path),
        ]
        assert main([*run, "--crash-at", "8"]) == 3
        loaded = self._count_loads(monkeypatch)
        assert main([*run, "--resume-from", "auto"]) == 0
        assert loaded == [tmp_path / "checkpoint_000005.pkl"]

    def test_daemon_resume_loads_the_checkpoint_once(self, tmp_path, monkeypatch):
        from repro.daemon import MarketDaemon

        first = MarketDaemon(build_testbed(seed=3), SLOTS, tmp_path)
        try:
            first.process_next_slot()
            first.process_next_slot()
        finally:
            first.close()
        loaded = self._count_loads(monkeypatch)
        second = MarketDaemon(build_testbed(seed=3), SLOTS, tmp_path, resume=True)
        try:
            assert second.next_slot == 2
            assert len(loaded) == 1
        finally:
            second.close()


class TestCheckpointEnvelope:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="not found"):
            load_checkpoint(tmp_path / "nope.pkl")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(RecoveryError, match="corrupt"):
            load_checkpoint(path)

    def test_foreign_pickle_raises(self, tmp_path):
        path = tmp_path / "foreign.pkl"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(RecoveryError, match="not a SpotDC checkpoint"):
            load_checkpoint(path)

    def test_format_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.pkl"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": "spotdc-checkpoint",
                    "format": -1,
                    "slot": 3,
                    "horizon": 10,
                    "engine": None,
                }
            )
        )
        with pytest.raises(RecoveryError, match="format"):
            load_checkpoint(path)

    def test_previous_format_is_refused(self, tmp_path, monkeypatch):
        # A format-8 checkpoint kept the power monitor's series in the
        # history segment, where this build no longer looks for them.
        monkeypatch.setattr(checkpoint_module, "CHECKPOINT_FORMAT", 8)
        SimulationEngine(build_testbed(seed=1)).run(
            6, checkpoint_every=2, checkpoint_dir=tmp_path
        )
        monkeypatch.undo()
        (*_, path) = sorted(tmp_path.glob("checkpoint_*.pkl"))
        with pytest.raises(RecoveryError, match="has format 8"):
            load_checkpoint(path)
        with pytest.warns(UserWarning, match="has format 8"):
            assert latest_checkpoint(tmp_path) is None

    def test_horizon_mismatch_raises(self, tmp_path):
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(6, checkpoint_every=2, checkpoint_dir=tmp_path)
        checkpoint = latest_checkpoint(tmp_path)
        fresh = SimulationEngine(build_testbed(seed=1))
        with pytest.raises(RecoveryError, match="horizon|slot"):
            fresh.run(9, resume_from=checkpoint)

    def test_exhausted_checkpoint_raises(self, tmp_path):
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(4)
        path = save_checkpoint(engine, tmp_path, slot=3, horizon=4)
        fresh = SimulationEngine(build_testbed(seed=1))
        with pytest.raises(RecoveryError, match="nothing left"):
            fresh.run(4, resume_from=path)

    def test_truncated_checkpoint_raises_naming_path(self, tmp_path):
        # A crash mid-write leaves a short file; the error must say
        # which file so the operator can delete it.
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(6, checkpoint_every=2, checkpoint_dir=tmp_path)
        path = latest_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(RecoveryError, match="corrupt") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_bit_flipped_checkpoint_raises_naming_path(self, tmp_path):
        # Disk corruption: flip every byte of the payload's middle
        # chunk (magic/envelope checks catch what unpickling doesn't).
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(6, checkpoint_every=2, checkpoint_dir=tmp_path)
        path = latest_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        third = len(data) // 3
        for i in range(third, 2 * third):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("kind", ["inputs", "history"])
    @pytest.mark.parametrize("damage", ["missing", "truncated", "flipped", "foreign"])
    def test_damaged_inputs_or_history_raise_naming_the_file(
        self, tmp_path, kind, damage
    ):
        # Each checkpoint names its run inputs and history by digest; a
        # missing file, a corrupt one, or one from another run fails the
        # load with the file's path.
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(6, checkpoint_every=2, checkpoint_dir=tmp_path / "a")
        other = SimulationEngine(build_testbed(seed=2))
        other.run(6, checkpoint_every=2, checkpoint_dir=tmp_path / "b")
        checkpoint = latest_checkpoint(tmp_path / "a")
        pattern = "inputs_*.pkl" if kind == "inputs" else "history_*.seg"
        (target,) = (tmp_path / "a").glob(pattern)
        (foreign,) = (tmp_path / "b").glob(pattern)
        data = bytearray(target.read_bytes())
        if damage == "missing":
            target.unlink()
        elif damage == "truncated":
            target.write_bytes(data[: len(data) // 2])
        elif damage == "flipped":
            data[len(data) // 2] ^= 0xFF
            target.write_bytes(bytes(data))
        else:
            target.write_bytes(foreign.read_bytes())
        with pytest.raises(RecoveryError) as exc:
            load_checkpoint(checkpoint)
        assert str(target) in str(exc.value)

    def test_latest_skips_corrupt_newest_with_warning(self, tmp_path):
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(6, checkpoint_every=2, checkpoint_dir=tmp_path)
        newest = latest_checkpoint(tmp_path)
        newest.write_bytes(b"not a pickle at all")
        with pytest.warns(UserWarning, match="skipping unusable checkpoint"):
            best = latest_checkpoint(tmp_path)
        assert best is not None and best != newest
        load_checkpoint(best)  # the fallback is genuinely usable

    def test_latest_ignores_temp_files(self, tmp_path):
        engine = SimulationEngine(build_testbed(seed=1))
        engine.run(6, checkpoint_every=2, checkpoint_dir=tmp_path)
        (tmp_path / "checkpoint_000099.pkl.tmp").write_bytes(b"partial")
        best = latest_checkpoint(tmp_path)
        assert best is not None and best.suffix == ".pkl"
        assert "000099" not in best.name


class TestCrashFault:
    def test_slot_zero_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashFault(0)

    def test_disarm_next_crash_disarms_earliest_only(self):
        injector = FaultInjector([CrashFault(3), CrashFault(7)], seed=1)
        injector.disarm_next_crash(2)
        injector.check_crash(3)  # disarmed: no raise
        with pytest.raises(OperatorCrash):
            injector.check_crash(7)

    def test_crash_draws_no_randomness_and_logs_nothing(self):
        # Recovery determinism depends on the crash channel being
        # invisible to every other stream and to the fault log.
        with_crash = FaultInjector(
            [CrashFault(50)], seed=9
        )
        assert len(with_crash.log) == 0
        with_crash.check_crash(3)  # not its slot: nothing happens
        assert len(with_crash.log) == 0


class TestDeadlineGuard:
    def test_default_budget_is_a_slot_fraction(self):
        assert default_budget_s(15.0) == pytest.approx(1.5)

    def test_guard_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigurationError):
            ClearingDeadlineGuard(0.0)

    def test_manual_clock_makes_every_slot_over_budget(self):
        engine = SimulationEngine(
            build_testbed(seed=2), telemetry=TelemetryConfig()
        )
        engine.deadline_guard = ClearingDeadlineGuard(
            0.5, clock=ManualClock(step_s=1.0)
        )
        result = engine.run(8)
        hits = engine.deadline_guard.hits
        # Every market slot (1..7) measured over budget; with no prior
        # successful clear the ladder bottoms out at no_spot.
        assert hits == {"no_spot": 7}
        assert result.total_spot_revenue() == 0.0
        counter = engine.telemetry.registry.counter(
            "clearing_deadline_hits_total", {"fallback": "no_spot"}
        )
        assert counter.value == 7

    def test_intermittent_overrun_reuses_last_price(self):
        # Scripted clock: each (start, stop) reading pair consumes the
        # next entry of ``elapsed``, so alternate clears overrun.
        class ScriptedClock:
            def __init__(self, elapsed):
                self.elapsed = elapsed
                self.pair = 0
                self.now = 0.0
                self.waiting_stop = False

            def __call__(self):
                if not self.waiting_stop:
                    self.waiting_stop = True
                    return self.now
                self.now += self.elapsed[self.pair % len(self.elapsed)]
                self.pair += 1
                self.waiting_stop = False
                return self.now

        engine = SimulationEngine(
            build_testbed(seed=7), telemetry=TelemetryConfig()
        )
        engine.deadline_guard = ClearingDeadlineGuard(
            0.5, clock=ScriptedClock([0.0, 1.0])
        )
        engine.run(14)
        hits = engine.deadline_guard.hits
        # Even market slots overrun (6 of 13).  Early ones land before
        # any bids exist and bottom out at no_spot; once odd slots have
        # cleared real bids, later overruns re-grant at the last price.
        assert sum(hits.values()) == 6
        assert hits.get("reuse_price", 0) > 0

    def test_fallback_record_respects_capacity_constraints(self):
        bids = [
            RackBid(
                rack_id=f"r{i}",
                pdu_id=f"p{i % 2}",
                tenant_id=f"t{i}",
                demand=LinearBid(80.0, 0.02, 10.0, 0.30),
                rack_cap_w=80.0,
            )
            for i in range(6)
        ]
        frame = BidFrame.from_bids(bids)
        record = SlotMarketRecord(
            result=AllocationResult.empty(),
            bids=tuple(bids),
            payments={},
            frame=frame,
        )
        # Headroom far below total demand at the reused price: the
        # fallback must scale grants down into every cap.
        pdu_spot = {"p0": 90.0, "p1": 70.0}
        forecast = SpotCapacityForecast(pdu_spot_w=pdu_spot, ups_spot_w=120.0)
        fallback, kind = build_fallback_record(record, 0.05, forecast, 15.0)
        assert kind == "reuse_price"
        verify_allocation(
            fallback.result, frame.to_bids(), pdu_spot, 120.0
        )
        assert fallback.result.total_granted_w <= 120.0 + 1e-6

    def test_fallback_without_history_is_no_spot(self):
        record = SlotMarketRecord(
            result=AllocationResult.empty(), bids=(), payments={},
            frame=BidFrame.from_bids([]),
        )
        forecast = SpotCapacityForecast(pdu_spot_w={}, ups_spot_w=0.0)
        fallback, kind = build_fallback_record(record, None, forecast, 15.0)
        assert kind == "no_spot"
        assert fallback.result.total_granted_w == 0.0

    def test_scenario_knob_arms_the_guard(self):
        scenario = dataclasses.replace(
            build_testbed(seed=2), clearing_deadline_s=True
        )
        engine = SimulationEngine(scenario)
        assert engine.deadline_guard is not None
        assert engine.deadline_guard.budget_s == pytest.approx(
            default_budget_s(scenario.slot_seconds)
        )
        assert SimulationEngine(build_testbed(seed=2)).deadline_guard is None


class TestAdmission:
    def _wrapped_scenario(self, seed=7, corruptions=None):
        # Wrap every participating tenant: whichever of them the market
        # dynamics solicit, its bundle arrives corrupted.
        scenario = build_testbed(seed=seed)
        wrappers = []
        for i, tenant in enumerate(scenario.tenants):
            if not tenant.participates:
                continue
            wrapper = MalformedBidTenant(
                tenant, 1.0, make_rng(99 + i), corruptions=corruptions
            )
            scenario.tenants[i] = wrapper
            wrappers.append(wrapper)
        return scenario, wrappers

    def test_malformed_tenant_is_fully_quarantined(self):
        scenario, wrappers = self._wrapped_scenario()
        result = run_simulation(scenario, slots=14)
        assert sum(w.corrupted_bids for w in wrappers) > 0
        for wrapper in wrappers:
            assert (
                result.quarantined_bids.get(wrapper.tenant_id, 0)
                == wrapper.corrupted_bids
            )
            # Never admitted => never granted, never billed.
            assert result.tenant_spot_payment(wrapper.tenant_id) == 0.0

    def test_every_corruption_mode_maps_to_its_reason(self):
        base = RackBid(
            rack_id="r0", pdu_id="p0", tenant_id="t0",
            demand=LinearBid(50.0, 0.02, 5.0, 0.30), rack_cap_w=50.0,
        )
        assert inspect_rack_bid(base) is None
        for mode in MalformedBidTenant.CORRUPTIONS:
            corrupted = MalformedBidTenant._corrupt(base, mode)
            verdict = inspect_rack_bid(corrupted)
            assert verdict is not None, mode
            assert verdict[0] == mode
        assert set(MalformedBidTenant.CORRUPTIONS) == set(QUARANTINE_REASONS)

    def test_bundles_are_never_partially_admitted(self):
        good = RackBid(
            rack_id="r-good", pdu_id="p0", tenant_id="t0",
            demand=LinearBid(40.0, 0.02, 5.0, 0.25), rack_cap_w=40.0,
        )
        bad = MalformedBidTenant._corrupt(
            RackBid(
                rack_id="r-bad", pdu_id="p0", tenant_id="t0",
                demand=LinearBid(40.0, 0.02, 5.0, 0.25), rack_cap_w=40.0,
            ),
            "non_finite",
        )
        admitted, quarantined, _ = screen_bids(
            [TenantBid(tenant_id="t0", rack_bids=(good, bad))]
        )
        assert admitted == []
        assert [q.rack_id for q in quarantined] == ["r-bad"]
        assert quarantined[0].reason == "non_finite"

    @pytest.mark.parametrize(
        "attr, value", [("d_max_w", None), ("d_min_w", "5")]
    )
    def test_a_parameter_that_is_not_a_real_number_is_quarantined(
        self, attr, value
    ):
        good = RackBid(
            rack_id="r-good", pdu_id="p0", tenant_id="t0",
            demand=LinearBid(40.0, 0.02, 5.0, 0.25), rack_cap_w=40.0,
        )
        bad = RackBid(
            rack_id="r-bad", pdu_id="p0", tenant_id="t0",
            demand=LinearBid(40.0, 0.02, 5.0, 0.25), rack_cap_w=40.0,
        )
        setattr(bad.demand, attr, value)
        assert inspect_rack_bid(bad) == (
            "non_finite", f"bid parameter {value!r} is not a real number"
        )
        admitted, quarantined, _ = screen_bids(
            [TenantBid(tenant_id="t0", rack_bids=(good, bad))]
        )
        assert admitted == []
        assert [(q.rack_id, q.reason) for q in quarantined] == [
            ("r-bad", "non_finite")
        ]

    @pytest.mark.parametrize("value", [None, "5", math.nan, math.inf])
    def test_the_market_always_screens(self, value):
        """No allocator skips admission: a bad value on one of three racks
        of a PDU quarantines its bundle, and the other two still clear."""
        with pytest.raises(TypeError):
            SpotDCAllocator(admission=False)
        allocator = SpotDCAllocator(params=MarketParameters(price_step=0.01))
        assert allocator.admission is True
        bundles = [
            TenantBid(f"t{i}", (RackBid(
                f"r{i}", "p0", f"t{i}", LinearBid(40.0, 0.02, 5.0, 0.25), 40.0
            ),))
            for i in range(3)
        ]
        bundles[1].rack_bids[0].demand.d_max_w = value
        record = allocator.allocate(
            0, [], SpotCapacityForecast({"p0": 60.0}, 60.0), 60.0,
            submitted_bids=bundles,
        )
        assert [(q.rack_id, q.reason) for q in record.quarantined] == [
            ("r1", "non_finite")
        ]
        assert set(record.result.grants_w) == {"r0", "r2"}
        assert record.result.total_granted_w > 0.0

    def test_details_print_the_bid_values_as_given(self):
        # Rack caps come from Rack.max_spot_w: an int for whole watts.
        bid = RackBid(
            rack_id="r0", pdu_id="p0", tenant_id="t0",
            demand=LinearBid(50.0, 0.02, 5.0, 0.30), rack_cap_w=40,
        )
        assert inspect_rack_bid(bid) == (
            "exceeds_rack_cap", "demand 50.0 W exceeds rack headroom 40 W"
        )
        bid.demand.q_min = -1.0
        assert inspect_rack_bid(bid) == (
            "negative_value",
            "negative bid parameter in [50.0, -1.0, 5.0, 0.3, 50.0, 40]",
        )

    def test_quarantines_surface_in_trace_and_invoice(self, tmp_path):
        from repro.economics.settlement import build_invoice

        scenario, wrappers = self._wrapped_scenario()
        result = run_simulation(
            scenario,
            slots=14,
            telemetry=TelemetryConfig(out_dir=tmp_path, label="run"),
        )
        events = [
            r
            for r in read_trace_jsonl(tmp_path / "run_trace.jsonl")
            if r.get("kind") == "event" and r["name"] == "bid.quarantined"
        ]
        total = sum(w.corrupted_bids for w in wrappers)
        assert total > 0
        assert len(events) == total
        assert all(
            e["attrs"]["reason"] in QUARANTINE_REASONS for e in events
        )
        wrapper = max(wrappers, key=lambda w: w.corrupted_bids)
        invoice = build_invoice(result, wrapper.tenant_id)
        assert invoice.quarantined_bids == wrapper.corrupted_bids
        assert invoice.spot_charge == 0.0

    def test_honest_testbed_run_quarantines_nothing(self):
        result = run_simulation(build_testbed(seed=6), slots=8)
        assert result.quarantined_bids == {}


class TestWrapperStateReuse:
    def test_counters_reset_on_prepare(self):
        scenario = build_testbed(seed=1)
        inner = next(t for t in scenario.tenants if t.participates)
        over = OverdrawingTenant(inner, 0.5, 0.1, make_rng(0))
        over.overdraw_slots = 7
        over.prepare(10, make_rng(1))
        assert over.overdraw_slots == 0
        malformed = MalformedBidTenant(inner, 0.5, make_rng(0))
        malformed.corrupted_bids = 4
        malformed.prepare(10, make_rng(1))
        assert malformed.corrupted_bids == 0
