"""Sharded clearing: bit-exact parity, reconciliation, and recovery.

The sharded clear (`repro.core.sharding.clear_per_pdu_sharded`) promises
*byte-identical* results to the serial per-PDU scan at any shard count
and any process fan-out — the serial path is the parity oracle.  These
tests machine-check that promise at three levels: the raw allocation
objects, full simulation JSONL traces plus tenant invoices, and the
crash/checkpoint-resume invariants under ``shards=4``.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import MarketParameters
from repro.core.allocation import AllocationResult, verify_allocation
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import LinearBid
from repro.core.frame import BidFrame
from repro.core.market import SpotDCAllocator
from repro.core.sharding import (
    clear_per_pdu_sharded,
    partition_tasks,
    reconcile_allocation,
)
from repro.errors import ClearingError, ConfigurationError
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.infrastructure.constraints import CapacityConstraint
from repro.recovery import latest_checkpoint
from repro.resilience import FaultProfile
from repro.sim.engine import run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.telemetry import TelemetryConfig

PARAMS = MarketParameters(price_step=0.01)
SLOTS = 12


def _market(racks=300, seed=0, racks_per_pdu=40):
    rng = np.random.default_rng(seed)
    bids, pdu_spot_w, ups_spot_w = make_synthetic_bids(
        racks, rng, racks_per_pdu=racks_per_pdu
    )
    return BidFrame.from_bids(bids), pdu_spot_w, ups_spot_w


def _assert_identical(a: AllocationResult, b: AllocationResult):
    """Bit-exact equality — no tolerances anywhere."""
    assert a.price == b.price
    assert a.grants_w == b.grants_w
    assert a.pdu_prices == b.pdu_prices
    assert a.revenue_rate == b.revenue_rate
    assert a.candidate_prices == b.candidate_prices
    assert a.feasible_prices == b.feasible_prices


class TestShardedParity:
    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_serial_shards_match_oracle(self, shards):
        frame, pdu_spot_w, ups_spot_w = _market()
        engine = MarketClearing(params=PARAMS)
        oracle = engine.clear_per_pdu(frame, pdu_spot_w, ups_spot_w)
        sharded = clear_per_pdu_sharded(
            engine, frame, pdu_spot_w, ups_spot_w, shards=shards
        )
        _assert_identical(sharded, oracle)

    def test_process_pool_matches_oracle(self):
        frame, pdu_spot_w, ups_spot_w = _market()
        engine = MarketClearing(params=PARAMS)
        oracle = engine.clear_per_pdu(frame, pdu_spot_w, ups_spot_w)
        sharded = clear_per_pdu_sharded(
            engine, frame, pdu_spot_w, ups_spot_w, shards=4, jobs=2
        )
        _assert_identical(sharded, oracle)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_extra_constraints_preserved(self, jobs):
        frame, pdu_spot_w, ups_spot_w = _market()
        zone = frozenset(list(frame.rack_ids)[:25])
        constraint = CapacityConstraint("zone", zone, 900.0)
        engine = MarketClearing(params=PARAMS)
        oracle = engine.clear_per_pdu(
            frame, pdu_spot_w, ups_spot_w, extra_constraints=[constraint]
        )
        sharded = clear_per_pdu_sharded(
            engine, frame, pdu_spot_w, ups_spot_w,
            extra_constraints=[constraint], shards=4, jobs=jobs,
        )
        _assert_identical(sharded, oracle)

    def test_empty_frame(self):
        engine = MarketClearing(params=PARAMS)
        result = clear_per_pdu_sharded(
            engine, BidFrame.from_bids([]), {}, 100.0, shards=4
        )
        assert result.grants_w == {}
        assert result.price == 0.0

    def test_negative_ups_rejected(self):
        frame, pdu_spot_w, _ = _market(racks=40)
        engine = MarketClearing(params=PARAMS)
        with pytest.raises(ClearingError):
            clear_per_pdu_sharded(engine, frame, pdu_spot_w, -1.0, shards=2)


class TestPartitionTasks:
    def test_empty(self):
        assert partition_tasks([], 4) == []

    def test_more_shards_than_tasks(self):
        tasks = [("p0", [None], 1.0, ()), ("p1", [None, None], 1.0, ())]
        groups = partition_tasks(tasks, 16)
        assert [t for g in groups for t in g] == tasks
        assert all(g for g in groups)
        assert len(groups) <= len(tasks)

    def test_contiguous_and_complete(self):
        tasks = [(f"p{i}", [None] * (i % 3 + 1), 1.0, ()) for i in range(8)]
        groups = partition_tasks(tasks, 3)
        assert [t for g in groups for t in g] == tasks
        assert len(groups) == 3


class TestReconciliation:
    def test_noop_returns_same_object(self):
        frame, pdu_spot_w, ups_spot_w = _market(racks=120)
        engine = MarketClearing(params=PARAMS)
        result = engine.clear_per_pdu(frame, pdu_spot_w, ups_spot_w)
        assert reconcile_allocation(result, frame, pdu_spot_w, ups_spot_w) is result

    def test_shrink_only_fixup_respects_caps(self):
        frame, pdu_spot_w, ups_spot_w = _market(racks=120)
        engine = MarketClearing(params=PARAMS)
        honest = engine.clear_per_pdu(frame, pdu_spot_w, ups_spot_w)
        # Inflate every grant past the PDU caps to force the guard.
        inflated = dataclasses.replace(
            honest,
            grants_w={r: g * 50.0 + 10.0 for r, g in honest.grants_w.items()},
        )
        fixed = reconcile_allocation(inflated, frame, pdu_spot_w, ups_spot_w)
        assert fixed is not inflated
        # Shrink-only (Eq. 2): no rack's grant grew.
        for rack_id, grant in fixed.grants_w.items():
            assert grant <= inflated.grants_w[rack_id] + 1e-9
        # Eq. 3: per-PDU totals within the PDU budgets.
        per_pdu: dict[str, float] = {}
        pdu_of = dict(zip(frame.rack_ids, np.asarray(frame.pdu_code)))
        for rack_id, grant in fixed.grants_w.items():
            pdu = frame.pdu_ids[pdu_of[rack_id]]
            per_pdu[pdu] = per_pdu.get(pdu, 0.0) + grant
        for pdu_id, total in per_pdu.items():
            assert total <= pdu_spot_w[pdu_id] + 1e-6
        # Eq. 4: the facility total within the UPS budget.
        assert sum(fixed.grants_w.values()) <= ups_spot_w + 1e-6

    def test_only_the_pdus_over_their_cap_are_scaled(self):
        bids = [
            RackBid(f"r{i}", f"p{i // 2}", "t0", LinearBid(20.0, 0.05, 5.0, 0.3), 20.0)
            for i in range(4)
        ]
        frame = BidFrame.from_bids(bids)
        pdu_spot_w = {"p0": 20.0, "p1": 20.0}
        result = AllocationResult(
            price=0.1,
            grants_w={"r0": 15.0, "r1": 15.0, "r2": 5.0, "r3": 5.0},
            revenue_rate=0.0,
            pdu_prices={"p0": 0.1, "p1": 0.1},
        )
        fixed = reconcile_allocation(result, frame, pdu_spot_w, 1000.0)
        assert fixed.grants_w == pytest.approx(
            {"r0": 10.0, "r1": 10.0, "r2": 5.0, "r3": 5.0}
        )
        verify_allocation(fixed, frame, pdu_spot_w, 1000.0)


class TestAllocatorConfig:
    def test_shards_require_per_pdu_pricing(self):
        with pytest.raises(ConfigurationError):
            SpotDCAllocator(params=PARAMS, shards=2, pricing="uniform")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_invalid_shards_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            SpotDCAllocator(params=PARAMS, shards=bad)

    def test_scenario_shards_validated(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(build_testbed(seed=1), shards=0)


def _trace_bytes(tmp_path, run_id, shards, **scenario_overrides):
    out = tmp_path / str(run_id)
    scenario = dataclasses.replace(
        build_testbed(seed=7), shards=shards, **scenario_overrides
    )
    result = run_simulation(
        scenario, slots=SLOTS,
        telemetry=TelemetryConfig(out_dir=out, label="run"),
    )
    return (out / "run_trace.jsonl").read_bytes(), result


def _assert_results_equal(a, b):
    assert np.array_equal(a.price_series(), b.price_series())
    assert np.array_equal(a.ups_power_series(), b.ups_power_series())
    assert a.total_spot_revenue() == b.total_spot_revenue()
    assert a.ledger.net_profit == b.ledger.net_profit
    for tenant_id in a.tenants:
        assert a.tenant_spot_payment(tenant_id) == b.tenant_spot_payment(
            tenant_id
        )


class TestEndToEndByteIdentity:
    def test_traces_and_invoices_identical_across_shards(self, tmp_path):
        baseline_bytes, baseline = _trace_bytes(tmp_path, "shards1", 1)
        for shards in (4, 16):
            trace, result = _trace_bytes(tmp_path, f"shards{shards}", shards)
            assert trace == baseline_bytes
            _assert_results_equal(result, baseline)

    def test_shard_spans_stay_out_of_default_traces(self):
        scenario = build_testbed(seed=7)
        allocator = SpotDCAllocator(
            params=MarketParameters(slot_seconds=scenario.slot_seconds),
            shards=2,
        )
        result = run_simulation(
            scenario, slots=SLOTS, allocator=allocator,
            telemetry=TelemetryConfig(enabled=True),
        )
        assert result.trace.spans_named("clearing.shard") == []

    def test_shard_spans_emitted_when_enabled(self):
        scenario = build_testbed(seed=7)
        allocator = SpotDCAllocator(
            params=MarketParameters(slot_seconds=scenario.slot_seconds),
            shards=2, shard_spans=True,
        )
        result = run_simulation(
            scenario, slots=SLOTS, allocator=allocator,
            telemetry=TelemetryConfig(enabled=True),
        )
        spans = result.trace.spans_named("clearing.shard")
        assert spans
        assert all(s.duration_s is not None for s in spans)


@pytest.mark.recovery
class TestShardedRecovery:
    """Crash/resume stays byte-identical with sharding enabled."""

    def _crashed_then_resumed(self, tmp_path, seed, shards, crash_at=8):
        scenario = dataclasses.replace(build_testbed(seed=seed), shards=shards)
        crashing = dataclasses.replace(
            FaultProfile(name="crash-only"), crash_at_slot=crash_at
        )
        ckpt_dir = tmp_path / "ckpt"
        from repro.errors import OperatorCrash

        with pytest.raises(OperatorCrash):
            run_simulation(
                scenario, SLOTS, fault_profile=crashing,
                checkpoint_every=3, checkpoint_dir=ckpt_dir,
            )
        checkpoint = latest_checkpoint(ckpt_dir)
        assert checkpoint is not None
        return run_simulation(
            dataclasses.replace(build_testbed(seed=seed), shards=shards),
            SLOTS, fault_profile=crashing, resume_from=checkpoint,
        )

    def test_resume_matches_straight_run(self, tmp_path):
        resumed = self._crashed_then_resumed(tmp_path, seed=11, shards=4)
        reference = run_simulation(
            dataclasses.replace(build_testbed(seed=11), shards=4), SLOTS
        )
        _assert_results_equal(resumed, reference)

    def test_sharded_resume_matches_unsharded_run(self, tmp_path):
        resumed = self._crashed_then_resumed(tmp_path, seed=11, shards=4)
        reference = run_simulation(build_testbed(seed=11), SLOTS)
        _assert_results_equal(resumed, reference)
