"""Fault-injection framework (repro.resilience.faults / .profile)."""

import numpy as np
import pytest

from repro.config import make_rng
from repro.errors import ConfigurationError
from repro.resilience import (
    BernoulliLoss,
    DeratingEvent,
    DeratingSource,
    FaultInjector,
    FaultLog,
    FaultProfile,
    GilbertElliottLoss,
    GrantDelaySource,
    MeterFaultSource,
    ScriptedLoss,
)
from repro.sim.scenario import testbed_scenario as build_testbed


def injector(*sources, seed=7):
    return FaultInjector(sources, seed=seed)


class TestFaultLog:
    def test_records_are_per_slot_time_series(self):
        log = FaultLog()
        log.record(3, "bid_lost", "t1")
        log.record(3, "grant_lost", "r1", 40.0)
        log.record(9, "bid_lost", "t2")
        assert [r.slot for r in log.records] == [3, 3, 9]
        assert log.slots() == [3, 9]
        assert log.slots("bid_lost") == [3, 9]
        assert log.of_kind("grant_lost")[0].magnitude == 40.0

    def test_legacy_counter_views(self):
        log = FaultLog()
        log.record(0, "bid_lost", "t1")
        log.record(1, "bid_lost", "t1")
        log.record(2, "grant_lost", "r1")
        assert log.lost_bids == 2
        assert log.lost_grants == 1
        assert log.count() == 3


class TestSources:
    def test_unbound_source_raises(self):
        source = BernoulliLoss("bid", 0.5)
        with pytest.raises(ConfigurationError):
            source.lost(0, "t")

    def test_zero_probability_draws_nothing(self):
        source = BernoulliLoss("grant", 0.0)
        rng = make_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        source.bind(rng)
        assert not any(source.lost(s, "r") for s in range(50))
        assert rng.bit_generator.state["state"]["state"] == before

    def test_gilbert_elliott_losses_are_bursty(self):
        # Same long-run loss rate, wildly different clustering: compare
        # the burst structure of GE losses with independent Bernoulli
        # losses at the empirical GE rate.
        ge = GilbertElliottLoss("bid", enter_bad=0.02, exit_bad=0.2, loss_bad=1.0)
        ge.bind(make_rng(11))
        slots = 20_000
        ge_lost = np.array([ge.lost(s, "u") for s in range(slots)])
        rate = ge_lost.mean()
        assert 0.0 < rate < 0.5
        bern = BernoulliLoss("bid", rate)
        bern.bind(make_rng(11))
        b_lost = np.array([bern.lost(s, "u") for s in range(slots)])

        def mean_run_length(mask):
            runs, current = [], 0
            for value in mask:
                if value:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return np.mean(runs)

        assert mean_run_length(ge_lost) > 2.0 * mean_run_length(b_lost)

    def test_scripted_loss_fires_exactly_on_script(self):
        source = ScriptedLoss("grant", slots=[4, 7], unit_ids=["r1"])
        source.bind(make_rng(0))
        assert source.lost(4, "r1") and source.lost(7, "r1")
        assert not source.lost(4, "r2")
        assert not source.lost(5, "r1")

    def test_grant_delay_produces_delayed_fault(self):
        source = GrantDelaySource(probability=1.0, delay_slots=4)
        source.bind(make_rng(0))
        fault = source.grant_fault(0, "r1", 50.0)
        assert fault.kind == "delayed" and fault.delay_slots == 4


class TestMeterFaults:
    def metered_series(self, source, true_w=100.0, slots=50):
        log = FaultLog()
        return [source.metered(s, "r1", true_w, log) for s in range(slots)], log

    def test_stuck_meter_freezes_reading(self):
        source = MeterFaultSource(stuck_probability=1.0, episode_slots=5)
        source.bind(make_rng(3))
        log = FaultLog()
        first = source.metered(0, "r1", 80.0, log)
        later = source.metered(1, "r1", 999.0, log)
        assert first == 80.0
        assert later == 80.0  # frozen at the reading it stuck at
        assert log.count("meter_stuck") == 2

    def test_dropout_reads_zero(self):
        source = MeterFaultSource(dropout_probability=1.0)
        source.bind(make_rng(3))
        readings, log = self.metered_series(source)
        assert all(r == 0.0 for r in readings)
        assert log.count("meter_dropout") == len(readings)

    def test_noise_perturbs_but_stays_nonnegative(self):
        source = MeterFaultSource(noise_sigma=0.5)
        source.bind(make_rng(3))
        readings, log = self.metered_series(source, true_w=10.0, slots=500)
        assert any(r != 10.0 for r in readings)
        assert all(r >= 0.0 for r in readings)
        assert log.count() == 0  # ambient noise is not an episode

    def test_unit_restriction(self):
        source = MeterFaultSource(dropout_probability=1.0, unit_ids=["r2"])
        source.bind(make_rng(3))
        log = FaultLog()
        assert source.metered(0, "r1", 70.0, log) == 70.0
        assert source.metered(0, "r2", 70.0, log) == 0.0


class TestDerating:
    def test_scheduled_event_applies_and_restores(self):
        topology = build_testbed(seed=1).topology
        pdu_id = next(iter(topology.pdus))
        base = topology.pdu(pdu_id).capacity_w
        source = DeratingSource(
            events=[DeratingEvent(slot=2, duration_slots=3, unit_id=pdu_id, fraction=0.25)]
        )
        source.bind(make_rng(0))
        log = FaultLog()
        for slot in range(8):
            source.transitions(slot, topology, log)
            expected = base * 0.75 if 2 <= slot < 5 else base
            assert topology.pdu(pdu_id).capacity_w == pytest.approx(expected)
        assert log.count("derating_start") == 1
        assert log.count("derating_end") == 1

    def test_ups_derating(self):
        topology = build_testbed(seed=1).topology
        ups_id = topology.ups.ups_id
        source = DeratingSource(
            events=[DeratingEvent(slot=0, duration_slots=2, unit_id=ups_id, fraction=0.1)]
        )
        source.bind(make_rng(0))
        source.transitions(0, topology, FaultLog())
        assert topology.ups.derated
        topology.restore_all_capacities()
        assert not topology.ups.derated

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            DeratingEvent(slot=0, duration_slots=1, unit_id="p", fraction=1.5)


class TestInjector:
    def test_requires_exactly_one_of_seed_and_rng(self):
        with pytest.raises(ConfigurationError):
            FaultInjector([])
        with pytest.raises(ConfigurationError):
            FaultInjector([], seed=1, rng=make_rng(1))

    def test_loss_wins_over_delay(self):
        inj = injector(
            GrantDelaySource(probability=1.0, delay_slots=2),
            BernoulliLoss("grant", 1.0),
        )
        fault = inj.grant_fault(0, "r1", 10.0)
        assert fault.kind == "lost"
        assert inj.log.lost_grants == 1

    def test_deliver_grants_draws_once_per_positive_grant_in_order(self):
        # The same draws as querying each positively granted rack by
        # hand, in grant order; zero grants draw nothing.
        def twin():
            return injector(
                GrantDelaySource(probability=0.5, delay_slots=2),
                BernoulliLoss("grant", 0.3),
            )

        grants = {f"r{i}": 10.0 * (i % 3) for i in range(12)}
        batch, by_hand = twin(), twin()
        lost, delayed = batch.deliver_grants(1, grants)
        faults = {
            rack_id: by_hand.grant_fault(1, rack_id, grant)
            for rack_id, grant in grants.items()
            if grant > 0
        }
        assert lost == [r for r, f in faults.items() if f is not None and f.kind == "lost"]
        assert delayed == [
            r for r, f in faults.items() if f is not None and f.kind == "delayed"
        ]
        assert lost and delayed
        assert batch.log.records == by_hand.log.records

    def test_identical_seeds_identical_traces(self):
        # Property: two injectors with the same sources and seed produce
        # identical fault traces over any query sequence.
        def trace(seed):
            inj = FaultInjector(
                [
                    BernoulliLoss("bid", 0.3),
                    GilbertElliottLoss("grant", 0.1),
                    MeterFaultSource(stuck_probability=0.2, noise_sigma=0.05),
                ],
                seed=seed,
            )
            out = []
            for s in range(200):
                out.append(inj.bid_lost(s, "t1"))
                fault = inj.grant_fault(s, "r1", 25.0)
                out.append(None if fault is None else fault.kind)
                out.append(inj.metered_power_w(s, "r1", 100.0))
            return out, inj.log.records

        a_trace, a_log = trace(42)
        b_trace, b_log = trace(42)
        c_trace, _ = trace(43)
        assert a_trace == b_trace
        assert a_log == b_log
        assert a_trace != c_trace

    def test_channel_streams_are_independent_of_composition(self):
        # The derating schedule must be byte-identical whether or not
        # market-channel sources are present — the property the SpotDC
        # vs PowerCapped invariant comparison rests on.
        def derating_trace(extra_sources):
            topology = build_testbed(seed=1).topology
            inj = FaultInjector(
                list(extra_sources)
                + [DeratingSource(event_rate=0.2, fraction=0.2, duration_slots=4)],
                seed=99,
            )
            for s in range(150):
                for t in ("t1", "t2"):
                    inj.bid_lost(s, t)
                inj.apply_capacity_faults(s, topology)
            topology.restore_all_capacities()
            return [
                (r.slot, r.kind, r.unit_id, r.magnitude)
                for r in inj.log.records
                if r.kind.startswith("derating")
            ]

        bare = derating_trace([])
        with_market_faults = derating_trace(
            [BernoulliLoss("bid", 0.4), BernoulliLoss("grant", 0.4)]
        )
        assert bare == with_market_faults
        assert len(bare) > 0


class TestFaultProfile:
    def test_named_classes(self):
        for name in (
            "comm", "bursty", "delay", "meter", "derating", "duplicate",
            "chaos",
        ):
            profile = FaultProfile.named(name, 0.2)
            assert profile.sources(), name
        assert FaultProfile.named("none").build() is None

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultProfile.named("gremlins")
        with pytest.raises(ConfigurationError):
            FaultProfile.named("comm", intensity=2.0)

    def test_profile_accepts_plain_seed(self):
        # The legacy model hard-required a pre-built Generator; profiles
        # take a plain int.
        inj = FaultProfile.named("comm", 0.5).build(seed=5)
        assert isinstance(inj, FaultInjector)

    def test_derating_only_strips_market_channels(self):
        chaos = FaultProfile.named("chaos", 0.3)
        stripped = chaos.derating_only()
        channels = {s.channel for s in stripped.sources()}
        assert channels <= {"capacity"}
        assert stripped.derating_rate == chaos.derating_rate


class TestLostGrantBilling:
    def test_lost_grant_broadcast_earns_exactly_zero_revenue(self):
        # §III-C: a grant whose broadcast is lost is never applied and
        # never billed.  Script a loss of every grant at one slot and
        # pin that slot's settlement revenue to exactly 0.0.
        from repro.economics.settlement import reconcile
        from repro.sim.engine import SimulationEngine

        k, slots, seed = 10, 40, 3
        clean = SimulationEngine(build_testbed(seed=seed)).run(slots)
        assert clean.collector.spot_revenue_array()[k] > 0.0

        injector = FaultInjector([ScriptedLoss("grant", slots=[k])], seed=seed)
        engine = SimulationEngine(build_testbed(seed=seed), fault_model=injector)
        result = engine.run(slots)
        assert result.faults.lost_grants > 0
        assert result.collector.spot_revenue_array()[k] == 0.0
        assert result.collector.spot_granted_array()[k] == 0.0
        reconcile(result)


class TestDuplicateDelivery:
    def test_seeded_and_unit_restricted(self):
        from repro.resilience import DuplicateDeliverySource

        def trace(seed):
            inj = FaultInjector(
                [DuplicateDeliverySource(0.4, unit_ids=["t1"])], seed=seed
            )
            return [
                (inj.bid_duplicated(s, "t1"), inj.bid_duplicated(s, "t2"))
                for s in range(100)
            ]

        a, b, c = trace(7), trace(7), trace(8)
        assert a == b and a != c
        assert any(dup_t1 for dup_t1, _ in a)
        # t2 is outside unit_ids: never duplicated, and (zero-draw) the
        # restriction must not consume randomness for excluded units.
        assert not any(dup_t2 for _, dup_t2 in a)
        assert FaultInjector(
            [DuplicateDeliverySource(0.4)], seed=7
        ).has_duplicate_sources

    def test_duplicates_logged_on_their_own_channel(self):
        from repro.resilience import DuplicateDeliverySource

        inj = FaultInjector(
            [BernoulliLoss("bid", 0.3), DuplicateDeliverySource(0.5)], seed=3
        )
        for s in range(80):
            inj.bid_lost(s, "t1")
            inj.bid_duplicated(s, "t1")
        assert inj.log.count("bid_duplicated") > 0
        assert inj.log.count("bid_lost") > 0

    def test_duplicate_deliveries_are_settlement_neutral(self):
        # The §III-C idempotency contract, end to end at tier-1 scale:
        # redelivered bundles are absorbed by ingestion, so every
        # settlement number matches the clean same-seed run exactly.
        from repro.experiments.ext_resilience import (
            run_duplicate_neutrality_check,
        )

        cell = run_duplicate_neutrality_check(seed=2, slots=60, intensity=0.5)
        assert cell.duplicates_injected > 0
        assert cell.revenue_equal
        assert cell.prices_equal
        assert cell.invoices_equal
        assert cell.ok
