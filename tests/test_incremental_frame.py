"""Incremental frame building: dirty tracking and from-scratch parity.

`IncrementalFrameBuilder` keeps per-PDU column blocks alive across
slots and rebuilds only the PDUs whose bids changed.  Its contract is
twofold: the produced frame is *element-for-element* identical to the
row-at-a-time reference build (``tests/oracle.py``'s
``frame_from_bids``) on the same bid list, and a mutation dirties
exactly the PDUs it touches (``last_dirty``).  Tenants joining or
leaving mid-run, quarantined bundles, revocations, and fault-injected
lost-bid slots all reduce to bid-list mutations, so each gets an
explicit invalidation test; a property test then checks parity after
arbitrary mutation sequences.

Frames of fewer than ``frame._ROWS_FROM`` rows are compared and built
row by row, larger ones vectorized; every case here runs both ways (the
``...Vectorized`` classes patch the threshold to 0).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters
from repro.core import frame as frame_module
from repro.core.bids import BidTable, RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import BidFrame
from repro.core.market import SpotDCAllocator
from repro.core.sharding import IncrementalFrameBuilder
from repro.sim.engine import run_simulation
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.telemetry import TelemetryConfig

from tests import oracle
from tests.oracle import frame_from_bids

SLOTS = 12

_ARRAY_COLUMNS = (
    "pdu_code",
    "tenant_code",
    "kind",
    "d_max_w",
    "q_min",
    "d_min_w",
    "q_max",
    "rack_cap_w",
    "max_demand_w",
    "floor_w",
    "breakpoints",
)


def _same_demand(da, db):
    """Value equality; reused blocks keep the prior slot's equal objects."""
    if da is db:
        return True
    if type(da) is not type(db):
        return False
    if isinstance(da, LinearBid):
        return (
            da.d_max_w == db.d_max_w
            and da.q_min == db.q_min
            and da.d_min_w == db.d_min_w
            and da.q_max == db.q_max
        )
    if isinstance(da, StepBid):
        return da.demand_w == db.demand_w and da.price_cap == db.price_cap
    if isinstance(da, FullBid):
        return (
            np.array_equal(da._demands, db._demands)
            and np.array_equal(da._marginals, db._marginals)
            and da._price_cap == db._price_cap
        )
    return False


def _assert_frames_identical(a: BidFrame, b: BidFrame, bitwise: bool = False):
    assert a.rack_ids == b.rack_ids
    assert a.pdu_ids == b.pdu_ids
    assert a.tenant_ids == b.tenant_ids
    for column in _ARRAY_COLUMNS:
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype, column
        assert np.array_equal(left, right), column
        # Two frames built from scratch agree bit for bit: a signed zero
        # keeps its sign.  (An incremental build may keep a row's
        # earlier, equal bits.)
        assert not bitwise or left.tobytes() == right.tobytes(), column
    assert len(a._demands) == len(b._demands)
    for da, db in zip(a._demands, b._demands):
        assert da is None if db is None else _same_demand(da, db)


def _bid(rack, pdu, tenant, demand=None, cap=100.0):
    return RackBid(rack, pdu, tenant, demand or LinearBid(60.0, 0.05, 10.0, 0.3), cap)


def _population():
    """Four PDUs, five tenants, all three bid kinds."""
    return [
        _bid("r0", "p0", "tA"),
        _bid("r1", "p0", "tA", StepBid(35.0, 0.2)),
        _bid("r2", "p0", "tB"),
        _bid("r3", "p1", "tB", LinearBid(80.0, 0.02, 20.0, 0.25)),
        _bid("r4", "p1", "tC", FullBid([10.0, 30.0], [0.0004, 0.0002])),
        _bid("r5", "p2", "tC"),
        _bid("r6", "p2", "tD", StepBid(50.0, 0.15)),
        _bid("r7", "p3", "tE"),
        _bid("r8", "p3", "tE", LinearBid(40.0, 0.1, 5.0, 0.4)),
    ]


def _closed_population():
    """Same shape, closed-form (Linear/Step) curves only.

    Closed-form curves compare by their defining floats, so fresh bid
    objects with equal values — what tenants submit every slot — reuse
    blocks.  ``FullBid`` rows are conservatively dirtied instead (see
    ``test_full_bid_pdus_rebuild_conservatively``).
    """
    return [
        _bid("r4", "p1", "tC", StepBid(25.0, 0.3)) if b.rack_id == "r4" else b
        for b in _population()
    ]


class _OpaqueLinear(LinearBid):
    """A LinearBid subclass: sampled, yet with public curve attributes."""


@pytest.fixture
def vectorized():
    """Build every frame through the vectorized path, however few its rows."""
    with mock.patch.object(frame_module, "_ROWS_FROM", 0):
        yield


class TestParityWithFromBids:
    def test_from_bids_matches_reference(self):
        bids = _population() + [
            _bid("r9", "p2", "tF", _OpaqueLinear(45.0, 0.05, 5.0, 0.35))
        ]
        _assert_frames_identical(BidFrame.from_bids(bids), frame_from_bids(bids))
        _assert_frames_identical(BidFrame.from_bids([]), frame_from_bids([]))

    def test_initial_build_matches_from_scratch(self):
        bids = _population()
        builder = IncrementalFrameBuilder()
        _assert_frames_identical(builder.build(bids), frame_from_bids(bids))

    def test_empty(self):
        builder = IncrementalFrameBuilder()
        frame = builder.build([])
        assert len(frame) == 0
        assert builder.last_dirty == ()
        # A population appearing after an empty slot still matches.
        bids = _population()
        _assert_frames_identical(builder.build(bids), frame_from_bids(bids))

    def test_fresh_equal_objects_reuse_blocks(self):
        """Tenants rebuild their bids every slot; equal params must not dirty."""
        builder = IncrementalFrameBuilder()
        builder.build(_closed_population())
        # Brand-new objects, same values: nothing dirties.
        frame = builder.build(_closed_population())
        assert builder.last_dirty == ()
        _assert_frames_identical(frame, frame_from_bids(_closed_population()))

    def test_full_bid_pdus_rebuild_conservatively(self):
        """Sampled curves have no cheap equality: fresh objects dirty."""
        builder = IncrementalFrameBuilder()
        builder.build(_population())
        frame = builder.build(_population())
        assert builder.last_dirty == ("p1",)  # the FullBid's PDU, only
        _assert_frames_identical(frame, frame_from_bids(_population()))


@pytest.mark.usefixtures("vectorized")
class TestParityWithFromBidsVectorized(TestParityWithFromBids):
    pass


class TestDirtyTracking:
    def _built(self):
        builder = IncrementalFrameBuilder()
        builder.build(_closed_population())
        return builder

    def test_unchanged_slot_returns_same_frame_object(self):
        builder = IncrementalFrameBuilder()
        first = builder.build(_closed_population())
        second = builder.build(_closed_population())
        assert second is first
        assert builder.last_dirty == ()

    def test_resent_demand_objects_skip_the_walk(self):
        """Fresh bids holding the demand objects sent before, in the same
        order: the previous frame, without walking the bids."""
        sent = _population()
        again = [RackBid(b.rack_id, b.pdu_id, b.tenant_id, b.demand, b.rack_cap_w) for b in sent]
        builder = IncrementalFrameBuilder()
        first = builder.build(sent)
        with mock.patch.object(BidTable, "from_bids", side_effect=AssertionError("walked")):
            assert builder.build(again) is first
        assert builder.last_dirty == ()
        # Fewer bids, or r4 (on p1) with another rack id, cap, PDU or
        # tenant but the same demand object, are walked.
        r4 = again[4]
        for bids, dirty in (
            (again[:-2], ("p3",)),
            (again[:4] + [_bid("r9", "p1", "tC", r4.demand)] + again[5:], ("p1",)),
            (again[:4] + [_bid("r4", "p1", "tC", r4.demand, cap=90.0)] + again[5:], ("p1",)),
            (again[:4] + [_bid("r4", "p2", "tC", r4.demand)] + again[5:], ("p1", "p2")),
            (again[:4] + [_bid("r4", "p1", "tF", r4.demand)] + again[5:], ("p1",)),
        ):
            builder = IncrementalFrameBuilder()
            builder.build(sent)
            frame = builder.build(bids)
            assert builder.last_dirty == dirty
            _assert_frames_identical(frame, frame_from_bids(bids))

    def test_kept_rows_keep_their_bits(self):
        """A ``0.0`` resent as ``-0.0`` leaves its PDU unchanged: when
        another PDU is rebuilt, the frame keeps this PDU's previous rows
        bit for bit."""
        builder = IncrementalFrameBuilder()
        first = _closed_population()
        first[0] = _bid("r0", "p0", "tA", LinearBid(60.0, 0.0, 10.0, 0.3))
        builder.build(first)
        second = _closed_population()
        second[0] = _bid("r0", "p0", "tA", LinearBid(60.0, -0.0, 10.0, 0.3))
        second[5] = _bid("r5", "p2", "tC", LinearBid(61.0, 0.05, 10.0, 0.3))
        frame = builder.build(second)
        assert builder.last_dirty == ("p2",)
        assert not np.signbit(frame.q_min[frame.row_of["r0"]])
        _assert_frames_identical(frame, frame_from_bids(second))

    def test_tenant_joins_dirties_only_its_pdu(self):
        builder = self._built()
        joined = _closed_population() + [_bid("r9", "p1", "tF")]
        frame = builder.build(joined)
        assert builder.last_dirty == ("p1",)
        _assert_frames_identical(frame, frame_from_bids(joined))

    def test_tenant_leaves_dirties_only_its_pdus(self):
        builder = self._built()
        # tE leaves: both its racks are on p3.
        remaining = [b for b in _closed_population() if b.tenant_id != "tE"]
        frame = builder.build(remaining)
        assert builder.last_dirty == ("p3",)
        _assert_frames_identical(frame, frame_from_bids(remaining))

    def test_quarantined_bundle_dirties_each_hosting_pdu(self):
        builder = self._built()
        # tC's bundle is rejected whole; its racks span p1 and p2.
        screened = [b for b in _closed_population() if b.tenant_id != "tC"]
        frame = builder.build(screened)
        assert builder.last_dirty == ("p1", "p2")
        _assert_frames_identical(frame, frame_from_bids(screened))

    def test_modified_bid_dirties_only_its_pdu(self):
        builder = self._built()
        changed = _closed_population()
        changed[5] = _bid("r5", "p2", "tC", LinearBid(61.0, 0.05, 10.0, 0.3))
        frame = builder.build(changed)
        assert builder.last_dirty == ("p2",)
        _assert_frames_identical(frame, frame_from_bids(changed))

    def test_lost_bid_slot_dirties_removed_pdu(self):
        """Fault-injected bid loss: a whole PDU's bids vanish for a slot."""
        builder = self._built()
        lost = [b for b in _closed_population() if b.pdu_id != "p1"]
        frame = builder.build(lost)
        assert builder.last_dirty == ("p1",)
        _assert_frames_identical(frame, frame_from_bids(lost))
        # The bids return next slot: only p1 rebuilds, parity holds.
        restored = builder.build(_closed_population())
        assert builder.last_dirty == ("p1",)
        _assert_frames_identical(restored, frame_from_bids(_closed_population()))

    def test_reuse_counters(self):
        builder = self._built()
        builder.build(_closed_population() + [_bid("r9", "p1", "tF")])
        assert builder.builds == 2
        assert builder.rebuilt_pdus == 4 + 1  # initial build + one dirty PDU
        assert builder.reused_pdus == 3


@pytest.mark.usefixtures("vectorized")
class TestDirtyTrackingVectorized(TestDirtyTracking):
    pass


# -- property test: parity after arbitrary mutation sequences ----------

_PDUS = ("p0", "p1", "p2", "p3")
_TENANTS = ("tA", "tB", "tC", "tD", "tE", "tF")


def _apply_mutation(bids, op, rng):
    bids = list(bids)
    kind, payload = op
    if kind == "join":
        rack = f"rx{payload}"
        if any(b.rack_id == rack for b in bids):
            return bids
        pdu = _PDUS[payload % len(_PDUS)]
        tenant = _TENANTS[payload % len(_TENANTS)]
        demand = (
            StepBid(10.0 + payload, 0.2)
            if payload % 2
            else LinearBid(50.0 + payload, 0.04, 5.0, 0.35)
        )
        bids.append(RackBid(rack, pdu, tenant, demand, 120.0))
    elif kind == "leave" and bids:
        del bids[payload % len(bids)]
    elif kind == "modify" and bids:
        i = payload % len(bids)
        old = bids[i]
        bids[i] = RackBid(
            old.rack_id, old.pdu_id, old.tenant_id,
            LinearBid(30.0 + payload, 0.03, 3.0, 0.3), old.rack_cap_w,
        )
    elif kind == "drop_pdu":
        pdu = _PDUS[payload % len(_PDUS)]
        bids = [b for b in bids if b.pdu_id != pdu]
    elif kind == "zero" and bids:
        # Signed-zero floors and caps: a tie clips to the cap, as
        # np.minimum does.
        i = payload % len(bids)
        old = bids[i]
        floor, cap = (0.0, -0.0)[payload % 2], (0.0, -0.0)[payload // 2 % 2]
        demand = StepBid(floor, 0.2) if payload % 3 else LinearBid(40.0, 0.05, floor, 0.3)
        bids[i] = RackBid(old.rack_id, old.pdu_id, old.tenant_id, demand, cap)
    return bids


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["join", "leave", "modify", "drop_pdu", "zero", "noop"]),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=8,
    ),
    rows_from=st.sampled_from([0, frame_module._ROWS_FROM]),
)
@settings(max_examples=40, deadline=None)
def test_incremental_equals_from_scratch_after_any_mutations(ops, rows_from):
    with mock.patch.object(frame_module, "_ROWS_FROM", rows_from):
        builder = IncrementalFrameBuilder()
        bids = _population()
        _assert_frames_identical(builder.build(bids), frame_from_bids(bids))
        for op in ops:
            bids = _apply_mutation(bids, op, None)
            frame = builder.build(bids)
            _assert_frames_identical(frame, frame_from_bids(bids))
            _assert_frames_identical(
                BidFrame.from_bids(bids), frame_from_bids(bids), bitwise=True
            )
            # Every dirty PDU names a real PDU of the old or new population.
            assert set(builder.last_dirty) <= set(_PDUS) | {b.pdu_id for b in bids}


# -- per-frame caches unlocked by frame reuse --------------------------


class TestFrameCaches:
    def test_price_grid_cached_per_frame(self):
        frame = BidFrame.from_bids(_population())
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        first = engine.candidate_prices(frame)
        second = engine.candidate_prices(frame)
        assert second is first
        # A different frame object computes its own grid.
        other = BidFrame.from_bids(_population())
        assert engine.candidate_prices(other) is not first
        assert np.array_equal(engine.candidate_prices(other), first)

    def test_block_grid_cached_across_slots(self):
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        builder = IncrementalFrameBuilder()
        frame = builder.build(_closed_population())
        first = dict(zip(frame.pdu_ids, engine._pdu_grids(frame)))
        # Only p2's bids change: the reused blocks keep their grid
        # objects into the next slot, the rebuilt block gets a new one.
        changed = _closed_population()
        changed[5] = _bid("r5", "p2", "tC", LinearBid(61.0, 0.05, 10.0, 0.31))
        frame = builder.build(changed)
        assert builder.last_dirty == ("p2",)
        second = dict(zip(frame.pdu_ids, engine._pdu_grids(frame)))
        for pdu_id, grid in second.items():
            assert (grid is first[pdu_id]) == (pdu_id != "p2"), pdu_id
        assert 0.31 in second["p2"] and 0.31 not in first["p2"]
        # A moved reserve price is a new key: every block rebuilds its
        # grid, and the new grids start at the new reserve.
        raised = MarketClearing(
            params=MarketParameters(price_step=0.01, reserve_price=0.02)
        )
        third = dict(zip(frame.pdu_ids, raised._pdu_grids(frame)))
        for pdu_id, grid in third.items():
            assert grid is not second[pdu_id]
            assert grid[0] == 0.02
        # Each block grid is the grid of a clear of that PDU alone.
        for pdu_id, grid in third.items():
            alone = BidFrame.from_bids([b for b in changed if b.pdu_id == pdu_id])
            assert np.array_equal(grid, raised.candidate_prices(alone))

    def test_block_totals_kept_across_slots(self):
        # The grid-cache entry is (key, grid, totals[, price, grants]):
        # a fresh totals row is stored alone, and grants join it once the
        # row has been reused.
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        caps = dict.fromkeys(_PDUS, 1e3)
        builder = IncrementalFrameBuilder()
        frame = builder.build(_closed_population())
        engine.clear_per_pdu(frame, caps, 1e6)
        first = {b.pdu_id: b._grid_cache for b in frame.blocks}
        assert {len(entry) for entry in first.values()} == {3}
        # Only p2's bids change: the kept blocks keep their totals and
        # now their grants; the rebuilt block stores a fresh row.
        changed = _closed_population()
        changed[5] = _bid("r5", "p2", "tC", LinearBid(61.0, 0.05, 10.0, 0.31))
        frame = builder.build(changed)
        engine.clear_per_pdu(frame, caps, 1e6)
        second = {b.pdu_id: b._grid_cache for b in frame.blocks}
        for pdu_id, entry in second.items():
            kept = pdu_id != "p2"
            assert (entry[2] is first[pdu_id][2]) == kept, pdu_id
            assert len(entry) == (5 if kept else 3), pdu_id
        # At a repeated price the kept grants serve as they are.
        engine.clear_per_pdu(frame, caps, 1e6)
        for block in frame.blocks:
            kept = block.pdu_id != "p2"
            assert (block._grid_cache is second[block.pdu_id]) == kept
        # Each kept row holds the bits of a sweep of that PDU alone.
        for (_, sub), block in zip(oracle.pdu_slices(frame), frame.blocks):
            expected, _ = oracle.demand_totals(sub, block._grid_cache[1])
            assert block._grid_cache[2].tobytes() == expected[0].tobytes()
        # A moved reserve price is a new grid: no block keeps its totals.
        raised = MarketClearing(
            params=MarketParameters(price_step=0.01, reserve_price=0.02)
        )
        raised.clear_per_pdu(frame, caps, 1e6)
        for block in frame.blocks:
            assert block._grid_cache[2] is not second[block.pdu_id][2]
            assert block._grid_cache[2].size == block._grid_cache[1].size


@pytest.mark.usefixtures("vectorized")
class TestFrameCachesVectorized(TestFrameCaches):
    pass


# -- end-to-end: the incremental default changes no bytes --------------


class _ScratchBuilder:
    """Builds every slot's frame from scratch with the reference build."""

    def build(self, table):
        return frame_from_bids(table.bids)


class TestEndToEnd:
    def _trace_bytes(self, tmp_path, run_id, incremental):
        scenario = build_testbed(seed=7)
        out = tmp_path / str(run_id)
        allocator = SpotDCAllocator(
            params=MarketParameters(slot_seconds=scenario.slot_seconds)
        )
        if not incremental:
            allocator.frame_builder = _ScratchBuilder()
        run_simulation(
            scenario, slots=SLOTS, allocator=allocator,
            telemetry=TelemetryConfig(out_dir=out, label="run"),
        )
        return (out / "run_trace.jsonl").read_bytes()

    def test_incremental_matches_from_scratch_traces(self, tmp_path):
        assert self._trace_bytes(tmp_path, "inc", True) == self._trace_bytes(
            tmp_path, "scratch", False
        )


@pytest.mark.usefixtures("vectorized")
class TestEndToEndVectorized(TestEndToEnd):
    pass
