"""The one-pass clearing sweep vs the slice-at-a-time reference, bit for bit.

``MarketClearing`` clears every market of a slot in one sweep over the
frame's PDU-sorted rows: one market per PDU under locational pricing,
one market under a facility-wide price.  ``tests/oracle.py`` keeps the
columnar clear one market at a time (per-PDU: one sub-frame per PDU),
and the sweep must reproduce its float arithmetic exactly.  Every
comparison here is ``==`` with no tolerance — on every
``AllocationResult`` field, on the key order of ``grants_w`` and on
each float's sign and bits.

The sweep packs markets into blocks of at most ``_CHUNK_CELLS`` padded
cells.  The differential property shrinks that bound to a few dozen
cells, so markets spread over many blocks and some markets are larger
than a block (they clear alone), and the results must not move.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MarketParameters
from repro.core import clearing
from repro.core.bids import RackBid
from repro.core.clearing import MarketClearing
from repro.core.demand import FullBid, LinearBid, StepBid
from repro.core.frame import KIND_CLOSED, BidFrame
from repro.core.sharding import IncrementalFrameBuilder
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.infrastructure.constraints import CapacityConstraint

from tests import oracle


def _one_market_totals(frame, prices, group_rows=(), index=None):
    """``frame.market_totals`` with one market: every row, every PDU, one
    ascending price grid."""
    prices = np.asarray(prices, dtype=float)
    return frame.market_totals(
        np.arange(len(frame), dtype=np.intp),
        0,
        np.zeros(len(frame.pdu_ids), dtype=np.intp),
        prices[None, :],
        np.array([prices.size]),
        group_rows,
        np.zeros(len(group_rows), dtype=np.intp),
        index,
    )


def _canonical(value):
    """A value with every float spelled out bit for bit (-0.0 != 0.0)."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict", [(k, _canonical(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def _assert_identical(result, reference):
    """Every field equal, grants in the same key order, floats bit-equal."""
    for field in dataclasses.fields(reference):
        got = getattr(result, field.name)
        want = getattr(reference, field.name)
        assert got == want, field.name
        assert _canonical(got) == _canonical(want), field.name


def _watts(upper):
    """A watt value: exactly zero, or bounded away from float noise."""
    return st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=upper))


@st.composite
def _demand(draw):
    kind = draw(st.sampled_from(["linear", "step", "full"]))
    if kind == "full":
        n_pts = draw(st.integers(min_value=1, max_value=4))
        demands = np.cumsum(
            [draw(st.floats(min_value=0.5, max_value=30.0)) for _ in range(n_pts)]
        )
        marginals = sorted(
            (draw(st.floats(min_value=0.0, max_value=0.0005)) for _ in range(n_pts)),
            reverse=True,
        )
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.45)))
        return FullBid(demands, marginals, price_cap=cap)
    d_min = draw(_watts(40.0))
    d_max = d_min + draw(_watts(80.0))
    q_min = draw(st.floats(min_value=0.0, max_value=0.3))
    q_max = q_min + draw(st.floats(min_value=0.001, max_value=0.4))
    if kind == "step":
        return StepBid(d_max, q_max)
    return LinearBid(d_max, q_min, d_min, q_max)


def _rack(i, pdu_id, demand, cap):
    return RackBid(
        rack_id=f"r{i}", pdu_id=pdu_id, tenant_id=f"t{i % 5}",
        demand=demand, rack_cap_w=cap,
    )


def _edge_pdus(first):
    """Three PDUs whose markets take the sweep's edge branches.

    ``x-rejected``: every bid fails admission (a 60 W floor under a 5 W
    cap).  ``x-stuck``: both bids pass admission, yet their 60 W of
    demand at the shared top price exceeds the 40 W cap, so no price is
    feasible.  ``x-missing`` is absent from ``pdu_spot_w`` and clears
    against 0 W.
    """
    bids = [
        _rack(first, "x-rejected", StepBid(60.0, 0.2), 100.0),
        _rack(first + 1, "x-rejected", StepBid(70.0, 0.25), 100.0),
        _rack(first + 2, "x-stuck", LinearBid(50.0, 0.1, 30.0, 0.3), 100.0),
        _rack(first + 3, "x-stuck", LinearBid(45.0, 0.05, 30.0, 0.3), 100.0),
        _rack(first + 4, "x-missing", LinearBid(30.0, 0.05, 10.0, 0.2), 100.0),
    ]
    return bids, {"x-rejected": 5.0, "x-stuck": 40.0}


@st.composite
def fleets(draw):
    """Mixed Linear/Step/sampled FullBid fleets with every edge market,
    a one-PDU phase constraint and a heat zone across PDUs."""
    n_pdus = draw(st.integers(min_value=1, max_value=6))
    bids = []
    for p in range(n_pdus):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            bids.append(
                _rack(len(bids), f"p{p}", draw(_demand()), draw(_watts(150.0)))
            )
    edge_bids, edge_caps = _edge_pdus(len(bids))
    bids += edge_bids
    pdu_spot = {f"p{p}": draw(_watts(200.0)) for p in range(n_pdus)}
    pdu_spot.update(edge_caps)
    # A loose UPS leaves every apportioned cap at its PDU cap, so the
    # edge markets keep their intended outcome; a tight one binds.
    ups_spot = draw(st.one_of(_watts(400.0), st.just(1e6)))
    phase_pdu = f"p{draw(st.integers(min_value=0, max_value=n_pdus - 1))}"
    phase = draw(
        st.sets(st.sampled_from([b.rack_id for b in bids if b.pdu_id == phase_pdu]),
                min_size=1)
    )
    zone = draw(
        st.sets(st.sampled_from([b.rack_id for b in bids]), min_size=2)
    )
    extra = (
        CapacityConstraint("phase", frozenset(phase), draw(_watts(120.0))),
        CapacityConstraint("zone", frozenset(zone), draw(_watts(200.0))),
    )
    params = MarketParameters(
        price_step=draw(st.sampled_from([0.02, 0.03, 0.05])),
        reserve_price=draw(st.sampled_from([0.0, 0.04])),
    )
    return bids, pdu_spot, ups_spot, extra, params


@given(
    fleet=fleets(),
    constrained=st.booleans(),
    include_breakpoints=st.booleans(),
    chunk_cells=st.sampled_from([24, 40, 64]),
)
@settings(max_examples=120, deadline=None)
def test_sweep_matches_slice_reference(
    fleet, constrained, include_breakpoints, chunk_cells
):
    bids, pdu_spot, ups_spot, extra, params = fleet
    extra = extra if constrained else ()
    engine = MarketClearing(params=params, include_breakpoints=include_breakpoints)
    frame = BidFrame.from_bids(bids)
    per_pdu = oracle.frame_clear_per_pdu(engine, frame, pdu_spot, ups_spot, extra)
    uniform = oracle.frame_clear(engine, frame, pdu_spot, ups_spot, extra)
    with mock.patch.object(clearing, "_CHUNK_CELLS", chunk_cells):
        _assert_identical(
            engine.clear_per_pdu(frame, pdu_spot, ups_spot, extra), per_pdu
        )
        _assert_identical(engine.clear(frame, pdu_spot, ups_spot, extra), uniform)


class TestEdgeMarkets:
    def test_edge_branches_as_specified(self):
        bids, pdu_spot = _edge_pdus(0)
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        frame = BidFrame.from_bids(bids)
        result = engine.clear_per_pdu(frame, pdu_spot, 1e6)
        _assert_identical(
            result, oracle.frame_clear_per_pdu(engine, frame, pdu_spot, 1e6)
        )
        grids = dict(zip(frame.pdu_ids, engine._pdu_grids(frame)[0]))
        # Every bid rejected: priced one step past the grid, zero grants.
        assert result.pdu_prices["x-rejected"] == grids["x-rejected"][-1] + 0.01
        assert result.grants_w["r0"] == result.grants_w["r1"] == 0.0
        # No feasible price: the empty result, racks absent from grants.
        assert result.pdu_prices["x-stuck"] == grids["x-stuck"][-1] + 0.01
        assert "r2" not in result.grants_w and "r3" not in result.grants_w
        # Missing from pdu_spot_w: a 0 W cap rejects the 10 W floor.
        assert result.grants_w["r4"] == 0.0
        assert result.candidate_prices == (
            grids["x-rejected"].size + grids["x-missing"].size
        )
        assert result.feasible_prices == 0

    def test_admitted_racks_precede_rejected_ones(self):
        bids = [
            _rack(0, "p0", StepBid(90.0, 0.2), 100.0),  # fails admission
            _rack(1, "p0", LinearBid(20.0, 0.05, 5.0, 0.3), 100.0),
            _rack(2, "p1", LinearBid(20.0, 0.05, 5.0, 0.3), 100.0),
        ]
        engine = MarketClearing(params=MarketParameters(price_step=0.01))
        result = engine.clear_per_pdu(bids, {"p0": 50.0, "p1": 50.0}, 1e6)
        assert list(result.grants_w) == ["r1", "r0", "r2"]
        assert result.grants_w["r0"] == 0.0


class TestChunks:
    def test_runs_cover_markets_in_order_within_the_bound(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 60, size=40)
        aggregates = rng.integers(1, 3, size=40)
        with mock.patch.object(clearing, "_CHUNK_CELLS", 100):
            runs = clearing._chunks(sizes.tolist(), aggregates.tolist())
        assert runs[0][0] == 0 and runs[-1][1] == 40
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        alone = 0
        for m0, m1 in runs:
            cells = aggregates[m0:m1].sum() * (sizes[m0:m1].max() + 1)
            if m1 - m0 > 1:
                assert cells <= 100
            else:
                alone += cells > 100
        assert alone and any(m1 - m0 > 1 for m0, m1 in runs)


class TestBoundedMemory:
    def test_one_clear_of_20k_racks_stays_under_6_mib(self):
        # 80 PDUs x ~1,000 candidate prices: one dense block for the whole
        # fleet would take ~12 MB; the chunked sweep stays near the
        # footprint of one small clear per PDU.
        rng = np.random.default_rng(0)
        bids, pdu_spot, ups_spot = make_synthetic_bids(
            20_000, rng, racks_per_pdu=250
        )
        frame = BidFrame.from_bids(bids)
        engine = MarketClearing()
        tracemalloc.start()
        try:
            engine.clear_per_pdu(frame, pdu_spot, ups_spot)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _synthetic_fleet(racks, racks_per_pdu, seed):
    """Synthetic fleet with every third rack's curve swapped for a step
    or a sampled curve, so all three row kinds share PDUs."""
    rng = np.random.default_rng(seed)
    bids, pdu_spot, ups_spot = make_synthetic_bids(
        racks, rng, racks_per_pdu=racks_per_pdu
    )
    for i in range(0, len(bids), 3):
        fn = bids[i].demand
        demand = (
            StepBid(fn.d_max_w, fn.q_max)
            if i % 2
            else FullBid([fn.d_min_w, fn.d_max_w], [fn.q_max / 1000, fn.q_min / 1000])
        )
        bids[i] = dataclasses.replace(bids[i], demand=demand)
    return bids, pdu_spot, ups_spot


@pytest.mark.parametrize("racks, racks_per_pdu", [(300, 1), (600, 7), (3000, 250)])
def test_every_chunk_size_gives_the_same_result(racks, racks_per_pdu):
    bids, pdu_spot, ups_spot = _synthetic_fleet(racks, racks_per_pdu, racks_per_pdu)
    frame = BidFrame.from_bids(bids)
    engine = MarketClearing(params=MarketParameters(price_step=0.002))
    per_pdu = oracle.frame_clear_per_pdu(engine, frame, pdu_spot, ups_spot)
    uniform = oracle.frame_clear(engine, frame, pdu_spot, ups_spot)
    for cells in (16, 1000, 1 << 20):
        with mock.patch.object(clearing, "_CHUNK_CELLS", cells):
            _assert_identical(
                engine.clear_per_pdu(frame, pdu_spot, ups_spot), per_pdu
            )
            _assert_identical(engine.clear(frame, pdu_spot, ups_spot), uniform)


@pytest.mark.parametrize("include_breakpoints", [True, False])
@pytest.mark.parametrize("racks, racks_per_pdu", [(400, 3), (2000, 40)])
def test_market_totals_match_one_market_reference(
    racks, racks_per_pdu, include_breakpoints
):
    # The demand totals themselves, not only the results they select:
    # each PDU's cells must hold the bits the one-market sweep gives its
    # slice, and a facility-wide market (with constraint groups) the
    # bits of the one-market sweep over the whole frame.  Without
    # breakpoints many rows share grid cells, so the order in which
    # rows and phases add into a cell shows in the bits.
    bids, _, _ = _synthetic_fleet(racks, racks_per_pdu, racks)
    frame = BidFrame.from_bids(bids)
    engine = MarketClearing(
        params=MarketParameters(price_step=0.003),
        include_breakpoints=include_breakpoints,
    )
    grids, _ = engine._pdu_grids(frame)
    sizes = np.array([grid.size for grid in grids])
    prices = np.zeros((len(grids), sizes.max()))
    prices[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(grids)
    pdu_demand, _ = frame.market_totals(
        np.arange(len(frame)), 0, np.arange(len(grids)), prices, sizes
    )
    for k, (_, sub) in enumerate(oracle.pdu_slices(frame)):
        expected, _ = oracle.demand_totals(sub, grids[k])
        assert pdu_demand[k, : sizes[k]].tobytes() == expected[0].tobytes()

    grid = engine.candidate_prices(frame)
    groups = [frame.rows_for(bid.rack_id for bid in bids[k::5]) for k in range(3)]
    got = _one_market_totals(frame, grid, groups)
    expected = oracle.demand_totals(frame, grid, groups)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


# -- kept demand totals across slots ------------------------------------
#
# A PDU whose block the incremental builder keeps keeps, in the block's
# grid-cache entry, its demand totals over the grid and, once those are
# reused, its grants at its last clearing price.  Each slot cleared over
# the builder's frame must give the bits the same slot gives on a cold
# frame and in the slice-at-a-time reference, whatever was kept before.


def _clear_slot_sequence(slots, include_breakpoints):
    builder = IncrementalFrameBuilder()
    for bids, caps, ups, extra, reserve, cells in slots:
        engine = MarketClearing(
            params=MarketParameters(price_step=0.03, reserve_price=reserve),
            include_breakpoints=include_breakpoints,
        )
        cold = BidFrame.from_bids(bids)
        per_pdu = oracle.frame_clear_per_pdu(engine, cold, caps, ups, extra)
        uniform = oracle.frame_clear(engine, cold, caps, ups, extra)
        frame = builder.build(bids)
        with mock.patch.object(clearing, "_CHUNK_CELLS", cells):
            _assert_identical(engine.clear_per_pdu(cold, caps, ups, extra), per_pdu)
            # The second clear of a slot takes every clean PDU's kept row.
            for _ in range(2):
                _assert_identical(engine.clear_per_pdu(frame, caps, ups, extra), per_pdu)
            _assert_identical(engine.clear(frame, caps, ups, extra), uniform)


@st.composite
def slot_sequences(draw):
    """A fleet's slots: each keeps, dirties, adds or removes PDUs, may
    squeeze one PDU's cap to 0 W (rejecting its rows with a floor, which
    the next slot admits again), sets the reserve price and the packing
    bound, and switches a phase and a cross-PDU zone constraint on or
    off.  Bid objects persist from slot to slot, sampled ones included,
    so unchanged PDUs keep their blocks."""
    n_pdus = draw(st.integers(min_value=2, max_value=4))
    bids = []
    for p in range(n_pdus):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            bids.append(_rack(len(bids), f"p{p}", draw(_demand()), draw(_watts(150.0))))
    spot = {f"p{p}": draw(_watts(200.0)) for p in range(n_pdus + 1)}
    phase_racks = [b.rack_id for b in bids if b.pdu_id == "p0"]
    phase = CapacityConstraint(
        "phase",
        frozenset(draw(st.sets(st.sampled_from(phase_racks), min_size=1))),
        draw(_watts(120.0)),
    )
    firsts = {b.pdu_id: b.rack_id for b in reversed(bids)}
    zone = CapacityConstraint("zone", frozenset(firsts.values()), draw(_watts(200.0)))
    slots = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        pdus = sorted({b.pdu_id for b in bids})
        op = draw(st.sampled_from(["keep", "keep", "dirty", "add", "remove"]))
        target = draw(st.sampled_from(pdus))
        if op == "dirty":
            i = draw(st.sampled_from([k for k, b in enumerate(bids) if b.pdu_id == target]))
            bids = [*bids[:i], dataclasses.replace(bids[i], demand=draw(_demand())), *bids[i + 1:]]
        elif op == "add":
            pdu = draw(st.sampled_from(sorted(spot)))
            bids = [*bids, _rack(100 + len(slots), pdu, draw(_demand()), draw(_watts(150.0)))]
        elif op == "remove" and len(pdus) > 1:
            bids = [b for b in bids if b.pdu_id != target]
        caps = dict(spot)
        if draw(st.booleans()):
            caps[draw(st.sampled_from(pdus))] = 0.0
        on = draw(st.tuples(st.booleans(), st.booleans()))
        slots.append((
            list(bids),
            caps,
            draw(st.one_of(_watts(400.0), st.just(1e6))),
            tuple(c for c, keep in zip((phase, zone), on) if keep),
            draw(st.sampled_from([0.0, 0.04])),
            draw(st.sampled_from([24, 40, 64, 1 << 13])),
        ))
    return slots


@given(slots=slot_sequences(), include_breakpoints=st.booleans())
@settings(max_examples=100, deadline=None)
def test_kept_totals_match_cold_frames(slots, include_breakpoints):
    _clear_slot_sequence(slots, include_breakpoints)


def test_kept_totals_across_rejection_reserve_and_constraints():
    # p0 keeps its block throughout: its 30 W step is rejected at slot 1
    # (cap 20 W) and admitted again at slot 2, a phase constraint covers
    # it at slot 3, and a zone across every PDU at slot 4, where the
    # reserve price moves (and moves back at slot 5).  p1 holds a
    # sampled curve; p2 is dirtied at slot 4 and removed at slot 6.
    bids = [
        _rack(0, "p0", StepBid(30.0, 0.3), 100.0),
        _rack(1, "p0", LinearBid(50.0, 0.05, 10.0, 0.4), 100.0),
        _rack(2, "p1", FullBid([10.0, 30.0], [0.0004, 0.0002]), 100.0),
        _rack(3, "p1", LinearBid(40.0, 0.1, 5.0, 0.35), 100.0),
        _rack(4, "p2", StepBid(25.0, 0.2), 100.0),
    ]
    spot = {"p0": 70.0, "p1": 45.0, "p2": 30.0}
    phase = CapacityConstraint("phase", frozenset({"r0", "r1"}), 60.0)
    zone = CapacityConstraint("zone", frozenset({"r1", "r3", "r4"}), 80.0)
    dirty = [*bids[:4], _rack(4, "p2", StepBid(26.0, 0.2), 100.0)]
    slots = [
        (bids, spot, 1e6, (), 0.0, 40),
        (bids, {**spot, "p0": 20.0}, 1e6, (), 0.0, 1 << 13),
        (bids, spot, 1e6, (), 0.0, 24),
        (bids, spot, 1e6, (phase,), 0.0, 64),
        (dirty, spot, 100.0, (zone,), 0.04, 40),
        (dirty, spot, 100.0, (), 0.0, 24),
        (dirty[:4], spot, 1e6, (phase, zone), 0.0, 64),
        (dirty[:4], spot, 1e6, (), 0.0, 1 << 13),
    ]
    for include_breakpoints in (True, False):
        _clear_slot_sequence(slots, include_breakpoints)


def test_kept_grants_only_where_the_market_clears():
    # At the 0.04 reserve, p1's grid is that one price.  Its two 30 W
    # steps clear there under a 1 kW cap (the second slot keeps their
    # grants); under 40 W both pass admission but no price is feasible,
    # so p1 grants nothing, and under 1 kW again it clears at the kept
    # price.
    bids = [
        _rack(0, "p0", LinearBid(50.0, 0.05, 10.0, 0.4), 100.0),
        _rack(1, "p1", StepBid(30.0, 0.04), 100.0),
        _rack(2, "p1", StepBid(30.0, 0.04), 100.0),
    ]
    slots = [
        (bids, {"p0": 40.0, "p1": cap}, 1e6, (), 0.04, 1 << 13)
        for cap in (1e3, 1e3, 40.0, 1e3, 1e3)
    ]
    _clear_slot_sequence(slots, include_breakpoints=True)


# -- the grid build and its indices ------------------------------------
#
# MarketClearing._market_grid builds a market's grid and records the
# grid index at which each closed-form row's q_min and q_max landed;
# BidFrame.market_totals reads those indices instead of searching.
# Every grid must be the reference's (tests/oracle.py) bit for bit,
# every index what np.searchsorted gives on that grid from either side,
# and the demand totals and the clears what a search gives.


@st.composite
def _grid_price(draw, step):
    """A price on a step of the grid, within step * 1e-9 of one (which
    collapses onto it), 2e-9 steps off it (which does not), between two,
    or a signed zero."""
    k = draw(st.integers(min_value=0, max_value=14))
    offset = draw(st.sampled_from([0.0, 0.0, 3e-10, -3e-10, 8e-10, 2e-9, -2e-9, 0.5]))
    price = max(k * step + offset * step, 0.0)
    return -0.0 if price == 0.0 and draw(st.booleans()) else price


@st.composite
def _grid_racks(draw, step):
    """One PDU's racks: linear rows (q_min == q_max and d_min == 0
    among them), steps and sampled curves, some capped between d_min
    and d_max."""
    racks = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        q_lo = draw(_grid_price(step))
        q_hi = max(q_lo, draw(st.one_of(st.just(q_lo), _grid_price(step))))
        # Watts off the binary grid, so the order cells add in shows.
        d_min = draw(st.one_of(st.just(0.0), st.floats(min_value=0.3, max_value=30.0)))
        d_max = d_min + draw(st.one_of(st.just(0.0), st.floats(min_value=0.3, max_value=60.0)))
        kind = draw(st.sampled_from(["linear", "linear", "step", "full"]))
        if kind == "full":
            cap = draw(st.one_of(st.none(), _grid_price(step)))
            demand = FullBid([d_max + 1.0, d_max + 30.0], [q_hi / 1000, q_lo / 1000], price_cap=cap)
        else:
            demand = StepBid(d_max, q_hi) if kind == "step" else LinearBid(d_max, q_lo, d_min, q_hi)
        cap = draw(st.sampled_from([d_max, d_max + 10.0, (d_min + d_max) / 2, 100.0, 0.0]))
        racks.append((demand, cap))
    return racks


@st.composite
def grid_fleets(draw):
    step = draw(st.sampled_from([0.02, 0.03, 0.05, 0.1]))
    bids = []
    for p in range(draw(st.integers(min_value=1, max_value=5))):
        for demand, cap in draw(_grid_racks(step)):
            bids.append(_rack(len(bids), f"p{p}", demand, cap))
    params = MarketParameters(
        price_step=step,
        reserve_price=draw(st.sampled_from([0.0, 0.0, 0.05, 0.15])),
        max_price=draw(st.sampled_from([1.0, 0.22])),
    )
    return bids, params


def _check_grid(engine, grid, index, frame, rows, top):
    """``grid`` is the reference grid of ``rows`` bit for bit, and each
    of their merged points' index is what np.searchsorted gives."""
    sub = oracle.select(frame, rows)
    assert grid.tobytes() == oracle.frame_grid(engine, sub).tobytes()
    if not engine.include_breakpoints:
        assert index is None
        return
    lo = engine.params.reserve_price
    hi = min(engine.params.max_price, top)
    for side, points in enumerate((frame.q_min[rows], frame.q_max[rows])):
        merged = (frame.kind[rows] == KIND_CLOSED) & (points >= lo) & (points <= hi)
        landed = index[rows, side]
        assert ((landed >= 0) == merged).all()
        at, q = landed[merged], points[merged]
        assert (np.searchsorted(grid, q, side="right") == at + 1).all()
        assert (np.searchsorted(grid, q, side="left") == at + (grid[at] < q)).all()


# A q_max 1.5e-11 above the 0.1 step collapses onto it, so the grid
# point below q_max is 0.1 < q_max: with d_min == 0 the row is still
# active there, by the left-side index i + 1.
_KINK = [
    _rack(0, "p0", LinearBid(20.0, 0.05, 0.0, 0.1 + 3e-10 * 0.05), 100.0),
    _rack(1, "p1", LinearBid(20.0, 0.0, 0.0, 0.2), 100.0),
]
# Two segments start where a third, steeper one ends, with intercepts
# and slopes off the binary grid: each cell's sum shows the order it was
# added in, and the steep end keeps the slope cell's rounding in the
# running sum.
_SHARED = [
    _rack(k, "p0", LinearBid(d_max, q_lo, d_min, q_hi), 1000.0)
    for k, (d_max, q_lo, d_min, q_hi) in enumerate([
        (50.8, 0.05, 6.0, 0.15), (115.7, 0.0, 27.2, 0.05), (49.6, 0.05, 19.2, 0.2),
    ])
]
# The rack cap cuts the segment five steps above q_min: only the search
# finds where it starts.
_CLIPPED = [_rack(0, "p0", LinearBid(60.0, 0.0, 10.0, 0.5), 35.0)]


@given(
    fleet=grid_fleets(),
    include_breakpoints=st.booleans(),
    chunk_cells=st.sampled_from([24, 64, 1 << 13]),
    caps=st.sampled_from([30.0, 1e4]),
)
@example(
    fleet=(_KINK, MarketParameters(price_step=0.05)),
    include_breakpoints=True,
    chunk_cells=1 << 13,
    caps=1e4,
).via("a q_max collapsed onto the step below it")
@example(
    fleet=(_SHARED, MarketParameters(price_step=0.05)),
    include_breakpoints=True,
    chunk_cells=1 << 13,
    caps=1e4,
).via("segments starting and ending in one cell")
@example(
    fleet=(_CLIPPED, MarketParameters(price_step=0.05)),
    include_breakpoints=True,
    chunk_cells=1 << 13,
    caps=1e4,
).via("a cap-clipped segment")
@settings(max_examples=200, deadline=None)
def test_grid_indices_match_per_market_reference(
    fleet, include_breakpoints, chunk_cells, caps
):
    bids, params = fleet
    engine = MarketClearing(params=params, include_breakpoints=include_breakpoints)
    pdu_spot = dict.fromkeys({b.pdu_id for b in bids}, caps)
    # The second slot redraws p0's first rack: p0 is gridded again while
    # the other PDUs keep their blocks and grids.
    moved = dataclasses.replace(bids[0], demand=LinearBid(25.0, 0.0, 0.0, params.price_step * 3))
    slots = [bids, [moved, *bids[1:]]]
    builder = IncrementalFrameBuilder()
    with mock.patch.object(clearing, "_CHUNK_CELLS", chunk_cells):
        for slot in slots:
            frame = builder.build(slot)
            starts, _ = frame.segments()
            bounds = [*starts.tolist(), len(frame)]
            grids, index = engine._pdu_grids(frame)
            for grid, a, b in zip(grids, bounds, bounds[1:]):
                rows = np.arange(a, b)
                _check_grid(engine, grid, index, frame, rows, frame.q_max[rows].max())
            grid, whole = engine._grid(frame)
            _check_grid(engine, grid, whole, frame, np.arange(len(frame)), frame.q_max.max())

            # The totals the indices give are the searched ones.
            sizes = np.array([g.size for g in grids])
            prices = np.zeros((len(grids), sizes.max()))
            prices[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(grids)
            totals, _ = frame.market_totals(
                np.arange(len(frame)), 0, np.arange(len(grids)), prices, sizes, index=index
            )
            for k, (_, sub) in enumerate(oracle.pdu_slices(frame)):
                expected, _ = oracle.demand_totals(sub, grids[k])
                assert totals[k, : sizes[k]].tobytes() == expected[0].tobytes()
            groups = [frame.rows_for(b.rack_id for b in slot[k::3]) for k in range(2)]
            got = _one_market_totals(frame, grid, groups, whole)
            for a, b in zip(got, oracle.demand_totals(frame, grid, groups)):
                assert a.tobytes() == b.tobytes()

            # And so are the clears, on kept blocks and on a cold frame.
            cold = BidFrame.from_bids(slot)
            per_pdu = oracle.frame_clear_per_pdu(engine, cold, pdu_spot, 1e6)
            _assert_identical(engine.clear_per_pdu(frame, pdu_spot, 1e6), per_pdu)
            _assert_identical(engine.clear_per_pdu(cold, pdu_spot, 1e6), per_pdu)
            _assert_identical(
                engine.clear(frame, pdu_spot, 1e6),
                oracle.frame_clear(engine, cold, pdu_spot, 1e6),
            )


def test_signed_zero_breakpoint_enters_as_positive_zero():
    # A q_min of -0.0 lands on a +0.0 grid point, as in the reference:
    # the fixed-step zero when the grid has one, the breakpoint itself
    # when a negative reserve puts no step on zero.  Otherwise the zero
    # first in the sort would decide the sign.
    bids = [
        _rack(0, "p0", LinearBid(30.0, -0.0, 0.0, 0.06), 100.0),
        _rack(1, "p0", StepBid(20.0, -0.0), 100.0),
        *(_rack(2 + k, "p0", LinearBid(10.0, 0.005 * k, 5.0, 0.09), 100.0) for k in range(16)),
    ]
    for reserve in (0.0, -0.03):
        engine = MarketClearing(params=MarketParameters(price_step=0.02, reserve_price=reserve))
        frame = BidFrame.from_bids(bids)
        (grid,), index = engine._pdu_grids(frame)
        assert grid.tobytes() == oracle.frame_grid(engine, frame).tobytes()
        zero = index[0, 0]
        assert grid[zero] == 0.0 and not np.signbit(grid[zero]) and index[1, 0] == zero
