"""Sharded, incremental clearing for million-rack fleets.

Two scaling walls stand between the 15k-rack columnar pipeline and the
ROADMAP's million-rack north star, and this module removes both:

1. **Frame construction dominates.**  Rebuilding the
   :class:`~repro.core.frame.BidFrame` struct-of-arrays from scratch
   every slot costs more than the clear itself, even when no bid
   changed.  :class:`IncrementalFrameBuilder` builds each slot's frame
   over the previous one (:meth:`~repro.core.frame.BidFrame.from_table`):
   PDUs whose bids are unchanged keep their rows and per-PDU block
   (:class:`~repro.core.frame.PduBlock`), only the PDUs whose bids
   actually changed since the previous slot are rebuilt, and an
   unchanged slot returns the previous frame *object*.  Each block
   caches its PDU market's price grid, demand totals and grants, so a
   reused block is not swept again downstream either.

2. **One process clears everything.**  The market's physical hierarchy
   (UPS → PDU → rack, paper Eqs. 2-4) makes each PDU subtree an
   independently clearable market once the UPS headroom has been
   apportioned — the same decomposition clusterman applies to resource
   groups.  :func:`clear_per_pdu_sharded` partitions the PDUs into
   contiguous shards, runs the per-PDU sweep on each shard's PDU range
   (in-process or through ``repro.sweep.parallel_map``'s process pool,
   one stripped sub-frame per shard), merges the outcomes in global PDU
   order, and runs a shrink-only reconciliation pass
   (:func:`reconcile_allocation`) against the UPS constraint.

Determinism is the contract that makes sharding safe to enable
anywhere: the per-PDU caps, constraints and grids are *identical* to
the serial path's (:meth:`MarketClearing._pdu_markets`), the sweep
gives each PDU's market the same float arithmetic whichever other PDUs
share its pass, and the merge re-accumulates results sequentially in
global PDU order — so the sharded result is byte-identical to the
unsharded one at any shard count (machine-checked in
``tests/test_sharding.py``), and crash/resume and daemon-WAL replay
invariants carry over unchanged.

Why reconciliation is normally a no-op (proof sketch, expanded in
``docs/sharding.md``): each PDU's local clear grants at most its
apportioned cap ``c_m``; when total servable interest exceeds the UPS
headroom the apportioning scales caps so ``Σ c_m <= P_o``, and when it
does not, total grants are bounded by total interest ``<= P_o``.
Either way the merged allocation already satisfies Eqs. 2-4, so
:func:`reconcile_allocation` detects no violation and returns the
result object untouched.  The pass exists as a *guard*: if a violation
ever appears (a future non-conservative apportioning, an external
result), it scales grants down — never up — so Eq. 2 (rack caps only
shrink), Eq. 3 (per-PDU totals clamped to ``P_m``), and Eq. 4 (the
facility total clamped to ``P_o``) all hold on exit.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.allocation import AllocationResult, capacity_excess
from repro.core.bids import BidTable, RackBid
from repro.core.clearing import MarketClearing, _Outcome
from repro.core.frame import BidFrame

__all__ = [
    "IncrementalFrameBuilder",
    "partition_tasks",
    "clear_per_pdu_sharded",
    "reconcile_allocation",
]


def _resent(bids: Sequence[RackBid], sent: Sequence[RackBid]) -> bool:
    """Is each rack bid the one sent before at its position, or an equal
    one holding the same demand object?"""
    if len(bids) != len(sent):
        return False
    for new, old in zip(bids, sent):
        if new is not old and not (
            new.demand is old.demand
            and new.rack_id == old.rack_id
            and new.pdu_id == old.pdu_id
            and new.tenant_id == old.tenant_id
            and new.rack_cap_w == old.rack_cap_w
        ):
            return False
    return True


class IncrementalFrameBuilder:
    """Build each slot's :class:`BidFrame` over the previous slot's.

    ``build`` hands the slot's table and the previous frame to
    :meth:`BidFrame.from_table`, which keeps the block of every PDU
    whose rows are unchanged (see there for the rule) and builds the
    rest.  A slot with *no* changed or removed PDU returns the previous
    frame object itself, so downstream per-frame caches survive across
    slots too; a reused block keeps its cached price grid, demand
    totals and grants either way.
    When the frame holds one slot's bids and the next slot resends them
    (each rack bid holding the demand object sent at its position), the
    previous frame is returned before any walk.

    The frame, its blocks and the sent bids are derived state:
    checkpoints leave them out, and a restored builder starts cold.
    Because its output is value-identical to ``from_bids`` regardless of
    the previous frame, crash/resume stays byte-identical.

    Attributes:
        last_dirty: PDU ids rebuilt (or removed) by the latest build,
            sorted — the invalidation set tests assert on.
        builds / rebuilt_pdus / reused_pdus: Monotone counters for
            benchmarks and telemetry.
    """

    def __init__(self) -> None:
        self._frame: BidFrame | None = None
        # The rack bids ``_frame`` holds, in the order given (``None``:
        # not known, or not all from one slot).
        self._sent: list[RackBid] | None = None
        self.last_dirty: tuple[str, ...] = ()
        self.builds = 0
        self.rebuilt_pdus = 0
        self.reused_pdus = 0

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_frame": None, "_sent": None}

    def build(self, bids: BidTable | Sequence[RackBid]) -> BidFrame:
        """The slot's frame, value-identical to ``BidFrame.from_bids``.

        Takes the slot's admitted :class:`BidTable` (or its rack bids).
        """
        self.builds += 1
        previous = self._frame
        sent = bids.bids if isinstance(bids, BidTable) else list(bids)
        if self._sent is not None and _resent(sent, self._sent):
            frame = previous
        else:
            table = bids if isinstance(bids, BidTable) else BidTable.from_bids(sent)
            frame = BidFrame.from_table(table, previous)
        if frame is previous:
            self.last_dirty = ()
            self.reused_pdus += len(frame.blocks)
            return frame
        old = {} if previous is None else dict(zip(previous.pdu_ids, previous.blocks))
        dirty = [b.pdu_id for b in frame.blocks if old.pop(b.pdu_id, None) is not b]
        self.rebuilt_pdus += len(dirty)
        self.reused_pdus += len(frame.blocks) - len(dirty)
        self.last_dirty = tuple(sorted(dirty + list(old)))
        # Remember the bids only while the frame holds exactly them: a
        # kept block holds an earlier slot's, which these would outlive.
        self._sent = sent if len(dirty) == len(frame.blocks) else None
        self._frame = frame
        return frame


def partition_tasks(tasks: Sequence, shards: int) -> list[list]:
    """Split an ordered task list into ≤ ``shards`` contiguous groups.

    Groups are balanced by row weight (``len(task[1])``) with integer
    arithmetic only, so the partition is deterministic and contiguity
    follows from the assignment index being monotone in the running
    weight.  Contiguity is what lets the merge step flatten group
    results straight back into global PDU order.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    shards = max(1, min(int(shards), len(tasks)))
    weights = [max(len(t[1]), 1) for t in tasks]
    total = sum(weights)
    groups: list[list] = [[] for _ in range(shards)]
    acc = 0
    for task, w in zip(tasks, weights):
        groups[min(shards - 1, acc * shards // total)].append(task)
        acc += w
    return [g for g in groups if g]


def _shard_frame(frame: BidFrame, lo: int, hi: int) -> BidFrame:
    """PDUs ``lo:hi`` of ``frame`` as a stripped frame for one shard.

    The full frame carries the *global* tenant table (a million-entry
    tuple at full scale), the original bid objects and the PDU blocks;
    shipping any of them to a pool worker would dwarf the clear itself.
    The sweep needs none of them: it never reads ``_bids``, grids travel
    in the payload, and :class:`AllocationResult` carries no tenant
    attribution.  The tenant table is rebased to the shard's own
    tenants (kept so the copy remains a well-formed frame); sampled
    demand objects stay — they are evaluated inside the worker.
    """
    starts, _ = frame.segments()
    bounds = np.append(starts, len(frame))
    rows = slice(int(bounds[lo]), int(bounds[hi]))
    tenant_code = frame.tenant_code[rows]
    used = np.unique(tenant_code)
    return BidFrame(
        rack_ids=frame.rack_ids[rows],
        pdu_ids=frame.pdu_ids[lo:hi],
        pdu_code=frame.pdu_code[rows] - lo,
        tenant_ids=tuple(frame.tenant_ids[int(i)] for i in used),
        tenant_code=np.searchsorted(used, tenant_code).astype(np.intp, copy=False),
        kind=frame.kind[rows],
        d_max_w=frame.d_max_w[rows],
        q_min=frame.q_min[rows],
        d_min_w=frame.d_min_w[rows],
        q_max=frame.q_max[rows],
        rack_cap_w=frame.rack_cap_w[rows],
        max_demand_w=frame.max_demand_w[rows],
        floor_w=frame.floor_w[rows],
        breakpoints=np.concatenate([b.breakpoints for b in frame.blocks[lo:hi]]),
        demands=frame._demands[rows],
        bids=None,
        blocks=(),
    )


def _clear_shard_payload(payload) -> _Outcome:
    """Pool worker: sweep one shard's PDUs, outcome in PDU order.

    The worker reconstructs the clearing engine from its picklable
    configuration and runs the *same* sweep as the serial engine, so
    results are bit-identical to in-process clearing.
    """
    params, include_breakpoints, shard = payload
    engine = MarketClearing(
        params=params, include_breakpoints=include_breakpoints
    )
    return engine._sweep_pdus(*shard)


def clear_per_pdu_sharded(
    engine: MarketClearing,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    extra_constraints: Sequence = (),
    shards: int = 1,
    jobs: int = 1,
    tracer=None,
    slot: int = 0,
) -> AllocationResult:
    """Locational clearing decomposed along the PDU hierarchy.

    Computes the same per-PDU caps, constraints and grids as the serial
    ``clear_per_pdu`` path, partitions the PDUs into contiguous shards,
    sweeps each shard's PDU range (in-process when ``jobs <= 1``,
    through a process pool otherwise), merges the outcomes in global
    PDU order, and applies the shrink-only :func:`reconcile_allocation`
    guard.  Byte-identical to ``engine.clear_per_pdu(frame, ...)`` at
    any ``shards``/``jobs``.

    ``tracer`` (optional) records one ``clearing.shard`` span per shard
    with pdu/rack counts; pass ``None`` (the default) whenever trace
    byte-identity across shard counts matters.

    Raises:
        ClearingError: On negative or NaN capacities, as
            ``clear_per_pdu`` does.
    """
    engine._validate_capacities(pdu_spot_w, ups_spot_w, extra_constraints)
    if not len(frame):
        return AllocationResult.empty()
    caps, constraints = engine._pdu_markets(
        frame, pdu_spot_w, ups_spot_w, extra_constraints
    )
    grids = engine._pdu_grids(frame)
    bounds = np.append(frame.segments()[0], len(frame)).tolist()
    tasks = [
        (pdu, range(lo, hi)) for pdu, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    groups = partition_tasks(tasks, shards)
    shard_args = []
    for group in groups:
        lo, hi = group[0][0], group[-1][0] + 1
        shard_args.append(
            (_shard_frame(frame, lo, hi), grids[lo:hi], caps[lo:hi], constraints[lo:hi])
        )

    outcomes: list[_Outcome] = []
    if jobs > 1 and len(groups) > 1:
        # Imported lazily: repro.core must stay importable without
        # pulling the sweep machinery (and its pool imports) in.
        from repro.sweep.runner import parallel_map

        payloads = [
            (engine.params, engine.include_breakpoints, args) for args in shard_args
        ]
        outcomes = parallel_map(_clear_shard_payload, payloads, jobs=jobs)
        for i, group in enumerate(groups):
            if tracer is not None:
                with tracer.span("clearing.shard", slot=slot) as span:
                    span.set(
                        shard=i,
                        pdus=len(group),
                        racks=sum(len(t[1]) for t in group),
                    )
    else:
        for i, (group, args) in enumerate(zip(groups, shard_args)):
            if tracer is not None:
                with tracer.span("clearing.shard", slot=slot) as span:
                    span.set(
                        shard=i,
                        pdus=len(group),
                        racks=sum(len(t[1]) for t in group),
                    )
                    outcomes.append(engine._sweep_pdus(*args))
            else:
                outcomes.append(engine._sweep_pdus(*args))
    merged = _Outcome._make(np.concatenate(parts) for parts in zip(*outcomes))
    combined = engine._combine(frame, merged)
    return reconcile_allocation(combined, frame, pdu_spot_w, ups_spot_w)


def reconcile_allocation(
    result: AllocationResult,
    frame: BidFrame,
    pdu_spot_w: Mapping[str, float],
    ups_spot_w: float,
    tolerance_w: float = 1e-6,
) -> AllocationResult:
    """Shrink-only fix-up of a merged allocation against Eqs. 3-4.

    When the allocation already satisfies every PDU cap and the UPS
    cap — which the apportioning guarantees for anything the sharded
    path merges (see the module docstring) — the *same* result object
    is returned, floats untouched, preserving byte-identity with the
    serial path.  On a genuine violation, grants scale down per
    over-cap PDU and then globally against the UPS headroom; revenue
    and the grant-weighted headline price are recomputed from the
    surviving grants.  Grants only ever shrink, so rack caps (Eq. 2)
    stay satisfied and the clamps enforce Eqs. 3-4 directly.
    """
    granted, listed = frame.grant_rows(result.grants_w)
    totals, caps, over, total, over_ups = capacity_excess(
        frame, granted, listed, pdu_spot_w, ups_spot_w, tolerance_w
    )
    if not over.size and not over_ups:
        return result

    starts, seg_codes = frame.segments()
    scale = np.ones(len(starts))
    scale[over] = caps[over] / totals[over]
    lengths = np.diff(np.concatenate([starts, [len(frame)]]))
    granted = granted * np.repeat(scale, lengths)
    total = float(granted.sum())
    if total > ups_spot_w + tolerance_w and total > 0:
        granted *= ups_spot_w / total
        total = float(granted.sum())

    grants = dict(zip(frame.rack_ids, granted.tolist()))
    # Preserve explicit zero entries for racks the clear priced out.
    for rid, g in result.grants_w.items():
        if rid not in grants:
            grants[rid] = g
    pdu_totals = np.add.reduceat(granted, starts) if len(frame) else totals
    revenue = 0.0
    row_prices = np.fromiter(
        (result.pdu_prices.get(p, result.price) for p in frame.pdu_ids),
        dtype=float,
        count=len(frame.pdu_ids),
    )
    for seg, sub_total in zip(seg_codes, pdu_totals):
        revenue += float(row_prices[int(seg)]) * float(sub_total) / 1000.0
    headline = (
        float((row_prices[frame.pdu_code] * granted).sum()) / total
        if total > 0
        else 0.0
    )
    return dataclasses.replace(
        result,
        price=headline,
        grants_w=grants,
        revenue_rate=revenue,
    )
