"""Allocator interfaces and the SpotDC market orchestrator (Algorithm 1).

The simulation engine delegates each slot's spot-capacity decision to an
:class:`Allocator`:

* :class:`SpotDCAllocator` — the paper's market: solicit demand-function
  bids, clear at a profit-maximising uniform price under multi-level
  constraints, and bill tenants.
* The baselines (:mod:`repro.core.baselines`) implement the same
  interface, which keeps every experiment a one-line allocator swap.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Sequence

from repro.config import MarketParameters
from repro.core.allocation import AllocationResult, verify_allocation
from repro.core.bids import BidTable, RackBid, TenantBid, flatten_bids
from repro.core.clearing import MarketClearing
from repro.core.frame import BidFrame
from repro.core.sharding import IncrementalFrameBuilder
from repro.errors import ConfigurationError
from repro.prediction.spot import SpotCapacityForecast
from repro.recovery.admission import QuarantinedBid, dedupe_bundles, screen_bids
from repro.tenants.tenant import Tenant

__all__ = ["Allocator", "SpotDCAllocator", "SlotMarketRecord"]


@dataclasses.dataclass(frozen=True)
class SlotMarketRecord:
    """What one slot's allocation produced, with billing attribution.

    Attributes:
        result: The clearing outcome.
        bids: The flattened rack bids that entered clearing.
        payments: Dollars owed per tenant id for the slot.
        frame: The columnar view of ``bids`` that was actually cleared
            (``None`` for allocators that never build one).  Downstream
            consumers — settlement adjustments, revocation billing —
            reuse it instead of regrouping objects.
        quarantined: Bids rejected by the admission front door this
            slot (:class:`repro.recovery.admission.QuarantinedBid`);
            they never reached ``bids`` or the frame.
    """

    result: AllocationResult
    bids: tuple[RackBid, ...]
    payments: dict[str, float]
    frame: BidFrame | None = None
    quarantined: tuple[QuarantinedBid, ...] = ()


class Allocator(abc.ABC):
    """One slot-level spot-capacity allocation policy."""

    #: Short policy label used in results and reports.
    name: str = "allocator"
    #: Whether tenants pay for allocations (False for MaxPerf/PowerCapped).
    charges_tenants: bool = True
    #: Whether the policy requires rack-level over-provisioning (False
    #: only for PowerCapped, which never delivers spot capacity — its
    #: operator pays no rack capex).
    provisions_spot: bool = True

    @abc.abstractmethod
    def allocate(
        self,
        slot: int,
        tenants: Sequence[Tenant],
        forecast: SpotCapacityForecast,
        slot_seconds: float,
        predicted_price: float | None = None,
        extra_constraints: Sequence = (),
        tracer=None,
        submitted_bids: Sequence[TenantBid] | None = None,
        duplicated=None,
    ) -> SlotMarketRecord:
        """Decide this slot's spot-capacity grants.

        ``extra_constraints`` are phase-balance / heat-density bounds
        (:class:`repro.infrastructure.constraints.CapacityConstraint`)
        in force for this slot.  ``tracer`` is an optional
        :class:`repro.telemetry.Tracer` under which the allocator opens
        its ``bid_collect`` / ``clear`` phase spans (``None`` disables
        tracing).

        ``submitted_bids`` carries externally delivered
        :class:`~repro.core.bids.TenantBid` bundles (daemon mode);
        ``None`` means the allocator solicits bids from ``tenants``
        itself (batch mode).  ``duplicated`` is an optional set of
        tenant ids whose bundle was delivered twice (at-least-once
        transports, duplicate-delivery faults); market-style allocators
        absorb the extra copies, others may ignore both arguments.
        """


class SpotDCAllocator(Allocator):
    """The SpotDC market (paper Algorithm 1, steps 3-5).

    Each slot's bundles are walked once into a
    :class:`~repro.core.bids.BidTable` by the
    :mod:`repro.recovery.admission` front door, which screens them
    before anything is built: a malformed bundle is quarantined whole —
    the tenant sits the slot out, exactly like a lost bid — and surfaces
    on :attr:`SlotMarketRecord.quarantined`.  The duplicate-rack check
    and the frame read the same table.  The frame comes from an
    :class:`~repro.core.sharding.IncrementalFrameBuilder`: only PDUs
    whose bids changed since the last slot are rebuilt, and an
    unchanged slot reuses the previous frame object outright.

    Args:
        params: Operator market knobs (price grid, reserve price).
        verify: Run the Eq. 2-4 integrity check
            (:func:`~repro.core.allocation.verify_allocation`) on every
            outcome; enabled by default as the reliability backstop.  It
            reads the slot's frame columns, so it costs a fraction of
            the clear (about a sixth of ``clear_per_pdu`` on 20,000
            racks).
        oracle_rebid: Enable the Fig. 16 two-pass mode: clear once
            provisionally, feed the provisional price back to tenants as
            a "perfect" forecast, and clear again on the revised bids.
        pricing: ``"per_pdu"`` (default) clears a locational uniform
            price per PDU — required for stable behaviour at hyper-scale
            (see :meth:`repro.core.clearing.MarketClearing.clear_per_pdu`);
            ``"uniform"`` clears one facility-wide price, the paper's
            literal description.
    """

    name = "spotdc"
    charges_tenants = True
    #: Admission always screens the bids; there is no unscreened path.
    admission = True

    def __init__(
        self,
        params: MarketParameters | None = None,
        verify: bool = True,
        oracle_rebid: bool = False,
        pricing: str = "per_pdu",
    ) -> None:
        if pricing not in ("per_pdu", "uniform"):
            raise ConfigurationError(f"unknown pricing mode {pricing!r}")
        self.params = params or MarketParameters()
        self.engine = MarketClearing(params=self.params)
        self.verify = verify
        self.oracle_rebid = oracle_rebid
        self.pricing = pricing
        self.frame_builder = IncrementalFrameBuilder()

    def _clear(self, frame, forecast, extra_constraints=()):
        if self.pricing == "per_pdu":
            return self.engine.clear_per_pdu(
                frame, forecast.pdu_spot_w, forecast.ups_spot_w, extra_constraints
            )
        return self.engine.clear(
            frame, forecast.pdu_spot_w, forecast.ups_spot_w, extra_constraints
        )

    def _collect_bids(
        self,
        slot: int,
        tenants: Sequence[Tenant],
        predicted_price: float | None,
        submitted_bids: Sequence[TenantBid] | None = None,
        duplicated=None,
    ) -> tuple[BidTable, list[RackBid], tuple[QuarantinedBid, ...], tuple[str, ...]]:
        if submitted_bids is None:
            tenant_bids = []
            for tenant in tenants:
                bid = tenant.make_bid(slot, predicted_price=predicted_price)
                if bid is not None:
                    tenant_bids.append(bid)
        else:
            tenant_bids = list(submitted_bids)
        if duplicated:
            # Duplicate-delivery fault: the transport hands the market a
            # second copy of the bundle, exactly as an at-least-once
            # client retry would.
            delivered = []
            for bundle in tenant_bids:
                delivered.append(bundle)
                if bundle.tenant_id in duplicated:
                    delivered.append(bundle)
            tenant_bids = delivered
        # Idempotent ingestion: duplicate deliveries are absorbed before
        # admission, so a redelivered bundle can never double-bill (and
        # never trips flatten_bids' duplicate-rack integrity check).
        tenant_bids, absorbed = dedupe_bundles(tenant_bids)
        # Admission happens on *bundles*: a bundle with any malformed
        # rack bid is rejected whole — partial admission would grant a
        # tenant capacity on exactly the racks whose bids happened to
        # parse.  The screen walks the bundles into the slot's table.
        _, quarantined, table = screen_bids(tenant_bids)
        return table, flatten_bids(table), quarantined, absorbed

    def allocate(
        self,
        slot: int,
        tenants: Sequence[Tenant],
        forecast: SpotCapacityForecast,
        slot_seconds: float,
        predicted_price: float | None = None,
        extra_constraints: Sequence = (),
        tracer=None,
        submitted_bids: Sequence[TenantBid] | None = None,
        duplicated=None,
    ) -> SlotMarketRecord:
        if tracer is None:
            from repro.telemetry.tracing import NULL_TRACER

            tracer = NULL_TRACER
        with tracer.span("bid_collect", slot=slot) as bid_span:
            table, bids, quarantined, absorbed = self._collect_bids(
                slot,
                tenants,
                predicted_price,
                submitted_bids=submitted_bids,
                duplicated=duplicated,
            )
            for tenant_id in absorbed:
                tracer.event(
                    "bid.duplicate_absorbed", slot=slot, tenant=tenant_id
                )
            for q in quarantined:
                tracer.event(
                    "bid.quarantined",
                    slot=slot,
                    tenant=q.tenant_id,
                    rack_id=q.rack_id,
                    reason=q.reason,
                )
            bid_span.set(
                tenants=len(tenants),
                racks_bid=len(bids),
                quarantined=len(quarantined),
                forecast_price=predicted_price,
            )
        with tracer.span("clear", slot=slot) as clear_span:
            # One columnar build per slot; clearing, verification inputs,
            # and billing all consume the frame from here on.  The
            # incremental builder re-aggregates only PDUs whose bids
            # changed since the last slot.
            frame = self.frame_builder.build(table)
            result = self._clear(frame, forecast, extra_constraints)
            if self.oracle_rebid and bids:
                # Fig. 16: strategic tenants re-bid knowing the market
                # price.  The rebid frame is transient — it must not
                # displace the builder's slot-over-slot block cache.
                table, rebids, requarantined, _ = self._collect_bids(
                    slot, tenants, result.price
                )
                frame = BidFrame.from_table(table)
                result = self._clear(frame, forecast, extra_constraints)
                bids = rebids
                quarantined = requarantined
            if self.verify:
                verify_allocation(
                    result,
                    frame,
                    forecast.pdu_spot_w,
                    forecast.ups_spot_w,
                    extra_constraints=extra_constraints,
                )
            if tracer.enabled:
                clear_span.set(
                    price=result.price,
                    prices_scanned=result.candidate_prices,
                    feasible_prices=result.feasible_prices,
                    granted_racks=result.granted_racks,
                    granted_w=result.total_granted_w,
                    pricing=self.pricing,
                )
        _, payments = frame.settle(
            result.grants_w, result.pdu_prices, result.price, slot_seconds
        )
        return SlotMarketRecord(
            result=result,
            bids=tuple(bids),
            payments=payments,
            frame=frame,
            quarantined=quarantined,
        )
