"""The always-on SpotDC market daemon.

:class:`MarketDaemon` is the synchronous state machine — bounded
per-slot ingestion queues, idempotent submission keys, the write-ahead
bid log and market journal, per-slot checkpoints — driving the shared
:meth:`~repro.sim.engine.SimulationEngine.step_slot` market loop.
:class:`DaemonServer` wraps it in an asyncio unix-socket server
speaking the newline-delimited JSON protocol of
:mod:`repro.daemon.protocol`, clearing either on a wall-clock tick
(``tick_seconds``) or in lockstep under client ``tick`` requests
(manual mode, the deterministic harness the chaos tests drive).

Crash-safety protocol (the order is the invariant):

1. accepted submission → append to ``bids.jsonl`` + flush → ack;
2. slot tick → ``step_slot`` → append slot record to ``market.jsonl``
   + flush → checkpoint via :mod:`repro.recovery`;
3. on ``--resume``: load the newest valid checkpoint (slot *k*),
   truncate the journal to records ≤ *k*, replay the bid log through
   the same enqueue/shed logic to rebuild queues and the
   idempotency-key map, continue at *k* + 1.

Kill the process at any instant — between any two of those writes,
including mid-slot — and the resumed run re-appends byte-identical
journal records, because every slot's inputs (the checkpointed engine
plus the WAL-stored bundles, rebuilt by one shared code path) are
exactly what the uninterrupted run saw.
"""

from __future__ import annotations

import asyncio
import os
import signal
from pathlib import Path

from repro.daemon.journal import BidLog, MarketJournal
from repro.daemon.protocol import (
    decode_line,
    encode_message,
    parse_submission,
    stored_tenant_bid,
)
from repro.errors import (
    ConfigurationError,
    DaemonError,
    OperatorCrash,
    ProtocolError,
)
from repro.recovery.checkpoint import load_latest_checkpoint, save_checkpoint
from repro.sim.engine import SimulationEngine

__all__ = ["KILL_POINTS", "MarketDaemon", "DaemonServer", "serve"]

#: Deterministic self-SIGKILL points inside one slot tick, for crash
#: testing: before the market step, after the journal append (exercising
#: journal-ahead-of-checkpoint truncation on resume), and after the
#: checkpoint write.
KILL_POINTS = ("pre_step", "post_journal", "post_checkpoint")

#: Default bound on accepted-but-uncleared bundles per slot.
DEFAULT_MAX_PENDING = 1024


class MarketDaemon:
    """The market service state machine (transport-agnostic).

    Args:
        scenario: The facility scenario; its tenants' *workloads* still
            execute inside the daemon each slot, but their bids come
            from connected clients instead of ``make_bid``.
        slots: Run horizon.
        state_dir: Directory holding ``bids.jsonl``, ``market.jsonl``,
            and ``checkpoints/``.
        allocator: Slot allocation policy (default: the SpotDC market).
        fault_model: Optional fault injector (chaos harness).
        telemetry: Optional telemetry config/instance for the engine.
        max_pending: Bound on accepted bundles per slot; on overflow the
            *oldest* accepted bundle is shed (its key learns ``shed`` on
            retry) and the newcomer is accepted — under sustained
            overload the queue stays fresh instead of serving stale
            bids.
        resume: Resume from the newest valid checkpoint in
            ``state_dir/checkpoints`` (fresh start if there is none).
        kill_at: Slot at which to SIGKILL our own process (crash
            testing; ``None`` disables).
        kill_point: Where inside the ``kill_at`` tick to die (one of
            :data:`KILL_POINTS`).
    """

    def __init__(
        self,
        scenario,
        slots: int,
        state_dir: str | Path,
        *,
        allocator=None,
        fault_model=None,
        telemetry=None,
        max_pending: int = DEFAULT_MAX_PENDING,
        resume: bool = False,
        kill_at: int | None = None,
        kill_point: str = "post_journal",
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        if kill_point not in KILL_POINTS:
            raise ConfigurationError(
                f"kill_point must be one of {KILL_POINTS}, got {kill_point!r}"
            )
        self.state_dir = Path(state_dir)
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.max_pending = int(max_pending)
        self.kill_at = kill_at
        self.kill_point = kill_point
        self.engine = SimulationEngine(
            scenario,
            allocator=allocator,
            fault_model=fault_model,
            telemetry=telemetry,
        )
        self.slots = int(slots)
        envelope = load_latest_checkpoint(self.checkpoint_dir) if resume else None
        self._next = self.engine.begin_run(self.slots, resume_from=envelope)
        # Tenant -> rack directory; the server-authoritative source for
        # pdu_id / rack_cap_w on every submission.
        self.racks_of_tenant = {
            tenant.tenant_id: {rack.rack_id: rack for rack in tenant.racks}
            for tenant in self.engine.scenario.tenants
        }
        self.journal = MarketJournal(self.state_dir / "market.jsonl")
        self.bidlog = BidLog(self.state_dir / "bids.jsonl")
        self._slot_records = self.journal.truncate_to_slot(self._next - 1)
        self._pending: dict[int, list[dict]] = {}
        self._sheds: dict[int, list[dict]] = {}
        self._responses: dict[str, dict] = {}
        self._result = None
        self._invoices: dict | None = None
        self._done = False
        registry = self.engine.telemetry.registry
        self._m_submissions = {
            status: registry.counter(
                "daemon_submissions_total", {"status": status}
            )
            for status in ("accepted", "rejected", "duplicate")
        }
        self._m_shed = registry.counter("daemon_shed_total")
        self._m_slots = registry.counter("daemon_slots_total")
        self._g_queue = registry.gauge("daemon_queue_depth")
        self._replay()

    # -- recovery ------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild queues, sheds, and idempotency keys from disk."""
        for stored in self.bidlog.accepted():
            self._responses[stored["key"]] = self._accept_response(stored)
            if stored["slot"] >= self._next:
                # Not yet cleared: back into the bounded queue, through
                # the same shed-oldest logic as first delivery.  Cleared
                # slots only register their key; whether they ended up
                # shed comes from the journal below.
                self._enqueue(stored)
        for record in self._slot_records.values():
            for shed in record.get("shed", ()):
                self._responses[shed["key"]] = self._shed_response(
                    shed["key"], record["slot"]
                )
        self._g_queue.set(sum(len(q) for q in self._pending.values()))

    # -- responses -----------------------------------------------------

    @staticmethod
    def _accept_response(stored: dict) -> dict:
        return {
            "ok": True,
            "op": "submit",
            "key": stored["key"],
            "slot": stored["slot"],
            "status": "accepted",
        }

    @staticmethod
    def _shed_response(key: str, slot: int) -> dict:
        return {
            "ok": False,
            "op": "submit",
            "key": key,
            "slot": slot,
            "error": {
                "code": "shed",
                "detail": "bundle shed by queue overflow before clearing",
            },
        }

    @staticmethod
    def _rejection(op: str, code: str, detail: str, **extra) -> dict:
        return {
            "ok": False,
            "op": op,
            "error": {"code": code, "detail": detail},
            **extra,
        }

    # -- ingestion -----------------------------------------------------

    def _enqueue(self, stored: dict) -> None:
        """Append to the slot queue, shedding the oldest on overflow."""
        queue = self._pending.setdefault(stored["slot"], [])
        queue.append(stored)
        if len(queue) > self.max_pending:
            oldest = queue.pop(0)
            self._sheds.setdefault(stored["slot"], []).append(
                {"key": oldest["key"], "tenant": oldest["tenant_id"]}
            )
            self._responses[oldest["key"]] = self._shed_response(
                oldest["key"], stored["slot"]
            )
            self._m_shed.inc()

    def handle_submit(self, message: dict) -> dict:
        """Process one submit request; returns the response message."""
        key = message.get("key")
        if isinstance(key, str) and key in self._responses:
            # At-least-once redelivery: return the stored final response
            # without touching any state — the double-billing guard.
            self._m_submissions["duplicate"].inc()
            return self._responses[key]
        try:
            stored = parse_submission(message, self.racks_of_tenant)
        except ProtocolError as exc:
            self._m_submissions["rejected"].inc()
            return self._rejection(
                "submit",
                getattr(exc, "code", "bad_request"),
                getattr(exc, "detail", str(exc)),
                key=key if isinstance(key, str) else None,
            )
        slot = stored["slot"]
        if self._done or slot < 1 or slot < self._next:
            self._m_submissions["rejected"].inc()
            return self._rejection(
                "submit",
                "too_late",
                f"slot {slot} is closed (next open slot: "
                f"{max(1, self._next)})",
                key=stored["key"],
            )
        if slot >= self.slots:
            self._m_submissions["rejected"].inc()
            return self._rejection(
                "submit",
                "beyond_horizon",
                f"slot {slot} is beyond the {self.slots}-slot horizon",
                key=stored["key"],
            )
        queue = self._pending.get(slot, [])
        if any(e["tenant_id"] == stored["tenant_id"] for e in queue):
            self._m_submissions["rejected"].inc()
            return self._rejection(
                "submit",
                "already_submitted",
                f"tenant {stored['tenant_id']!r} already has a bundle "
                f"queued for slot {slot}",
                key=stored["key"],
            )
        # Write-ahead: the acceptance is durable before the ack exists,
        # so an ack the client received can never be forgotten by a
        # crash.
        self.bidlog.accept(stored)
        self._enqueue(stored)
        response = self._accept_response(stored)
        self._responses[stored["key"]] = response
        self._m_submissions["accepted"].inc()
        self._g_queue.set(sum(len(q) for q in self._pending.values()))
        return response

    # -- clearing ------------------------------------------------------

    def _maybe_kill(self, point: str, slot: int) -> None:
        if self.kill_at is not None and slot == self.kill_at and (
            point == self.kill_point
        ):
            os.kill(os.getpid(), signal.SIGKILL)

    def process_next_slot(self) -> dict:
        """Clear the next slot end to end; returns its journal record.

        Raises:
            DaemonError: If the run already completed.
            OperatorCrash: When an injected crash fault fires (the
                caller shuts the server down; a ``--resume`` start picks
                the run back up).
        """
        if self._done:
            raise DaemonError("run complete: no slots left to process")
        slot = self._next
        tracer = self.engine.telemetry.tracer
        self._maybe_kill("pre_step", slot)
        queued = self._pending.pop(slot, [])
        bundles = [
            stored_tenant_bid(stored, self.racks_of_tenant)
            for stored in queued
        ]
        with tracer.span("daemon.slot", slot=slot) as span:
            record = self.engine.step_slot(slot, submitted_bids=bundles)
            span.set(
                submitted=len(queued),
                shed=len(self._sheds.get(slot, ())),
                price=record.result.price,
            )
        journal_record = self._journal_record(slot, queued, record)
        self.journal.append(journal_record)
        self._maybe_kill("post_journal", slot)
        # Checkpoint *every* slot: the daemon's re-clear window after a
        # kill is never more than the slot it was in.  The final slot
        # needs none (nothing left to resume into).
        if slot + 1 < self.slots:
            save_checkpoint(self.engine, self.checkpoint_dir, slot, self.slots)
        self._maybe_kill("post_checkpoint", slot)
        self._slot_records[slot] = journal_record
        self._next = slot + 1
        self._m_slots.inc()
        self._g_queue.set(sum(len(q) for q in self._pending.values()))
        if self._next >= self.slots:
            self._finalize()
        return journal_record

    def _journal_record(self, slot: int, queued: list, record) -> dict:
        """The deterministic journal record for one cleared slot.

        Collections are explicitly sorted (and the encoder sorts keys),
        so the record's bytes depend only on the market outcome — never
        on dict iteration order or arrival timing within the slot.
        """
        return {
            "kind": "slot",
            "slot": slot,
            "submitted": sorted(s["key"] for s in queued),
            "shed": self._sheds.pop(slot, []),
            "price": record.result.price,
            "grants": {
                rack_id: grant
                for rack_id, grant in sorted(record.result.grants_w.items())
                if grant > 0
            },
            "payments": dict(sorted(record.payments.items())),
            "quarantined": sorted(
                (q.tenant_id, q.rack_id, q.reason) for q in record.quarantined
            ),
        }

    def _finalize(self) -> None:
        from repro.economics.settlement import build_all_invoices

        self._result = self.engine.finish_run()
        invoices = {
            invoice.tenant_id: {
                "subscription": invoice.subscription_charge,
                "energy": invoice.energy_charge,
                "spot": invoice.spot_charge,
                "credited": invoice.spot_credit,
                "total": invoice.total,
            }
            for invoice in build_all_invoices(self._result)
        }
        self._invoices = dict(sorted(invoices.items()))
        if self.journal.invoices_record() is None:
            self.journal.append(
                {"kind": "invoices", "invoices": self._invoices}
            )
        self._done = True

    # -- queries -------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every slot has been processed."""
        return self._done

    @property
    def next_slot(self) -> int:
        """The next slot to be cleared."""
        return self._next

    def hello(self, manual: bool) -> dict:
        return {
            "ok": True,
            "op": "hello",
            "service": "spotdc-daemon",
            "slots": self.slots,
            "next_slot": self._next,
            "slot_seconds": self.engine.scenario.slot_seconds,
            "manual": manual,
            "done": self._done,
        }

    def describe(self) -> dict:
        tenants = {
            tenant_id: {
                "racks": [
                    {
                        "rack_id": rack.rack_id,
                        "pdu_id": rack.pdu_id,
                        "max_spot_w": rack.max_spot_w,
                    }
                    for _, rack in sorted(racks.items())
                ]
            }
            for tenant_id, racks in sorted(self.racks_of_tenant.items())
        }
        return {"ok": True, "op": "describe", "tenants": tenants}

    def status(self) -> dict:
        return {
            "ok": True,
            "op": "status",
            "next_slot": self._next,
            "slots": self.slots,
            "done": self._done,
            "pending": {
                str(slot): len(queue)
                for slot, queue in sorted(self._pending.items())
                if queue
            },
        }

    def result_for(self, slot) -> dict:
        if not isinstance(slot, int) or isinstance(slot, bool):
            return self._rejection(
                "result", "bad_request", "result requires an integer slot"
            )
        record = self._slot_records.get(slot)
        if record is None:
            return self._rejection(
                "result", "not_ready", f"slot {slot} has not cleared yet"
            )
        return {"ok": True, "op": "result", "record": record}

    def invoices(self) -> dict:
        if self._invoices is None:
            return self._rejection(
                "invoices",
                "not_ready",
                f"run incomplete: next slot is {self._next} of {self.slots}",
            )
        return {"ok": True, "op": "invoices", "invoices": self._invoices}

    def close(self) -> None:
        """Release journal/bid-log file handles."""
        self.journal.close()
        self.bidlog.close()


class DaemonServer:
    """Asyncio unix-socket transport around a :class:`MarketDaemon`.

    Args:
        daemon: The market state machine to serve.
        socket_path: Unix socket to listen on.
        tick_seconds: Wall-clock slot cadence.  ``None`` selects manual
            mode: slots clear only on client ``tick`` requests, giving a
            lockstep, fully deterministic schedule (the mode the chaos
            harness and CI byte-compare).
        stay_alive: Keep serving queries after the run completes (until
            a ``shutdown`` request) instead of exiting once done.
    """

    def __init__(
        self,
        daemon: MarketDaemon,
        socket_path: str | Path,
        tick_seconds: float | None = None,
        stay_alive: bool = True,
    ) -> None:
        if tick_seconds is not None and tick_seconds <= 0:
            raise ConfigurationError("tick_seconds must be positive")
        self.daemon = daemon
        self.socket_path = Path(socket_path)
        self.tick_seconds = tick_seconds
        self.stay_alive = stay_alive
        self.crash: OperatorCrash | None = None
        self._stop: asyncio.Event | None = None

    @property
    def manual(self) -> bool:
        """Whether slots clear on client ticks rather than wall clock."""
        return self.tick_seconds is None

    async def run(self) -> None:
        """Serve until shutdown (or run completion with stay_alive off).

        Raises:
            OperatorCrash: After shutting down, if an injected crash
                fault killed the slot loop (the caller decides the exit
                code; the CLI maps it to 3 with a resume hint).
        """
        self._stop = asyncio.Event()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            # A stale socket from a killed predecessor; rebinding
            # requires removing it first.
            self.socket_path.unlink()
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path)
        )
        ticker = None
        if not self.manual:
            ticker = asyncio.create_task(self._tick_loop())
        try:
            async with server:
                await self._stop.wait()
        finally:
            if ticker is not None:
                ticker.cancel()
                try:
                    await ticker
                except asyncio.CancelledError:
                    pass
            if self.socket_path.exists():
                self.socket_path.unlink()
            self.daemon.close()
        if self.crash is not None:
            raise self.crash

    def stop(self) -> None:
        """Request shutdown (idempotent)."""
        if self._stop is not None:
            self._stop.set()

    async def _tick_loop(self) -> None:
        while not self.daemon.done:
            await asyncio.sleep(self.tick_seconds)
            try:
                self.daemon.process_next_slot()
            except OperatorCrash as crash:
                self.crash = crash
                self.stop()
                return
        if not self.stay_alive:
            self.stop()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self._dispatch(line)
                writer.write(encode_message(response))
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown (crash propagation) cancels pending handler
            # tasks; finishing quietly keeps the real error — the
            # OperatorCrash raised from run() — the only one reported.
            pass
        finally:
            writer.close()

    def _dispatch(self, line: bytes) -> dict:
        try:
            message = decode_line(line)
        except ProtocolError as exc:
            return MarketDaemon._rejection("?", "bad_request", str(exc))
        op = message.get("op")
        daemon = self.daemon
        if op == "hello":
            return daemon.hello(self.manual)
        if op == "describe":
            return daemon.describe()
        if op == "submit":
            return daemon.handle_submit(message)
        if op == "status":
            return daemon.status()
        if op == "result":
            return daemon.result_for(message.get("slot"))
        if op == "invoices":
            return daemon.invoices()
        if op == "shutdown":
            self.stop()
            return {"ok": True, "op": "shutdown"}
        if op == "tick":
            return self._handle_tick()
        return MarketDaemon._rejection(
            op if isinstance(op, str) else "?",
            "unknown_op",
            f"unknown op {op!r}",
        )

    def _handle_tick(self) -> dict:
        if not self.manual:
            return MarketDaemon._rejection(
                "tick", "bad_request", "server clears on its own wall clock"
            )
        if self.daemon.done:
            return {"ok": True, "op": "tick", "done": True, "slot": None}
        try:
            record = self.daemon.process_next_slot()
        except OperatorCrash as crash:
            self.crash = crash
            self.stop()
            return MarketDaemon._rejection(
                "tick",
                "crashed",
                f"{crash} — restart with --resume",
            )
        return {
            "ok": True,
            "op": "tick",
            "slot": record["slot"],
            "done": self.daemon.done,
            "price": record["price"],
        }


def serve(
    scenario,
    slots: int,
    state_dir: str | Path,
    socket_path: str | Path,
    *,
    tick_seconds: float | None = None,
    stay_alive: bool = True,
    **daemon_kwargs,
) -> None:
    """Build a daemon and serve it until shutdown (blocking).

    Raises:
        OperatorCrash: If an injected crash fault killed the slot loop.
    """
    daemon = MarketDaemon(scenario, slots, state_dir, **daemon_kwargs)
    server = DaemonServer(
        daemon, socket_path, tick_seconds=tick_seconds, stay_alive=stay_alive
    )
    asyncio.run(server.run())
