"""Chaos harness machine-checking the daemon's crash-safety invariant.

The invariant (ISSUE/ROADMAP wording): kill the daemon at any point —
mid-slot, via an injected :class:`~repro.resilience.faults.CrashFault`
or a raw SIGKILL — restart it with ``--resume``, and the market journal
and invoices are **byte-identical** to the same-seed run that was never
interrupted; duplicate deliveries of the same submission key never
change settlement totals.

:func:`drive_daemon_run` plays a full deterministic client session
against an in-process daemon (manual-tick lockstep, so the per-slot bid
sets cannot depend on wall-clock races), restarting with ``resume=True``
every time an injected crash kills the slot loop, optionally
re-delivering every submission (same idempotency keys) both mid-run and
after each restart.  :func:`check_crash_safety` runs the
reference/chaos pair and raises :class:`~repro.errors.DaemonError` on
any divergence — the machine check the tests and CI smoke job call.

SIGKILL coverage uses real processes (``spotdc serve --kill-at``, which
``os.kill``-s itself with ``SIGKILL``); see the CI daemon-smoke job and
``tests/test_daemon_chaos.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.daemon.client import DaemonClient
from repro.daemon.server import DEFAULT_MAX_PENDING, DaemonServer, MarketDaemon
from repro.errors import DaemonError, OperatorCrash
from repro.resilience.faults import CrashFault, FaultInjector

__all__ = [
    "ChaosOutcome",
    "InProcessServer",
    "check_crash_safety",
    "drive_daemon_run",
    "short_socket_path",
    "synthetic_bundle",
]


def short_socket_path(name: str = "daemon.sock") -> Path:
    """A unix-socket path safely under the ~104-byte ``sun_path`` limit.

    Pytest tmp dirs routinely blow that limit, so sockets live in a
    fresh short ``/tmp`` directory instead of next to the state dir.
    """
    return Path(tempfile.mkdtemp(prefix="spotdc-")) / name


def synthetic_bundle(seed: int, tenant_id: str, slot: int, rack_infos) -> list[dict]:
    """A deterministic wire-form bid bundle for one tenant and slot.

    Seeded by the *string* ``"{seed}:{tenant_id}:{slot}"`` —
    :class:`random.Random` string seeding hashes stably (unlike
    ``hash()``), so the same bundle is generated across processes and
    interpreter runs.

    Args:
        seed: Session seed.
        tenant_id: The bidding tenant.
        slot: Target slot.
        rack_infos: ``[{"rack_id", "max_spot_w"}, ...]`` from the
            daemon's ``describe`` response; demands are drawn inside
            each rack's physical spot headroom so admission accepts
            them.
    """
    rng = random.Random(f"{seed}:{tenant_id}:{slot}")
    racks = []
    for info in rack_infos:
        cap = float(info["max_spot_w"])
        d_max = round(cap * rng.uniform(0.3, 0.95), 3)
        d_min = round(d_max * rng.uniform(0.2, 0.7), 3)
        q_min = round(rng.uniform(0.02, 0.08), 5)
        q_max = round(q_min + rng.uniform(0.01, 0.1), 5)
        racks.append(
            {
                "rack_id": info["rack_id"],
                "demand": {
                    "kind": "linear",
                    "d_max_w": d_max,
                    "q_min": q_min,
                    "d_min_w": d_min,
                    "q_max": q_max,
                },
            }
        )
    return racks


class InProcessServer:
    """A :class:`DaemonServer` on a background thread with its own loop.

    Lets tests and the chaos harness run client and daemon in one
    process; an :class:`~repro.errors.OperatorCrash` escaping the slot
    loop lands in :attr:`crash` instead of killing the test process.
    """

    def __init__(self, daemon: MarketDaemon, socket_path: str | Path) -> None:
        self.server = DaemonServer(daemon, socket_path, tick_seconds=None)
        self.crash: OperatorCrash | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self.server.run())
        except OperatorCrash as crash:
            self.crash = crash

    def start(self, *, bind_budget: float = 10.0) -> "InProcessServer":
        """Start serving; returns once the socket is accepting."""
        self._thread.start()
        deadline = time.monotonic() + bind_budget
        path = Path(self.server.socket_path)
        while not path.exists():
            if not self._thread.is_alive():
                raise DaemonError("daemon server thread died before binding")
            if time.monotonic() >= deadline:
                raise DaemonError(
                    f"daemon socket {path} not bound within {bind_budget}s"
                )
            time.sleep(0.005)
        return self

    def join(self, timeout: float = 30.0) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise DaemonError("daemon server thread failed to stop")


@dataclasses.dataclass
class ChaosOutcome:
    """What one driven daemon session produced.

    Attributes:
        journal: Raw bytes of ``market.jsonl`` — the byte-identity
            subject.
        invoices: Per-tenant invoice totals from the daemon.
        restarts: How many times the daemon crashed and was resumed.
        duplicates: How many redeliveries (same key) were absorbed.
    """

    journal: bytes
    invoices: dict
    restarts: int
    duplicates: int


def _fault_model(fault_profile, crash_slots, seed):
    """An injector for one daemon incarnation.

    The profile's sources plus one crash per slot of ``crash_slots``.
    Crashes alone bring no degradation control
    (:attr:`FaultInjector.corrupts_inputs`), so a crash-only chaos run
    enforces exactly as its crash-free reference does.
    """
    sources = list(fault_profile.sources()) if fault_profile is not None else []
    sources += [CrashFault(s) for s in sorted(crash_slots)]
    if fault_profile is not None and fault_profile.seed is not None:
        seed = fault_profile.seed
    return FaultInjector(sources, seed=seed)


def drive_daemon_run(
    scenario_factory,
    slots: int,
    state_dir: str | Path,
    *,
    socket_path: str | Path | None = None,
    bundle_seed: int = 0,
    crash_slots=(),
    fault_profile=None,
    redeliver: bool = False,
    max_pending: int = DEFAULT_MAX_PENDING,
) -> ChaosOutcome:
    """Drive one daemon session to completion, resuming across crashes.

    Submits a full synthetic bid plan (every tenant, every market slot,
    keys ``"{tenant}:{slot}"``) up front, then ticks the manual-mode
    daemon through its horizon.  Each :class:`CrashFault` in
    ``crash_slots`` kills the slot loop; the harness then restarts the
    daemon on the same state directory with ``resume=True`` and — when
    ``redeliver`` is set — re-sends *every* submission with its original
    key, which the idempotency map must absorb without touching market
    state.

    Args:
        scenario_factory: Zero-argument callable returning a fresh
            scenario (called once per daemon incarnation — a resumed
            engine is adopted from the checkpoint, so the fresh
            scenario only seeds construction).
        slots: Run horizon.
        state_dir: Daemon state directory (journal, WAL, checkpoints).
        socket_path: Unix socket; defaults to a fresh short path.
        bundle_seed: Seed for :func:`synthetic_bundle`.
        crash_slots: Slots at which an injected crash kills the daemon.
        fault_profile: Optional extra fault channels (duplicate
            delivery, bid loss, ...) active in *both* reference and
            chaos runs.
        redeliver: Re-send every submission once mid-run and after each
            restart (duplicate-delivery exercise).
        max_pending: Per-slot ingestion queue bound.

    Raises:
        DaemonError: On any protocol-level surprise (a redelivery whose
            response differs from the stored ack, an unexpected
            rejection, a tick failure that is not the injected crash).
    """
    socket_path = (
        short_socket_path() if socket_path is None else Path(socket_path)
    )
    scenario_seed = scenario_factory().seed
    plan: list[tuple[str, int, list[dict]]] = []
    restarts = 0
    duplicates = 0
    submitted = False
    while True:
        daemon = MarketDaemon(
            scenario_factory(),
            slots,
            state_dir,
            fault_model=_fault_model(fault_profile, crash_slots, scenario_seed),
            max_pending=max_pending,
            resume=restarts > 0,
        )
        server = InProcessServer(daemon, socket_path).start()
        client = DaemonClient(socket_path, seed=bundle_seed)
        outcome = None
        invoices = None
        try:
            if not submitted:
                directory = client.describe()["tenants"]
                for slot in range(1, slots):
                    for tenant_id, info in sorted(directory.items()):
                        plan.append(
                            (
                                tenant_id,
                                slot,
                                synthetic_bundle(
                                    bundle_seed, tenant_id, slot, info["racks"]
                                ),
                            )
                        )
                for tenant_id, slot, racks in plan:
                    first = client.submit(tenant_id, slot, racks)
                    if not first.get("ok"):
                        raise DaemonError(f"submission rejected: {first!r}")
                    if redeliver:
                        again = client.submit(tenant_id, slot, racks)
                        if again != first:
                            raise DaemonError(
                                f"redelivery not idempotent: {again!r} "
                                f"!= {first!r}"
                            )
                        duplicates += 1
                submitted = True
            elif redeliver:
                # Post-restart redelivery: every key must resolve from
                # the rebuilt idempotency map — cleared slots included.
                for tenant_id, slot, racks in plan:
                    response = client.submit(tenant_id, slot, racks)
                    code = response.get("error", {}).get("code")
                    if not response.get("ok") and code != "shed":
                        raise DaemonError(
                            f"post-resume redelivery of {tenant_id}:{slot} "
                            f"was not absorbed: {response!r}"
                        )
                    duplicates += 1
            while True:
                response = client.tick()
                if response.get("ok"):
                    if response.get("done"):
                        invoices = client.invoices()["invoices"]
                        client.shutdown()
                        outcome = "done"
                        break
                    continue
                code = response.get("error", {}).get("code")
                if code == "crashed":
                    outcome = "crashed"
                    break
                raise DaemonError(f"tick failed unexpectedly: {response!r}")
        finally:
            client.close()
        server.join()
        if outcome == "done":
            journal = (Path(state_dir) / "market.jsonl").read_bytes()
            return ChaosOutcome(
                journal=journal,
                invoices=invoices,
                restarts=restarts,
                duplicates=duplicates,
            )
        restarts += 1


def check_crash_safety(
    work_dir: str | Path,
    *,
    seed: int = 0,
    slots: int = 10,
    crash_slots=(4, 7),
    fault_profile=None,
    redeliver: bool = True,
    scenario_factory=None,
    events_profile=None,
) -> dict:
    """Machine-check the crash-safety invariant; raises on divergence.

    Runs the same synthetic session twice — uninterrupted, then crashed
    at every slot in ``crash_slots`` and resumed — and demands a
    byte-identical market journal and equal invoices.

    Args:
        events_profile: Optional
            :class:`~repro.events.EventProfile` applied to the (default
            testbed) scenario of both runs.  Crash slots placed inside
            an event window then exercise mid-event resume: the shock
            absorber's cuts, ladder state, and compliance watches must
            replay from the checkpoint byte-identically.

    Returns:
        A report dict (``restarts``, ``duplicates``, journal size) for
        logging.

    Raises:
        DaemonError: If the journals differ, the invoices differ, or
            the chaos run did not actually restart.
    """
    work_dir = Path(work_dir)
    if scenario_factory is None:
        from repro.sim.scenario import testbed_scenario

        def scenario_factory():
            return testbed_scenario(seed=seed)

    if events_profile is not None:
        import dataclasses as _dc

        base_factory = scenario_factory

        def scenario_factory():
            return _dc.replace(base_factory(), events=events_profile)

    reference = drive_daemon_run(
        scenario_factory,
        slots,
        work_dir / "reference",
        bundle_seed=seed,
        fault_profile=fault_profile,
    )
    chaos = drive_daemon_run(
        scenario_factory,
        slots,
        work_dir / "chaos",
        bundle_seed=seed,
        crash_slots=crash_slots,
        fault_profile=fault_profile,
        redeliver=redeliver,
    )
    if crash_slots and chaos.restarts != len(tuple(crash_slots)):
        raise DaemonError(
            f"chaos run restarted {chaos.restarts} times, expected "
            f"{len(tuple(crash_slots))}"
        )
    if chaos.journal != reference.journal:
        raise DaemonError(
            "crash-safety invariant violated: market journal diverged "
            f"({len(reference.journal)} vs {len(chaos.journal)} bytes)"
        )
    if chaos.invoices != reference.invoices:
        raise DaemonError(
            "duplicate-delivery invariant violated: invoices diverged "
            f"({reference.invoices!r} vs {chaos.invoices!r})"
        )
    return {
        "slots": slots,
        "restarts": chaos.restarts,
        "duplicates": chaos.duplicates,
        "journal_bytes": len(reference.journal),
        "tenants": len(reference.invoices),
    }
