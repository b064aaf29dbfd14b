"""The slot benchmark's five workloads.

A workload is a sequence of identical *episodes*: each episode builds
its facility (or fleet, or daemon) from the seed, drives a fixed number
of slots through the program's public entry points, and hashes the
outputs.  Runs repeat episodes until their time budget is spent, so the
slot-time distribution never depends on how fast the machine is (every
episode covers the same slots), set-up is measured once per episode,
and every episode of one seed must produce the same digest.

All loops are closed: the next slot (or request) is sent only after the
previous one has completed.

Reference-speed CPU time
------------------------
The shared cloud machine these workloads were sized on disturbs wall
clocks in two ways.  The hypervisor takes the CPU away for 10-60 ms
stalls, dozens of times a minute; CPU time does not count them.  And the
CPU's speed changes by up to 1.6x within a second as neighbours load the
core; a probe measures that.  Every timed interval is therefore measured
twice: in wall-clock seconds, and in *reference-speed CPU seconds* -- the
CPU time of the processes doing the work, scaled by ``REF_PROBE_S /
probe``, where :func:`probe_s` times a fixed slice of pure-Python work
just before and just after the interval.  A change to the program moves
both numbers alike; the machine moves mostly the wall-clock one.  The
bounded metrics use reference-speed CPU time; every results file keeps
the wall-clock values too.  A change that makes the program *wait*
(sleep, fsync) shows only in the wall-clock values.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

import tracing
from repro.config import make_rng
from repro.core.bids import RackBid, TenantBid
from repro.core.demand import LinearBid
from repro.core.market import SpotDCAllocator
from repro.daemon.chaos import synthetic_bundle
from repro.daemon.client import DaemonClient, default_key
from repro.daemon.server import DaemonServer, MarketDaemon
from repro.errors import DaemonError
from repro.experiments.fig07_prediction_and_scaling import make_synthetic_bids
from repro.prediction.spot import SpotCapacityForecast
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import scaled_scenario, testbed_scenario

clock = time.perf_counter

SLOT_SECONDS = 60.0
RACKS_PER_PDU = 250
RACKS_PER_BUNDLE = 50
#: Share of daemon submissions redelivered with the same key.
REDELIVERY_SHARE = 0.1
#: How long the daemon process may take to bind, reply or exit.
DAEMON_WAIT_S = 120.0
#: The probe's median duration on the 2-vCPU machine the bounds in
#: BENCHMARK.json were measured on; it only sets the scale of the
#: reference-speed numbers.
REF_PROBE_S = 100e-6
#: Walked with a stride by the probe: its objects span more than a
#: core's private caches, as the program's bid objects do.
_PROBE_LIST = list(range(40_000))


def probe_s() -> float:
    """CPU seconds a fixed slice of interpreter work takes right now.

    Arithmetic, a strided walk over scattered objects and small-dict
    building: a pure arithmetic loop tracks the program's object-heavy
    code poorly when a neighbour contends for the cache.  The median of
    three runs, so one interrupt does not skew it.
    """
    runs = []
    for _ in range(3):
        start = time.thread_time()
        total = 0
        for i in range(200):
            total += i * i
        for x in _PROBE_LIST[::20]:
            total += x
        table = {}
        for i in range(50):
            table[i] = (i, str(i))
        runs.append(time.thread_time() - start)
    runs.sort()
    return runs[1]


class Timer:
    """Intervals in wall-clock seconds and in reference-speed CPU seconds.

    ``cpu_clock`` reads the CPU seconds of every process doing the timed
    work; by default that is this thread alone.
    """

    def __init__(self, cpu_clock: Callable[[], float] = time.thread_time) -> None:
        self.cpu_clock = cpu_clock
        self.raw: list[float] = []
        self.ref: list[float] = []
        #: Reference seconds per CPU second during the last interval.
        self.scale = 1.0
        self._probe = 0.0
        self._start = 0.0
        self._cpu = 0.0

    def start(self) -> None:
        self._probe = probe_s()
        self._start = clock()
        self._cpu = self.cpu_clock()

    def stop(self) -> None:
        cpu = self.cpu_clock() - self._cpu
        elapsed = clock() - self._start
        self.scale = 2 * REF_PROBE_S / (self._probe + probe_s())
        self.raw.append(elapsed)
        self.ref.append(cpu * self.scale)

    @classmethod
    def total(cls, *timers: Timer) -> Timer:
        """One interval as long as all of the given timers' intervals."""
        summed = cls()
        summed.raw.append(sum(t for timer in timers for t in timer.raw))
        summed.ref.append(sum(t for timer in timers for t in timer.ref))
        return summed

    def add_scaled(self, intervals: list[tuple[float, float]], timer: Timer) -> None:
        """Add ``(wall, cpu)`` intervals measured inside ``timer``'s last one."""
        self.raw.extend(wall for wall, _ in intervals)
        self.ref.extend(cpu * timer.scale for _, cpu in intervals)


@dataclasses.dataclass
class Context:
    """What an episode needs besides its workload's sizes."""

    seed: int
    smoke: bool
    workdir: Path
    recorder: tracing.SpanRecorder | None = None


@dataclasses.dataclass
class Episode:
    """One episode's measurements."""

    setup: Timer
    slots: Timer
    #: Everything timed in the slot loop; slots per second divides by it.
    loop: Timer
    digest: str
    attempted: int
    failed: int = 0
    acks: Timer = dataclasses.field(default_factory=Timer)
    reads: Timer = dataclasses.field(default_factory=Timer)
    #: Peak RSS of the process under test when it is not this one.
    rss_mb: float | None = None
    state_bytes: int = 0
    journal_bytes: int = 0
    checkpoint_bytes: int = 0
    #: Traced daemon runs: client submit round trips and the daemon's spans.
    submits: int = 0
    submit_rtt_s: float = 0.0
    daemon_trace: dict | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    episode: Callable[[Context], Episode]
    #: Whether the program under test runs in a process of its own.
    spawns_daemon: bool = False


def require_market_checks(allocator) -> None:
    """Refuse to measure a market with the Eq. 2-4 check or admission off."""
    if not (
        isinstance(allocator, SpotDCAllocator) and allocator.verify and allocator.admission
    ):
        raise RuntimeError(
            "SpotDC verify and admission must both be on; without them the "
            "benchmark would measure a different program"
        )


def _digest_slot(digest, slot: int, record) -> None:
    result = record.result
    digest.update(
        json.dumps(
            {
                "slot": slot,
                "price": result.price,
                "pdu_prices": result.pdu_prices,
                "grants": {r: g for r, g in result.grants_w.items() if g > 0},
                "payments": record.payments,
            },
            sort_keys=True,
        ).encode()
    )


def _timed(timer: Timer, recorder, trace_id: str, call):
    """Time one call into the program, traced when a recorder is given."""
    timer.start()
    if recorder is not None:
        recorder.trace_id = trace_id
        recorder.active = True
    try:
        result = call()
    finally:
        if recorder is not None:
            recorder.active = False
        timer.stop()
    return result


# -- batch engine -------------------------------------------------------


def batch_episode(name: str, build_scenario, slots: int, ctx: Context) -> Episode:
    """``step_slot`` over a freshly built scenario, then ``finish_run``."""
    setup, times = Timer(), Timer()
    setup.start()
    engine = SimulationEngine(build_scenario(ctx.seed))
    require_market_checks(engine.allocator)
    engine.begin_run(slots)
    setup.stop()
    digest = hashlib.sha256()
    for slot in range(slots):
        record = _timed(times, ctx.recorder, f"{name}:{slot}", lambda: engine.step_slot(slot))
        _digest_slot(digest, slot, record)
    finish = Timer()
    result = _timed(finish, None, "", engine.finish_run)
    digest.update(json.dumps({"net_profit": result.ledger.net_profit}).encode())
    return Episode(
        setup=setup,
        slots=times,
        loop=Timer.total(times, finish),
        digest=digest.hexdigest(),
        attempted=slots + 1,
    )


# -- operator market ----------------------------------------------------


class Fleet:
    """A synthetic fleet whose tenants re-send their bundles every slot.

    Curves are held as plain columns; :meth:`bundles` builds brand-new
    ``LinearBid``/``RackBid``/``TenantBid`` objects from them each slot,
    as a wire parser would, so the market can never short-cut on object
    identity.  Redrawn curves stay inside each rack's headroom, so
    admission accepts every bundle.
    """

    def __init__(self, racks: int, seed: int) -> None:
        self.rng = make_rng(seed)
        bids, self.pdu_spot_w, self.ups_spot_w = make_synthetic_bids(
            racks, self.rng, racks_per_pdu=RACKS_PER_PDU
        )
        self.rack_ids = [b.rack_id for b in bids]
        self.pdu_ids = [b.pdu_id for b in bids]
        self.caps = np.array([b.rack_cap_w for b in bids])
        self.d_max = [b.demand.d_max_w for b in bids]
        self.q_min = [b.demand.q_min for b in bids]
        self.d_min = [b.demand.d_min_w for b in bids]
        self.q_max = [b.demand.q_max for b in bids]
        self.tenant_ids = [f"tenant:{k}" for k in range(-(-racks // RACKS_PER_BUNDLE))]

    def redraw(self, bundles) -> None:
        """Give every rack of the given bundles a freshly drawn curve."""
        rows = np.concatenate(
            [np.arange(k * RACKS_PER_BUNDLE, (k + 1) * RACKS_PER_BUNDLE) for k in bundles]
        )
        rows = rows[rows < len(self.rack_ids)]
        n = len(rows)
        rng = self.rng
        d_max = self.caps[rows] * rng.uniform(0.3, 1.0, n)
        d_min = rng.uniform(0.1, 0.9, n) * d_max
        q_min = rng.uniform(0.02, 0.2, n)
        q_max = q_min + rng.uniform(0.02, 0.3, n)
        for i, a, b, c, d in zip(
            rows.tolist(), d_max.tolist(), q_min.tolist(), d_min.tolist(), q_max.tolist()
        ):
            self.d_max[i], self.q_min[i], self.d_min[i], self.q_max[i] = a, b, c, d

    def redraw_share(self, share: float) -> None:
        count = max(1, round(len(self.tenant_ids) * share))
        self.redraw(self.rng.choice(len(self.tenant_ids), size=count, replace=False))

    def bundles(self) -> list[TenantBid]:
        caps = self.caps.tolist()
        out = []
        for k, tenant_id in enumerate(self.tenant_ids):
            rows = range(k * RACKS_PER_BUNDLE, min((k + 1) * RACKS_PER_BUNDLE, len(caps)))
            out.append(
                TenantBid(
                    tenant_id,
                    tuple(
                        RackBid(
                            self.rack_ids[i],
                            self.pdu_ids[i],
                            tenant_id,
                            LinearBid(self.d_max[i], self.q_min[i], self.d_min[i], self.q_max[i]),
                            caps[i],
                        )
                        for i in rows
                    ),
                )
            )
        return out


def market_episode(name: str, racks: int, slots: int, churn: bool, ctx: Context) -> Episode:
    """``SpotDCAllocator.allocate`` on fresh bundles each slot.

    Set-up builds the fleet and clears slot 0, which builds every PDU
    block from scratch.  Each timed slot then sees either 1% of bundles
    changed (steady) or all of them (churn).  Bundle generation and a
    full ``gc.collect()`` run untimed before each call.
    """
    setup, times = Timer(), Timer()
    setup.start()
    fleet = Fleet(racks, ctx.seed)
    allocator = SpotDCAllocator()
    require_market_checks(allocator)
    forecast = SpotCapacityForecast(dict(fleet.pdu_spot_w), fleet.ups_spot_w)
    record = allocator.allocate(0, [], forecast, SLOT_SECONDS, submitted_bids=fleet.bundles())
    setup.stop()
    digest = hashlib.sha256()
    _digest_slot(digest, 0, record)
    failed = 0
    for slot in range(1, slots + 1):
        if churn:
            fleet.redraw(range(len(fleet.tenant_ids)))
        else:
            fleet.redraw_share(0.01)
        bundles = fleet.bundles()
        record = None  # so the collection also frees the last slot's outputs
        gc.collect()
        record = _timed(
            times,
            ctx.recorder,
            f"{name}:{slot}",
            lambda: allocator.allocate(slot, [], forecast, SLOT_SECONDS, submitted_bids=bundles),
        )
        if record.quarantined or len(record.bids) != racks:
            failed += 1
        _digest_slot(digest, slot, record)
    return Episode(
        setup=setup,
        slots=times,
        loop=Timer.total(times),
        digest=digest.hexdigest(),
        attempted=slots + 1,
        failed=failed,
    )


# -- market daemon ------------------------------------------------------


def serve_daemon(report: Path, groups, seed, slots, state_dir, socket_path, traced) -> None:
    """Daemon process: serve one manual-tick run, then write ``report``."""
    daemon = MarketDaemon(scaled_scenario(groups=groups, seed=seed), slots, state_dir)
    require_market_checks(daemon.engine.allocator)
    recorder = None
    uninstall = None
    if traced:
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
        recorder.active = True
    try:
        asyncio.run(DaemonServer(daemon, socket_path, tick_seconds=None).run())
    finally:
        if uninstall is not None:
            uninstall()
    report.write_text(
        json.dumps(
            {
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "trace": recorder.export() if recorder is not None else None,
            }
        ),
        encoding="utf-8",
    )


def _cpu_clock(procs: list) -> Callable[[], float]:
    """CPU seconds of this thread plus the daemon process (once started)."""

    def read() -> float:
        own = time.thread_time()
        if not procs:
            return own
        try:
            # The kernel's per-process CPU clock id for another pid.
            return own + time.clock_gettime(((~procs[0].pid) << 3) | 2)
        except OSError:  # the daemon has exited
            return own

    return read


def _stop(proc: subprocess.Popen) -> None:
    """Make sure the daemon process has ended, killing it if need be."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def daemon_episode(groups: int, slots: int, ctx: Context) -> Episode:
    """One client driving a spawned daemon through ``slots`` manual ticks.

    Per slot: every tenant submits a synthetic bundle (a seeded tenth of
    them a second time, same key), then one ``result`` read of the
    previous slot and one ``tick``.  Set-up runs from spawning the
    daemon process until its first ``describe`` reply.  The daemon
    inherits this process's CPU affinity, so when the harness pins to
    one CPU the client's probes time the CPU the daemon runs on; in a
    closed loop the two never run at once.  The daemon process has ended
    on every way out of this function.
    """
    state_dir = ctx.workdir / "daemon-state"
    shutil.rmtree(state_dir, ignore_errors=True)
    report_path = ctx.workdir / "daemon-report.json"
    report_path.unlink(missing_ok=True)
    # Relative, so the path fits a unix socket address wherever the
    # checkout lives; the daemon inherits this process's cwd.
    socket_path = os.path.relpath(ctx.workdir / "d.sock")
    traced = ctx.recorder is not None
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "daemon_proc.py"),
        str(report_path), str(groups), str(ctx.seed), str(slots), str(state_dir), socket_path,
        str(int(traced)),
    ]
    procs: list[subprocess.Popen] = []
    cpu_clock = _cpu_clock(procs)
    setup = Timer(cpu_clock)
    setup.start()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    procs.append(proc)
    client = DaemonClient(socket_path, timeout=DAEMON_WAIT_S, retries=0)
    try:
        deadline = clock() + DAEMON_WAIT_S
        while True:
            if proc.poll() is not None:
                raise RuntimeError(f"daemon process exited with code {proc.returncode}")
            if clock() > deadline:
                raise RuntimeError("daemon did not answer describe in time")
            if os.path.exists(socket_path):
                # The socket file appears at bind, a moment before listen.
                try:
                    directory = client.describe()["tenants"]
                    break
                except DaemonError:
                    pass
            time.sleep(0.001)
        setup.stop()
        episode = _drive_daemon(client, directory, slots, ctx, setup)
        client.shutdown()
        if proc.wait(DAEMON_WAIT_S) != 0:
            raise RuntimeError(f"daemon process exited with code {proc.returncode}")
    finally:
        client.close()
        _stop(proc)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report_path.unlink()
    episode.rss_mb = report["rss_mb"]
    episode.daemon_trace = report["trace"]
    episode.digest = hashlib.sha256((state_dir / "market.jsonl").read_bytes()).hexdigest()
    episode.journal_bytes = sum(
        (state_dir / f).stat().st_size for f in ("bids.jsonl", "market.jsonl")
    )
    episode.checkpoint_bytes = _tree_bytes(state_dir / "checkpoints")
    episode.state_bytes = _tree_bytes(state_dir)
    shutil.rmtree(state_dir)
    return episode


def _drive_daemon(client, directory, slots, ctx, setup: Timer) -> Episode:
    cpu_clock = setup.cpu_clock
    tenants = sorted(directory.items())
    redeliver = random.Random(f"{ctx.seed}:redeliver")
    traced = ctx.recorder is not None
    acks, reads, ticks, ingest, last = (Timer(cpu_clock) for _ in range(5))

    def request(message):
        wall, cpu = clock(), cpu_clock()
        response = client.request(message)
        return response, (clock() - wall, cpu_clock() - cpu)

    attempted = 1  # the describe above
    failed = 0
    submits = 0
    submit_rtt_s = 0.0
    for slot in range(slots):
        if slot >= 1:
            plan = [
                (
                    {
                        "op": "submit",
                        "key": default_key(tenant_id, slot),
                        "tenant_id": tenant_id,
                        "slot": slot,
                        "racks": synthetic_bundle(ctx.seed, tenant_id, slot, info["racks"]),
                    },
                    redeliver.random() < REDELIVERY_SHARE,
                )
                for tenant_id, info in tenants
            ]
            slot_acks, slot_reads = [], []
            ingest.start()
            for message, again in plan:
                first, interval = request(message)
                slot_acks.append(interval)
                attempted += 1
                failed += not (first.get("ok") and first.get("status") == "accepted")
                if again:
                    second, interval = request(message)
                    slot_reads.append(interval)
                    attempted += 1
                    failed += second != first
            response, interval = request({"op": "result", "slot": slot - 1})
            slot_reads.append(interval)
            ingest.stop()
            attempted += 1
            failed += not response.get("ok")
            # One submission phase lasts tens of milliseconds: one speed
            # reading per phase serves every request in it.
            acks.add_scaled(slot_acks, ingest)
            reads.add_scaled(slot_reads, ingest)
            if traced:
                submits += len(plan) + len(slot_reads) - 1
                submit_rtt_s += sum(wall for wall, _ in slot_acks + slot_reads[:-1])
        response = _timed(ticks, None, "", client.tick)
        attempted += 1
        failed += not (response.get("ok") and response.get("slot") == slot)
    response = _timed(last, None, "", client.invoices)
    attempted += 1
    failed += not response.get("ok")
    return Episode(
        setup=setup,
        slots=ticks,
        loop=Timer.total(acks, reads, ticks, last),
        digest="",
        attempted=attempted,
        failed=failed,
        acks=acks,
        reads=reads,
        submits=submits,
        submit_rtt_s=submit_rtt_s,
    )


# -- the workload table -------------------------------------------------

#: Episode sizes: (full, smoke).
_TESTBED_SLOTS = (1440, 100)
_SCALED = ((100, 40), (10, 10))  # (groups, slots)
_MARKET = ((20_000, 12), (2_000, 5))  # (racks, slots)
_DAEMON = ((20, 60), (2, 8))  # (groups, slots)


def _pick(sizes, ctx):
    return sizes[1] if ctx.smoke else sizes[0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "testbed",
            lambda ctx: batch_episode(
                "testbed",
                lambda seed: testbed_scenario(seed=seed),
                _pick(_TESTBED_SLOTS, ctx),
                ctx,
            ),
        ),
        Workload(
            "scaled-1k",
            lambda ctx: batch_episode(
                "scaled-1k",
                lambda seed: scaled_scenario(groups=_pick(_SCALED, ctx)[0], seed=seed),
                _pick(_SCALED, ctx)[1],
                ctx,
            ),
        ),
        Workload(
            "market-20k-steady",
            lambda ctx: market_episode("market-20k-steady", *_pick(_MARKET, ctx), False, ctx),
        ),
        Workload(
            "market-20k-churn",
            lambda ctx: market_episode("market-20k-churn", *_pick(_MARKET, ctx), True, ctx),
        ),
        Workload(
            "daemon-200",
            lambda ctx: daemon_episode(*_pick(_DAEMON, ctx), ctx),
            spawns_daemon=True,
        ),
    )
}
