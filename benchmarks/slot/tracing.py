"""Spans around the market's layer boundaries, recorded from outside.

The slot benchmark traces the program without changing it: each
boundary below is a public function or method, and :func:`install`
replaces it — on its class, or in the module namespace the caller reads
it from — with a wrapper that records one span per call.  Nothing is
ever set on an instance, because the daemon pickles the whole engine
every slot and a wrapper stored on an instance would be pickled with it.

A span is ``(id, name, start, end, parent id, trace id)`` on the
``time.perf_counter`` clock, which is system-wide monotonic on Linux, so
spans recorded in the daemon process line up with the client's.  Self
time (duration minus the time direct children cover) and call counts are
aggregated as each span closes; raw spans are kept only up to a cap so a
long traced run stays small in memory and on disk.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
from collections.abc import Callable
from pathlib import Path

#: Raw spans kept per process for the trace files; aggregates cover all.
SPAN_CAP = 20_000


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One traced layer boundary.

    Attributes:
        name: Metric prefix, ``<package path>.<function>``.
        module: Module that owns the target.
        target: ``"Class.method"`` (wrapped on the class and on every
            loaded subclass that overrides it) or ``"function"`` (wrapped
            in ``module``'s namespace, i.e. where the caller looks it
            up).
        trace_id: Derives the trace id from the call's arguments, for
            boundaries that start a request inside the daemon process.
        observe: ``observe(counts, args, result)`` adds this call's
            counts to the recorder after the span has closed.
    """

    name: str
    module: str
    target: str
    trace_id: Callable | None = None
    observe: Callable | None = None


def _observe_allocate(counts, args, record):
    counts["racks_bid"] += len(record.bids)
    counts["racks_granted"] += sum(1 for g in record.result.grants_w.values() if g > 0)


def _observe_screen(counts, args, result):
    counts["bundles_screened"] += len(args[0])
    counts["bundles_admitted"] += len(result[0])


def _observe_build(counts, args, frame):
    dirty = args[0].last_dirty
    counts["dirty_pdus"] += len(dirty)
    counts["rebuilt_pdus"] += len(dirty)
    counts["reused_pdus"] += len(set(frame.pdu_ids).difference(dirty))


def _observe_clear(counts, args, result):
    counts["candidate_prices"] += result.candidate_prices
    counts["feasible_prices"] += result.feasible_prices


def _submission_key(args):
    key = args[1].get("key") if isinstance(args[1], dict) else None
    return str(key)


BOUNDARIES = (
    Boundary("sim.engine.step_slot", "repro.sim.engine", "SimulationEngine.step_slot"),
    Boundary("forecast.signals.forecast_slot", "repro.forecast.signals", "Signal.forecast_slot"),
    Boundary(
        "forecast.release.release", "repro.forecast.release", "RiskAwareReleasePolicy.release"
    ),
    Boundary("tenants.needed_spot_w", "repro.tenants.tenant", "Tenant.needed_spot_w"),
    Boundary("tenants.make_bid", "repro.tenants.tenant", "Tenant.make_bid"),
    Boundary("tenants.execute_slot", "repro.tenants.tenant", "Tenant.execute_slot"),
    Boundary(
        "core.market.allocate",
        "repro.core.market",
        "SpotDCAllocator.allocate",
        observe=_observe_allocate,
    ),
    Boundary("recovery.admission.dedupe_bundles", "repro.core.market", "dedupe_bundles"),
    Boundary(
        "recovery.admission.screen_bids", "repro.core.market", "screen_bids",
        observe=_observe_screen,
    ),
    Boundary("core.bids.flatten_bids", "repro.core.market", "flatten_bids"),
    Boundary(
        "core.sharding.build",
        "repro.core.sharding",
        "IncrementalFrameBuilder.build",
        observe=_observe_build,
    ),
    Boundary(
        "core.clearing.clear_per_pdu",
        "repro.core.clearing",
        "MarketClearing.clear_per_pdu",
        observe=_observe_clear,
    ),
    Boundary("core.allocation.verify_allocation", "repro.core.market", "verify_allocation"),
    Boundary("core.frame.to_bids", "repro.core.frame", "BidFrame.to_bids"),
    Boundary("core.frame.settle", "repro.core.frame", "BidFrame.settle"),
    Boundary(
        "infrastructure.topology.clear_all_spot_budgets",
        "repro.infrastructure.topology",
        "PowerTopology.clear_all_spot_budgets",
    ),
    Boundary(
        "infrastructure.monitor.record_slot",
        "repro.infrastructure.monitor",
        "PowerMonitor.record_slot",
    ),
    Boundary(
        "infrastructure.emergencies.scan", "repro.infrastructure.emergencies", "EmergencyLog.scan"
    ),
    Boundary(
        "economics.profit.record_slot", "repro.economics.profit", "OperatorLedger.record_slot"
    ),
    Boundary("sim.metrics.record_slot", "repro.sim.metrics", "MetricsCollector.record_slot"),
    Boundary(
        "daemon.server.handle_submit",
        "repro.daemon.server",
        "MarketDaemon.handle_submit",
        trace_id=_submission_key,
    ),
    Boundary(
        "daemon.server.process_next_slot",
        "repro.daemon.server",
        "MarketDaemon.process_next_slot",
        trace_id=lambda args: f"daemon-200:{args[0].next_slot}",
    ),
    Boundary("daemon.protocol.parse_submission", "repro.daemon.server", "parse_submission"),
    Boundary("daemon.protocol.stored_tenant_bid", "repro.daemon.server", "stored_tenant_bid"),
    Boundary("daemon.journal.accept", "repro.daemon.journal", "BidLog.accept"),
    # BidLog and MarketJournal inherit append from a private base class;
    # wrapping it on both public subclasses covers the WAL and journal.
    Boundary("daemon.journal.append", "repro.daemon.journal", "BidLog.append"),
    Boundary("daemon.journal.append", "repro.daemon.journal", "MarketJournal.append"),
    Boundary("recovery.checkpoint.save_checkpoint", "repro.daemon.server", "save_checkpoint"),
)

#: Every boundary name, in report order (``daemon.transport`` is measured
#: by the client: its round trip minus the daemon's ``handle_submit``).
LAYER_NAMES = tuple(dict.fromkeys(b.name for b in BOUNDARIES)) + ("daemon.transport",)


class _Counts(dict):
    def __missing__(self, key):
        return 0


class SpanRecorder:
    """Collects spans and per-name aggregates for one process.

    The benchmark sets :attr:`trace_id` before each slot it drives and
    flips :attr:`active` on only around timed calls, so set-up work is
    never counted; inside the daemon process the boundaries derive their
    own trace ids and the recorder stays active while serving.
    """

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.active = False
        self.trace_id = ""
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = _Counts()
        self._stack: list[list] = []
        self._next_id = 0

    def _open(self, name: str) -> list:
        """Push a frame: ``[name, span id, parent id, time in children]``."""
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name, self._next_id, parent, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name, sid, parent, in_children = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - in_children
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, name, start, end, parent, self.trace_id))

    def wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        """A wrapper recording one span per (non-reentrant) call of ``fn``."""
        name = boundary.name
        derive = boundary.trace_id
        observe = boundary.observe
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            # Overrides calling super() would otherwise count one call twice.
            if not self.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            saved = self.trace_id
            if derive is not None and not stack:
                self.trace_id = derive(args)
            frame = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
                self.trace_id = saved
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def export(self) -> dict:
        """Plain-data aggregates and spans (crosses a process boundary)."""
        return {
            "pid": os.getpid(),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }


def _targets(boundary: Boundary):
    module = importlib.import_module(boundary.module)
    if "." not in boundary.target:
        yield module, boundary.target
        return
    class_name, attr = boundary.target.split(".")
    owner = getattr(module, class_name)
    seen = set()
    pending = [owner]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if cls is owner or attr in cls.__dict__:
            yield cls, attr
        pending.extend(cls.__subclasses__())


_MISSING = object()


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every boundary; returns the function that restores them all.

    Subclasses are found through ``__subclasses__``, so every module
    whose classes should be traced must be imported before this runs.
    """
    undo: list[tuple] = []
    for boundary in BOUNDARIES:
        for owner, attr in _targets(boundary):
            before = owner.__dict__.get(attr, _MISSING)
            setattr(owner, attr, recorder.wrap(getattr(owner, attr), boundary))
            undo.append((owner, attr, before))

    def uninstall() -> None:
        for owner, attr, before in reversed(undo):
            if before is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, before)

    return uninstall


def write_trace_files(base: Path, exports: list[dict]) -> list[Path]:
    """Write spans as JSONL and as Chrome trace-event JSON; returns paths."""
    jsonl = base.parent / f"{base.name}.spans.jsonl"
    chrome = base.parent / f"{base.name}.trace.json"
    events = []
    with open(jsonl, "w", encoding="utf-8") as fh:
        for export in exports:
            pid = export["pid"]
            for sid, name, start, end, parent, trace in export["spans"]:
                fh.write(
                    json.dumps(
                        {
                            "pid": pid,
                            "id": sid,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "trace": trace,
                        }
                    )
                    + "\n"
                )
                events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": start * 1e6,
                        "dur": (end - start) * 1e6,
                        "pid": pid,
                        "tid": pid,
                        "args": {"trace": trace, "id": sid, "parent": parent},
                    }
                )
    chrome.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
    return [jsonl, chrome]
