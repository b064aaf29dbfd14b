"""Workload abstractions: how a rack's work turns power into performance.

Two families cover the paper's tenant mix (Section II-C):

* :class:`InteractiveWorkload` — delay-sensitive services (web search,
  web serving) whose tail latency must meet an SLO; their owners are
  *sprinting* tenants.
* :class:`BatchWorkload` — delay-tolerant processing (Hadoop, graph
  analytics) with a work backlog; their owners are *opportunistic*
  tenants.

A workload is **stateful and slot-ordered**: :meth:`Workload.prepare`
materialises its trace for a run, and :meth:`Workload.execute` must be
called once per slot in order (batch backlogs evolve with the power
actually granted).

A latency workload's desired power per slot is the minimum-power
bisection at that slot's rate.  :func:`fill_desired_power` runs it for
many workloads in one array bisection; inside a
:func:`batched_desired_power` block the workloads prepared wait for one
such call at its end.
"""

from __future__ import annotations

import abc
import contextlib
import contextvars
import dataclasses
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.power.latency import LatencyColumns, LatencyModel, powers_for_latency
from repro.power.throughput import ThroughputModel

__all__ = [
    "SlotPerformance",
    "Workload",
    "InteractiveWorkload",
    "BatchWorkload",
    "TracePowerWorkload",
    "batched_desired_power",
    "fill_desired_power",
    "request_desired_power",
]

#: The workloads waiting for the enclosing batched_desired_power block.
_PENDING: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "pending_desired_power", default=None
)


def fill_desired_power(workloads: Sequence) -> None:
    """Fill each latency workload's desired-power series in one bisection.

    Each workload (:class:`InteractiveWorkload`,
    :class:`repro.tenants.bundled.TierWorkload`) has its ``latency_model``,
    ``target_ms`` and per-slot ``_rates``; its ``_desired`` becomes the
    smallest budget meeting the target at every slot's rate
    (:func:`repro.power.latency.powers_for_latency`), a read-only array
    of its own slots.
    """
    if not workloads:
        return
    sizes = [workload._rates.size for workload in workloads]
    desired = powers_for_latency(
        LatencyColumns.of([workload.latency_model for workload in workloads]),
        np.array([workload.target_ms for workload in workloads], dtype=float),
        np.repeat(np.arange(len(workloads)), sizes),
        np.concatenate([workload._rates for workload in workloads]),
    )
    for workload, series in zip(workloads, np.split(desired, np.cumsum(sizes)[:-1])):
        series.flags.writeable = False
        workload._desired = series


@contextlib.contextmanager
def batched_desired_power() -> Iterator[None]:
    """Fill every desired-power series requested inside in one call at the end.

    Workloads prepared inside the block draw their traces as usual and
    leave ``_desired`` unset until the block exits; an exception leaves
    them unfilled.
    """
    pending: list = []
    token = _PENDING.set(pending)
    try:
        yield
    finally:
        _PENDING.reset(token)
    fill_desired_power(pending)


def request_desired_power(workload) -> None:
    """Fill a workload's desired-power series now, or when the enclosing
    :func:`batched_desired_power` block ends."""
    pending = _PENDING.get()
    if pending is None:
        fill_desired_power([workload])
    else:
        workload._desired = None
        pending.append(workload)


@dataclasses.dataclass(frozen=True)
class SlotPerformance:
    """Outcome of running one workload for one slot.

    Attributes:
        slot: Slot index.
        power_w: Power actually drawn.
        desired_power_w: Power the workload wanted.
        capped: Whether the budget forced a power reduction.
        metric: ``"latency_ms"`` or ``"throughput"``.
        value: Tail latency in ms (lower better) or achieved processing
            rate in units/s (higher better).
        slo_violated: For interactive workloads, whether the SLO was
            missed; always ``False`` for batch.
        wanted_spot: Whether the workload wanted capacity beyond the
            rack's guaranteed budget this slot (the participation
            signal).
    """

    slot: int
    power_w: float
    desired_power_w: float
    capped: bool
    metric: str
    value: float
    slo_violated: bool
    wanted_spot: bool


class Workload(abc.ABC):
    """Base class for rack workloads."""

    #: Human-readable workload name (e.g. ``"search"``).
    name: str = "workload"
    #: Performance metric family: ``"latency_ms"`` or ``"throughput"``.
    metric: str = "latency_ms"
    #: Models, traces and the per-slot arrays (read-only) :meth:`prepare`
    #: fixes: checkpoints write them once per run (repro.recovery.checkpoint).
    run_inputs: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._prepared_slots = 0
        self._next_slot = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self.run_inputs:
            del state[name]
        return state

    @abc.abstractmethod
    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        """Materialise the workload trace for a run of ``slots`` slots."""

    @abc.abstractmethod
    def intensity(self, slot: int) -> float:
        """Workload intensity at a slot (requests/s or arrival units/s)."""

    @abc.abstractmethod
    def desired_power_w(self, slot: int) -> float:
        """Power the workload wants at a slot, ignoring budgets."""

    @abc.abstractmethod
    def execute(self, slot: int, budget_w: float, slot_seconds: float) -> SlotPerformance:
        """Run one slot under an enforced budget and report performance."""

    # ------------------------------------------------------------------
    # Shared slot-ordering bookkeeping
    # ------------------------------------------------------------------

    def _mark_prepared(self, slots: int) -> None:
        if slots <= 0:
            raise WorkloadError("slots must be positive")
        self._prepared_slots = slots
        self._next_slot = 0
        for name in self.run_inputs:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _check_slot(self, slot: int) -> None:
        if self._prepared_slots == 0:
            raise WorkloadError(f"{self.name}: prepare() must be called first")
        if not 0 <= slot < self._prepared_slots:
            raise WorkloadError(
                f"{self.name}: slot {slot} outside prepared range "
                f"[0, {self._prepared_slots})"
            )

    def _check_execution_order(self, slot: int) -> None:
        self._check_slot(slot)
        if slot != self._next_slot:
            raise WorkloadError(
                f"{self.name}: execute() called for slot {slot}, expected "
                f"{self._next_slot} (slots must run in order, exactly once)"
            )
        self._next_slot += 1


class InteractiveWorkload(Workload):
    """A latency-SLO service: search, web serving.

    The workload wants the smallest power budget that keeps tail latency
    within ``target_ms`` (the SLO with a safety margin); with less power
    it runs capped and latency rises.

    Args:
        name: Workload label.
        latency_model: The rack's latency model.
        arrival_trace: Object with ``generate(slots, rng) -> np.ndarray``
            of request rates.
        slo_ms: The SLO threshold (violation flagging).
        target_ms: Planning target; defaults to 90% of the SLO so the
            desired budget leaves headroom against model error.
    """

    metric = "latency_ms"
    run_inputs = ("latency_model", "arrival_trace", "_rates", "_desired")

    def __init__(
        self,
        name: str,
        latency_model: LatencyModel,
        arrival_trace,
        slo_ms: float = 100.0,
        target_ms: float | None = None,
    ) -> None:
        super().__init__()
        if slo_ms <= 0:
            raise WorkloadError("slo_ms must be positive")
        self.name = name
        self.latency_model = latency_model
        self.arrival_trace = arrival_trace
        self.slo_ms = slo_ms
        self.target_ms = target_ms if target_ms is not None else 0.9 * slo_ms
        if self.target_ms <= 0:
            raise WorkloadError("target_ms must be positive")
        self._rates: np.ndarray | None = None
        self._desired: np.ndarray | None = None

    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        self._rates = np.asarray(self.arrival_trace.generate(slots, rng), dtype=float)
        request_desired_power(self)
        self._mark_prepared(slots)

    def intensity(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._rates[slot])

    def desired_power_w(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._desired[slot])

    def execute(self, slot: int, budget_w: float, slot_seconds: float) -> SlotPerformance:
        self._check_execution_order(slot)
        rate = float(self._rates[slot])
        desired = float(self._desired[slot])
        power = min(desired, budget_w)
        latency = self.latency_model.latency_ms(power, rate)
        return SlotPerformance(
            slot=slot,
            power_w=power,
            desired_power_w=desired,
            capped=desired > budget_w,
            metric=self.metric,
            value=latency,
            slo_violated=latency > self.slo_ms,
            wanted_spot=desired > budget_w,
        )


class BatchWorkload(Workload):
    """A backlog-driven batch workload: Hadoop jobs, graph analytics.

    Work arrives per the trace; the workload drains it as fast as the
    enforced budget allows whenever a backlog exists, and idles at the
    power needed to keep up with arrivals otherwise.  Its *desired*
    power is full peak whenever the backlog exceeds
    ``sprint_backlog_s`` seconds of full-rate work — those are the slots
    an opportunistic tenant wants spot capacity for.

    Args:
        name: Workload label.
        throughput_model: The rack's processing-rate model.
        arrival_trace: Object with ``generate(slots, rng) -> np.ndarray``
            of work-arrival rates (units/s).
        sprint_backlog_s: Backlog (in seconds of full-rate processing)
            beyond which the tenant wants to sprint.
    """

    metric = "throughput"
    run_inputs = ("throughput_model", "arrival_trace", "_arrivals")

    def __init__(
        self,
        name: str,
        throughput_model: ThroughputModel,
        arrival_trace,
        sprint_backlog_s: float = 30.0,
    ) -> None:
        super().__init__()
        if sprint_backlog_s < 0:
            raise WorkloadError("sprint_backlog_s must be >= 0")
        self.name = name
        self.throughput_model = throughput_model
        self.arrival_trace = arrival_trace
        self.sprint_backlog_s = sprint_backlog_s
        self._arrivals: np.ndarray | None = None
        self.backlog_units = 0.0

    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        self._arrivals = np.asarray(
            self.arrival_trace.generate(slots, rng), dtype=float
        )
        self.backlog_units = 0.0
        self._mark_prepared(slots)

    def intensity(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._arrivals[slot])

    def _sprint_threshold_units(self) -> float:
        return self.sprint_backlog_s * self.throughput_model.rate_max

    def wants_sprint(self, slot: int) -> bool:
        """Whether the current backlog is worth buying spot capacity for."""
        self._check_slot(slot)
        return self.backlog_units > self._sprint_threshold_units()

    def desired_power_w(self, slot: int) -> float:
        self._check_slot(slot)
        if self.wants_sprint(slot):
            return self.throughput_model.power_model.peak_w
        # Keep up with arrivals (plus drain any small residual backlog).
        rate_needed = float(self._arrivals[slot])
        if self.backlog_units > 0:
            rate_needed = min(
                self.throughput_model.rate_max,
                rate_needed + self.backlog_units / 60.0,
            )
        return self.throughput_model.power_for_rate(rate_needed)

    def execute(self, slot: int, budget_w: float, slot_seconds: float) -> SlotPerformance:
        self._check_execution_order(slot)
        if slot_seconds <= 0:
            raise WorkloadError("slot_seconds must be positive")
        desired = self.desired_power_w(slot)
        wanted_spot = desired > budget_w
        power = min(desired, budget_w)
        rate = self.throughput_model.rate_at(power)
        arrivals = float(self._arrivals[slot]) * slot_seconds
        available = self.backlog_units + arrivals
        processed = min(available, rate * slot_seconds)
        self.backlog_units = available - processed
        achieved_rate = processed / slot_seconds
        # Power actually drawn reflects the work actually done, not the
        # provisional desired level (an idle rack draws idle power, a
        # partially busy rack draws the power its achieved rate needs).
        idle = self.throughput_model.power_model.idle_w
        if processed > 0:
            actual_power = self.throughput_model.power_for_rate(achieved_rate)
        else:
            actual_power = idle
        actual_power = max(idle, min(actual_power, max(budget_w, idle)))
        return SlotPerformance(
            slot=slot,
            power_w=actual_power,
            desired_power_w=desired,
            capped=wanted_spot,
            metric=self.metric,
            value=achieved_rate,
            slo_violated=False,
            wanted_spot=wanted_spot,
        )


class TracePowerWorkload(Workload):
    """A workload whose power draw replays a trace directly.

    Used for non-participating tenants ("Other" in the paper's Table I):
    their aggregate draw comes from a measured/generated power trace and
    they never want spot capacity.  Performance is not meaningful for
    these groups; the metric reported is the draw itself.

    Args:
        name: Workload label.
        power_trace: Object with ``generate(slots, rng) -> np.ndarray``
            of power samples in watts.
    """

    metric = "power_w"
    run_inputs = ("power_trace", "_power")

    def __init__(self, name: str, power_trace) -> None:
        super().__init__()
        self.name = name
        self.power_trace = power_trace
        self._power: np.ndarray | None = None

    def prepare(self, slots: int, rng: np.random.Generator) -> None:
        self._power = np.asarray(self.power_trace.generate(slots, rng), dtype=float)
        self._mark_prepared(slots)

    def intensity(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._power[slot])

    def desired_power_w(self, slot: int) -> float:
        self._check_slot(slot)
        return float(self._power[slot])

    def execute(self, slot: int, budget_w: float, slot_seconds: float) -> SlotPerformance:
        self._check_execution_order(slot)
        desired = float(self._power[slot])
        power = min(desired, budget_w)
        return SlotPerformance(
            slot=slot,
            power_w=power,
            desired_power_w=desired,
            capped=desired > budget_w,
            metric=self.metric,
            value=power,
            slo_violated=False,
            wanted_spot=False,
        )
