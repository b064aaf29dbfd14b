"""The array bisections vs the scalar oracle, bit for bit.

:func:`repro.power.latency.powers_for_latency` runs the minimum-power
bisection on every element of a batch at once, and
``repro.sim.scenario._reference_rates`` runs the calibration's 50-step
bisection over the arrival rate for all sprinting workloads in
lockstep.  ``tests/oracle.py`` keeps both as they were written, one
scalar ``LatencyModel.latency_ms`` call per step.  They must agree bit
for bit: a desired power one ulp off moves a bid, and with it every
pinned digest.  The array form also keeps every comparison of the
scalar one, so it evaluates the latency exactly as often: the counts
are compared too.

The explicit cases pin the regions where the bisection exits, stops or
ties (each case first checks that it really reaches its region); the
Hypothesis properties roam the parameter space around them.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.power.latency as latency
from repro.errors import ConfigurationError
from repro.power.latency import LatencyColumns, LatencyModel, powers_for_latency
from repro.power.server import ServerPowerModel
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import _reference_rates, scaled_scenario
from repro.sim.scenario import testbed_scenario as build_testbed
from repro.tenants.bundled import TierWorkload
from repro.workloads.base import (
    InteractiveWorkload,
    batched_desired_power,
    fill_desired_power,
)

from tests import oracle


def _same(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@contextlib.contextmanager
def _counting():
    """Count latency evaluations: elements through the array form, calls
    to the scalar one."""
    counts = {"array": 0, "scalar": 0}
    array_form, scalar_form = LatencyColumns.latencies_ms, LatencyModel.latency_ms

    def array(self, power_w, arrival_rps):
        counts["array"] += np.size(power_w)
        return array_form(self, power_w, arrival_rps)

    def scalar(self, power_w, arrival_rps):
        counts["scalar"] += 1
        return scalar_form(self, power_w, arrival_rps)

    LatencyColumns.latencies_ms, LatencyModel.latency_ms = array, scalar
    try:
        yield counts
    finally:
        LatencyColumns.latencies_ms, LatencyModel.latency_ms = array_form, scalar_form


@contextlib.contextmanager
def _chunk(elements: int):
    saved = latency.CHUNK_ELEMENTS
    latency.CHUNK_ELEMENTS = elements
    try:
        yield
    finally:
        latency.CHUNK_ELEMENTS = saved


def _check_batch(models, rows, targets, rates, tolerance_w=0.01):
    """The batch, by array and by oracle: same bits, same evaluations."""
    with _counting() as counts:
        powers = powers_for_latency(
            LatencyColumns.of(models), np.asarray(targets, dtype=float), rows, rates, tolerance_w
        )
        evaluations = counts["array"]
        counts["scalar"] = 0
        reference = [
            oracle.power_for_latency(models[r], float(targets[r]), float(x), tolerance_w)
            for r, x in zip(np.asarray(rows).tolist(), np.asarray(rates).tolist())
        ]
    assert _same(powers, reference)
    assert evaluations == counts["scalar"]
    return powers


def _model(idle=100.0, peak=200.0, **overrides):
    return LatencyModel(
        **{"power_model": ServerPowerModel(idle, peak), "mu_max_rps": 1000.0, **overrides}
    )


def _lattice(model, k, j):
    """Point ``j`` of the bisection's ``2**k``-step lattice on [idle, peak]."""
    power = model.power_model
    return power.idle_w + j * power.dynamic_range_w / 2**k


# ----------------------------------------------------------------------
# Explicit cases: the exits, the stopping test and the ties
# ----------------------------------------------------------------------

#: name -> (models, rows, targets per row, rates, tolerance_w, reaches)
CASES = {
    "unreachable-at-peak": (
        [_model()], [0], [25.0], [600.0], 0.01,
        lambda m, r, t, x: m[0].latency_ms(200.0, x[0]) > t[0],
    ),
    "met-at-idle": (
        [_model()], [0], [900.0], [100.0], 0.01,
        lambda m, r, t, x: m[0].latency_ms(100.0, x[0]) <= t[0],
    ),
    "target-equals-latency-at-peak": (
        [_model()], [0], [_model().latency_ms(200.0, 600.0)], [600.0], 0.01,
        lambda m, r, t, x: m[0].latency_ms(200.0, x[0]) == t[0],
    ),
    "rates-zero-below-at-above-saturation": (
        [_model()], [0, 0, 0, 0, 0], [60.0], [0.0, 500.0, 950.0, 1000.0, 1500.0], 0.01,
        lambda m, r, t, x: x[0] == 0.0
        and x[3] == m[0].mu_max_rps
        and x[4] > m[0].mu_max_rps
        and m[0].latency_ms(150.0, x[2]) == m[0].saturated_latency_ms
        and m[0].latency_ms(200.0, x[2]) < m[0].saturated_latency_ms,
    ),
    # Integer idle/peak keep every midpoint exact: hi - lo reaches the
    # tolerance exactly after 10 halvings, where the bisection stops.
    "tolerance-met-exactly": (
        [_model(100.0, 356.0)], [0], [60.0], [600.0], 0.25,
        lambda m, r, t, x: m[0].power_model.dynamic_range_w / 2**10 == 0.25,
    ),
    # The target is the latency at a midpoint the bisection visits:
    # there `<=` holds with equality.
    "target-on-a-lattice-point": (
        [_model(100.0, 356.0)], [0], [_model(100.0, 356.0).latency_ms(100.0 + 3 * 256.0 / 8, 600.0)],
        [600.0], 0.01,
        lambda m, r, t, x: m[0].latency_ms(_lattice(m[0], 3, 3), x[0]) == t[0],
    ),
    "target-one-ulp-below-a-lattice-point": (
        [_model(100.0, 356.0)], [0],
        [np.nextafter(_model(100.0, 356.0).latency_ms(100.0 + 3 * 256.0 / 8, 600.0), 0.0)],
        [600.0], 0.01,
        lambda m, r, t, x: m[0].latency_ms(_lattice(m[0], 3, 3), x[0]) > t[0],
    ),
    # Spans of 1 W and 1,000 W stop after very different step counts.
    "mixed-models": (
        [_model(100.0, 101.0), _model(0.0, 1000.0, alpha=3.0, min_frequency=0.5),
         _model(50.0, 90.0, mu_max_rps=80.0, d_min_ms=5.0)],
        [0, 1, 2, 1, 0, 2], [80.0, 50.0, 200.0], [300.0, 400.0, 40.0, 0.0, 999.0, 81.0], 0.01,
        lambda m, r, t, x: len({mm.power_model.dynamic_range_w for mm in m}) == 3,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_oracle(case):
    models, rows, targets, rates, tolerance_w, reaches = CASES[case]
    assert reaches(models, rows, targets, rates), case
    _check_batch(models, np.array(rows), targets, np.array(rates), tolerance_w)


def test_unreachable_target_returns_peak_after_one_evaluation():
    model = _model()
    with _counting() as counts:
        assert model.power_for_latency(25.0, 600.0) == 200.0
    assert counts["array"] == 1


def test_stops_on_the_exact_tolerance():
    # hi - lo == tolerance_w after 10 halvings: `>` stops there.
    model = _model(100.0, 356.0)
    with _counting() as counts:
        model.power_for_latency(60.0, 600.0, tolerance_w=0.25)
    assert counts["array"] == 1 + 10


def test_batch_longer_than_a_chunk():
    models = [_model(), _model(0.0, 1000.0, alpha=3.0), _model(10.0, 30.0, mu_max_rps=50.0)]
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 3, 50)
    rates = rng.uniform(0.0, 1.1, 50) * np.array([m.mu_max_rps for m in models])[rows]
    targets = [70.0, 45.0, 400.0]
    with _chunk(7):
        chunked = _check_batch(models, rows, targets, rates)
    assert _same(chunked, _check_batch(models, rows, targets, rates))


def test_empty_batch():
    powers = powers_for_latency(
        LatencyColumns.of([]), np.array([]), np.array([], dtype=int), np.array([])
    )
    assert powers.shape == (0,)


# ----------------------------------------------------------------------
# Errors: the first bad element, in order, raises what the scalar raises
# ----------------------------------------------------------------------


def _first_oracle_error(models, rows, targets, rates):
    for r, x in zip(rows, rates):
        try:
            oracle.power_for_latency(models[r], targets[r], x)
        except ConfigurationError as error:
            return str(error)
    raise AssertionError("the oracle raised nothing")


@pytest.mark.parametrize(
    "targets, rates",
    [
        ([60.0, 0.0], [100.0, 100.0, 100.0]),
        ([60.0, -5.0], [100.0, 100.0, 100.0]),
        ([60.0, 60.0], [100.0, -1.5, 100.0]),
        ([60.0, 0.0], [100.0, -1.5, 100.0]),
        ([60.0, 0.0], [-2.0, 100.0, 100.0]),
    ],
)
def test_errors_match_the_oracle(targets, rates):
    models = [_model(), _model(0.0, 1000.0)]
    rows = [0, 1, 1]
    with pytest.raises(ConfigurationError) as error:
        powers_for_latency(LatencyColumns.of(models), np.array(targets), np.array(rows), rates)
    assert str(error.value) == _first_oracle_error(models, rows, targets, rates)


def test_scalar_method_raises_as_before():
    model = _model()
    with pytest.raises(ConfigurationError, match="target_ms must be positive"):
        model.power_for_latency(0.0, 100.0)
    with pytest.raises(ConfigurationError, match="arrival_rps must be >= 0, got -1.0"):
        model.power_for_latency(60.0, -1.0)


# ----------------------------------------------------------------------
# Hypothesis: drawn models, rates, targets and tolerances
# ----------------------------------------------------------------------


@st.composite
def latency_models(draw):
    idle = draw(st.floats(0.0, 500.0))
    d_min = draw(st.floats(0.5, 50.0))
    return LatencyModel(
        power_model=ServerPowerModel(idle, idle + draw(st.floats(0.5, 500.0))),
        mu_max_rps=draw(st.floats(1.0, 5000.0)),
        d_min_ms=d_min,
        alpha=draw(st.floats(0.5, 4.0)),
        tail_const_ms_rps=draw(st.floats(10.0, 10000.0)),
        min_frequency=draw(st.floats(0.01, 1.0)),
        saturated_latency_ms=d_min + draw(st.floats(1.0, 5000.0)),
    )


#: Arrival rates as fractions of the model's full-power service rate:
#: idle, loaded, the saturation point and beyond.
RATE_FRACTIONS = st.one_of(
    st.just(0.0), st.floats(0.0, 1.0), st.just(1.0), st.floats(1.0, 2.0)
)


@st.composite
def elements(draw, model):
    """One ``(target, rate)`` for ``model``, the target drawn by region."""
    rate = model.mu_max_rps * draw(RATE_FRACTIONS)
    power = model.power_model
    kind = draw(st.sampled_from(["free", "unreachable", "at-peak", "met-at-idle", "lattice"]))
    if kind == "free":
        target = draw(st.floats(0.1, 3000.0))
    elif kind == "unreachable":
        target = model.latency_ms(power.peak_w, rate) * draw(st.floats(0.5, 0.999999))
    elif kind == "at-peak":
        target = model.latency_ms(power.peak_w, rate)
    elif kind == "met-at-idle":
        target = model.latency_ms(power.idle_w, rate) * draw(st.floats(1.0, 2.0))
    else:
        k = draw(st.integers(1, 20))
        point = _lattice(model, k, draw(st.integers(1, 2**k - 1)))
        target = model.latency_ms(point, rate)
        target = draw(st.sampled_from([target, np.nextafter(target, 0.0), np.nextafter(target, 1e9)]))
    return float(target), rate


TOLERANCES = st.one_of(st.just(0.01), st.floats(1e-4, 5.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), tolerance_w=TOLERANCES, chunk=st.sampled_from([1, 3, 1 << 16]))
def test_bisection_matches_oracle(data, tolerance_w, chunk):
    # One row per element: every element has its own target.
    models = data.draw(st.lists(latency_models(), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=12))
    batch = [models[i] for i in picks]
    drawn = [data.draw(elements(model)) for model in batch]
    targets = [target for target, _ in drawn]
    rates = np.array([rate for _, rate in drawn])
    with _chunk(chunk):
        _check_batch(batch, np.arange(len(batch)), targets, rates, tolerance_w)


@settings(max_examples=60, deadline=None)
@given(
    models=st.lists(latency_models(), min_size=1, max_size=4),
    data=st.data(),
)
def test_shared_rows_match_oracle(models, data):
    # The desired-power layout: many rates per model, one target each.
    targets = [data.draw(st.floats(0.1, 3000.0)) for _ in models]
    rows = data.draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=30))
    rates = np.array([models[r].mu_max_rps * data.draw(RATE_FRACTIONS) for r in rows])
    _check_batch(models, np.array(rows), targets, rates)


@settings(max_examples=100, deadline=None)
@given(
    models=st.lists(latency_models(), min_size=1, max_size=4),
    data=st.data(),
)
def test_array_latencies_match_scalar_per_element(models, data):
    # The arithmetic the bisection and the value curves share, including
    # the budgets where min() and max() tie or see NaN.
    rows = data.draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=20))
    budgets = []
    for r in rows:
        power = models[r].power_model
        budgets.append(
            data.draw(
                st.one_of(
                    st.floats(power.idle_w - 50.0, power.peak_w + 50.0),
                    st.sampled_from([power.idle_w, power.peak_w, -0.0, 0.0, float("nan")]),
                )
            )
        )
    rates = [models[r].mu_max_rps * data.draw(RATE_FRACTIONS) for r in rows]
    columns = LatencyColumns.of(models).take(np.array(rows))
    assert _same(
        columns.frequencies(np.array(budgets)),
        [models[r].frequency(p) for r, p in zip(rows, budgets)],
    )
    assert _same(
        columns.latencies_ms(np.array(budgets), np.array(rates)),
        [models[r].latency_ms(p, x) for r, p, x in zip(rows, budgets, rates)],
    )


def test_array_latencies_match_scalar_on_a_grid():
    # Generic exponents: np.power differs from Python's pow in the last
    # ulp on about one budget in twenty here.
    models = [_model(alpha=2.0), _model(0.0, 1000.0, alpha=2.5), _model(alpha=3.0)]
    rows = np.arange(3 * 1001) % 3
    budgets = np.concatenate([np.linspace(90.0, 210.0, 1001)] * 3)
    budgets[rows == 1] *= 5.0
    for fraction in (0.0, 0.5, 0.95):
        rates = fraction * np.array([m.mu_max_rps for m in models])[rows]
        columns = LatencyColumns.of(models).take(rows)
        assert _same(
            columns.latencies_ms(budgets, rates),
            [models[r].latency_ms(p, x) for r, p, x in zip(rows, budgets.tolist(), rates.tolist())],
        )


def test_nan_budget_takes_full_frequency_like_the_scalar():
    model = _model(min_frequency=0.3)
    assert model.frequency(float("nan")) == 1.0
    assert _same(model.frequencies(np.array([float("nan"), -0.0])), [1.0, 0.3])


# ----------------------------------------------------------------------
# Reference rates: the 50-step lockstep vs the rate-at-a-time oracle
# ----------------------------------------------------------------------


class _Trace:
    def generate(self, slots, rng):
        return rng.uniform(0.0, 500.0, slots)


@settings(max_examples=25, deadline=None)
@given(
    models=st.lists(latency_models(), min_size=1, max_size=3),
    data=st.data(),
)
def test_reference_rates_match_oracle(models, data):
    workloads = [
        InteractiveWorkload(
            f"w{i}", model, _Trace(), slo_ms=data.draw(st.floats(1.0, 3000.0))
        )
        for i, model in enumerate(models)
    ]
    power_targets = [
        model.power_model.idle_w + model.power_model.dynamic_range_w * data.draw(st.floats(-0.1, 1.1))
        for model in models
    ]
    assert _same(
        _reference_rates(workloads, power_targets),
        [oracle.reference_rate(w, p) for w, p in zip(workloads, power_targets)],
    )


def test_scenario_reference_rates_match_oracle():
    scenario = scaled_scenario(groups=2, seed=11)
    racks = [
        rack
        for tenant in scenario.tenants
        for rack in tenant.racks
        if isinstance(rack.workload, InteractiveWorkload)
    ]
    powers = [rack.guaranteed_w + 0.5 * rack.useful_spot_w for rack in racks]
    workloads = [rack.workload for rack in racks]
    assert len(workloads) == 6
    assert _same(
        _reference_rates(workloads, powers),
        [oracle.reference_rate(w, p) for w, p in zip(workloads, powers)],
    )


# ----------------------------------------------------------------------
# Desired power: one fill for the whole scenario, or per workload
# ----------------------------------------------------------------------


def _latency_workloads(scenario):
    return [
        rack.workload
        for tenant in scenario.tenants
        for rack in tenant.racks
        if isinstance(rack.workload, (InteractiveWorkload, TierWorkload))
    ]


def _assert_desired_matches_oracle(workload):
    assert not workload._desired.flags.writeable
    assert _same(
        workload._desired,
        [
            oracle.power_for_latency(workload.latency_model, workload.target_ms, r)
            for r in workload._rates.tolist()
        ],
    )


def test_testbed_desired_power_matches_oracle():
    scenario = build_testbed(seed=5)
    scenario.prepare(240)
    workloads = _latency_workloads(scenario)
    assert len(workloads) == 3
    for workload in workloads:
        _assert_desired_matches_oracle(workload)


def test_tiered_desired_power_matches_oracle():
    from repro.sim.builder import ScenarioBuilder

    scenario = (
        ScenarioBuilder(seed=9)
        .add_pdu("row", oversubscription=1.05)
        .add_search_tenant("search", 140.0, "row")
        .add_tiered_tenant("shop", [(140.0, "row"), (110.0, "row")])
        .build()
    )
    scenario.prepare(120)
    workloads = _latency_workloads(scenario)
    assert sum(isinstance(w, TierWorkload) for w in workloads) == 2
    for workload in workloads:
        _assert_desired_matches_oracle(workload)


def test_prepare_alone_fills_its_own_series():
    workload = InteractiveWorkload("solo", _model(), _Trace(), slo_ms=100.0)
    workload.prepare(50, np.random.default_rng(3))
    _assert_desired_matches_oracle(workload)


def test_batched_block_fills_at_its_end_in_one_call(monkeypatch):
    import repro.workloads.base as base

    calls = []
    fill = base.fill_desired_power
    monkeypatch.setattr(base, "fill_desired_power", lambda ws: calls.append(len(ws)) or fill(ws))
    first = InteractiveWorkload("a", _model(), _Trace(), slo_ms=100.0)
    second = InteractiveWorkload("b", _model(0.0, 1000.0), _Trace(), slo_ms=80.0)
    with batched_desired_power():
        first.prepare(30, np.random.default_rng(1))
        second.prepare(20, np.random.default_rng(2))
        assert first._desired is None and second._desired is None
    assert calls == [2]
    _assert_desired_matches_oracle(first)
    _assert_desired_matches_oracle(second)


def test_batched_block_left_by_an_exception_fills_nothing():
    workload = InteractiveWorkload("a", _model(), _Trace(), slo_ms=100.0)
    with pytest.raises(RuntimeError), batched_desired_power():
        workload.prepare(30, np.random.default_rng(1))
        raise RuntimeError
    assert workload._desired is None
    fill_desired_power([workload])
    _assert_desired_matches_oracle(workload)


def test_set_up_runs_no_scalar_latency(monkeypatch):
    # Set-up's bisections are array bisections: building a 200-rack
    # facility and preparing it calls the scalar latency not once, and
    # begin_run fills every desired-power series in one call.
    import repro.workloads.base as base

    scalar_calls, fills = [], []
    scalar = LatencyModel.latency_ms
    monkeypatch.setattr(
        LatencyModel, "latency_ms", lambda *a: scalar_calls.append(a) or scalar(*a)
    )
    fill = base.fill_desired_power
    monkeypatch.setattr(base, "fill_desired_power", lambda ws: fills.append(len(ws)) or fill(ws))
    engine = SimulationEngine(scaled_scenario(groups=20))
    engine.begin_run(60)
    assert scalar_calls == []
    assert fills == [60]
