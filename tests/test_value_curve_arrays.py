"""Value curves tabulated as arrays vs the point-by-point oracle.

``sprinting_value_curve`` and ``opportunistic_value_curve`` tabulate a
curve in one pass through the array forms of the latency, throughput
and cost models (``LatencyModel.frequencies`` / ``latencies_ms``,
``ThroughputModel.rates_at``, ``SprintingCostModel.cost_rates_per_hour``).
``tests/oracle.py`` keeps the curves as they were written, one scalar
model call per grid point.  Both must agree bit for bit: one changed ulp
moves a fitted bid, and with it every pinned digest.  Each array form
must likewise equal its scalar method element by element.

The explicit cases pin the regions where the scalar formulas branch or
clamp (each case first checks that it really reaches its region); the
Hypothesis properties roam the parameter space around them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economics.cost import OpportunisticCostModel, SprintingCostModel
from repro.economics.valuation import (
    opportunistic_value_curve,
    sprinting_value_curve,
)
from repro.errors import ConfigurationError
from repro.power.latency import LatencyModel
from repro.power.server import ServerPowerModel
from repro.power.throughput import ThroughputModel

from tests import oracle

GRID_POINTS = (1, 7, 100, 256)


def _same(a: np.ndarray, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _assert_same_curve(curve, reference):
    assert curve.base_power_w == reference.base_power_w
    assert curve.max_spot_w == reference.max_spot_w
    assert curve._grid_w.tobytes() == reference._grid_w.tobytes()
    assert curve._gains.tobytes() == reference._gains.tobytes()


# ----------------------------------------------------------------------
# Explicit cases: every branch and clamp of the scalar formulas
# ----------------------------------------------------------------------

SERVER = ServerPowerModel(100.0, 200.0)


def _latency_model(**overrides):
    return LatencyModel(**{"power_model": SERVER, "mu_max_rps": 1000.0, **overrides})


def _unclamped_frequency(model, power_w):
    span = model.power_model.dynamic_range_w
    usable = min(max(power_w - model.power_model.idle_w, 0.0), span)
    return (usable / span) ** (1.0 / model.alpha)


def _budgets(base, max_spot, grid_points):
    return [base + float(d) for d in np.linspace(0.0, max_spot, grid_points + 1)]


#: name -> (model overrides, slo_ms, base_w, arrival_rps, max_spot_w, reaches)
SPRINTING_CASES = {
    "alpha-2": (
        {}, 100.0, 150.0, 600.0, 50.0,
        lambda m, c, p, a: m.alpha == 2.0,
    ),
    "alpha-3": (
        {"alpha": 3.0}, 100.0, 150.0, 600.0, 50.0,
        lambda m, c, p, a: m.alpha == 3.0,
    ),
    "below-idle-and-above-peak": (
        {}, 100.0, 80.0, 600.0, 150.0,
        lambda m, c, p, a: min(p) < m.power_model.idle_w and max(p) > m.power_model.peak_w,
    ),
    "min-frequency-clamp": (
        {"min_frequency": 0.5}, 100.0, 105.0, 300.0, 60.0,
        lambda m, c, p, a: any(_unclamped_frequency(m, x) < m.min_frequency for x in p)
        and any(_unclamped_frequency(m, x) > m.min_frequency for x in p),
    ),
    "saturation": (
        {}, 100.0, 150.0, 900.0, 50.0,
        lambda m, c, p, a: any(a >= m.mu_max_rps * m.frequency(x) for x in p)
        and any(a < m.mu_max_rps * m.frequency(x) for x in p),
    ),
    "slo-crossing": (
        {}, 40.0, 150.0, 600.0, 50.0,
        lambda m, c, p, a: min(m.latency_ms(x, a) for x in p)
        <= c.slo_ms
        < max(m.latency_ms(x, a) for x in p),
    ),
    "arrival-zero": (
        {}, 100.0, 150.0, 0.0, 50.0,
        lambda m, c, p, a: a == 0.0,
    ),
}


@pytest.mark.parametrize("grid_points", GRID_POINTS)
@pytest.mark.parametrize("case", sorted(SPRINTING_CASES))
def test_sprinting_case_matches_oracle(case, grid_points):
    overrides, slo, base, arrival, max_spot, reaches = SPRINTING_CASES[case]
    model = _latency_model(**overrides)
    cost = SprintingCostModel(a=2e-6, b=3e-7, slo_ms=slo)
    budgets = _budgets(base, max_spot, grid_points)
    assert reaches(model, cost, budgets, arrival), case
    curve = sprinting_value_curve(model, cost, base, arrival, max_spot, grid_points)
    reference = oracle.sprinting_value_curve(
        model, cost, base, arrival, max_spot, grid_points
    )
    _assert_same_curve(curve, reference)
    powers = np.asarray(budgets)
    assert _same(model.frequencies(powers), [model.frequency(x) for x in budgets])
    latencies = model.latencies_ms(powers, arrival)
    assert _same(latencies, [model.latency_ms(x, arrival) for x in budgets])
    assert _same(
        cost.cost_rates_per_hour(latencies, arrival),
        [cost.cost_rate_per_hour(x, arrival) for x in latencies.tolist()],
    )


#: name -> (scaling exponent, base_w, backlog, max_spot_w)
OPPORTUNISTIC_CASES = {
    "linear": (1.0, 150.0, 1.0, 50.0),
    "sublinear": (0.6, 150.0, 1.0, 50.0),
    "superlinear": (1.3, 150.0, 1.0, 50.0),
    "from-idle-to-above-peak": (0.8, 100.5, 1.0, 150.0),
    "base-below-idle": (1.0, 90.0, 1.0, 150.0),
    "no-backlog": (1.0, 150.0, 0.0, 50.0),
}


@pytest.mark.parametrize("grid_points", GRID_POINTS)
@pytest.mark.parametrize("case", sorted(OPPORTUNISTIC_CASES))
def test_opportunistic_case_matches_oracle(case, grid_points):
    exponent, base, backlog, max_spot = OPPORTUNISTIC_CASES[case]
    model = ThroughputModel(SERVER, rate_max=50.0, scaling_exponent=exponent)
    cost = OpportunisticCostModel(rho=1e-3)
    curve = opportunistic_value_curve(model, cost, base, backlog, max_spot, grid_points)
    reference = oracle.opportunistic_value_curve(
        model, cost, base, backlog, max_spot, grid_points
    )
    _assert_same_curve(curve, reference)
    budgets = _budgets(base, max_spot, grid_points)
    assert _same(model.rates_at(np.asarray(budgets)), [model.rate_at(x) for x in budgets])


def test_dense_sweeps_match_scalar_methods():
    # Python's ``x ** 2`` and ``x * x`` (or ``np.power``) disagree in the
    # last ulp for about one input in 1,200: only a dense sweep is sure
    # to meet such an input, and the sweeps below meet dozens.
    rng = np.random.default_rng(20180224)
    latencies = rng.uniform(0.0, 2000.0, 20_000)
    cost = SprintingCostModel(a=2e-6, b=3e-7, slo_ms=100.0)
    assert _same(
        cost.cost_rates_per_hour(latencies, 42.0),
        [cost.cost_rate_per_hour(x, 42.0) for x in latencies.tolist()],
    )
    powers = rng.uniform(50.0, 250.0, 20_000)
    model = _latency_model()
    assert _same(
        model.latencies_ms(powers, 600.0), [model.latency_ms(x, 600.0) for x in powers.tolist()]
    )
    throughput = ThroughputModel(SERVER, rate_max=50.0, scaling_exponent=0.7)
    assert _same(throughput.rates_at(powers), [throughput.rate_at(x) for x in powers.tolist()])


def test_signed_zero_budget_matches_scalar_methods():
    # With idle at 0 W, a budget of -0.0 W leaves -0.0 W above idle;
    # max(-0.0, 0.0) keeps -0.0, where np.maximum would return 0.0.
    server = ServerPowerModel(0.0, 10.0)
    powers = [-0.0, 0.0, 5.0]
    throughput = ThroughputModel(server, rate_max=1.0)
    assert _same(throughput.rates_at(np.asarray(powers)), [throughput.rate_at(p) for p in powers])


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@st.composite
def latency_models(draw):
    idle = draw(st.floats(0.0, 200.0))
    span = draw(st.floats(10.0, 400.0))
    d_min = draw(st.floats(1.0, 50.0))
    return LatencyModel(
        power_model=ServerPowerModel(idle, idle + span),
        mu_max_rps=draw(st.floats(1.0, 5000.0)),
        d_min_ms=d_min,
        alpha=draw(st.one_of(st.just(2.0), st.floats(0.5, 4.0))),
        tail_const_ms_rps=draw(st.floats(10.0, 10_000.0)),
        min_frequency=draw(st.floats(0.01, 1.0)),
        saturated_latency_ms=d_min + draw(st.floats(1.0, 5000.0)),
    )


@st.composite
def throughput_models(draw):
    idle = draw(st.floats(0.0, 200.0))
    span = draw(st.floats(10.0, 400.0))
    return ThroughputModel(
        power_model=ServerPowerModel(idle, idle + span),
        rate_max=draw(st.floats(0.1, 1000.0)),
        scaling_exponent=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.5))),
    )


def power_lists(server: ServerPowerModel):
    """Budgets from half a span below idle to half a span above peak."""
    lo = server.idle_w - 0.5 * server.dynamic_range_w
    hi = server.peak_w + 0.5 * server.dynamic_range_w
    point = st.one_of(
        st.floats(lo, hi), st.sampled_from([server.idle_w, server.peak_w])
    )
    return st.lists(point, min_size=1, max_size=40)


def arrivals(model: LatencyModel):
    return st.one_of(st.just(0.0), st.floats(0.0, 1.5 * model.mu_max_rps))


@given(data=st.data(), model=latency_models())
@settings(max_examples=150, deadline=None)
def test_latency_arrays_equal_scalar_methods(data, model):
    powers = data.draw(power_lists(model.power_model))
    arrival = data.draw(arrivals(model))
    assert _same(model.frequencies(np.asarray(powers)), [model.frequency(p) for p in powers])
    assert _same(
        model.latencies_ms(np.asarray(powers), arrival),
        [model.latency_ms(p, arrival) for p in powers],
    )


@given(
    a=st.floats(0.0, 1e-3),
    b=st.floats(0.0, 1e-3),
    slo=st.floats(1.0, 1000.0),
    latencies=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=40),
    rate=st.one_of(st.just(0.0), st.floats(0.0, 10_000.0)),
)
@settings(max_examples=150, deadline=None)
def test_cost_array_equals_scalar_method(a, b, slo, latencies, rate):
    cost = SprintingCostModel(a=a, b=b, slo_ms=slo)
    latencies = latencies + [slo]
    assert _same(
        cost.cost_rates_per_hour(np.asarray(latencies), rate),
        [cost.cost_rate_per_hour(x, rate) for x in latencies],
    )


@given(data=st.data(), model=throughput_models())
@settings(max_examples=150, deadline=None)
def test_rate_array_equals_scalar_method(data, model):
    powers = data.draw(power_lists(model.power_model))
    assert _same(model.rates_at(np.asarray(powers)), [model.rate_at(p) for p in powers])


@given(
    data=st.data(),
    model=latency_models(),
    grid_points=st.sampled_from(GRID_POINTS),
    cross_slo=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_sprinting_curve_equals_oracle(data, model, grid_points, cross_slo):
    server = model.power_model
    base = data.draw(
        st.floats(max(0.0, server.idle_w - 0.5 * server.dynamic_range_w), server.peak_w)
    )
    max_spot = data.draw(st.floats(0.01, 1.5 * server.dynamic_range_w))
    arrival = data.draw(arrivals(model))
    if cross_slo:
        # An SLO between the latencies at both ends of the grid.
        top = model.latency_ms(base + max_spot, arrival)
        bottom = model.latency_ms(base, arrival)
        slo = max(top + data.draw(st.floats(0.0, 1.0)) * (bottom - top), 1e-3)
    else:
        slo = data.draw(st.floats(1.0, 1000.0))
    cost = SprintingCostModel(
        a=data.draw(st.floats(0.0, 1e-4)), b=data.draw(st.floats(0.0, 1e-4)), slo_ms=slo
    )
    _assert_same_curve(
        sprinting_value_curve(model, cost, base, arrival, max_spot, grid_points),
        oracle.sprinting_value_curve(model, cost, base, arrival, max_spot, grid_points),
    )


@given(
    data=st.data(),
    model=throughput_models(),
    grid_points=st.sampled_from(GRID_POINTS),
    backlog=st.sampled_from([0.0, 1.0, 250.0]),
    rho=st.floats(0.0, 1e-2),
)
@settings(max_examples=150, deadline=None)
def test_opportunistic_curve_equals_oracle(data, model, grid_points, backlog, rho):
    server = model.power_model
    base = data.draw(
        st.floats(max(0.0, server.idle_w - 0.5 * server.dynamic_range_w), server.peak_w)
    )
    max_spot = data.draw(st.floats(0.01, 1.5 * server.dynamic_range_w))
    cost = OpportunisticCostModel(rho=rho)
    _assert_same_curve(
        opportunistic_value_curve(model, cost, base, backlog, max_spot, grid_points),
        oracle.opportunistic_value_curve(model, cost, base, backlog, max_spot, grid_points),
    )


# ----------------------------------------------------------------------
# The array forms keep the scalar methods' input checks
# ----------------------------------------------------------------------


def test_negative_arrival_rate_rejected():
    model = _latency_model()
    with pytest.raises(ConfigurationError):
        model.latencies_ms(np.array([150.0]), -1.0)
    with pytest.raises(ConfigurationError):
        sprinting_value_curve(model, SprintingCostModel(a=1e-6, b=1e-6), 150.0, -1.0, 50.0)


def test_cost_array_rejects_what_the_scalar_rejects():
    cost = SprintingCostModel(a=1e-6, b=1e-6)
    with pytest.raises(ConfigurationError):
        cost.cost_rates_per_hour(np.array([50.0, -1.0]), 10.0)
    with pytest.raises(ConfigurationError):
        cost.cost_rates_per_hour(np.array([50.0]), -1.0)
