"""The spot-capacity predictor."""

import pytest

from repro.errors import ConfigurationError
from repro.infrastructure.pdu import Pdu
from repro.infrastructure.rack import Rack
from repro.infrastructure.topology import PowerTopology
from repro.infrastructure.ups import Ups
from repro.prediction.spot import SpotCapacityPredictor


def topology():
    topo = PowerTopology.build(
        Ups("u", 260.0),
        [Pdu("p1", 150.0), Pdu("p2", 150.0)],
        [
            Rack("r1", "t1", "p1", 80.0, 120.0),
            Rack("r2", "t2", "p1", 60.0, 90.0),
            Rack("r3", "t3", "p2", 80.0, 120.0),
        ],
    )
    topo.rack("r1").record_power(50.0)
    topo.rack("r2").record_power(40.0)
    topo.rack("r3").record_power(30.0)
    return topo


class TestSpotCapacityPredictor:
    def test_non_requesting_uses_current_draw(self):
        predictor = SpotCapacityPredictor(safety_margin_fraction=0.0)
        forecast = predictor.forecast(topology(), [])
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 90.0)
        assert forecast.pdu_spot_w["p2"] == pytest.approx(150.0 - 30.0)
        assert forecast.ups_spot_w == pytest.approx(260.0 - 120.0)

    def test_requesting_rack_referenced_at_guaranteed(self):
        predictor = SpotCapacityPredictor(safety_margin_fraction=0.0)
        forecast = predictor.forecast(topology(), ["r1"])
        # r1 counts at 80 W instead of its 50 W draw.
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 120.0)

    def test_rack_holding_spot_referenced_at_guaranteed(self):
        topo = topology()
        topo.rack("r2").set_spot_budget(10.0)
        predictor = SpotCapacityPredictor(safety_margin_fraction=0.0)
        forecast = predictor.forecast(topo, [])
        # r2 counts at its 60 W guarantee instead of 40 W draw.
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 110.0)

    def test_under_prediction_scales(self):
        exact = SpotCapacityPredictor(safety_margin_fraction=0.0)
        under = SpotCapacityPredictor(
            under_prediction_factor=0.85, safety_margin_fraction=0.0
        )
        topo = topology()
        f_exact = exact.forecast(topo, [])
        f_under = under.forecast(topo, [])
        assert f_under.ups_spot_w == pytest.approx(0.85 * f_exact.ups_spot_w)
        for pdu_id in f_exact.pdu_spot_w:
            assert f_under.pdu_spot_w[pdu_id] == pytest.approx(
                0.85 * f_exact.pdu_spot_w[pdu_id]
            )

    def test_safety_margin_reserves_capacity(self):
        margin = SpotCapacityPredictor(safety_margin_fraction=0.1)
        forecast = margin.forecast(topology(), [])
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 * 0.9 - 90.0)

    def test_reference_override_clamped_at_guaranteed(self):
        predictor = SpotCapacityPredictor(safety_margin_fraction=0.0)
        forecast = predictor.forecast(
            topology(), [], reference_power_w={"r1": 1000.0, "r2": 45.0}
        )
        # r1 clamps to its 80 W guarantee; r2 uses the 45 W override.
        assert forecast.pdu_spot_w["p1"] == pytest.approx(150.0 - 125.0)

    def test_never_negative(self):
        topo = topology()
        predictor = SpotCapacityPredictor()
        forecast = predictor.forecast(topo, ["r1", "r2", "r3"])
        assert forecast.ups_spot_w >= 0.0
        assert all(v >= 0.0 for v in forecast.pdu_spot_w.values())

    def test_unknown_requesting_rack_rejected(self):
        with pytest.raises(ConfigurationError):
            SpotCapacityPredictor().forecast(topology(), ["ghost"])

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SpotCapacityPredictor(under_prediction_factor=0.0)
        with pytest.raises(ConfigurationError):
            SpotCapacityPredictor(safety_margin_fraction=1.0)
