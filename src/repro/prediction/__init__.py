"""Operator-side prediction: next-slot spot capacity."""

from repro.prediction.spot import SpotCapacityForecast, SpotCapacityPredictor

__all__ = [
    "SpotCapacityForecast",
    "SpotCapacityPredictor",
]
