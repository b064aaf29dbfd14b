"""Smoke tests: the fast example scripts run end to end.

The slower demos (hyperscale, equilibrium) are covered indirectly by the
unit/integration suites for the features they tour.
"""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "operator profit increase" in out
        assert "Search-1" in out

    def test_demand_function_showdown(self):
        out = run_example("demand_function_showdown.py")
        assert "LinearBid" in out and "StepBid" in out and "FullBid" in out

    def test_tenant_bidding_clinic(self):
        out = run_example("tenant_bidding_clinic.py")
        assert "value curve" in out.lower() or "Value curve" in out
        assert "strategies" in out.lower()

    def test_custom_facility(self):
        # The one example that builds through ScenarioBuilder.
        out = run_example("custom_facility.py")
        assert "Facility outcomes" in out
        assert "shop (tiered) performance" in out

    def test_colo_day_in_life(self):
        out = run_example("colo_day_in_life.py")
        assert "Fig. 10" in out
        assert "Fig. 11" in out
