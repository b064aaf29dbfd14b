"""Time-slotted simulation: scenarios (Table I and scaled variants), the
engine running Algorithm 1, metrics collection, and result summaries.
"""

from repro.resilience.faults import FaultLog
from repro.sim.builder import ScenarioBuilder
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.metrics import MetricsCollector
from repro.sim.results import RackInfo, SimulationResult, TenantInfo
from repro.sim.scenario import (
    PRICE_ANCHORS,
    TABLE1_SPECS,
    Scenario,
    TenantSpec,
    scaled_scenario,
    testbed_scenario,
)

__all__ = [
    "MetricsCollector",
    "PRICE_ANCHORS",
    "RackInfo",
    "FaultLog",
    "Scenario",
    "ScenarioBuilder",
    "SimulationEngine",
    "SimulationResult",
    "TABLE1_SPECS",
    "TenantInfo",
    "TenantSpec",
    "run_simulation",
    "scaled_scenario",
    "testbed_scenario",
]
