#!/usr/bin/env python3
"""Build your own facility: the ScenarioBuilder tour.

Composes a three-PDU facility with a tiered web shop (bundled
multi-rack bidding, paper Fig. 4), classic sprinting/opportunistic
tenants, phase-balance constraints, random communication faults, and an
enforcement policy — then runs the market and prints the invoices.

Run:
    python examples/custom_facility.py
"""

from repro import PowerCappedAllocator, run_simulation
from repro.analysis import format_kv
from repro.config import make_rng
from repro.economics.settlement import build_all_invoices, reconcile, render_invoices
from repro.infrastructure.constraints import PhaseAssignment
from repro.infrastructure.enforcement import EnforcementPolicy
from repro.resilience import BernoulliLoss, FaultInjector
from repro.sim import ScenarioBuilder
from repro.sim.engine import SimulationEngine

SLOTS = 900  # 30 simulated hours at 2-minute slots


def build():
    return (
        ScenarioBuilder(seed=11)
        .add_pdu("row-a", oversubscription=1.05)
        .add_pdu("row-b", oversubscription=1.05)
        .add_pdu("row-c", oversubscription=1.05)
        # A two-tier web shop spanning two rows (bundled Fig. 4 bidding).
        .add_tiered_tenant("shop", [(150.0, "row-a"), (120.0, "row-b")])
        .add_search_tenant("search", 145.0, "row-a")
        .add_wordcount_tenant("count", 125.0, "row-b")
        .add_terasort_tenant("sort", 125.0, "row-c")
        .add_graph_tenant("graph", 115.0, "row-c")
        .add_other_group("colo-a", 250.0, "row-a")
        .add_other_group("colo-b", 220.0, "row-b")
        .add_other_group("colo-c", 260.0, "row-c")
        .build()
    )


def main() -> None:
    scenario = build()
    phases = PhaseAssignment(scenario.topology)
    engine = SimulationEngine(
        scenario,
        constraint_provider=lambda: phases.phase_headroom(
            imbalance_tolerance=0.25
        ),
        fault_model=FaultInjector(
            sources=(BernoulliLoss("bid", 0.02), BernoulliLoss("grant", 0.02)),
            rng=make_rng(99),
        ),
        enforcement=EnforcementPolicy(),
    )
    print(f"Simulating {SLOTS} slots of a custom three-row facility...")
    result = engine.run(SLOTS)
    baseline = run_simulation(
        build(), SLOTS, allocator=PowerCappedAllocator()
    )

    reconcile(result)  # the books must balance, faults and all
    print()
    print(render_invoices(build_all_invoices(result)))
    print()
    print(
        format_kv(
            {
                "operator profit increase": (
                    f"+{100 * result.operator_profit_increase_vs(baseline):.2f}%"
                ),
                "shop (tiered) performance": (
                    f"x{result.tenant_performance_improvement_vs(baseline, 'shop'):.2f}"
                ),
                "shop SLO violation rate": (
                    f"{100 * result.tenant_slo_violation_rate('shop'):.1f}% "
                    f"(PowerCapped: "
                    f"{100 * baseline.tenant_slo_violation_rate('shop'):.1f}%)"
                ),
                "lost bids / lost grants": (
                    f"{engine.fault_model.log.lost_bids} / "
                    f"{engine.fault_model.log.lost_grants}"
                ),
                "emergencies": result.emergencies.count(),
            },
            title="Facility outcomes",
        )
    )


if __name__ == "__main__":
    main()
