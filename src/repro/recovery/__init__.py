"""Operator survivability: checkpoint/restore, deadlines, admission.

The paper's operator must clear the market every 1-5 minute slot no
matter what: SpotDC "resumes to the default case of no spot capacity"
on failures (§III-C) and clearing must finish well inside the slot
(Fig. 18).  :mod:`repro.resilience` made the *inputs* faulty; this
package hardens the operator *process* itself, with three legs:

* :mod:`repro.recovery.checkpoint` — versioned, atomic per-slot engine
  checkpoints and their restore path.  The invariant (pinned by
  ``tests/test_recovery.py`` and the chaos sweep) is that a
  crashed-then-resumed run is **byte-identical** to the uninterrupted
  same-seed run: traces, metrics, and the ``SimulationResult``.
* :mod:`repro.recovery.deadline` — a wall-clock budget on the clear
  phase with a graceful fallback ladder: reuse the previous slot's
  clearing price (capacity-rescaled), else degrade to the no-spot
  baseline.
* :mod:`repro.recovery.admission` — the bid-validation front door:
  malformed bids (non-finite values, inverted breakpoints, demand
  beyond the rack's physical headroom) are quarantined with a reason
  and treated exactly like lost bids, never partially admitted.
"""

from repro.recovery.admission import (
    QUARANTINE_REASONS,
    QuarantinedBid,
    dedupe_bundles,
    inspect_rack_bid,
    screen_bids,
)
from repro.recovery.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    load_latest_checkpoint,
    save_checkpoint,
)
from repro.recovery.deadline import (
    ClearingDeadlineGuard,
    ManualClock,
    build_fallback_record,
    default_budget_s,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "ClearingDeadlineGuard",
    "ManualClock",
    "QUARANTINE_REASONS",
    "QuarantinedBid",
    "build_fallback_record",
    "checkpoint_path",
    "dedupe_bundles",
    "default_budget_s",
    "inspect_rack_bid",
    "latest_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "save_checkpoint",
    "screen_bids",
]
