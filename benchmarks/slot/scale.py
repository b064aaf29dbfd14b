"""The ``--scale`` diagnostic: one traced market slot from 10^3 to 10^6 racks.

Runs the ``market-*-steady`` workload (1% of bundles changed per slot,
every bundle sent as fresh objects) traced at four fleet sizes, writes
each layer's self time per slot to ``results/scale.json``, and reports
the largest fleet whose ``allocate`` median fits the clearing budget of
a 60 s slot (``repro.recovery.deadline.default_budget_s``).  It is a
diagnostic outside the benchmark contract: one run per size, few slots,
wall-clock times.  The 10^6-rack fleet needs about 1.7 GB of memory.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics

import tracing
from workloads import SLOT_SECONDS, Context, market_episode

#: (racks, timed slots) per fleet size.
SIZES = ((1_000, 5), (10_000, 5), (100_000, 5), (1_000_000, 3))


def main(seed: int, workdir, out_path, meta: dict) -> int:
    from repro.recovery.deadline import default_budget_s

    budget_s = default_budget_s(SLOT_SECONDS)
    rows = []
    for racks, slots in SIZES:
        recorder = tracing.SpanRecorder(span_cap=0)
        uninstall = tracing.install(recorder)
        try:
            episode = market_episode(
                f"market-{racks}-steady",
                racks,
                slots,
                False,
                Context(seed=seed, smoke=False, workdir=workdir, recorder=recorder),
            )
        finally:
            uninstall()
        p50_s = statistics.median(episode.slots.raw)
        row = {
            "racks": racks,
            "slots": slots,
            "setup_s": episode.setup.raw[0],
            "allocate_p50_s": p50_s,
            "fits_budget": p50_s <= budget_s,
            "self_ms_per_slot": {
                name: recorder.self_s[name] * 1e3 / slots for name in sorted(recorder.self_s)
            },
            "calls_per_slot": {
                name: recorder.calls[name] / slots for name in sorted(recorder.calls)
            },
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        rows.append(row)
        print(f"{racks:>9} racks: allocate p50 {p50_s * 1e3:10.1f} ms, setup "
              f"{row['setup_s']:.2f} s, peak RSS {row['peak_rss_mb']:.0f} MB")
        for name, ms in sorted(row["self_ms_per_slot"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<40} {ms:10.2f} ms/slot")
        del episode, recorder
        gc.collect()
    fitting = [r["racks"] for r in rows if r["fits_budget"]]
    largest = max(fitting) if fitting else None
    print(f"largest fleet whose allocate p50 fits the {budget_s:g} s budget: {largest} racks")
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(
        json.dumps(
            {
                "benchmark": "slot-scale",
                "budget_s": budget_s,
                "largest_fitting_racks": largest,
                "sizes": rows,
                "provenance": meta,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"results: {out_path}")
    return 0
