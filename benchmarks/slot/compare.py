#!/usr/bin/env python3
"""Compare slot-benchmark results of two commits.

    python3 benchmarks/slot/compare.py PARENT_DIR CHANGE_DIR

Each directory holds results files written by ``run.py`` (untraced runs
of the same run length; traced and smoke runs are ignored).  Runs are paired in
file-name (time) order: run the two commits alternately, parent first in
one pair and change first in the next.  One row per (workload, metric):

* **better**: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* **worse**: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* **unresolved**: either side's interquartile range, as a share of its
  median, is wider than the bound, unless every change run beats every
  parent run;
* **unchanged**: otherwise.

Metrics without a bound (the daemon's latency and disk metrics) are
printed as ``diagnostic``.  A rise in ``error_rate``, a failed run or a
digest that differs between the two sides for the same workload and
seed is flagged.  The exit code is 1 when any row is worse or flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced, full-size results records by workload, in file-name order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if (
            isinstance(record, dict)
            and record.get("benchmark") == "slot"
            and not record["trace"]
            and not record["smoke"]
        ):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float | None, higher: bool) -> str:
    """The comparison rule of the module docstring, for one metric."""

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    if bound is None:
        return "diagnostic"
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    separated = all(better(c, p) for c in change for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and better(cm, pm)
        and abs(cm - pm) > p3 - p1
        and (spread <= bound or separated)
    ):
        return "better"
    worsening = (pm - cm if higher else cm - pm) / pm if pm else 0.0
    if spread > bound:
        all_worse = all(better(p, c) for c in change for p in parent)
        return "worse" if all_worse and worsening > bound else "unresolved"
    return "worse" if worsening > bound else "unchanged"


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"] == "higher") for m in spec["end_to_end"]}
    parent, change = load(parent_dir), load(change_dir)
    status = 0
    print(f"{'workload':<20} {'metric':<14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>7}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:<20} missing on the {'change' if p_runs else 'parent'} side: FLAG")
            status = 1
            continue
        names = [n for n in p_runs[0]["metrics"] if n != "error_rate"]
        for name in names:
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                continue
            bound, higher = bounds.get(name, (None, False))
            result = verdict(p, c, bound, higher)
            status |= result == "worse"
            p1, pm, p3 = _quartiles(p)
            c1, cm, c3 = _quartiles(c)
            wins = sum((x > y) if higher else (x < y) for y, x in zip(p, c))
            delta = (cm - pm) / pm if pm else 0.0
            print(f"{workload:<20} {name:<14} {pm:>12.5g} [{p1:>9.5g}, {p3:>9.5g}] "
                  f"{cm:>12.5g} [{c1:>9.5g}, {c3:>9.5g}] {delta:>+8.2%} "
                  f"{wins:>3}/{min(len(p), len(c)):<3}  {result}")
        for flag in _flags(p_runs, c_runs):
            print(f"{workload:<20} FLAG: {flag}")
            status = 1
    return status


def _flags(p_runs: list[dict], c_runs: list[dict]) -> list[str]:
    flags = []
    p_err = max(r["metrics"]["error_rate"]["value"] for r in p_runs)
    c_err = max(r["metrics"]["error_rate"]["value"] for r in c_runs)
    if c_err > p_err:
        flags.append(f"error_rate rose from {p_err:.4g} to {c_err:.4g}")
    failed = sum(not r["correct"] for r in c_runs)
    if failed:
        flags.append(f"{failed} change run(s) failed their digest check")
    digests = {}
    for side, runs in (("parent", p_runs), ("change", c_runs)):
        for r in runs:
            digests.setdefault((r["seed"], r["smoke"]), {}).setdefault(side, set()).add(r["digest"])
    for (seed, _), sides in sorted(digests.items()):
        if len(sides) == 2 and sides["parent"] != sides["change"]:
            flags.append(f"digest differs at seed {seed}")
    return flags


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
