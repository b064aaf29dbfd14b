#!/usr/bin/env python3
"""The SpotDC slot benchmark: five workloads through the real slot path.

Run from the repository root (the harness finds ``src/`` itself)::

    python3 benchmarks/slot/run.py                   # every workload, one process each
    python3 benchmarks/slot/run.py --workload testbed --seed 7 --seconds 20
    python3 benchmarks/slot/run.py --trace           # per-layer numbers as well
    python3 benchmarks/slot/run.py --smoke           # tiny sizes, one episode each
    python3 benchmarks/slot/run.py --scale           # 10^3..10^6-rack breakdown

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  Every
run also writes ``benchmarks/slot/results/<timestamp>-<workload>.json``
with all metrics, the output digest and the run's provenance.  The exit
code is 0 only when every digest check passed and no operation failed.

A traced run spends half its time untraced (for ``trace_overhead`` and
the daemon's latency metrics) and half with every layer boundary of
:mod:`tracing` wrapped.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

#: End-to-end metrics only the daemon workload has (results file only).
DAEMON_METRICS = {
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "read_p99_ms": "ms",
    "state_disk_mb": "MB",
}

#: Per-layer metrics besides each boundary's ``.calls`` and ``.self_ms``.
LAYER_EXTRAS = {
    "core.sharding.reuse_ratio": "ratio",
    "core.sharding.dirty_pdus": "1/slot",
    "core.clearing.feasible_ratio": "ratio",
    "core.clearing.candidate_prices": "1/slot",
    "recovery.admission.accept_ratio": "ratio",
    "core.market.racks_bid": "1/slot",
    "core.market.grant_ratio": "ratio",
    "daemon.server.duplicate_ratio": "ratio",
    "daemon.journal.bytes": "B/slot",
    "recovery.checkpoint.bytes": "B/slot",
    "trace_overhead": "ratio",
    **{f"daemon.{name}": unit for name, unit in DAEMON_METRICS.items()},
}


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _shown(path: Path) -> str:
    """``path`` relative to the repository root when it lies inside it."""
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


# -- provenance ---------------------------------------------------------


def _git() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(dirty)


def _filesystem(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        mount = fields[4]
        after = fields[fields.index("-") + 1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, after
    return fstype


def provenance(seed: int, smoke: bool, cpu) -> dict:
    sha, dirty = _git()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "loadavg_before": list(os.getloadavg()),
        "state_dir_fs": _filesystem(WORK),
        "seed": seed,
        "smoke": smoke,
    }


# -- one workload -------------------------------------------------------


def _episodes(workload, ctx, budget_s: float):
    """Run whole episodes while the next one is expected to fit the budget."""
    episodes = []
    start = time.perf_counter()
    while True:
        try:
            episodes.append(workload.episode(ctx))
        except Exception:
            return episodes, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if elapsed * (len(episodes) + 1) / len(episodes) > budget_s:
            return episodes, None


def end_to_end(episodes, rss_mb: float, daemon: bool, scale: str = "ref") -> dict:
    """Every end-to-end metric of an untraced phase: name -> (value, unit).

    Set-up, the slot median and the slot rate are medians over the run's
    episodes, so an episode that ran through a slow phase of the machine
    moves them less; ``slot_p90_ms`` and the daemon's request latencies
    pool every sample of the run.  ``scale`` picks reference-speed
    (``"ref"``) or wall-clock (``"raw"``) times; see :mod:`workloads`.
    """
    def per_episode(fn):
        return statistics.median(fn(e) for e in episodes)

    def pooled(attr):
        return [t for e in episodes for t in getattr(getattr(e, attr), scale)]

    metrics = {
        "setup_s": (per_episode(lambda e: getattr(e.setup, scale)[0]), "s"),
        "slot_p50_ms": (per_episode(lambda e: _percentile(getattr(e.slots, scale), 50)) * 1e3,
                        "ms"),
        "slot_p90_ms": (_percentile(pooled("slots"), 90) * 1e3, "ms"),
        "slots_per_s": (
            per_episode(lambda e: _ratio(len(e.slots.raw), getattr(e.loop, scale)[0])),
            "1/s",
        ),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if daemon:
        acks, reads = pooled("acks"), pooled("reads")
        metrics["ack_p50_ms"] = (_percentile(acks, 50) * 1e3, "ms")
        metrics["ack_p99_ms"] = (_percentile(acks, 99) * 1e3, "ms")
        metrics["read_p99_ms"] = (_percentile(reads, 99) * 1e3, "ms")
        metrics["state_disk_mb"] = (
            statistics.median(e.state_bytes for e in episodes) / 2**20,
            "MB",
        )
    return metrics


def per_layer(untraced, traced, exports: list[dict], daemon: bool) -> dict:
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    from tracing import LAYER_NAMES

    slots = sum(len(e.slots.raw) for e in traced)
    calls, self_s, total_s, counts = {}, {}, {}, {}
    for export in exports:
        for merged, part in (
            (calls, export["calls"]),
            (self_s, export["self_s"]),
            (total_s, export["total_s"]),
            (counts, export["counts"]),
        ):
            for key, value in part.items():
                merged[key] = merged.get(key, 0) + value
    submits = sum(e.submits for e in traced)
    calls["daemon.transport"] = submits
    self_s["daemon.transport"] = sum(e.submit_rtt_s for e in traced) - total_s.get(
        "daemon.server.handle_submit", 0.0
    )
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (_ratio(calls.get(name, 0), slots), "1/slot")
        metrics[f"{name}.self_ms"] = (_ratio(self_s.get(name, 0.0) * 1e3, slots), "ms/slot")
    reused, rebuilt = counts.get("reused_pdus", 0), counts.get("rebuilt_pdus", 0)
    handled = calls.get("daemon.server.handle_submit", 0)
    parsed = calls.get("daemon.protocol.parse_submission", 0)
    traced_slots = [s for e in traced for s in e.slots.ref]
    untraced_slots = [s for e in untraced for s in e.slots.ref]
    values = {
        "core.sharding.reuse_ratio": _ratio(reused, reused + rebuilt),
        "core.sharding.dirty_pdus": _ratio(counts.get("dirty_pdus", 0), slots),
        "core.clearing.feasible_ratio": _ratio(
            counts.get("feasible_prices", 0), counts.get("candidate_prices", 0)
        ),
        "core.clearing.candidate_prices": _ratio(counts.get("candidate_prices", 0), slots),
        "recovery.admission.accept_ratio": _ratio(
            counts.get("bundles_admitted", 0), counts.get("bundles_screened", 0)
        ),
        "core.market.racks_bid": _ratio(counts.get("racks_bid", 0), slots),
        "core.market.grant_ratio": _ratio(
            counts.get("racks_granted", 0), counts.get("racks_bid", 0)
        ),
        "daemon.server.duplicate_ratio": _ratio(handled - parsed, handled),
        "daemon.journal.bytes": _ratio(sum(e.journal_bytes for e in traced), slots),
        "recovery.checkpoint.bytes": _ratio(sum(e.checkpoint_bytes for e in traced), slots),
        "trace_overhead": _ratio(
            _percentile(traced_slots, 50), _percentile(untraced_slots, 50)
        ) - 1.0,
    }
    if daemon and untraced:
        for name, (value, _) in end_to_end(untraced, 0.0, True).items():
            if name in DAEMON_METRICS:
                values[f"daemon.{name}"] = value
    for name, unit in LAYER_EXTRAS.items():
        metrics[name] = (values.get(name, 0.0), unit)
    return metrics


def _expected_digest(path: Path, workload: str, seed: int, smoke: bool) -> str | None:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    for file in files:
        record = _read_json(file)
        if (
            isinstance(record, dict)
            and record.get("workload") == workload
            and record.get("seed") == seed
            and record.get("smoke") == smoke
        ):
            return record.get("digest")
    return None


def check_digests(episodes, workload: str, seed: int, smoke: bool, expect: Path | None):
    """``(digest, how it was checked, ok)`` for a run's episodes.

    Every episode of one seed must hash the same.  The default seed's
    digests are pinned in ``digests.json``; for any seed ``--expect``
    compares against an earlier results file (e.g. the parent commit's).
    """
    seen = {e.digest for e in episodes}
    digest = min(seen) if seen else None
    ok = len(seen) == 1
    how = "episodes agree" if ok else f"episodes disagree ({len(seen)} digests)"
    pinned = _read_json(DIGESTS)
    if seed == pinned["seed"]:
        expected = pinned["smoke" if smoke else "full"].get(workload)
        ok = ok and digest == expected
        how += ", pinned " + ("match" if digest == expected else f"MISMATCH (want {expected})")
    if expect is not None:
        expected = _expected_digest(expect, workload, seed, smoke)
        ok = ok and digest == expected
        how += f", {expect} " + ("match" if digest == expected else f"MISMATCH (want {expected})")
    return digest, how, ok


def _pin(cpus) -> int | None:
    """Pin this process, and so the daemon it may spawn, to one CPU.

    One CPU for everything under test makes the speed probes time the
    CPU the program runs on, the daemon included.
    """
    if len(cpus) < 2:
        return None
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args, spec: dict, seed: int) -> int:
    import tracing
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    budget = 0.0 if args.smoke else float(seconds)
    if args.trace:
        budget /= 2
    allowed = os.sched_getaffinity(0)
    cpu = _pin(allowed)
    meta = provenance(seed, args.smoke, cpu)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed=seed, smoke=args.smoke, workdir=workdir)
    traced, exports = [], []
    recorder = None
    try:
        untraced, error = _episodes(workload, ctx, budget)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace and error is None:
            recorder = tracing.SpanRecorder()
            uninstall = tracing.install(recorder)
            try:
                traced, error = _episodes(workload, dataclasses.replace(ctx, recorder=recorder),
                                          budget)
            finally:
                uninstall()
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    meta["loadavg_after"] = list(os.getloadavg())
    if error is not None:
        print(error, file=sys.stderr)

    episodes = untraced + traced
    if workload.spawns_daemon and untraced:
        rss_mb = statistics.median(e.rss_mb for e in untraced)
    if recorder is not None:
        exports = [recorder.export()] + [e.daemon_trace for e in traced if e.daemon_trace]
    digest, how, digest_ok = check_digests(episodes, workload.name, seed, args.smoke,
                                           args.expect)
    attempted = sum(e.attempted for e in episodes) + (error is not None)
    failed = sum(e.failed for e in episodes) + (error is not None)
    if not digest_ok:
        failed = attempted
    correct = digest_ok and error is None

    e2e = end_to_end(untraced, rss_mb, workload.spawns_daemon) if untraced else {}
    e2e_raw = end_to_end(untraced, rss_mb, workload.spawns_daemon, "raw") if untraced else {}
    e2e["error_rate"] = (_ratio(failed, attempted), "ratio")
    layers = per_layer(untraced, traced, exports, workload.spawns_daemon) if traced else {}

    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    base = RESULTS / f"{stamp}-{workload.name}"
    trace_files = (
        [_shown(p) for p in tracing.write_trace_files(base, exports)]
        if exports
        else []
    )
    record = {
        "benchmark": "slot",
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "slots": {
            "untraced": sum(len(e.slots.raw) for e in untraced),
            "traced": sum(len(e.slots.raw) for e in traced),
        },
        "digest": digest,
        "digest_check": how,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall_clock_metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e_raw.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "trace_files": trace_files,
        "provenance": meta,
    }
    results_path = base.parent / f"{base.name}.json"
    results_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(
        f"{workload.name}: seed {seed}, {len(untraced)} untraced + {len(traced)} traced "
        f"episodes, {record['slots']['untraced']} + {record['slots']['traced']} slots"
    )
    for name, (value, unit) in list(e2e.items()) + list(layers.items()):
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  digest {digest}: {how}")
    print(f"results: {_shown(results_path)}")
    contract = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in contract
                    if m["name"] in values
                },
            }
        )
    )
    return 0 if correct and failed == 0 else 1


# -- every workload -----------------------------------------------------

_TABLE = (
    "setup_s", "slot_p50_ms", "slot_p90_ms", "slots_per_s", "peak_rss_mb",
    *DAEMON_METRICS, "error_rate",
)


def orchestrate(args, spec: dict, seed: int) -> int:
    """Run each workload in a fresh process and print one summary table."""
    status = 0
    rows = []
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        if args.expect is not None:
            cmd += ["--expect", str(args.expect)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        paths = [ln.split(": ", 1)[1] for ln in proc.stdout.splitlines()
                 if ln.startswith("results: ")]
        if paths:
            rows.append(_read_json(ROOT / paths[-1]))
    print()
    print(f"{'workload':<20}" + "".join(f"{name:>15}" for name in _TABLE) + "  digest")
    for record in rows:
        cells = "".join(
            f"{record['metrics'][n]['value']:>15.5g}" if n in record["metrics"] else f"{'-':>15}"
            for n in _TABLE
        )
        verdict = "ok" if record["correct"] else "FAILED"
        print(f"{record['workload']:<20}{cells}  {verdict}")
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also trace every layer boundary and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one episode")
    parser.add_argument("--expect", type=Path,
                        help="results file or directory whose digests this run must match")
    parser.add_argument("--scale", action="store_true",
                        help="traced 10^3..10^6-rack market breakdown into results/scale.json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no {SRC / 'repro'}: run from a full checkout of the repository",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    spec = _read_json(ROOT / "BENCHMARK.json")
    seed = args.seed if args.seed is not None else _read_json(DIGESTS)["seed"]
    if args.scale:
        import scale

        cpu = _pin(os.sched_getaffinity(0))
        return scale.main(seed, WORK, RESULTS / "scale.json", provenance(seed, False, cpu))
    if args.workload is None:
        return orchestrate(args, spec, seed)
    return run_workload(args, spec, seed)


if __name__ == "__main__":
    sys.exit(main())
