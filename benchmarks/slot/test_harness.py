"""Self-tests of the slot benchmark harness.

Run with ``python -m pytest benchmarks/slot -q`` from the repository
root.  They check the harness, not the market: smoke runs print every
metric ``BENCHMARK.json`` promises, a perturbed program fails its digest
check, traced spans nest, tracing leaves the daemon's journal unchanged,
and the comparison rule gives the verdicts it documents.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import compare
import run
import tracing

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    return tmp_path


def _nesting_problems(spans) -> list[str]:
    """Spans whose direct children cover more time than the span itself."""
    by_id = {s["id"]: s for s in spans}
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] in by_id:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    return [
        f"{by_id[sid]['name']}#{sid}: children {child:.9f} s"
        for sid, child in covered.items()
        if child > by_id[sid]["end_s"] - by_id[sid]["start_s"] + 1e-9
    ]


def _record(results_dir, workload):
    (path,) = results_dir.glob(f"*-{workload}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    from workloads import WORKLOADS

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_names = [f"{n}.{kind}" for n in tracing.LAYER_NAMES for kind in ("calls", "self_ms")]
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names + list(run.LAYER_EXTRAS)
    assert {m["name"] for m in SPEC["end_to_end"]} <= {
        "setup_s", "slot_p50_ms", "slot_p90_ms", "slots_per_s", "peak_rss_mb"
    }
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_prints_every_metric_for_every_workload():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30, f"smoke pass took {elapsed:.1f} s"
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == len(SPEC["workloads"])
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_price_perturbation_fails_the_digest_check(results_dir, monkeypatch, capsys):
    from repro.core.clearing import MarketClearing

    clear = MarketClearing.clear_per_pdu

    def perturbed(self, *args, **kwargs):
        result = clear(self, *args, **kwargs)
        return dataclasses.replace(result, price=result.price * (1 + 1e-9))

    monkeypatch.setattr(MarketClearing, "clear_per_pdu", perturbed)
    status = run.main(["--workload", "testbed", "--smoke"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert not last["correct"] and last["failed"] == last["attempted"]
    assert "MISMATCH" in _record(results_dir, "testbed")["digest_check"]


def test_traced_spans_nest_inside_their_parents(results_dir, capsys):
    assert run.main(["--workload", "scaled-1k", "--smoke", "--trace", "1"]) == 0
    record = _record(results_dir, "scaled-1k")
    assert record["correct"] and record["episodes"]["traced"] >= 1
    spans = [json.loads(ln) for ln in
             (run.ROOT / record["trace_files"][0]).read_text().splitlines()]
    assert spans and {s["pid"] for s in spans} == {spans[0]["pid"]}
    assert _nesting_problems(spans) == []
    layers = record["per_layer"]
    assert all(layers[f"{n}.self_ms"]["value"] >= 0 for n in tracing.LAYER_NAMES[:-1])
    assert layers["tenants.make_bid.calls"]["value"] > 0
    assert "trace_overhead" in layers


def test_tracing_leaves_the_daemon_journal_unchanged(results_dir, capsys):
    assert run.main(["--workload", "daemon-200", "--smoke", "--trace", "1"]) == 0
    record = _record(results_dir, "daemon-200")
    assert record["episodes"] == {"untraced": 1, "traced": 1}
    assert record["digest_check"].startswith("episodes agree")
    layers = record["per_layer"]
    assert layers["daemon.server.handle_submit.calls"]["value"] > 0
    assert layers["recovery.checkpoint.save_checkpoint.calls"]["value"] > 0
    assert 0 < layers["daemon.server.duplicate_ratio"]["value"] < 1


def test_runs_nowhere_but_in_a_full_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "slot",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "testbed", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize(
    ("parent", "change", "expected"),
    [
        ([10.0] * 10, [8.0] * 10, "better"),
        ([10.0] * 10, [12.0] * 10, "worse"),
        ([10.0] * 10, [10.1] * 10, "unchanged"),
        ([10.0, 20.0] * 5, [10.5, 19.0] * 5, "unresolved"),
        ([10.0] * 5, [8.0] * 5, "unchanged"),  # too few pairs to claim a gain
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, 0.05, higher=False) == expected
