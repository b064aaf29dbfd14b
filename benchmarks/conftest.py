"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures, prints
the paper-style rows, and archives them under ``benchmarks/results/`` so
EXPERIMENTS.md can reference the latest reproduction output.  Smoke runs
(``BENCH_SMOKE=1``) archive into the git-ignored
``benchmarks/results/smoke/`` instead, so they never overwrite the
committed full-size archives.
"""

import os
import pathlib
import sys

import pytest

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
RESULTS_DIR = pathlib.Path(__file__).parent / "results" / ("smoke" if SMOKE else "")

# Benchmarks that time a reference implementation import it from the
# ``tests`` package (``tests/oracle.py``), which lives at the repo root.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


@pytest.fixture
def archive():
    """Persist a figure's rendered text and echo it to stdout."""

    def _archive(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _archive
