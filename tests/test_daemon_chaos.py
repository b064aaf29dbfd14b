"""Daemon crash-safety: kill it anywhere, resume, get identical output.

The in-process tests drive the machine-checked invariant through
``check_crash_safety`` (CrashFault via kill points).  The subprocess
test delivers a real ``SIGKILL`` to a ``spotdc serve`` process mid-run
and diffs the journal and invoices against an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.daemon.chaos import check_crash_safety, short_socket_path
from repro.resilience import FaultProfile

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCrashSafetyInProcess:
    def test_invariant_holds_across_kill_points(self, tmp_path):
        report = check_crash_safety(
            tmp_path, seed=5, slots=8, crash_slots=(3, 6)
        )
        assert report["restarts"] == 2
        assert report["duplicates"] > 0  # redelivery exercised the keys
        assert report["slots"] == 8

    def test_invariant_holds_under_market_faults(self, tmp_path):
        profile = FaultProfile(
            bid_loss=0.1, duplicate_probability=0.3, seed=3
        )
        report = check_crash_safety(
            tmp_path, seed=7, slots=8, crash_slots=(4,), fault_profile=profile
        )
        assert report["restarts"] == 1
        assert report["duplicates"] > 0

    def test_crash_on_first_market_slot(self, tmp_path):
        report = check_crash_safety(tmp_path, seed=2, slots=6, crash_slots=(1,))
        assert report["restarts"] == 1

    def test_invariant_holds_when_killed_inside_an_event_window(
        self, tmp_path
    ):
        # The kill lands mid-EDR-window: the resumed daemon must replay
        # the remaining window (reserve uplift, release haircut, caps)
        # byte-identically, not just the calm-market slots.
        from repro.events import EdrShock, EventProfile

        profile = EventProfile(
            schedule=(EdrShock(slot=3, duration_slots=5, fraction=0.05),)
        )
        report = check_crash_safety(
            tmp_path,
            seed=5,
            slots=10,
            crash_slots=(4, 6),
            events_profile=profile,
        )
        assert report["restarts"] == 2
        assert report["slots"] == 10


def _spotdc(*argv, check=True, expect=None):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if expect is not None:
        assert proc.returncode == expect, (proc.returncode, proc.stderr)
    elif check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _serve_in_background(state_dir, socket_path, *extra):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--seed", "9", "--slots", "10",
            "--state-dir", str(state_dir),
            "--socket", str(socket_path),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while not os.path.exists(socket_path):
        if proc.poll() is not None:
            raise AssertionError(f"serve died early: {proc.stderr.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("serve never bound its socket")
        time.sleep(0.02)
    return proc


def _submit_auto(socket_path, out_path, expect=0):
    return _spotdc(
        "submit",
        "--socket", str(socket_path),
        "--seed", "9",
        "--auto",
        "--out", str(out_path),
        expect=expect,
    )


class TestCrashSafetySubprocess:
    def test_sigkill_resume_is_byte_identical(self, tmp_path):
        ref_dir = tmp_path / "ref"
        chaos_dir = tmp_path / "chaos"

        # Uninterrupted reference run.
        sock = short_socket_path("ref.sock")
        serve = _serve_in_background(ref_dir, sock)
        _submit_auto(sock, tmp_path / "inv_ref.json")
        out, err = serve.communicate(timeout=60)
        assert serve.returncode == 0, err

        # Chaos run: the daemon SIGKILLs itself mid-slot 5, after the
        # journal append but before the checkpoint — the worst window.
        sock = short_socket_path("chaos.sock")
        serve = _serve_in_background(
            chaos_dir, sock, "--kill-at", "5", "--kill-point", "post_journal"
        )
        client = _submit_auto(sock, tmp_path / "inv_dead.json", expect=3)
        # Depending on when the SIGKILL lands, the client either sees
        # the crashed-tick rejection or the socket simply goes away.
        chatter = client.stderr + client.stdout
        assert "resume" in chatter or "unreachable" in chatter
        serve.wait(timeout=60)
        assert serve.returncode == -signal.SIGKILL or serve.returncode == 137

        # Resume and drive to completion; the client redelivers every
        # bundle, so idempotency absorbs the duplicates.
        sock = short_socket_path("resumed.sock")
        serve = _serve_in_background(chaos_dir, sock, "--resume")
        _submit_auto(sock, tmp_path / "inv_chaos.json")
        out, err = serve.communicate(timeout=60)
        assert serve.returncode == 0, err

        ref_journal = (ref_dir / "market.jsonl").read_bytes()
        chaos_journal = (chaos_dir / "market.jsonl").read_bytes()
        assert ref_journal == chaos_journal

        ref_inv = json.loads((tmp_path / "inv_ref.json").read_text())
        chaos_inv = json.loads((tmp_path / "inv_chaos.json").read_text())
        assert ref_inv == chaos_inv
