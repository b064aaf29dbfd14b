"""The ``daemon-200`` workload's daemon process.

Started by :func:`workloads.daemon_episode`, never by hand::

    python3 daemon_proc.py REPORT GROUPS SEED SLOTS STATE_DIR SOCKET TRACED

It serves one manual-tick run on a unix socket, then writes its peak RSS
and (when ``TRACED`` is 1) its span export to ``REPORT`` as JSON.  The
kernel kills it if the benchmark process dies first, so it never
outlives a run.
"""

from __future__ import annotations

import ctypes
import signal
import sys
from pathlib import Path

PR_SET_PDEATHSIG = 1


def main(argv: list[str]) -> int:
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    report, groups, seed, slots, state_dir, socket_path, traced = argv
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from workloads import serve_daemon

    serve_daemon(
        Path(report), int(groups), int(seed), int(slots), state_dir, socket_path, traced == "1"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
