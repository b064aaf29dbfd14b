"""Crash-safe persistence for the market daemon.

Two append-only NDJSON files under the daemon's state directory:

* ``bids.jsonl`` — the **write-ahead bid log**: every *accepted*
  submission is appended (and flushed) *before* the client's ack goes
  out.  On resume, replaying accepted entries in file order through the
  same bounded-queue logic rebuilds the pending queues, the shed
  sequence, and the idempotency-key map exactly.
* ``market.jsonl`` — the **market journal**: one record per cleared
  slot (price, grants, payments, sheds), appended and flushed *before*
  the slot's checkpoint is written, plus a final invoices record after
  the run completes.  The journal is the daemon's output of record —
  the crash-safety invariant is that its bytes are identical whether or
  not the process was ever killed.

Why flush-before-ack/checkpoint is enough: a SIGKILL discards
Python-level file buffers but not the OS page cache, so anything
``flush()``-ed survives the process dying at any instant (machine-level
power loss would additionally need ``fsync``; the invariant we pin is
process-kill, the failure the chaos harness injects).

Recovery truncation: after a crash, the journal may hold a partial
trailing line (killed mid-``write``) or records *newer* than the
checkpoint being resumed from (killed after journalling slot ``k+1``
but before its checkpoint).  :meth:`MarketJournal.truncate_to_slot`
drops both; the replayed slots then re-append byte-identical records.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

__all__ = ["BidLog", "MarketJournal", "read_records"]


def _encode(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def read_records(path: str | Path) -> list[dict]:
    """All complete records in an NDJSON file (missing file = empty).

    A torn trailing write — the signature of a process killed
    mid-``write`` — is skipped with a :class:`UserWarning`, whether the
    kill left the partial record unterminated (no final newline) or a
    filesystem truncation cut the record mid-byte while a newline
    survived.  Only the *final* line gets that forgiveness: an
    unparseable line with complete records after it is real corruption,
    not a crash artifact, and still raises.
    """
    path = Path(path)
    if not path.exists():
        return []
    records = []
    data = path.read_text(encoding="utf-8")
    complete, sep, partial = data.rpartition("\n")
    if partial:
        warnings.warn(
            f"{path}: dropping torn trailing record "
            f"({len(partial)} bytes after the last newline)",
            stacklevel=2,
        )
    if not sep:
        return []
    lines = [line for line in complete.split("\n") if line]
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1 and not partial:
                warnings.warn(
                    f"{path}: dropping unparseable final record "
                    f"(torn write: {line[:60]!r}...)",
                    stacklevel=2,
                )
                break
            raise
    return records


class _AppendLog:
    """Append-only NDJSON file with explicit flush-on-append."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Append one record and flush it to the OS (crash-durable)."""
        self._fh.write(_encode(record))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def read(self) -> list[dict]:
        """All complete records currently in the file."""
        return read_records(self.path)

    def _rewrite(self, records: list[dict]) -> None:
        """Atomically replace the file's contents with ``records``."""
        self._fh.close()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(_encode(record))
            fh.flush()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")


class BidLog(_AppendLog):
    """The write-ahead log of accepted submissions (``bids.jsonl``).

    Entries are the canonical stored submission form
    (:func:`repro.daemon.protocol.parse_submission`) wrapped as
    ``{"kind": "accept", **stored}``.  The log is never truncated on
    resume — replay skips entries for already-cleared slots by itself —
    so a resumed daemon keeps appending to the same file.
    """

    def accept(self, stored: dict) -> None:
        """Persist one accepted submission before it is acked."""
        self.append({"kind": "accept", **stored})

    def accepted(self) -> list[dict]:
        """All accepted submissions, in acceptance order."""
        return [r for r in self.read() if r.get("kind") == "accept"]


class MarketJournal(_AppendLog):
    """The per-slot market journal (``market.jsonl``)."""

    def invoices_record(self) -> dict | None:
        """The final invoices record, if the run completed."""
        for record in self.read():
            if record.get("kind") == "invoices":
                return record
        return None

    def truncate_to_slot(self, last_slot: int) -> dict[int, dict]:
        """Drop records newer than ``last_slot`` (and any torn line).

        Called on resume with the checkpoint's last completed slot;
        keeps exactly the records the resumed run will *not* replay and
        returns them by slot.  The invoices record only survives when
        every slot did (a run that checkpointed mid-horizon cannot have
        legitimately finished).
        """
        records = self.read()
        kept = [
            r
            for r in records
            if r.get("kind") == "slot" and r["slot"] <= last_slot
        ]
        self._rewrite(kept)
        return {r["slot"]: r for r in kept}
