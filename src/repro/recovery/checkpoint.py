"""Versioned, atomic checkpoints of the simulation engine's slot loop.

A checkpoint captures *everything* the next slot depends on — RNG
streams, tenant/workload/portfolio state, enforcement warning memory,
degradation-controller and fault-injector state, telemetry counters and
the trace cursor.  Restoring it and replaying the remaining slots must
be indistinguishable from never having crashed: the recovery invariant
is byte-identical traces and an equal :class:`SimulationResult`.

Each kind of engine state has one home in the checkpoint directory
(``docs/resilience.md`` §5.1), so a checkpoint's cost does not grow with
the scenario's size or the run's length.  The *run inputs* go to
``inputs_<digest>.pkl`` once per run: their holders name them in
``run_inputs`` and leave them out of their pickles, and
:func:`load_checkpoint` re-attaches them by rack and tenant id.  The
per-slot *history* of the metrics collector and the power monitor goes
to one append-only segment, ``history_<digest>.seg``: each checkpoint
appends the slots since the previous one and records the segment's
length and chained digest, a load reads exactly that prefix, and the
next save cuts off whatever follows it.  ``checkpoint_<slot>.pkl`` holds
the *live* state; with telemetry on it keeps the ``RunTrace`` spans,
and it keeps the fault, emergency and degradation logs, which grow per
event, not per slot.  Derived caches (the frame builder's frame,
tenants' value curves) are not written; the restored run rebuilds them
bit for bit.  Only the newest two checkpoint files are kept, so
:func:`load_latest_checkpoint` can fall back when the newest is corrupt;
the envelope it validated is what a resume adopts.

Format & compatibility policy
-----------------------------

The envelope is ``{"magic", "format", "slot", "horizon", "inputs",
"history", "engine"}``.  ``format`` (:data:`CHECKPOINT_FORMAT`) is
bumped on any change to the engine's pickled state layout; there is
**no** cross-version migration — a checkpoint is scoped to the code that
wrote it (it exists to survive a crash, not a deploy), so a version
mismatch raises :class:`~repro.errors.RecoveryError` and the run must
restart from slot 0.  Envelope and inputs writes are atomic (temp file
+ :func:`os.replace`) so a crash *during* checkpointing leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import warnings
from pathlib import Path

import numpy as np

from repro.errors import RecoveryError

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_path",
    "latest_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "save_checkpoint",
]

#: Checkpoint format version; bumped on any engine state-layout change.
#: 2: the engine carries its mid-loop run state (``_run``) so daemon-mode
#: resumes continue inside the slot loop.
#: 3: persistent frame blocks are ``repro.core.frame.PduBlock``, and the
#: engine no longer carries a ``spot_predictor``.
#: 4: frames keep their blocks and no per-PDU slice cache; each block
#: caches its PDU market's price grid.
#: 5: blocks keep only their bids and breakpoints; the builder keeps its
#: last frame and the bids that frame holds; tenants carry their slot's
#: needs (``None`` on disk).
#: 6: run inputs and history live in their own files; the engine pickle
#: carries live state only, and the frame builder starts cold.
#: 7: ``Scenario`` and ``SpotDCAllocator`` lose their shard fields.
CHECKPOINT_FORMAT = 7

_MAGIC = "spotdc-checkpoint"
_NAME_RE = re.compile(r"^checkpoint_(\d{6,})\.pkl$")
#: Checkpoint files kept per directory: the newest and one to fall back on.
_KEEP = 2


@dataclasses.dataclass(frozen=True)
class _Cursor:
    """Where an engine's checkpoints go, and what its history holds."""

    directory: Path
    digest: str  # names the run's inputs and history files
    offset: int  # history bytes the latest checkpoint covers
    chain: bytes  # chained digest of those bytes
    slots: int  # slots of history those bytes hold

    def file(self, kind: str) -> Path:
        suffix = "pkl" if kind == "inputs" else "seg"
        return self.directory / f"{kind}_{self.digest}.{suffix}"


def checkpoint_path(directory: str | Path, slot: int) -> Path:
    """The canonical checkpoint filename for a slot."""
    return Path(directory) / f"checkpoint_{slot:06d}.pkl"


def save_checkpoint(
    engine, directory: str | Path, slot: int, horizon: int
) -> Path:
    """Atomically checkpoint the engine's state after completing ``slot``.

    Writes the run inputs on the engine's first checkpoint into
    ``directory``, appends the history since its previous one, writes
    the live state, and deletes all but the newest two checkpoints.

    Args:
        engine: The :class:`~repro.sim.engine.SimulationEngine`, with
            every slot up to and including ``slot`` fully processed.
        directory: Checkpoint directory (created if missing).
        slot: Last completed slot; a resume restarts at ``slot + 1``.
        horizon: Total slots of the run, pinned so a resume with a
            different horizon fails loudly instead of silently
            producing a differently-shaped result.

    Returns:
        The path written.

    Raises:
        RecoveryError: If the engine state cannot be pickled (e.g. a
            ``constraint_provider`` lambda closed over live objects).
    """
    directory = Path(directory)
    cursor = engine._checkpoint_cursor
    if cursor is None or cursor.directory != directory:
        directory.mkdir(parents=True, exist_ok=True)
        inputs = _dumps(
            {
                key: {name: getattr(obj, name) for name in obj.run_inputs}
                for key, obj in _input_holders(engine).items()
            }
        )
        cursor = _Cursor(directory, _digest(inputs).hex(), 0, b"", 0)
        _write_atomic(cursor.file("inputs"), inputs)
    cursor = _append_history(engine, cursor)
    envelope = {
        "magic": _MAGIC, "format": CHECKPOINT_FORMAT, "slot": int(slot),
        "horizon": int(horizon), "inputs": cursor.digest,
        "history": (cursor.offset, cursor.chain, cursor.slots), "engine": engine,
    }
    path = checkpoint_path(directory, slot)
    _write_atomic(path, _dumps(envelope))
    engine._checkpoint_cursor = cursor
    names = sorted(
        (int(m.group(1)), m.group(0))
        for m in map(_NAME_RE.match, os.listdir(directory))
        if m is not None
    )
    for _, name in names[:-_KEEP]:
        (directory / name).unlink(missing_ok=True)
    return path


def _dumps(obj) -> bytes:
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise RecoveryError(
            f"engine state is not checkpointable: {exc} (a common cause is "
            "a constraint_provider lambda; use a picklable callable)"
        ) from exc


def _digest(data: bytes, chain: bytes = b"") -> bytes:
    return hashlib.blake2b(chain + data, digest_size=16).digest()


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _input_holders(engine) -> dict:
    """Every object holding run inputs, keyed by what it belongs to."""
    holders = {"engine": engine, "scenario": engine.scenario}
    tenants = list(engine.scenario.tenants)
    while tenants:
        tenant = tenants.pop()
        holders[f"{type(tenant).__name__}:{tenant.tenant_id}"] = tenant
        # Wrappers and composites delegate to the tenants they hold.
        tenants.extend(getattr(tenant, "parts", ()))
        if getattr(tenant, "inner", None) is not None:
            tenants.append(tenant.inner)
        for rack in tenant.racks:
            holders[f"rack:{rack.rack_id}"] = rack
            holders[f"workload:{rack.rack_id}"] = rack.workload
    return {k: v for k, v in holders.items() if getattr(v, "run_inputs", ())}


def _append_history(engine, cursor: _Cursor) -> _Cursor:
    """Write the slots since ``cursor`` at its offset, cutting off any tail."""
    payload = _dumps(
        (
            engine.collector.history_since(cursor.slots),
            engine.monitor.history_since(cursor.slots),
        )
    )
    record = len(payload).to_bytes(8, "little") + payload
    with open(cursor.file("history"), "r+b" if cursor.offset else "wb") as fh:
        fh.seek(cursor.offset)
        fh.truncate()
        fh.write(record)
    return dataclasses.replace(
        cursor,
        offset=cursor.offset + len(record),
        chain=_digest(record, cursor.chain),
        slots=engine.collector.slots,
    )


def _restore(engine, cursor: _Cursor) -> None:
    """Re-attach the run inputs and history a checkpoint's envelope names."""
    try:
        data, history = (cursor.file(k).read_bytes() for k in ("inputs", "history"))
    except OSError as exc:
        raise RecoveryError(f"checkpoint file not readable: {exc}") from exc
    if _digest(data).hex() != cursor.digest:
        raise RecoveryError(f"{cursor.file('inputs')} does not match the envelope's digest")
    inputs = pickle.loads(data)
    for key, obj in _input_holders(engine).items():
        for name in obj.run_inputs:
            value = inputs[key][name]
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            setattr(obj, name, value)
    data = history[: cursor.offset]
    chain, pos, records = b"", 0, []
    while pos < len(data):
        end = pos + 8 + int.from_bytes(data[pos : pos + 8], "little")
        chain = _digest(data[pos:end], chain)
        records.append(data[pos + 8 : end])
        pos = end
    if pos != cursor.offset or chain != cursor.chain:
        raise RecoveryError(f"{cursor.file('history')} does not match the envelope's digest")
    collected, monitored = [], []
    for record in records:
        collector_rows, monitor_rows = pickle.loads(record)
        collected += collector_rows
        monitored += monitor_rows
    engine.collector.extend_history(collected)
    engine.monitor.extend_history(monitored)


def load_checkpoint(path: str | Path) -> dict:
    """Load and validate a checkpoint, its run inputs and its history.

    Returns:
        The envelope dict: ``slot`` (last completed slot), ``horizon``
        (the run length it was written under), and ``engine`` (the
        restored :class:`~repro.sim.engine.SimulationEngine`, with its
        run inputs and history re-attached).

    Raises:
        RecoveryError: If the file is missing, unreadable, not a SpotDC
            checkpoint, or from an incompatible format version, or if
            the inputs file or history segment it names is missing,
            corrupt, or does not match the digest it records.  The
            message names the offending file.
    """
    path = Path(path)
    if not path.exists():
        raise RecoveryError(f"checkpoint not found: {path}")
    try:
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
    except Exception as exc:
        # A truncated or bit-flipped pickle stream can raise nearly
        # anything (EOFError, UnpicklingError, ImportError, KeyError,
        # UnicodeDecodeError, ...); every flavour of corruption must
        # surface as a RecoveryError naming the file, never as a raw
        # pickle traceback.
        raise RecoveryError(f"corrupt checkpoint {path}: {exc!r}") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != _MAGIC:
        raise RecoveryError(f"{path} is not a SpotDC checkpoint")
    version = envelope.get("format")
    if version != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint {path} has format {version}, this build reads "
            f"{CHECKPOINT_FORMAT}; checkpoints do not survive state-layout "
            "changes — restart the run from slot 0"
        )
    keys = ("slot", "horizon", "inputs", "history", "engine")
    missing = [k for k in keys if k not in envelope]
    if missing:
        raise RecoveryError(
            f"corrupt checkpoint {path}: envelope is missing "
            f"{', '.join(missing)}"
        )
    cursor = _Cursor(path.parent, envelope["inputs"], *envelope["history"])
    _restore(envelope["engine"], cursor)
    envelope["engine"]._checkpoint_cursor = cursor
    return envelope


def load_latest_checkpoint(directory: str | Path) -> dict | None:
    """The highest-slot *valid* checkpoint in a directory, or ``None``.

    Only files matching the canonical ``checkpoint_<slot>.pkl`` name are
    considered, so stray temp files from an interrupted write are never
    picked up.  Candidates are validated newest-first (a full
    :func:`load_checkpoint`): a corrupt or truncated file — e.g. one
    damaged by a disk fault after the atomic write — is skipped with a
    :class:`UserWarning` naming it, and the next older checkpoint is
    used instead.  Returns that load's envelope, plus the file's ``path``.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: list[tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _NAME_RE.match(entry.name)
        if match is None:
            continue
        candidates.append((int(match.group(1)), entry))
    for _, path in sorted(candidates, reverse=True):
        try:
            envelope = load_checkpoint(path)
        except RecoveryError as exc:
            warnings.warn(
                f"skipping unusable checkpoint {path}: {exc}",
                stacklevel=2,
            )
            continue
        return {**envelope, "path": path}
    return None


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The path of :func:`load_latest_checkpoint`'s checkpoint, or ``None``."""
    envelope = load_latest_checkpoint(directory)
    return None if envelope is None else envelope["path"]
