"""Versioned, atomic checkpoints of the simulation engine's slot loop.

A checkpoint captures *everything* the next slot depends on — RNG
streams, tenant/workload/portfolio state, enforcement warning memory,
degradation-controller and fault-injector state, telemetry counters and
the trace cursor — by pickling the whole
:class:`~repro.sim.engine.SimulationEngine` inside a small validated
envelope.  Restoring it and replaying the remaining slots must be
indistinguishable from never having crashed: the recovery invariant is
byte-identical traces and an equal :class:`SimulationResult`.

Format & compatibility policy
-----------------------------

The envelope is ``{"magic", "format", "slot", "horizon", "engine"}``.
``format`` (:data:`CHECKPOINT_FORMAT`) is bumped on any change to the
engine's pickled state layout; there is **no** cross-version migration —
a checkpoint is scoped to the code that wrote it (it exists to survive a
crash, not a deploy), so a version mismatch raises
:class:`~repro.errors.RecoveryError` and the run must restart from
slot 0.  Writes are atomic (temp file + :func:`os.replace`) so a crash
*during* checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import os
import pickle
import re
import warnings
from pathlib import Path

from repro.errors import RecoveryError

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_path",
    "latest_checkpoint",
    "load_checkpoint",
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
CHECKPOINT_FORMAT = 5

_MAGIC = "spotdc-checkpoint"
_NAME_RE = re.compile(r"^checkpoint_(\d{6,})\.pkl$")


def checkpoint_path(directory: str | Path, slot: int) -> Path:
    """The canonical checkpoint filename for a slot."""
    return Path(directory) / f"checkpoint_{slot:06d}.pkl"


def save_checkpoint(
    engine, directory: str | Path, slot: int, horizon: int
) -> Path:
    """Atomically write the engine's state after completing ``slot``.

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
    directory.mkdir(parents=True, exist_ok=True)
    envelope = {
        "magic": _MAGIC,
        "format": CHECKPOINT_FORMAT,
        "slot": int(slot),
        "horizon": int(horizon),
        "engine": engine,
    }
    path = checkpoint_path(directory, slot)
    tmp = path.with_suffix(".pkl.tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        tmp.unlink(missing_ok=True)
        raise RecoveryError(
            f"engine state is not checkpointable: {exc} (a common cause is "
            "a constraint_provider lambda; use a picklable callable)"
        ) from exc
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Load and validate a checkpoint envelope.

    Returns:
        The envelope dict: ``slot`` (last completed slot), ``horizon``
        (the run length it was written under), and ``engine`` (the
        restored :class:`~repro.sim.engine.SimulationEngine`).

    Raises:
        RecoveryError: If the file is missing, unreadable, not a SpotDC
            checkpoint, or from an incompatible format version.
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
    missing = [k for k in ("slot", "horizon", "engine") if k not in envelope]
    if missing:
        raise RecoveryError(
            f"corrupt checkpoint {path}: envelope is missing "
            f"{', '.join(missing)}"
        )
    return envelope


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The highest-slot *valid* checkpoint in a directory, or ``None``.

    Only files matching the canonical ``checkpoint_<slot>.pkl`` name are
    considered, so stray temp files from an interrupted write are never
    picked up.  Candidates are validated newest-first (a full
    :func:`load_checkpoint`): a corrupt or truncated file — e.g. one
    damaged by a disk fault after the atomic write — is skipped with a
    :class:`UserWarning` naming it, and the next older checkpoint is
    used instead.
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
            load_checkpoint(path)
        except RecoveryError as exc:
            warnings.warn(
                f"skipping unusable checkpoint {path}: {exc}",
                stacklevel=2,
            )
            continue
        return path
    return None
