"""Atomic JSON checkpoints for long-running selections.

A budgeted selection over a live optimizer can run for hours; a crash
must not discard the accumulated sample.  The selector snapshots its
complete round state (estimators, sampler shuffles, stratification,
RNG state, loop counters) between rounds; this module owns the file
format and the crash-safe publish.

Writes follow the same pattern as :mod:`repro.experiments.cache`:
serialize to a temp file in the destination directory, then
``os.replace`` — a reader (including a resuming run) sees either the
previous complete checkpoint or the new complete one, never a torn
write.

The RNG state is the PCG64 ``bit_generator.state`` dict, which is
JSON-serializable and restores the generator exactly; Python floats
round-trip bit-exactly through ``json`` (shortest-repr encoding), so
a resumed run continues on identical floats.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

import numpy as np

__all__ = [
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "rng_state",
    "restore_rng",
]

#: Bumped whenever a payload written by an older build could not
#: resume bit-identically (2: the selector's option set shrank, and
#: ``eliminated`` drops a rival that rejoined the active set).
CHECKPOINT_VERSION = 2


def save_checkpoint(path: str, payload: dict) -> None:
    """Atomically publish a checkpoint payload as JSON."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("version", CHECKPOINT_VERSION)
    fd, tmp_name = tempfile.mkstemp(
        dir=directory,
        prefix=os.path.basename(path) + "_",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=float)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> Optional[dict]:
    """Load a checkpoint, or ``None`` when the file does not exist.

    Raises ``ValueError`` on unreadable/incompatible payloads — a
    corrupt checkpoint should be surfaced, not silently restarted
    over.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} has version {version!r}, this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    return payload


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable exact state of a NumPy generator."""
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Restore a generator to a previously captured exact state."""
    expected = rng.bit_generator.state.get("bit_generator")
    recorded = state.get("bit_generator")
    if recorded != expected:
        raise ValueError(
            f"checkpoint RNG is {recorded!r}, this run uses "
            f"{expected!r}"
        )
    rng.bit_generator.state = state
