"""Checksummed, generational checkpoints for long pipeline runs.

A checkpoint freezes everything a durable run needs to continue after a
crash: the input byte/line offset, the streaming classifier state, the
health counters and the output sink positions (DESIGN.md §8).  The
on-disk format is deliberately paranoid because checkpoints are written
*during* the failure modes they protect against:

* framed payload — engine snapshots' container (:class:`~repro.robustness.atomic.Framing`):
  a checksummed header and a JSON payload, so a torn or bit-flipped
  file is detected rather than decoded, and a hand-edited one runs no code;
* atomic replace — each generation is written via temp + fsync +
  rename, so a crash mid-write cannot damage an existing generation;
* N retained generations — :meth:`CheckpointStore.latest` falls back to
  the newest generation that validates, so even a checkpoint torn by a
  crash at the worst moment only costs one checkpoint interval of
  recomputation.

Payloads are JSON object trees: producers export primitive state (see
``StreamingClassifier.export_state``) rather than live objects, with
string dict keys; tuples come back as lists, which every
``restore_state`` accepts.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.robustness.atomic import Framing

__all__ = ["Checkpoint", "CheckpointError", "CheckpointStore", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 2  # 1 framed a pickle

_NAME_RE = re.compile(r"^ckpt-(\d{8})\.bin$")


class CheckpointError(Exception):
    """A checkpoint file failed validation (torn, damaged, or alien)."""


_FRAMING = Framing(b"RPROCKPT", CHECKPOINT_VERSION, "checkpoint", CheckpointError, CheckpointError)


@dataclass(slots=True)
class Checkpoint:
    """One validated checkpoint generation."""

    generation: int
    payload: dict


class CheckpointStore:
    """Reads and writes numbered checkpoint generations in a directory.

    A durable run has exactly one store, its checkpoint directory,
    whether it runs serially or over the shard pool: a pool
    generation carries every shard's state inside the parent's
    payload (DESIGN.md §10), so there is one generation sequence to
    validate, resume from and prune.

    Args:
        directory: checkpoint directory (created on first save).
        keep: retained generations; older ones are pruned after a
            successful save.  ``keep >= 2`` is what makes torn-newest
            fallback possible.
    """

    def __init__(self, directory: str | os.PathLike, *, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = os.fspath(directory)
        self.keep = keep

    # -- paths ------------------------------------------------------------

    def path_for(self, generation: int) -> str:
        return os.path.join(self.directory, f"ckpt-{generation:08d}.bin")

    def generations(self) -> list[int]:
        """Existing generation numbers, ascending (validity not checked)."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        found = []
        for name in names:
            match = _NAME_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # -- write ------------------------------------------------------------

    def save(self, payload: dict, *, generation: int | None = None) -> Checkpoint:
        """Write the next (or given) generation atomically; prune old ones."""
        if generation is None:
            existing = self.generations()
            generation = (existing[-1] + 1) if existing else 1
        os.makedirs(self.directory, exist_ok=True)
        _FRAMING.write(self.path_for(generation), payload)
        # Keep the newest ``keep`` at or below this one; a damaged newer
        # generation left by a crash stays for post-mortems.
        retained = [g for g in self.generations() if g <= generation]
        for stale in retained[: -self.keep]:
            try:
                os.unlink(self.path_for(stale))
            except OSError:
                pass  # pruning is housekeeping, never fatal
        return Checkpoint(generation=generation, payload=payload)

    def clear(self) -> None:
        """Delete every generation: a finished run must not be resumed
        into its published outputs, nor a fresh one from stale state."""
        for generation in self.generations():
            os.unlink(self.path_for(generation))

    # -- read -------------------------------------------------------------

    def load(self, generation: int) -> Checkpoint:
        """Load and validate one generation; raises :class:`CheckpointError`."""
        path = self.path_for(generation)
        try:
            payload = _FRAMING.read(path)
        except FileNotFoundError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        return Checkpoint(generation=generation, payload=payload)

    def latest(self) -> Checkpoint | None:
        """Newest generation that validates; falls back past damaged ones.

        Returns ``None`` when no generation validates (fresh start).
        Damaged newer generations are left on disk for post-mortems —
        the next :meth:`save` writes a higher generation anyway.
        """
        for generation in reversed(self.generations()):
            try:
                return self.load(generation)
            except CheckpointError:
                continue
        return None
