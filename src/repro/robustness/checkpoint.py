"""Checksummed, generational checkpoints for long pipeline runs.

A checkpoint freezes everything a durable run needs to continue after a
crash: the input byte/line offset, the streaming classifier state, the
health counters and the output sink positions (DESIGN.md §8).  The
on-disk format is deliberately paranoid because checkpoints are written
*during* the failure modes they protect against:

* framed payload — magic, format version, payload length and a SHA-256
  digest precede the payload, so a torn or bit-flipped file is detected
  rather than deserialized;
* atomic replace — each generation is written via temp + fsync + rename
  (:func:`repro.robustness.atomic.atomic_writer`), so a crash mid-write
  cannot damage an existing generation;
* N retained generations — :meth:`CheckpointStore.latest` falls back to
  the newest generation that validates, so even a checkpoint torn by a
  crash at the worst moment only costs one checkpoint interval of
  recomputation.

Payloads are plain-Python object trees (dicts/lists/tuples/scalars)
serialized with :mod:`pickle`; producers are expected to export
primitive state (see ``StreamingClassifier.export_state``) rather than
live objects, which keeps the format stable and the write fast.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
from dataclasses import dataclass

from repro.robustness.atomic import atomic_writer

__all__ = ["Checkpoint", "CheckpointError", "CheckpointStore", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1

_MAGIC = b"RPROCKPT"
_HEADER = struct.Struct("<8sIQ32s")  # magic, version, payload length, sha256
_NAME_RE = re.compile(r"^ckpt-(\d{8})\.bin$")


class CheckpointError(Exception):
    """A checkpoint file failed validation (torn, damaged, or alien)."""


@dataclass(slots=True)
class Checkpoint:
    """One validated checkpoint generation."""

    generation: int
    payload: dict


class CheckpointStore:
    """Reads and writes numbered checkpoint generations in a directory.

    Args:
        directory: checkpoint directory (created on first save).
        keep: retained generations; older ones are pruned after a
            successful save.  ``keep >= 2`` is what makes torn-newest
            fallback possible.  ``None`` disables save-time pruning —
            used by shard-parallel workers, whose retention is owned by
            the parent (it lags behind them and prunes via
            :meth:`prune_through` once its own generation advances).
    """

    def __init__(self, directory: str | os.PathLike, *, keep: int | None = 3):
        if keep is not None and keep < 1:
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
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(_MAGIC, CHECKPOINT_VERSION, len(blob), hashlib.sha256(blob).digest())
        with atomic_writer(self.path_for(generation), mode="wb") as stream:
            stream.write(header)
            stream.write(blob)
        self._prune(keep_from=generation)
        return Checkpoint(generation=generation, payload=payload)

    def _prune(self, *, keep_from: int) -> None:
        if self.keep is None:
            return
        generations = [g for g in self.generations() if g <= keep_from]
        for stale in generations[: -self.keep]:
            try:
                os.unlink(self.path_for(stale))
            except OSError:
                pass  # pruning is housekeeping, never fatal

    def clear(self) -> None:
        """Delete every generation: a finished run must not be resumed
        into its published outputs, nor a fresh one from stale state."""
        for generation in self.generations():
            os.unlink(self.path_for(generation))

    def prune_through(self, generation: int) -> None:
        """Prune as if ``generation`` were the newest save: keep the
        newest ``keep`` generations at or below it, leaving anything
        newer untouched (a shard worker may already have run ahead)."""
        self._prune(keep_from=generation)

    # -- read -------------------------------------------------------------

    def load(self, generation: int) -> Checkpoint:
        """Load and validate one generation; raises :class:`CheckpointError`."""
        path = self.path_for(generation)
        try:
            with open(path, "rb") as stream:
                data = stream.read()
        except OSError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        if len(data) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated header ({len(data)} bytes)")
        magic, version, length, digest = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        blob = data[_HEADER.size :]
        if len(blob) != length:
            raise CheckpointError(f"{path}: torn payload ({len(blob)}/{length} bytes)")
        if hashlib.sha256(blob).digest() != digest:
            raise CheckpointError(f"{path}: checksum mismatch")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # pickle raises a zoo of types; staticcheck: ok[RC002] rethrown as CheckpointError
            raise CheckpointError(f"{path}: undecodable payload: {exc}") from None
        if not isinstance(payload, dict):
            raise CheckpointError(f"{path}: unexpected payload type {type(payload).__name__}")
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

    def newest_valid_generation(self) -> int | None:
        """Generation number of :meth:`latest`, or ``None``.

        A store-level "how far did this run get" probe (used by tests
        and tooling); note that shard-respawn deliberately does *not*
        resume from here — a shard's own newest generation can run
        ahead of the parent's fold frontier, so the supervisor resumes
        replacements from the parent's last saved generation instead
        (see ``ParallelRun._spawn_worker``).
        """
        newest = self.latest()
        return newest.generation if newest is not None else None

    def valid_generations(self) -> list[int]:
        """Generation numbers that fully validate, ascending.

        Shard-parallel resume (DESIGN.md §10) must restart every worker
        from the *same* generation, so the rendezvous point is the
        newest generation valid in the parent store and every shard
        store at once — which needs the whole valid set, not just the
        newest survivor that :meth:`latest` returns.
        """
        valid = []
        for generation in self.generations():
            try:
                self.load(generation)
            except CheckpointError:
                continue
            valid.append(generation)
        return valid
