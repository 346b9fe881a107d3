"""Atomic file writes: temp + fsync + rename, never a torn output.

Every durable artifact in the repo — traces, classification TSVs,
quarantine sidecars, checkpoints, manifests — goes through
:func:`atomic_writer`, so a crash mid-write leaves either the previous
complete file or nothing, never a truncated hybrid (DESIGN.md §8).
Engine snapshots and checkpoints share one such file format,
:class:`Framing`: a checksummed header and a JSON payload (DESIGN.md §15).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import IO, Iterator

__all__ = ["Framing", "atomic_writer", "fsync_dir", "replace_atomic"]

_HEADER = struct.Struct("<8sIQ32s")  # magic, version, payload length, sha256


def fsync_dir(directory: str) -> None:
    """Flush a directory entry so a rename survives power loss.

    Best-effort: some filesystems/platforms refuse ``open()`` on a
    directory; the rename itself is still atomic there.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_writer(
    path: str | os.PathLike,
    *,
    mode: str = "w",
    encoding: str | None = None,
    sync: bool = True,
) -> Iterator[IO]:
    """Context manager yielding a stream that atomically replaces ``path``.

    The stream writes to a temporary file in the destination directory;
    on clean exit it is flushed, fsync'd (unless ``sync=False``) and
    renamed over ``path`` in one step.  On an exception the temporary
    file is removed and the previous ``path`` contents are untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    if "b" not in mode and encoding is None:
        encoding = "utf-8"
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as stream:
            yield stream
            stream.flush()
            if sync:
                os.fsync(stream.fileno())
        os.replace(tmp_path, path)
    except BaseException:  # cleanup-and-reraise, nothing swallowed
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    if sync:
        fsync_dir(directory)


def replace_atomic(src: str | os.PathLike, dst: str | os.PathLike, *, sync: bool = True) -> None:
    """Atomically move a finished temp/part file over its final path."""
    src, dst = os.fspath(src), os.fspath(dst)
    os.replace(src, dst)
    if sync:
        fsync_dir(os.path.dirname(dst) or ".")


@dataclass(frozen=True, slots=True)
class Framing:
    """One framed artifact kind: ``read`` raises ``version_error`` for
    another container version and ``corrupt`` for any other defect."""

    magic: bytes
    version: int
    name: str  # for the version message
    corrupt: type[Exception]
    version_error: type[Exception]

    def write(self, path: str, payload: dict) -> None:
        """Atomic and byte-deterministic: dicts keep insertion order and
        ``ensure_ascii`` escapes lone surrogates, so they round-trip.
        Payloads are trees: the cycle check, a fifth of the encode, is off."""
        blob = json.dumps(payload, separators=(",", ":"), check_circular=False).encode("ascii")
        header = _HEADER.pack(self.magic, self.version, len(blob), hashlib.sha256(blob).digest())
        with atomic_writer(path, mode="wb") as stream:
            stream.write(header)
            stream.write(blob)

    def read(self, path: str) -> dict:
        """The payload, checked in order: header size, magic, version,
        length, digest, JSON, an object.  Missing: FileNotFoundError."""
        try:
            with open(path, "rb") as stream:
                data = stream.read()
        except FileNotFoundError:
            raise  # missing input, not damage
        except OSError as exc:
            raise self.corrupt(f"{path}: {exc}") from None
        if len(data) < _HEADER.size:
            raise self.corrupt(f"{path}: truncated header ({len(data)} bytes)")
        magic, version, length, digest = _HEADER.unpack_from(data)
        if magic != self.magic:
            raise self.corrupt(f"{path}: bad magic {magic!r}")
        if version != self.version:
            raise self.version_error(
                f"{path}: unsupported {self.name} version {version} (expected {self.version})"
            )
        blob = data[_HEADER.size :]
        if len(blob) != length:
            raise self.corrupt(f"{path}: torn payload ({len(blob)}/{length} bytes)")
        if hashlib.sha256(blob).digest() != digest:
            raise self.corrupt(f"{path}: checksum mismatch")
        try:
            payload = json.loads(blob)
        except (ValueError, RecursionError) as exc:
            raise self.corrupt(f"{path}: undecodable payload: {exc}") from None
        if not isinstance(payload, dict):
            raise self.corrupt(f"{path}: unexpected payload type {type(payload).__name__}")
        return payload
