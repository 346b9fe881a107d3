"""Precompiled engine snapshots: compile once, deserialize in milliseconds.

Cold-start pays full list parse + regex compile + index build in every
process — for the RBN-scale list sets that is seconds per worker, and
`repro serve` pays it again on every hot reload.  ``repro compile-lists``
freezes a loaded :class:`~repro.filterlist.engine.FilterEngine` (filter
table, keyword buckets, hostname index, option tables, fingerprint) into
a single on-disk artifact that any later process restores without
re-parsing anything (DESIGN.md §15).

The framing is deliberately paranoid, mirroring the checkpoint format
(:mod:`repro.robustness.checkpoint`): magic, container version, payload
length and a SHA-256 digest precede the pickled payload, so truncated or
bit-flipped files are *detected* — :class:`SnapshotCorrupt` — rather
than deserialized into a silently different matcher.  Identity is pinned
twice:

* the **engine fingerprint** inside the payload is the same chained
  SHA-256 the run-manifest machinery records (DESIGN.md §8), so a
  snapshot compiled from different list content than a manifest expects
  is refused with :class:`SnapshotFingerprintMismatch` (exit 4, like
  any other manifest identity violation);
* the **payload digest** in the header covers the serialized bytes, so
  storage-level damage is distinguished from identity drift.

The payload stores the exact bucket layout, not matcher machinery:
:func:`load_snapshot` restores it as the production
:class:`~repro.filterlist.actrie.ACTrieEngine`, already compiled, and
:meth:`FilterEngine.restore_snapshot_state` restores the same state as
the reference bucket engine — decision-identical by the differential
harness (``tests/test_engine_differential.py``).
"""

from __future__ import annotations

import hashlib
import mmap
import pickle
import struct
from dataclasses import dataclass

from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.engine import SNAPSHOT_STATE_VERSION, FilterEngine
from repro.robustness.atomic import atomic_writer

__all__ = [
    "SNAPSHOT_VERSION",
    "LoadedSnapshot",
    "SnapshotCorrupt",
    "SnapshotError",
    "SnapshotFingerprintMismatch",
    "SnapshotInfo",
    "SnapshotVersionError",
    "inspect_snapshot",
    "load_snapshot",
    "write_snapshot",
]

SNAPSHOT_VERSION = 1

_MAGIC = b"RPROSNAP"
_HEADER = struct.Struct("<8sIQ32s")  # magic, version, payload length, sha256


class SnapshotError(Exception):
    """Base class for snapshot validation failures."""


class SnapshotCorrupt(SnapshotError):
    """The file is torn, truncated, bit-flipped, or not a snapshot."""


class SnapshotVersionError(SnapshotError):
    """Container or engine-state version is not one this build reads."""


class SnapshotFingerprintMismatch(SnapshotError):
    """The snapshot was compiled from different list content.

    Raised when the caller pins an expected engine fingerprint (from a
    run manifest or freshly-hashed list files) and the snapshot's does
    not match — the snapshot is *valid*, just not the one this run is
    allowed to use.
    """

    def __init__(self, expected: str, actual: str) -> None:
        super().__init__(
            f"snapshot engine fingerprint {actual[:12]}… does not match "
            f"expected {expected[:12]}…"
        )
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Validated snapshot metadata (no engine restored yet)."""

    version: int
    state_version: int
    fingerprint: str
    lists_fingerprint: str | None
    source: str
    filter_count: int
    list_names: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class LoadedSnapshot:
    """A restored engine plus the provenance it was pinned to."""

    engine: ACTrieEngine
    info: SnapshotInfo


def write_snapshot(
    path: str,
    engine: FilterEngine,
    *,
    lists_fingerprint: str | None = None,
    source: str = "",
) -> SnapshotInfo:
    """Compile ``engine`` to a checksummed snapshot at ``path``.

    ``lists_fingerprint`` records the raw-list-file identity (as hashed
    by the run manifest) alongside the engine fingerprint; ``source`` is
    a human-readable provenance note (list paths or ecosystem seed).
    The write is atomic (temp + fsync + rename) and byte-deterministic
    for identical engine state, so re-compiling unchanged lists yields
    an identical artifact.
    """
    state = engine.export_snapshot_state()
    payload = {
        "state": state,
        "lists_fingerprint": lists_fingerprint,
        "source": source,
    }
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, SNAPSHOT_VERSION, len(blob), hashlib.sha256(blob).digest())
    with atomic_writer(path, mode="wb") as stream:
        stream.write(header)
        stream.write(blob)
    return _info_from_payload(payload)


def _info_from_payload(payload: dict) -> SnapshotInfo:
    state = payload["state"]
    return SnapshotInfo(
        version=SNAPSHOT_VERSION,
        state_version=state["state_version"],
        fingerprint=state["fingerprint"],
        lists_fingerprint=payload.get("lists_fingerprint"),
        source=payload.get("source", ""),
        filter_count=len(state["filters"]),
        list_names=tuple(state["list_names"]),
    )


def _read_payload(path: str, *, use_mmap: bool = True) -> dict:
    """Read and validate the framing; raises :class:`SnapshotError`.

    The file is mapped read-only (zero-copy restore, PR 9's leftover):
    header fields are unpacked in place, the digest is computed over a
    ``memoryview`` of the mapping, and ``pickle.loads`` consumes the
    same view — the payload bytes are never copied into an intermediate
    ``bytes`` object.  ``use_mmap=False`` forces the plain ``read()``
    path (empty or pseudo files, and the A/B leg in
    ``benchmarks/bench_ingest.py``).
    """
    try:
        stream = open(path, "rb")  # staticcheck: ok[RC001] read-only mmap source
    except FileNotFoundError:
        raise  # missing input, not damage — callers map it to exit 2
    except OSError as exc:
        raise SnapshotCorrupt(f"{path}: {exc}") from None
    mapped: mmap.mmap | None = None
    data: bytes | mmap.mmap
    try:
        if use_mmap:
            try:
                mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
                data = mapped
            except (ValueError, OSError):  # empty / unmappable file: fall back to a copy
                stream.seek(0)
                data = stream.read()
        else:
            data = stream.read()
        return _validate_payload(path, data)
    finally:
        if mapped is not None:
            mapped.close()
        stream.close()


def _validate_payload(path: str, data: bytes | mmap.mmap) -> dict:
    if len(data) < _HEADER.size:
        raise SnapshotCorrupt(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, length, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SnapshotCorrupt(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path}: unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )
    blob = memoryview(data)[_HEADER.size :]
    try:
        if len(blob) != length:
            raise SnapshotCorrupt(f"{path}: torn payload ({len(blob)}/{length} bytes)")
        if hashlib.sha256(blob).digest() != digest:
            raise SnapshotCorrupt(f"{path}: checksum mismatch")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # pickle raises a zoo of types; staticcheck: ok[RC002] rethrown as SnapshotCorrupt
            raise SnapshotCorrupt(f"{path}: undecodable payload: {exc}") from None
    finally:
        # Release the view before the caller closes the mapping —
        # mmap.close() raises BufferError while views are outstanding.
        blob.release()
    if not isinstance(payload, dict) or "state" not in payload:
        raise SnapshotCorrupt(f"{path}: unexpected payload shape")
    state = payload["state"]
    if state.get("state_version") != SNAPSHOT_STATE_VERSION:
        raise SnapshotVersionError(
            f"{path}: engine state version {state.get('state_version')!r} "
            f"(expected {SNAPSHOT_STATE_VERSION})"
        )
    return payload


def inspect_snapshot(path: str) -> SnapshotInfo:
    """Validate framing and return metadata without restoring an engine."""
    return _info_from_payload(_read_payload(path))


def load_snapshot(
    path: str,
    *,
    expected_fingerprint: str | None = None,
    use_mmap: bool = True,
) -> LoadedSnapshot:
    """Restore a ready-to-serve engine from ``path``; raises :class:`SnapshotError`.

    ``expected_fingerprint`` pins identity: pass the engine fingerprint
    a run manifest recorded (or one freshly computed from list files) to
    refuse a stale or wrong snapshot *before* any decision is made.
    ``use_mmap=False`` opts out of the zero-copy restore path.
    """
    payload = _read_payload(path, use_mmap=use_mmap)
    state = payload["state"]
    if expected_fingerprint is not None and state["fingerprint"] != expected_fingerprint:
        raise SnapshotFingerprintMismatch(expected_fingerprint, state["fingerprint"])
    info = _info_from_payload(payload)
    engine = ACTrieEngine.restore_snapshot_state(state)
    # The wire form is dead weight from here on: release it before the
    # compile allocates, so the two do not stack in the process's peak.
    del payload, state
    engine.compile()
    return LoadedSnapshot(engine=engine, info=info)
