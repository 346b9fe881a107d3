"""Precompiled engine snapshots: build the index once, restore it per process.

Every process that classifies needs a ready engine — every CLI run,
every pool worker, every ``repro serve`` hot reload.  ``repro
compile-lists`` freezes a loaded :class:`~repro.filterlist.engine.FilterEngine`
(filter table, option table, keyword buckets, hostname index,
fingerprint) into one on-disk artifact that a later process restores
without parsing a list (DESIGN.md §15).

What a restore costs at 20,157 filters (2-core reference host): 0.27 s
— ``json.loads`` 0.03–0.06, rebuilding the filter objects 0.05–0.09,
one ``re.compile`` of the keyword trie 0.13–0.19, read + SHA-256 under
0.01.  It was 2.0–2.5 s while every filter compiled its verification
regex on restore (1.7 s of it); a filter now compiles its regex the
first time a request reaches its bucket (:attr:`Filter.regex`), and a
long-tail trace reaches a few hundred of the 20K.  The same change took
parsing the 20K-rule list from text from 2.0 s to 0.35 s, so a snapshot
still wins, narrowly.  Not built: a memory-mapped, lazily materialised
filter table.  It could only remove the 0.1 s of decode and object
building above, 2 % of a 4.5 s list-scale run.

The file is the container checkpoints use too
(:class:`repro.robustness.atomic.Framing`): magic, container version, payload
length and a SHA-256 digest precede the JSON payload, so truncated or
bit-flipped files are *detected* — :class:`SnapshotCorrupt` — rather
than decoded into a silently different matcher, and decoding runs no
code the file chooses.  Identity is pinned twice:

* the **engine fingerprint** inside the payload is the same chained
  SHA-256 the run-manifest machinery records (DESIGN.md §8), so a
  snapshot compiled from different list content than a manifest expects
  is refused with :class:`SnapshotFingerprintMismatch` (exit 4, like
  any other manifest identity violation);
* the **payload digest** in the header covers the serialized bytes, so
  storage-level damage is distinguished from identity drift.

The payload stores the exact bucket layout, not matcher machinery:
:func:`load_snapshot` restores it as the production
:class:`~repro.filterlist.actrie.ACTrieEngine`, its index already
compiled, and :meth:`FilterEngine.restore_snapshot_state` restores the
same state as the reference bucket engine — decision-identical by the
differential harness (``tests/test_engine_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.engine import SNAPSHOT_STATE_VERSION, FilterEngine
from repro.robustness.atomic import Framing

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

SNAPSHOT_VERSION = 2  # 1 framed a pickle of the same state


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


_FRAMING = Framing(b"RPROSNAP", SNAPSHOT_VERSION, "snapshot", SnapshotCorrupt, SnapshotVersionError)


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
    payload = {
        "state": engine.export_snapshot_state(),
        "lists_fingerprint": lists_fingerprint,
        "source": source,
    }
    _FRAMING.write(path, payload)
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


def _read_payload(path: str) -> dict:
    """Read and validate the file; raises :class:`SnapshotError` (or FileNotFoundError)."""
    payload = _FRAMING.read(path)
    state = payload.get("state")
    if not isinstance(state, dict):
        raise SnapshotCorrupt(f"{path}: unexpected payload shape")
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
) -> LoadedSnapshot:
    """Restore a ready-to-serve engine from ``path``; raises :class:`SnapshotError`.

    ``expected_fingerprint`` pins identity: pass the engine fingerprint
    a run manifest recorded (or one freshly computed from list files) to
    refuse a stale or wrong snapshot *before* any decision is made.
    """
    payload = _read_payload(path)
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
