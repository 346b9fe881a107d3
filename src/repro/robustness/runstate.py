"""Run manifest, output sinks, and the one serial run loop.

Every `repro classify` / `repro usage` / `repro report` executes as
reader → :class:`~repro.core.pipeline.StreamingClassifier` → sink:
:func:`run_serial` is that loop, and the shard pool
(:mod:`repro.parallel.runner`) is the same fold spread over worker
processes, handed the same sink.  Every run hands the sink each entry
once it settles — once no redirect fix-up can change it — and moves the
sink's frontier forward; the sink is the one place that puts rows in
index order.  Either loop is *plain* by
default; handed a :class:`Checkpointing` it becomes *durable*
(DESIGN.md §8), so that a crash — OOM kill, deploy, power loss — costs
at most one checkpoint interval:

* a **run manifest** (``manifest.json``) pins what the run *is*: the
  hash of every classification-relevant parameter, a fingerprint of the
  filter lists, and the input file's identity (size + content-hash
  prefix).  ``--resume`` recomputes all three and refuses to continue
  on any mismatch, because resuming half a run against a different
  config or a mutated input silently produces garbage;
* periodic **checkpoints** (:mod:`repro.robustness.checkpoint`) freeze
  the input byte/line offset, the streaming classifier state (the
  redirect sources still waiting, not the run), the health counters and
  the sink state: positions, plus the gaps and late rows that put late
  entries back in place;
* outputs are written to ``*.part`` files (inside the checkpoint
  directory on a durable run) and atomically renamed to their final
  paths only when the run completes, so a failed run never shadows a
  previous good output;
* on resume, part files are truncated back to the positions recorded in
  the newest *valid* checkpoint and the input is re-read from its
  offset — replaying the tail deterministically, which is what makes a
  resumed run byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, get_type_hints

from repro.core.pipeline import (
    AdClassificationPipeline,
    ClassifiedRequest,
    StreamingClassifier,
)
from repro.core.users import UserKey, UserStats
from repro.http.log import SeekableLogReader, encode_field
from repro.robustness.atomic import atomic_writer, replace_atomic
from repro.robustness.checkpoint import Checkpoint, CheckpointStore
from repro.robustness.crash import CrashInjector
from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy, RunInterrupted
from repro.robustness.quarantine import QuarantineWriter

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "ManifestMismatch",
    "RunManifest",
    "Checkpointing",
    "InterruptFlag",
    "run_serial",
    "RunResult",
    "RunSink",
    "ClassifySink",
    "UserStatsSink",
    "TrafficSink",
    "classification_row",
    "fingerprint_params",
    "fingerprint_lists",
    "open_quarantine",
    "quarantine_state",
    "publish_quarantine",
]


def classification_row(entry: ClassifiedRequest) -> str:
    """The one `repro classify` output row format (no trailing newline).

    Every writer — :class:`ClassifySink`, plain or checkpointed, and the
    shard-parallel workers — renders through this function, so "byte-
    identical output across execution plans" (DESIGN.md §10) cannot
    drift into three subtly different formatters.
    """
    cells = [
        str(entry.record.ts),
        entry.record.client,
        entry.record.url,
        entry.page_url,
        "1" if entry.is_ad else "0",
        entry.blacklist_name or "-",
        "1" if entry.is_whitelisted else "0",
    ]
    row = "\t".join(cells)
    if row.count("\t") != len(cells) - 1 or "\n" in row:
        # A value read from the trace holds a TAB or LF of its own (the
        # reader turns a URI's literal %09/%0A into one): spell it the
        # way the log does, so one entry stays one line.  Tested on the
        # joined row because almost no row needs it.
        cells[1:4] = [encode_field(cell) for cell in cells[1:4]]
        row = "\t".join(cells)
    return row


MANIFEST_NAME = "manifest.json"
# Version 1 directories hold pickled checkpoints; version 2 pool
# directories keep the reorder heap outside the shard classifier's
# state; version 3 pool directories keep one store per shard beside
# the parent's; version 4 runs released rows in index order behind a
# fix-up window, so their bytes differ where a fix-up reached past it;
# version 5 classifier states hold referrer maps without a clock;
# version 6 health states count the users an LRU cap evicted and the
# most users held, and classify manifests pin that cap.  All are
# refused up front.
MANIFEST_VERSION = 7
DEFAULT_CHECKPOINT_EVERY = 10_000

_READ_AHEAD = 64  # decode, then classify, in batches: ~10 % faster than per record
_COPY_CHUNK = 1 << 20  # ClassifySink's splicing copy reads the part file in these

# Identity hash covers the first MiB: enough to catch truncation,
# regeneration and in-place edits without re-reading a multi-GB trace
# on every checkpoint resume (size changes catch appends).
_INPUT_HEAD_BYTES = 1 << 20


def fingerprint_params(params: dict) -> str:
    """Order-independent hash of the classification-relevant CLI params."""
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def fingerprint_lists(lists: dict) -> str:
    """Hash of the filter-list contents the run classifies against."""
    digest = hashlib.sha256()
    for name in sorted(lists):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(lists[name].to_text().encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _input_identity(path: str) -> tuple[int, str]:
    size = os.path.getsize(path)
    with open(path, "rb") as stream:
        head = stream.read(_INPUT_HEAD_BYTES)
    return size, hashlib.sha256(head).hexdigest()[:16]


class ManifestMismatch(Exception):
    """``--resume`` was pointed at a run that is not this run."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__(
            "run manifest mismatch: " + "; ".join(diagnostics)
        )


@dataclass(slots=True)
class RunManifest:
    """What a durable run *is* — everything that must match on resume."""

    command: str
    params: dict
    config_hash: str
    lists_fingerprint: str
    input_path: str
    input_size: int
    input_head_sha256: str
    output_path: str | None
    quarantine_path: str | None
    version: int = MANIFEST_VERSION

    @classmethod
    def build(
        cls,
        *,
        command: str,
        params: dict,
        lists: dict,
        input_path: str,
        output_path: str | None,
        quarantine_path: str | None,
    ) -> "RunManifest":
        size, head = _input_identity(input_path)
        return cls(
            command=command,
            params=dict(params),
            config_hash=fingerprint_params(params),
            lists_fingerprint=fingerprint_lists(lists),
            input_path=os.path.abspath(input_path),
            input_size=size,
            input_head_sha256=head,
            output_path=os.path.abspath(output_path) if output_path else None,
            quarantine_path=os.path.abspath(quarantine_path) if quarantine_path else None,
        )

    def save(self, directory: str) -> None:
        with atomic_writer(os.path.join(directory, MANIFEST_NAME)) as stream:
            json.dump(dataclasses.asdict(self), stream, indent=2, sort_keys=True)
            stream.write("\n")

    @classmethod
    def load(cls, directory: str) -> "RunManifest":
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as stream:
                raw = json.load(stream)
        except FileNotFoundError:
            raise ManifestMismatch(
                [f"no manifest at {path} — nothing to resume (run without --resume first)"]
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestMismatch([f"unreadable manifest at {path}: {exc}"]) from None
        if not isinstance(raw, dict):
            raise ManifestMismatch([f"malformed manifest at {path}: not a JSON object"])
        fields = get_type_hints(cls)
        defects = [n for n, kind in fields.items() if n not in raw or not isinstance(raw[n], kind)]
        if defects:
            raise ManifestMismatch([f"malformed manifest at {path}: bad or missing {defects}"])
        return cls(**{name: raw[name] for name in fields})

    def mismatches(self, current: "RunManifest") -> list[str]:
        """Human-readable diffs between the saved run and the current one."""
        diagnostics: list[str] = []
        if self.version != current.version:
            diagnostics.append(f"manifest version {self.version} != {current.version} "
                               "(another build's checkpoints; rerun without --resume)")
        if self.command != current.command:
            diagnostics.append(f"command '{self.command}' != '{current.command}'")
        if self.config_hash != current.config_hash:
            changed = [
                f"{key}: {self.params.get(key)!r} -> {current.params.get(key)!r}"
                for key in sorted(set(self.params) | set(current.params))
                if self.params.get(key) != current.params.get(key)
            ]
            diagnostics.append("config changed (" + (", ".join(changed) or "params differ") + ")")
        if self.lists_fingerprint != current.lists_fingerprint:
            diagnostics.append(
                f"filter-list fingerprint {self.lists_fingerprint} != {current.lists_fingerprint}"
            )
        if self.input_path != current.input_path:
            diagnostics.append(f"input path '{self.input_path}' != '{current.input_path}'")
        if (self.input_size, self.input_head_sha256) != (
            current.input_size,
            current.input_head_sha256,
        ):
            diagnostics.append(
                f"input file changed on disk (size {self.input_size} -> {current.input_size}, "
                f"head hash {self.input_head_sha256} -> {current.input_head_sha256})"
            )
        if self.output_path != current.output_path:
            diagnostics.append(f"output path '{self.output_path}' != '{current.output_path}'")
        if self.quarantine_path != current.quarantine_path:
            diagnostics.append(
                f"quarantine path '{self.quarantine_path}' != '{current.quarantine_path}'"
            )
        return diagnostics


# ---------------------------------------------------------------------------
# Sinks: where released entries go.  A sink owns its output file(s) and a
# primitive, resumable state (counters + byte positions).


class RunSink:
    """Base class for run output sinks."""

    def begin(self, *, fresh: bool, state: dict | None) -> None:
        """Open output files; start from scratch or from checkpoint state."""

    def consume(self, entry: ClassifiedRequest) -> None:
        """Fold one entry.  Every run hands entries over as they settle,
        in no particular order; only :class:`ClassifySink`, whose rows
        are its output, puts them in index order."""
        raise NotImplementedError

    def advance(self, frontier: int) -> None:
        """Every entry below ``frontier`` has been handed over, or is a
        redirect source still waiting.  The folds are sums: no-op."""

    def export_state(self) -> dict:
        """Flush + fsync, then snapshot counters and byte positions."""
        return {}

    def finalize(self) -> None:
        """Fsync and atomically publish final outputs."""

    def close(self) -> None:
        """Release files without publishing (the run failed or was cut)."""


class ClassifySink(RunSink):
    """`repro classify`: per-request TSV rows plus the console counters.

    Rows stream into a part file that :meth:`finalize` renames over
    ``final_path``, so a failed run never shadows a previous good
    output.  With ``part_path`` (a checkpointed run keeps it in the
    checkpoint directory) the part file is durable state and
    :meth:`close` leaves it for ``--resume``; without, it is
    ``<final_path>.part`` and an unfinished run's :meth:`close` removes
    it — nothing could resume it.  No ``final_path``: count only.

    Rows arrive as they settle, in any order.  A row at or above the
    frontier (:meth:`advance`) is held; advancing writes the held rows
    below the new frontier in index order.  An index below it without
    a row is a redirect source still waiting for its consequent
    request: the sink notes the byte offset where that row belongs (a
    *gap*), holds the row when it arrives, and :meth:`finalize` splices
    those few rows in while it copies the part file to ``final_path`` —
    the same bytes an in-order run writes.  Gaps and late rows are
    checkpointed with the counters; held rows are not, because the
    replay after a resume sends them again.  A row below the frontier
    that fills no gap was written before: a resumed or respawned pool
    shard replays it, and it is dropped.
    """

    HEADER = "#ts\tclient\turl\tpage\tis_ad\tblacklist\twhitelisted\n"

    def __init__(self, *, part_path: str | None = None, final_path: str | None = None):
        self.resumable = part_path is not None
        self.part_path = part_path or (final_path + ".part" if final_path else None)
        self.final_path = final_path
        self.total = 0
        self.ads = 0
        self.whitelisted = 0
        self._file = None
        self._next_index = 0  # the frontier: every lower index is written or in _gaps
        self._gaps: dict[int, int] = {}  # missing index -> offset its row goes at
        self._late: dict[int, str | None] = {}  # index -> row that arrived after its gap
        self._held: dict[int, tuple[str | None, bool, bool]] = {}  # rows at or above the frontier

    def begin(self, *, fresh: bool, state: dict | None) -> None:
        if state is not None:
            self.total = state["total"]
            self.ads = state["ads"]
            self.whitelisted = state["whitelisted"]
            self._next_index = state["next_index"]
            self._gaps = dict(state["gaps"])
            self._late = dict(state["late"])
        if self.final_path is None:
            return
        if fresh:
            # The .part sink is published atomically by finalize().
            self._file = open(self.part_path, "wb")
            self._file.write(self.HEADER.encode("utf-8"))
        else:
            assert state is not None
            # Resume rewinds the .part file to the checkpointed offset.
            self._file = open(self.part_path, "r+b")
            self._file.truncate(state["pos"])
            self._file.seek(state["pos"])

    def consume(self, entry: ClassifiedRequest) -> None:
        row = classification_row(entry) if self._file is not None else None
        self.consume_row(entry.index, row, entry.is_ad, entry.is_whitelisted)

    def consume_row(
        self, index: int, row: str | None, is_ad: bool, is_whitelisted: bool
    ) -> None:
        """Take one rendered row for ``index``, in any order (``row`` is
        None when there is no output file).  The shard pool's workers
        render rows, so the parent hands them over here."""
        if index >= self._next_index:
            self._held[index] = (row, is_ad, is_whitelisted)
            return
        if index not in self._gaps:
            return  # replayed: written before the cut a shard resumed from
        if index in self._late:
            if self._late[index] != row:
                raise AssertionError(f"two different rows for index {index}")
            return
        self._late[index] = row
        self._count(is_ad, is_whitelisted)

    def _count(self, is_ad: bool, is_whitelisted: bool) -> None:
        self.total += 1
        if is_ad:
            self.ads += 1
        if is_whitelisted:
            self.whitelisted += 1

    def advance(self, frontier: int) -> None:
        """Write the held rows below ``frontier`` in index order; an index
        without one is a gap, whose row comes late and goes where the
        next row is written now."""
        held, file = self._held, self._file
        for index in range(self._next_index, frontier):
            entry = held.pop(index, None)
            if entry is None:
                self._gaps[index] = file.tell() if file is not None else 0
                continue
            row, is_ad, is_whitelisted = entry
            if file is not None:
                file.write((row + "\n").encode("utf-8"))
            self._count(is_ad, is_whitelisted)
        self._next_index = max(self._next_index, frontier)

    def export_state(self) -> dict:
        state = {
            "total": self.total,
            "ads": self.ads,
            "whitelisted": self.whitelisted,
            "next_index": self._next_index,
            "gaps": list(self._gaps.items()),
            "late": list(self._late.items()),
        }
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            state["pos"] = self._file.tell()
        return state

    def finalize(self) -> None:
        if self._held:
            raise AssertionError(
                f"rows held above the frontier {self._next_index}: {sorted(self._held)[:5]}"
            )
        if self._late.keys() != self._gaps.keys():
            raise AssertionError(
                f"rows never delivered: {sorted(self._gaps.keys() - self._late.keys())[:5]}"
            )
        if self._file is None:
            return
        if self._gaps:
            self._publish_spliced()
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        replace_atomic(self.part_path, self.final_path)

    def _publish_spliced(self) -> None:
        """Copy the part file over ``final_path`` in one pass, inserting
        each late row at its noted offset, then drop the part file."""
        self._file.close()
        self._file = None
        with open(self.part_path, "rb") as part, atomic_writer(self.final_path, mode="wb") as out:
            copied = 0
            for index in sorted(self._late):
                offset = self._gaps[index]
                while copied < offset:
                    chunk = part.read(min(offset - copied, _COPY_CHUNK))
                    out.write(chunk)
                    copied += len(chunk)
                out.write((self._late[index] + "\n").encode("utf-8"))
            shutil.copyfileobj(part, out, _COPY_CHUNK)
        os.unlink(self.part_path)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self.part_path is not None and not self.resumable:
            # Also without a handle: ^C can land in begin() between
            # creating the staging file and keeping it.  After a publish
            # the file is gone (renamed) and this is a no-op.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.part_path)


class UserStatsSink(RunSink):
    """`repro usage`: fold entries into per-user statistics (§6)."""

    def __init__(self):
        self.stats: dict[UserKey, UserStats] = {}

    @property
    def total(self) -> int:
        return sum(stats.requests for stats in self.stats.values())

    @property
    def total_ads(self) -> int:
        return sum(stats.ad_requests for stats in self.stats.values())

    def begin(self, *, fresh: bool, state: dict | None) -> None:
        if state is not None:
            self.stats = {
                tuple(row[0]): UserStats(tuple(row[0]), *row[1:]) for row in state["stats"]
            }

    def consume(self, entry: ClassifiedRequest) -> None:
        stats = self.stats.get(entry.user)
        if stats is None:
            stats = UserStats(user=entry.user)
            self.stats[entry.user] = stats
        stats.add(entry)

    def export_state(self) -> dict:
        return {"stats": [dataclasses.astuple(stats) for stats in self.stats.values()]}


class TrafficSink(RunSink):
    """`repro report`: fold entries into the §7 traffic accumulator."""

    def __init__(self):
        from repro.analysis.traffic import TrafficAccumulator

        self.accumulator = TrafficAccumulator()

    def begin(self, *, fresh: bool, state: dict | None) -> None:
        if state is not None:
            from repro.analysis.traffic import TrafficAccumulator

            self.accumulator = TrafficAccumulator.from_state(state["fold"])

    def consume(self, entry: ClassifiedRequest) -> None:
        self.accumulator.add(entry)

    def merge_state(self, state: dict) -> None:
        """Fold in a pool shard's sink state (its :meth:`export_state`)."""
        self.accumulator.merge_state(state["fold"])

    def export_state(self) -> dict:
        return {"fold": self.accumulator.export_state()}


# ---------------------------------------------------------------------------
# What the serial loop and the shard pool (repro.parallel.runner) share.


@dataclass(slots=True)
class Checkpointing:
    """What makes a run durable; a run is handed one, or is plain.

    ``directory`` holds ``manifest.json``, the checkpoint generations
    and the ``.part`` outputs; ``manifest`` is the identity ``resume``
    is checked against; ``every`` is the record interval between
    checkpoints (``None``: only an interrupt cuts one); ``keep`` is the
    number of generations retained.
    """

    directory: str
    manifest: RunManifest
    every: int | None = DEFAULT_CHECKPOINT_EVERY
    keep: int = 3
    resume: bool = False
    crash_injector: CrashInjector | None = None

    def begin(
        self, log: Callable[[str], None]
    ) -> tuple[CheckpointStore, Checkpoint | None]:
        """The run's store and where it resumes from, serial or pooled.

        Resume: refuse unless the saved manifest is this run, then pick
        the newest generation that validates (``None``: restart).
        Fresh: write the manifest and drop generations an older run
        left behind — a stale one would otherwise be "resumed" later.
        """
        os.makedirs(self.directory, exist_ok=True)
        store = CheckpointStore(self.directory, keep=self.keep)
        if not self.resume:
            store.clear()
            self.manifest.save(self.directory)
            return store, None
        diagnostics = RunManifest.load(self.directory).mismatches(self.manifest)
        if diagnostics:
            raise ManifestMismatch(diagnostics)
        checkpoint = store.latest()
        if checkpoint is not None:
            log(
                f"resuming from checkpoint generation {checkpoint.generation} "
                f"({checkpoint.payload['records_fed']} records already processed)"
            )
        else:
            log("no valid checkpoint found; restarting from the beginning")
        return store, checkpoint


class InterruptFlag:
    """While entered, SIGINT/SIGTERM set ``signum`` instead of raising.

    The run loop polls the flag at its consistent cut points, leaves
    durable state resumable and raises :class:`RunInterrupted` (CLI
    exit 130; DESIGN.md §12).  Handlers can only be installed from the
    main thread; elsewhere (tests driving runs from threads)
    interruption stays with the caller.
    """

    def __init__(self) -> None:
        self.signum: int | None = None
        self._previous: dict[int, Any] = {}

    def _set(self, signum: int, frame: Any) -> None:
        self.signum = signum

    def __enter__(self) -> "InterruptFlag":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._previous[signum] = signal.signal(signum, self._set)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)


def _quarantine_part(checkpointing: Checkpointing) -> str:
    return os.path.join(checkpointing.directory, "quarantine.part")


def open_quarantine(
    on_error: ErrorPolicy,
    path: str | None,
    checkpointing: Checkpointing | None = None,
    state: dict | None = None,
) -> QuarantineWriter | None:
    """The run's sidecar writer; ``None`` unless the policy quarantines.

    A plain run writes ``path`` in place, line by line — the sidecar is
    evidence, and must survive the run dying.  A checkpointed run
    writes ``quarantine.part`` in its directory, rewound to ``state``
    (a checkpoint's ``"quarantine"`` entry) on resume, and
    :func:`publish_quarantine` renames it over ``path``.
    """
    if on_error is not ErrorPolicy.QUARANTINE:
        return None
    assert path is not None
    if checkpointing is None:
        return QuarantineWriter.open(path)
    if state is None:
        # The quarantine .part sink, atomically published on finish.
        stream = open(_quarantine_part(checkpointing), "wb")
    else:
        # Resume rewinds the sidecar to the checkpointed offset.
        stream = open(_quarantine_part(checkpointing), "r+b")
        stream.truncate(state["pos"])
        stream.seek(state["pos"])
    writer = QuarantineWriter(stream, owns_stream=True)
    if state is not None:
        writer.restore_state(state)
    return writer


def quarantine_state(quarantine: QuarantineWriter | None) -> dict:
    """A checkpoint's ``"quarantine"`` entry: fsync, then count + offset."""
    if quarantine is None:
        return {"pos": 0, "count": 0, "wrote_header": False}
    quarantine.sync()
    state = quarantine.export_state()
    state["pos"] = quarantine.tell()
    return state


def publish_quarantine(
    quarantine: QuarantineWriter | None, path: str | None, checkpointing: Checkpointing | None
) -> None:
    """End of a completed run: fsync, close, and rename the part file."""
    if quarantine is None:
        return
    quarantine.sync()
    quarantine.close()
    if checkpointing is not None:
        assert path is not None
        replace_atomic(_quarantine_part(checkpointing), path)


# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RunResult:
    """Outcome of a run (serial or pooled), for the CLI to render."""

    health: PipelineHealth
    records: int
    resumed_generation: int | None
    checkpoints_written: int
    quarantine_count: int
    degraded_shards: list[int] = field(default_factory=list)
    worker_restarts: int = 0


def _batch_size(checkpointing: Checkpointing | None, records_fed: int) -> int:
    """Records to decode next; a durable batch ends at the next checkpoint
    or crash point, so that a cut describes exactly the records fed."""
    size = _READ_AHEAD
    if checkpointing is not None:
        if checkpointing.every:
            size = min(size, checkpointing.every - records_fed % checkpointing.every)
        if checkpointing.crash_injector is not None:
            size = min(size, checkpointing.crash_injector.remaining)
    return size


def run_serial(
    input_path: str,
    pipeline: AdClassificationPipeline,
    sink: RunSink,
    *,
    on_error: ErrorPolicy = ErrorPolicy.STRICT,
    quarantine_path: str | None = None,
    reorder_window: float | None = None,
    checkpointing: Checkpointing | None = None,
    log: Callable[[str], None] = lambda message: None,
) -> RunResult:
    """The one serial loop: reader → :class:`StreamingClassifier` → sink.

    ::

        for batch in seekable_reader:          # 64 records, offset accounting
            classifier.feed(each record)
            for entry in classifier.drain():   # the entries that settled
                sink.consume(entry)
            sink.advance(classifier.next_index)
            every N records: checkpoint        # only if handed checkpointing
        for entry in classifier.finish():
            sink.consume(entry)
        sink.advance(classifier.next_index)
        sink.finalize()                        # publish outputs atomically

    Entries reach the sink as they settle, so the classifier holds only
    the redirect sources still waiting for their consequent request, and
    the sink restores index order: the bytes are
    :meth:`AdClassificationPipeline.process`'s (DESIGN.md §8).
    Plain (no ``checkpointing``): nothing is written but the sink's
    output and the sidecar, and signals are left alone.
    Checkpointed: a checkpoint is cut *between* batches,
    the only points where (input offset, classifier state, sink
    positions) are consistent; SIGINT/SIGTERM cut one more and raise
    :class:`RunInterrupted`; ``resume`` continues from the newest valid
    generation, byte-identical to an uninterrupted run.
    """
    # Refuse a missing input (CLI exit 2) or an old binlog (exit 1)
    # before anything is created beside it: the sidecar, the .part file.
    SeekableLogReader(input_path).close()
    store = checkpoint = None
    if checkpointing is not None:
        store, checkpoint = checkpointing.begin(log)
    payload = checkpoint.payload if checkpoint is not None else None

    health = PipelineHealth.from_state(payload["health"]) if payload else PipelineHealth()
    quarantine = open_quarantine(
        on_error, quarantine_path, checkpointing, payload["quarantine"] if payload else None
    )
    reader = SeekableLogReader(
        input_path, on_error=on_error, health=health, quarantine=quarantine
    )
    classifier = StreamingClassifier(pipeline, reorder_window=reorder_window, health=health)
    records_fed = checkpoints_written = 0
    with InterruptFlag() if checkpointing is not None else contextlib.nullcontext() as flag:
        try:
            sink.begin(fresh=payload is None, state=payload["sink"] if payload else None)
            if payload is not None:
                records_fed = payload["records_fed"]
                reader.seek(**payload["reader"])
                classifier.restore_state(payload["classifier"])
            records = iter(reader)
            while batch := list(itertools.islice(records, _batch_size(checkpointing, records_fed))):
                for record in batch:
                    classifier.feed(record)
                for entry in classifier.drain():
                    sink.consume(entry)
                sink.advance(classifier.next_index)
                records_fed += len(batch)
                if checkpointing is None:
                    continue
                due = checkpointing.every and records_fed % checkpointing.every == 0
                if due or flag.signum is not None:
                    store.save(
                        {
                            "records_fed": records_fed,
                            "reader": reader.position(),
                            "classifier": classifier.export_state(),
                            "health": health.export_state(),
                            "sink": sink.export_state(),
                            "quarantine": quarantine_state(quarantine),
                        }
                    )
                    checkpoints_written += 1
                if flag.signum is not None:
                    # Cut above, so the interrupted tail costs zero
                    # replay; .part outputs and the sidecar stay.
                    log("interrupted between records; checkpoint saved")
                    raise RunInterrupted(flag.signum)
                if checkpointing.crash_injector is not None:
                    checkpointing.crash_injector.tick(len(batch))
            for entry in classifier.finish():
                sink.consume(entry)
            sink.advance(classifier.next_index)
            sink.finalize()
            publish_quarantine(quarantine, quarantine_path, checkpointing)
            if store is not None:
                # The run is complete: a later --resume must rerun from
                # scratch, not replay a tail into published outputs.
                store.clear()
        finally:
            reader.close()
            sink.close()
            if quarantine is not None:
                quarantine.close()
    return RunResult(
        health=health,
        records=records_fed,
        resumed_generation=checkpoint.generation if checkpoint is not None else None,
        checkpoints_written=checkpoints_written,
        quarantine_count=quarantine.count if quarantine is not None else 0,
    )
