"""Quarantine sidecar: rejected lines are kept, never silently lost.

The sidecar is itself TSV — ``line_no \\t reason \\t raw`` — with the
raw line last so embedded tabs stay recoverable.  ``read_quarantine``
inverts the format for tooling and tests.

The writer flushes after every line (``flush_every=1``) by default:
the sidecar exists precisely because something is going wrong, so its
contents must survive the process dying mid-run — buffering rejected
lines in memory would lose exactly the evidence the sidecar is for.
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterator

__all__ = ["QuarantineWriter", "read_quarantine"]

_HEADER = "#line\treason\traw"


class QuarantineWriter:
    """Appends rejected raw lines to a sidecar stream.

    Accepts a text or binary stream (binary lets durable runs use exact
    byte positions for checkpoint/truncate).  Use as a context manager
    — or call :meth:`close` — when the writer owns the stream via
    :meth:`open`.

    Args:
        stream: destination stream.
        flush_every: flush after this many writes (1 = every line).
    """

    def __init__(self, stream: IO, *, flush_every: int = 1, owns_stream: bool = False):
        self._stream = stream
        self._binary = isinstance(stream, (io.RawIOBase, io.BufferedIOBase))
        self._owns_stream = owns_stream
        self._flush_every = max(1, flush_every)
        self._unflushed = 0
        self._wrote_header = False
        self.count = 0

    @classmethod
    def open(cls, path: str, *, flush_every: int = 1) -> "QuarantineWriter":
        """Open ``path`` for writing and own the stream (close on exit)."""
        # Progressive sidecar; checkpoint resume truncates to a synced position.
        stream = open(path, "w", encoding="utf-8")
        return cls(stream, flush_every=flush_every, owns_stream=True)

    def _emit(self, text: str) -> None:
        self._stream.write(text.encode("utf-8") if self._binary else text)

    def write(self, line_no: int, reason: str, raw: str) -> None:
        if not self._wrote_header:
            self._emit(_HEADER + "\n")
            self._wrote_header = True
        self._emit(f"{line_no}\t{reason}\t{raw}\n")
        self.count += 1
        self._unflushed += 1
        if self._unflushed >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        self._stream.flush()
        self._unflushed = 0

    def sync(self) -> None:
        """Flush and fsync — a sidecar line that reached here survives
        power loss (used at checkpoint boundaries)."""
        self.flush()
        try:
            os.fsync(self._stream.fileno())
        except (OSError, AttributeError, io.UnsupportedOperation):
            pass  # in-memory streams have no fileno

    def tell(self) -> int:
        """Stream position after a flush (byte-exact on binary streams)."""
        self.flush()
        return self._stream.tell()

    def close(self) -> None:
        if getattr(self._stream, "closed", False):
            return
        self.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "QuarantineWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- checkpoint wire form (DESIGN.md §8) ---------------------------

    def export_state(self) -> dict:
        """Resumable sidecar position; callers :meth:`sync` first so the
        stream position reflects everything counted."""
        return {"count": self.count, "wrote_header": self._wrote_header}

    def restore_state(self, state: dict) -> None:
        self.count = state["count"]
        self._wrote_header = state["wrote_header"]


def read_quarantine(stream: IO) -> Iterator[tuple[int, str, str]]:
    """Yield ``(line_no, reason, raw_line)`` from a sidecar stream."""
    for line in stream:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        line_no, reason, raw = line.split("\t", 2)
        yield int(line_no), reason, raw
