"""Error policies for damaged input (DESIGN.md §7).

Real RBN vantage points deliver damaged logs — truncated lines, garbled
fields, capture loss (§3.1, §5 of the paper).  Every ingestion stage
takes an :class:`ErrorPolicy` deciding what happens to a record it
cannot parse:

* ``STRICT`` — raise :class:`LogParseError` on the first bad line
  (the seed behaviour, but with a line number instead of an opaque
  ``TypeError``).
* ``SKIP`` — drop the record, count it, keep going.
* ``QUARANTINE`` — like ``SKIP``, but additionally write the raw line
  with its line number and error reason to a sidecar file so no data
  is silently lost.
"""

from __future__ import annotations

import enum

__all__ = ["ErrorPolicy", "LogParseError", "RunInterrupted"]


class ErrorPolicy(str, enum.Enum):
    """What an ingestion stage does with a record it cannot parse."""

    STRICT = "strict"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    def __str__(self) -> str:  # argparse-friendly
        return self.value


class LogParseError(ValueError):
    """A log line failed to parse (strict mode).

    Carries the 1-based line number and the offending raw line so the
    operator can locate the damage in the capture.
    """

    def __init__(self, line_no: int, reason: str, line: str = ""):
        self.line_no = line_no
        self.reason = reason
        self.line = line
        super().__init__(f"line {line_no}: {reason}")


class RunInterrupted(Exception):
    """The run received SIGINT/SIGTERM and shut down cleanly (exit 130).

    Raised by any run driver — the parallel pool supervisor, the serial
    :func:`~repro.robustness.runstate.run_serial` loop, and the
    ``repro serve`` daemon's drain path — after durable state has been
    left in a resumable condition.  Lives here (not in ``parallel``) so
    the serial and serving paths don't import the pool machinery just to
    signal an interruption.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum
