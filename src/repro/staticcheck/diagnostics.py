"""Diagnostic model for the filter-list lint (DESIGN.md §9).

Every finding about a filter rule is one :class:`Diagnostic` with a
stable ``FLxxx`` code, a severity, a source location and a
human-readable message.  Stable
codes make findings baseline-able: a committed baseline file pins the
accepted findings and CI fails only on the diff.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "Severity",
    "Diagnostic",
    "CODES",
    "default_severity",
    "render_text",
    "render_json",
    "summarize",
]


class Severity(enum.IntEnum):
    """Finding severity; ordering is used by ``--fail-on``."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


# Code registry: default severity + one-line title.  DESIGN.md §9 is
# the normative description of each check.
CODES: Mapping[str, tuple[Severity, str]] = {
    "FL001": (Severity.ERROR, "unparseable rule"),
    "FL002": (Severity.WARNING, "rule shadowed by a broader rule"),
    "FL003": (Severity.ERROR, "dead rule: option combination unsatisfiable"),
    "FL004": (Severity.WARNING, "redundant duplicate after normalization"),
    "FL005": (Severity.WARNING, "exception rule whitelists nothing"),
    "FL006": (Severity.ERROR, "ReDoS hazard in regex-style rule"),
    "FL007": (Severity.WARNING, "unknown or misused $option"),
    "FL008": (Severity.ERROR, "conflicting domain= restriction"),
}


def default_severity(code: str) -> Severity:
    return CODES[code][0]


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One static-analysis finding.

    ``source`` is the filter-list name or path; ``line`` is 1-based (0
    for whole-file findings).  ``subject`` is the rule text the finding
    is about — it anchors the baseline fingerprint so reordering lines
    does not churn baselines.
    """

    code: str
    message: str
    source: str
    line: int = 0
    subject: str = ""
    severity: Severity = field(default=Severity.ERROR)

    @classmethod
    def build(
        cls,
        code: str,
        message: str,
        *,
        source: str,
        line: int = 0,
        subject: str = "",
        severity: Severity | None = None,
    ) -> "Diagnostic":
        return cls(
            code=code,
            message=message,
            source=source,
            line=line,
            subject=subject,
            severity=default_severity(code) if severity is None else severity,
        )

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number-free)."""
        return f"{self.code}:{self.source}:{self.subject or self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "source": self.source,
            "line": self.line,
            "subject": self.subject,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


def summarize(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    counts = {"error": 0, "warning": 0, "info": 0}
    for diagnostic in diagnostics:
        counts[str(diagnostic.severity)] += 1
    return counts


def render_text(diagnostics: list[Diagnostic]) -> str:
    """One classic compiler-style line per finding."""
    lines = []
    for diag in sorted(diagnostics, key=lambda d: (d.source, d.line, d.code)):
        location = f"{diag.source}:{diag.line}" if diag.line else diag.source
        subject = f"  [{diag.subject}]" if diag.subject else ""
        lines.append(f"{location}: {diag.code} {diag.severity}: {diag.message}{subject}")
    counts = summarize(diagnostics)
    lines.append(
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info"
    )
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic]) -> str:
    payload = {
        "version": 1,
        "counts": summarize(diagnostics),
        "findings": [
            diag.to_dict()
            for diag in sorted(diagnostics, key=lambda d: (d.source, d.line, d.code))
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
