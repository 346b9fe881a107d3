"""Filter-list text parser.

Splits a list file into request filters, element-hiding rules and
metadata.  List files follow the EasyList conventions: a ``[Adblock
Plus 2.0]`` header, ``!``-prefixed comments carrying ``key: value``
metadata (``Title``, ``Expires``, ``Version``, ...), then one rule per
line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.filterlist.filter import ElementHidingRule, Filter
from repro.filterlist.options import OptionParseError

__all__ = ["ParsedList", "RejectedLine", "parse_list_text", "parse_expires"]


@dataclass(frozen=True, slots=True)
class RejectedLine:
    """One rule line the parser discarded, with enough context to lint.

    The seed kept only the raw text, which made unknown ``$options``
    effectively silent — nothing downstream could say *which* option on
    *which line* killed the rule.  FL001/FL007 report straight from
    these records (DESIGN.md §9).
    """

    line_no: int
    text: str
    reason: str


@dataclass(slots=True)
class ParsedList:
    """Result of parsing one filter-list file."""

    name: str
    filters: list[Filter] = field(default_factory=list)
    hiding_rules: list[ElementHidingRule] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)
    invalid_lines: list[str] = field(default_factory=list)
    rejected: list[RejectedLine] = field(default_factory=list)

    @property
    def title(self) -> str:
        return self.metadata.get("title", self.name)

    @property
    def expires_seconds(self) -> float | None:
        """Soft-expiry interval from the ``Expires`` header (§3.2)."""
        raw = self.metadata.get("expires")
        if raw is None:
            return None
        return parse_expires(raw)


_EXPIRES_RE = re.compile(r"(\d+)\s*(day|days|hour|hours)", re.IGNORECASE)


def parse_expires(value: str) -> float | None:
    """Parse an ``Expires: N days`` header into seconds."""
    match = _EXPIRES_RE.search(value)
    if not match:
        return None
    amount = int(match.group(1))
    unit = match.group(2).lower()
    if unit.startswith("day"):
        return amount * 86400.0
    return amount * 3600.0


_METADATA_RE = re.compile(r"^!\s*([A-Za-z][A-Za-z ]*?)\s*:\s*(.+)$")


def parse_list_text(text: str, name: str = "") -> ParsedList:
    """Parse filter-list file content.

    Invalid filter lines (unknown options, broken syntax) are collected
    in :attr:`ParsedList.invalid_lines` instead of raising — a client
    must keep working when a list update ships one bad rule.
    """
    result = ParsedList(name=name)
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            result.metadata.setdefault("header", line[1:-1])
            continue
        if line.startswith("!"):
            meta = _METADATA_RE.match(line)
            if meta:
                result.metadata[meta.group(1).strip().lower()] = meta.group(2).strip()
            continue
        if "##" in line or "#@#" in line:
            try:
                result.hiding_rules.append(ElementHidingRule.parse(line))
            except ValueError as exc:
                result.invalid_lines.append(line)
                result.rejected.append(RejectedLine(line_no, line, str(exc)))
            continue
        try:
            result.filters.append(Filter.parse(line, list_name=name))
        except (OptionParseError, ValueError) as exc:
            result.invalid_lines.append(line)
            result.rejected.append(RejectedLine(line_no, line, str(exc)))
    return result
