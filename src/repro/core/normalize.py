"""Base-URL normalization of query strings (§3.1, "Base URL").

Requests frequently embed parts of *previous* URLs in their query
strings (cache busters, redirector targets, page URLs passed to ad
servers).  Matching filters against the raw string then misfires: the
embedded fragment, not the request itself, triggers the filter.  The
paper's remedy is to normalize query-string *values* to a placeholder
— except values that appear verbatim inside filter rules (e.g. the
``@@*jsp?callback=aslHandleAds*`` exception), which must survive or
the exception stops matching.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.filterlist.filter import Filter
from repro.http.url import SplitUrl, format_query, parse_query, split_url

__all__ = ["ProtectedValues", "collect_protected_values", "normalize_url"]

_PLACEHOLDER = "X"

# key=value fragments inside filter patterns; both parts URL-ish.
_PATTERN_PAIR = re.compile(r"([A-Za-z0-9_\-\[\]%.]+)=([A-Za-z0-9_\-%.]+)")


class ProtectedValues:
    """Query-string (key, value) pairs that filter rules depend on."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self._pairs = set(pairs)
        self._keys = {key for key, _ in self._pairs}

    def protects(self, key: str, value: str) -> bool:
        return (key, value) in self._pairs

    def has_key(self, key: str) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._pairs


def collect_protected_values(filters: Iterable[Filter]) -> ProtectedValues:
    """Harvest ``key=value`` fragments from filter patterns.

    Any value literally specified by some rule must never be
    normalized away, otherwise that rule (often an exception) silently
    stops matching — the exact failure mode §3.1 warns about.
    """
    pairs: set[tuple[str, str]] = set()
    for filter_ in filters:
        for match in _PATTERN_PAIR.finditer(filter_.pattern):
            value = match.group(2)
            if value and value != "*":
                pairs.add((match.group(1), value))
    return ProtectedValues(pairs)


def normalize_url(
    url: str, protected: ProtectedValues | None = None, *, parts: SplitUrl | None = None
) -> str:
    """Replace dynamic query-string values with a fixed placeholder.

    Keys are preserved (filters routinely match ``&ad_slot=``); values
    are replaced unless protected by a filter rule.  Valueless
    components are left untouched.  A URL without a query string comes
    back as ``url`` itself.  ``parts`` is ``split_url(url)`` when the
    caller already has it.
    """
    if parts is None:
        parts = split_url(url)
    if not parts.query:
        return url
    normalized: list[tuple[str, str]] = []
    for key, value in parse_query(parts.query):
        if not value:
            normalized.append((key, value))
        elif protected is not None and protected.protects(key, value):
            normalized.append((key, value))
        else:
            normalized.append((key, _PLACEHOLDER))
    # join_url's output for these parts with the new query, without
    # building a second SplitUrl to get it.
    prefix = f"{parts.scheme}://" if parts.scheme else "//"
    query = format_query(normalized)
    if query:
        return f"{prefix}{parts.netloc}{parts.path}?{query}"
    return f"{prefix}{parts.netloc}{parts.path}"
