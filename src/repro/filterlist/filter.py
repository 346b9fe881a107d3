"""Compiled filter objects and single-filter URL matching.

Implements the documented Adblock Plus pattern language:

* plain substring patterns (``/adserver/``),
* ``*`` wildcards,
* the ``^`` separator placeholder (matches any character that is not a
  letter, digit or one of ``_ - . %``, and also the end of the URL),
* ``|`` start/end anchors and the ``||`` domain anchor,
* ``@@`` exception markers and ``$options`` (see
  :mod:`repro.filterlist.options`),
* element-hiding rules ``domains##selector`` / ``#@#``.

Patterns compile to Python regexes the same way ABP compiles them to
JavaScript regexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from repro.filterlist.options import ContentType, FilterOptions, parse_options

__all__ = [
    "FilterKind",
    "Filter",
    "ElementHidingRule",
    "compile_pattern",
    "extract_keywords",
]


class FilterKind(str, Enum):
    BLOCKING = "blocking"
    EXCEPTION = "exception"


_SEPARATOR_REGEX = r"(?:[^\w\-.%]|$)"
# ABP's domain-anchor prefix: scheme, ://, optionally any subdomains.
_DOMAIN_ANCHOR_REGEX = r"^[\w\-]+:/+(?:[^/]+\.)?"


def compile_pattern(pattern: str, *, match_case: bool = False) -> re.Pattern[str]:
    """Compile an ABP filter pattern into a regex.

    The translation mirrors adblockplus/lib/matcher semantics:
    collapse runs of ``*``, read the anchors off the true pattern
    edges, escape everything else, then substitute the special tokens.

    Anchors are detected *before* edge wildcards are stripped: in
    ``*|foo`` the ``|`` is mid-pattern and therefore a literal, and in
    ``|*foo`` / ``foo*|`` the wildcard neutralizes the adjacent anchor
    (the anchored position may be arbitrarily far from the literal).
    The seed stripped wildcards first, which silently promoted those
    literal ``|`` characters to anchors.
    """
    text = re.sub(r"\*+", "*", pattern)

    anchor_start = anchor_domain = anchor_end = False
    if text.startswith("||"):
        anchor_domain = True
        text = text[2:]
    elif text.startswith("|"):
        anchor_start = True
        text = text[1:]
    if text.endswith("|"):
        anchor_end = True
        text = text[:-1]

    # Edge wildcards are no-ops for unanchored substring search and
    # cancel an anchor they sit next to.
    if text.startswith("*"):
        anchor_domain = anchor_start = False
        text = text.lstrip("*")
    if text.endswith("*"):
        anchor_end = False
        text = text.rstrip("*")

    out: list[str] = []
    if anchor_domain:
        out.append(_DOMAIN_ANCHOR_REGEX)
    elif anchor_start:
        out.append("^")
    for char in text:
        if char == "*":
            out.append(".*")
        elif char == "^":
            out.append(_SEPARATOR_REGEX)
        else:
            out.append(re.escape(char))
    if anchor_end:
        out.append("$")
    flags = 0 if match_case else re.IGNORECASE
    return re.compile("".join(out), flags)


_KEYWORD_TOKEN = re.compile(r"[a-z0-9%]{3,}")


def extract_keywords(pattern: str) -> list[str]:
    """Candidate index keywords of a filter pattern.

    Follows ABP's matcher exactly: a keyword is a literal run (length
    >= 3) *bounded on both sides by non-keyword, non-wildcard
    characters* in the pattern.  Only then is the run guaranteed to
    appear as a complete URL token in every matching URL — a run at
    the pattern edge (``track``) can match mid-token (``track0``) and
    must leave the filter un-indexed.  The caller picks one keyword
    (the least common) to index the filter under.
    """
    text = pattern.lower()
    if text.startswith("@@"):
        text = text[2:]
    dollar = _find_options_separator(text)
    if dollar is not None:
        text = text[:dollar]
    # Replace anchors so they act as boundaries without gluing literals.
    text = text.replace("||", " ").replace("|", " ")
    keywords: list[str] = []
    for match in _KEYWORD_TOKEN.finditer(text):
        start, end = match.span()
        if start == 0 or text[start - 1] == "*":
            continue  # run may be a suffix of a longer URL token
        if end >= len(text) or text[end] == "*":
            continue  # run may be a prefix of a longer URL token
        keywords.append(match.group())
    return keywords


def _find_options_separator(text: str) -> int | None:
    """Index of the ``$`` starting the options, or None.

    A ``$`` only separates options when what follows looks like an
    option list; this mirrors ABP's regex and keeps patterns containing
    ``$`` literals (rare) working.
    """
    candidate = text.rfind("$")
    while candidate > 0:
        tail = text[candidate + 1 :]
        if re.fullmatch(r"[\w\-~,=.|!*^]*", tail) and not tail.startswith("/"):
            return candidate
        candidate = text.rfind("$", 0, candidate)
    return None


@dataclass(slots=True)
class Filter:
    """One request filter (blocking or exception).

    The pattern's regex is compiled the first time :attr:`regex` is
    read, not when the filter is made: a list-scale engine holds tens
    of thousands of filters and a trace only ever searches the few
    hundred whose buckets its URLs reach (DESIGN.md §15).
    """

    # Process-local, never part of equality, ``repr`` or the snapshot
    # wire form (``FilterEngine.export_snapshot_state``).
    _TRANSIENT_STATE = ("_regex",)

    text: str
    kind: FilterKind
    pattern: str
    options: FilterOptions
    list_name: str = ""
    _regex: re.Pattern[str] | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def is_exception(self) -> bool:
        return self.kind is FilterKind.EXCEPTION

    @property
    def regex(self) -> re.Pattern[str]:
        regex = self._regex
        if regex is None:
            # Unlocked on purpose: two threads racing here compile the
            # same pattern twice and the last write wins — same regex
            # either way (``serve`` builds engines in a worker thread
            # but classifies on the loop).
            regex = self._regex = compile_pattern(self.pattern, match_case=self.options.match_case)
        return regex

    @classmethod
    def parse(cls, line: str, *, list_name: str = "", lenient: bool = False) -> "Filter":
        """Parse one filter line (not a comment / elemhide rule).

        ``lenient`` is the linter's mode: unknown ``$options`` are
        recorded on :attr:`FilterOptions.unknown_options` instead of
        rejecting the rule (FL007 needs the parsed rule to report it).
        """
        text = line.strip()
        body = text
        kind = FilterKind.BLOCKING
        if body.startswith("@@"):
            kind = FilterKind.EXCEPTION
            body = body[2:]

        dollar = _find_options_separator(body)
        if dollar is not None:
            pattern, option_text = body[:dollar], body[dollar + 1 :]
            options = parse_options(
                option_text,
                is_exception=(kind is FilterKind.EXCEPTION),
                lenient=lenient,
            )
        else:
            pattern, options = body, FilterOptions()

        return cls(text=text, kind=kind, pattern=pattern, options=options, list_name=list_name)

    def matches(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        *,
        third_party: bool,
    ) -> bool:
        """Does this filter apply to ``url`` in the given request context?"""
        if not (self.options.type_mask & content_type):
            return False
        if self.options.third_party is not None and self.options.third_party != third_party:
            return False
        if not self.options.applies_to_domain(page_host):
            return False
        return self.regex.search(url) is not None

    def matches_document(self, page_url: str, page_host: str) -> bool:
        """``$document`` exception check against the page itself."""
        if not self.is_exception or not self.options.is_document_exception:
            return False
        if not self.options.applies_to_domain(page_host):
            return False
        return self.regex.search(page_url) is not None


@dataclass(frozen=True, slots=True)
class ElementHidingRule:
    """An element-hiding rule: ``domain1,domain2##selector``.

    These rules never block requests; ABP applies them as CSS at render
    time (§2: "element hiding"), so the passive methodology cannot see
    them.  We parse them to drive the browser emulator's hidden-ad
    accounting and to keep synthetic lists realistic.
    """

    text: str
    selector: str
    domains_include: frozenset[str]
    domains_exclude: frozenset[str]
    is_exception: bool

    @classmethod
    def parse(cls, line: str) -> "ElementHidingRule":
        text = line.strip()
        for marker, is_exception in (("#@#", True), ("##", False)):
            index = text.find(marker)
            if index >= 0:
                domain_part, selector = text[:index], text[index + len(marker) :]
                include: set[str] = set()
                exclude: set[str] = set()
                for domain in domain_part.split(","):
                    domain = domain.strip().lower()
                    if not domain:
                        continue
                    if domain.startswith("~"):
                        exclude.add(domain[1:])
                    else:
                        include.add(domain)
                return cls(
                    text=text,
                    selector=selector.strip(),
                    domains_include=frozenset(include),
                    domains_exclude=frozenset(exclude),
                    is_exception=is_exception,
                )
        raise ValueError(f"not an element hiding rule: {line!r}")

    def applies_to(self, host: str) -> bool:
        host = host.lower()
        if any(host == d or host.endswith("." + d) for d in self.domains_exclude):
            return False
        if not self.domains_include:
            return True
        return any(host == d or host.endswith("." + d) for d in self.domains_include)
