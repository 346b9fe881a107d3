"""Keyword-indexed filter matching engine.

This is the reproduction's replacement for ``libadblockplus``: given a
request URL plus the context the passive pipeline reconstructs (content
type, page host, third-party bit), it answers the classification the
paper needs (Fig 1): *is it a match, from which filter list, and is it
whitelisted*.

Matching strategy follows the ABP/adblock-rust matcher design:

1. each filter is indexed under one keyword — a literal substring that
   every matching URL must contain — chosen to keep index buckets
   small;
2. a URL is tokenized into candidate keywords; only filters indexed
   under those tokens (plus the keyword-less remainder) are tried;
3. exception filters are only consulted after some blocking filter
   matched, and ``$document`` page-level exceptions short-circuit
   everything.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.filterlist.filter import Filter, FilterKind, extract_keywords
from repro.filterlist.options import ContentType, FilterOptions
from repro.http.url import is_third_party, registrable_domain, split_url

__all__ = [
    "MatchResult",
    "Decision",
    "FilterEngine",
    "RequestContext",
    "Classification",
    "SNAPSHOT_STATE_VERSION",
    "fingerprint_of_filters",
]


@dataclass(frozen=True, slots=True)
class RequestContext:
    """Everything besides the URL that filter matching consumes.

    ``page_url`` is the URL of the page that (transitively) triggered
    the request — in the passive pipeline this comes from the referrer
    map; in the browser emulator it is exact.
    """

    content_type: ContentType
    page_url: str

    @property
    def page_host(self) -> str:
        return split_url(self.page_url).host


class Decision:
    """Tri-state classification outcome constants."""

    NONE = "none"
    BLOCK = "block"
    WHITELIST = "whitelist"


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of classifying one request (paper Fig 1's result box).

    Attributes:
        decision: :data:`Decision.BLOCK` when a blocking filter matched
            and no exception saved it; :data:`Decision.WHITELIST` when
            a blocking filter matched but an exception applies;
            :data:`Decision.NONE` otherwise.
        blocking_filter: the blacklist filter that matched, if any.
        exception_filter: the exception that rescued the request.
        list_name: list of the *blocking* filter (EasyList vs
            EasyPrivacy attribution in the paper).
        whitelist_name: list of the exception filter (the acceptable
            ads attribution).
    """

    decision: str
    blocking_filter: Filter | None = None
    exception_filter: Filter | None = None

    @property
    def is_ad(self) -> bool:
        """Paper's "ad request": blacklisted OR whitelisted (§6 fn 2)."""
        return self.decision != Decision.NONE

    @property
    def is_blocked(self) -> bool:
        return self.decision == Decision.BLOCK

    @property
    def is_whitelisted(self) -> bool:
        return self.decision == Decision.WHITELIST

    @property
    def list_name(self) -> str | None:
        return self.blocking_filter.list_name if self.blocking_filter else None

    @property
    def whitelist_name(self) -> str | None:
        return self.exception_filter.list_name if self.exception_filter else None


_URL_TOKEN = re.compile(r"[a-z0-9%]{3,}")


def tokenize_url(url: str) -> list[str]:
    """Candidate keywords contained in a URL (lower-cased)."""
    return _URL_TOKEN.findall(url.lower())


# ``||host^`` / ``||host/…`` patterns whose anchor is a plain hostname.
# The anchor must be immediately followed by ``^`` or ``/``: only then is
# every matching URL guaranteed to have the anchor as a host suffix, so
# the filter can be bucketed by registrable domain (see _host_bucket_key).
_HOST_ANCHOR = re.compile(r"^\|\|([a-z0-9\-]+(?:\.[a-z0-9\-]+)+)[/^]")


def _host_bucket_key(pattern: str) -> str | None:
    """Registrable-domain bucket for a ``||domain^``-style pattern.

    Returns ``None`` when the pattern cannot be soundly bucketed by the
    request host's registrable domain: no clean host anchor, or the
    anchor *is* (or sits inside) a public suffix, in which case hosts
    with different registrable domains can still match the filter
    (``||co.uk^`` matches every ``*.co.uk`` host).
    """
    match = _HOST_ANCHOR.match(pattern.lower())
    if match is None:
        return None
    anchor = match.group(1)
    domain = registrable_domain(anchor)
    if registrable_domain("x." + anchor) != domain:
        return None  # anchor is a public suffix or a single label
    return domain


# Doc-exception patterns whose outcome is a function of the page *host*
# alone: a hostname anchor with nothing after it but an optional ``^``.
# The domain-anchor regex confines such patterns to the netloc, and a
# host-char-only literal cannot distinguish two netlocs that share a
# host (ports are all-digit and colon-delimited), so page path/query
# never influence the match.
_HOST_ONLY_DOC = re.compile(r"^\|\|[a-z0-9.\-]+\^?$")


def _document_is_host_only(filter_: Filter) -> bool:
    if filter_.options.match_case:
        return False  # raw page URLs may differ from the split host in case
    return _HOST_ONLY_DOC.match(filter_.pattern.lower()) is not None


# Version of the engine's *state* wire form (the snapshot container in
# repro.filterlist.snapshot has its own header version; this one guards
# the layout of the JSON payload below it).
SNAPSHOT_STATE_VERSION = 2  # 2: option sets in their own table


def fingerprint_of_filters(groups: "Iterable[tuple[str, Iterable[Filter]]]") -> str:
    """The fingerprint an engine would carry after adding these groups.

    Replays the :meth:`FilterEngine.add_filters` hash chain (one batch
    per ``(list_name, filters)`` group, in order) without building any
    index — cheap enough to pin a snapshot's identity against freshly
    parsed lists before trusting it (DESIGN.md §15).
    """
    fingerprint = hashlib.sha256(b"repro.filterlist.engine").hexdigest()
    for list_name, filters in groups:
        hasher = hashlib.sha256(fingerprint.encode("ascii"))
        for filter_ in filters:
            hasher.update(filter_.text.encode("utf-8", "replace"))
            hasher.update(b"\x00")
            hasher.update((filter_.list_name or list_name).encode("utf-8", "replace"))
            hasher.update(b"\x00")
        fingerprint = hasher.hexdigest()
    return fingerprint


def _options_to_wire(opts: FilterOptions) -> tuple:
    """One option set as hashable primitives, in field-declaration order."""
    return (
        int(opts.type_mask),
        tuple(sorted(opts.domains_include)),
        tuple(sorted(opts.domains_exclude)),
        opts.third_party,
        opts.match_case,
        opts.elemhide_exception,
        opts.generic_hide,
        opts.collapse,
        tuple(opts.unknown_options),
        tuple(opts.conflicts),
    )


def _options_from_wire(wire: "tuple | list") -> FilterOptions:
    """Inverse of :func:`_options_to_wire` (JSON hands back lists)."""
    type_mask, include, exclude, *flags, unknown, conflicts = wire
    return FilterOptions(
        ContentType(type_mask), frozenset(include), frozenset(exclude), *flags,
        tuple(unknown), tuple(conflicts),
    )


class _FilterIndex:
    """Keyword index over one kind of filters (blocking or exception).

    Host-anchored filters (the bulk of EasyList-style lists) are kept in
    a dedicated registrable-domain bucket map: a ``||domain^`` filter can
    only ever match URLs whose host shares ``domain``'s registrable
    domain, so one dict lookup on the request host replaces both the
    keyword buckets and the keywordless linear tail for those filters.
    """

    def __init__(self) -> None:
        self._by_keyword: dict[str, list[Filter]] = defaultdict(list)
        self._by_host: dict[str, list[Filter]] = defaultdict(list)
        self._keywordless: list[Filter] = []
        self._count = 0

    def add(self, filter_: Filter, keyword_counts: dict[str, int]) -> None:
        self._count += 1
        host_key = _host_bucket_key(filter_.pattern)
        if host_key is not None:
            self._by_host[host_key].append(filter_)
            return
        keywords = extract_keywords(filter_.pattern)
        if not keywords:
            self._keywordless.append(filter_)
            return
        # Pick the keyword with the fewest filters indexed so far,
        # breaking ties towards longer (more selective) keywords.
        best = min(keywords, key=lambda k: (keyword_counts.get(k, 0), -len(k)))
        keyword_counts[best] = keyword_counts.get(best, 0) + 1
        self._by_keyword[best].append(filter_)

    def candidates(self, url_tokens: list[str], request_host: str = "") -> Iterable[Filter]:
        if self._by_host:
            if "@" in request_host or ":" in request_host:
                # Userinfo / non-numeric "port": the split host is not a
                # clean hostname, so the registrable-domain shortcut is
                # unsound — fall back to scanning every host bucket.
                for bucket in self._by_host.values():
                    yield from bucket
            else:
                bucket = self._by_host.get(registrable_domain(request_host))
                if bucket:
                    yield from bucket
        seen_buckets = set()
        for token in url_tokens:
            if token in self._by_keyword and token not in seen_buckets:
                seen_buckets.add(token)
                yield from self._by_keyword[token]
        yield from self._keywordless

    def all_filters(self) -> list[Filter]:
        filters: list[Filter] = []
        for bucket in self._by_host.values():
            filters.extend(bucket)
        filters.extend(self._keywordless)
        for bucket in self._by_keyword.values():
            filters.extend(bucket)
        return filters

    def __len__(self) -> int:
        return self._count

    def to_snapshot(self, ref: "Callable[[Filter], int]") -> dict:
        """Primitive wire form preserving the exact bucket layout.

        Bucket membership *and* iteration order decide which filter a
        multi-match reports, so the snapshot stores the index shape
        explicitly (as lists of table references) instead of letting the
        loader re-run keyword selection over a different history.
        """
        return {
            "by_host": [(key, [ref(f) for f in bucket]) for key, bucket in self._by_host.items()],
            "by_keyword": [
                (kw, [ref(f) for f in bucket]) for kw, bucket in self._by_keyword.items()
            ],
            "keywordless": [ref(f) for f in self._keywordless],
            "count": self._count,
        }

    @classmethod
    def from_snapshot(cls, data: dict, filters: list[Filter]) -> "_FilterIndex":
        index = cls()
        for key, bucket in data["by_host"]:
            index._by_host[key] = [filters[i] for i in bucket]
        for kw, bucket in data["by_keyword"]:
            index._by_keyword[kw] = [filters[i] for i in bucket]
        index._keywordless = [filters[i] for i in data["keywordless"]]
        index._count = data["count"]
        return index


class FilterEngine:
    """Multi-list filter matcher with ABP semantics.

    Lists are added in priority order only for attribution purposes —
    matching semantics do not depend on list order (any blocking match
    can be cancelled by any exception match, as in ABP where all
    subscriptions share one matcher).

    Args:
        use_keyword_index: disable to fall back to a linear scan over
            all filters — kept for the ablation benchmark.
    """

    def __init__(self, *, use_keyword_index: bool = True):
        self._use_index = use_keyword_index
        self._blocking = _FilterIndex()
        self._exceptions = _FilterIndex()
        self._document_exceptions: list[Filter] = []
        self._keyword_counts: dict[str, int] = {}
        self._list_names: list[str] = []
        self._fingerprint = hashlib.sha256(b"repro.filterlist.engine").hexdigest()
        self._page_sensitive_documents = False

    def add_filters(self, filters: Iterable[Filter], list_name: str | None = None) -> None:
        """Register filters; ``list_name`` overrides their attribution.

        The fingerprint rotates *before* the indexes mutate: if indexing
        a filter raises halfway through the batch, the engine is left
        with changed matching state but must never be left with the old
        fingerprint, or a warm :class:`~repro.filterlist.cache.DecisionCache`
        keyed on it would keep replaying decisions computed against the
        pre-mutation filter set (the stale-fingerprint window).
        """
        materialized = list(filters)
        hasher = hashlib.sha256(self._fingerprint.encode("ascii"))
        for filter_ in materialized:
            if list_name is not None and not filter_.list_name:
                filter_.list_name = list_name
            hasher.update(filter_.text.encode("utf-8", "replace"))
            hasher.update(b"\x00")
            hasher.update(filter_.list_name.encode("utf-8", "replace"))
            hasher.update(b"\x00")
        self._fingerprint = hasher.hexdigest()
        for filter_ in materialized:
            if filter_.is_exception:
                self._exceptions.add(filter_, self._keyword_counts)
                if filter_.options.is_document_exception:
                    self._document_exceptions.append(filter_)
                    if not _document_is_host_only(filter_):
                        self._page_sensitive_documents = True
            else:
                self._blocking.add(filter_, self._keyword_counts)
        if list_name is not None and list_name not in self._list_names:
            self._list_names.append(list_name)

    @property
    def list_names(self) -> list[str]:
        return list(self._list_names)

    @property
    def filter_count(self) -> int:
        return len(self._blocking) + len(self._exceptions)

    def iter_filters(self) -> list[Filter]:
        """Every registered filter, in index-iteration order.

        Document exceptions live in both the exception index and the
        ``_document_exceptions`` fast path; they appear once here.
        """
        return self._blocking.all_filters() + self._exceptions.all_filters()

    @property
    def fingerprint(self) -> str:
        """Hash chained over every (filter text, attribution) ever added.

        Two engines with the same fingerprint produce identical
        classifications; a decision cache keyed on it can therefore
        never serve results computed against different filter state.
        """
        return self._fingerprint

    @property
    def document_matching_needs_page_url(self) -> bool:
        """Whether classification can depend on the page URL's *path*.

        ``$document`` exceptions are matched against the full page URL.
        For the common ``@@||host^$document`` shape the outcome is a
        function of the page host alone, so a decision cache may key on
        ``page_host``; any other doc-exception pattern forces the full
        page URL into the key.
        """
        return self._page_sensitive_documents

    def _candidates(
        self, index: _FilterIndex, tokens: list[str], request_host: str
    ) -> Iterable[Filter]:
        if self._use_index:
            return index.candidates(tokens, request_host)
        return index.all_filters()

    def match(
        self, url: str, context: RequestContext, *, request_host: str | None = None
    ) -> MatchResult:
        """Classify one request.

        Implements ABP precedence: ``$document`` page exceptions first,
        then blocking filters, then request exceptions.  Callers that
        already split the URL pass ``request_host`` to skip the re-split.
        """
        page_host = context.page_host
        if request_host is None:
            request_host = split_url(url).host
        third_party = is_third_party(request_host, page_host) if page_host else True

        for exception in self._document_exceptions:
            if exception.matches_document(context.page_url, page_host):
                return MatchResult(
                    decision=Decision.WHITELIST,
                    blocking_filter=None,
                    exception_filter=exception,
                )

        tokens = tokenize_url(url)
        blocking_hit: Filter | None = None
        for filter_ in self._candidates(self._blocking, tokens, request_host):
            if filter_.matches(url, context.content_type, page_host, third_party=third_party):
                blocking_hit = filter_
                break
        if blocking_hit is None:
            return MatchResult(decision=Decision.NONE)

        for exception in self._candidates(self._exceptions, tokens, request_host):
            if exception.options.is_document_exception:
                continue  # handled above against the page URL
            if exception.matches(url, context.content_type, page_host, third_party=third_party):
                return MatchResult(
                    decision=Decision.WHITELIST,
                    blocking_filter=blocking_hit,
                    exception_filter=exception,
                )
        return MatchResult(decision=Decision.BLOCK, blocking_filter=blocking_hit)

    def should_block(self, url: str, context: RequestContext) -> bool:
        """Convenience wrapper: would ABP prevent this request?"""
        return self.match(url, context).is_blocked

    def classify(
        self, url: str, context: RequestContext, *, request_host: str | None = None
    ) -> "Classification":
        """Offline classification used by the passive methodology.

        Unlike :meth:`match` (runtime ABP semantics), the paper's
        pipeline records blacklist and whitelist hits *independently*:
        §7.3 reports whitelisted requests that no blacklist rule would
        have blocked (42.7% of whitelist matches), which is only
        observable when exceptions are evaluated unconditionally.
        ``$document`` exceptions are additionally tested against the
        request URL itself — exactly how overly general rules like
        ``@@||gstatic.com^$document`` rack up request-level matches in
        the paper.
        """
        page_host = context.page_host
        if request_host is None:
            request_host = split_url(url).host
        third_party = is_third_party(request_host, page_host) if page_host else True
        tokens = tokenize_url(url)

        blacklist_hit: Filter | None = None
        hit_lists: list[str] = []
        for filter_ in self._candidates(self._blocking, tokens, request_host):
            if filter_.list_name in hit_lists:
                continue  # already know this list matches
            if filter_.matches(url, context.content_type, page_host, third_party=third_party):
                if blacklist_hit is None:
                    blacklist_hit = filter_
                hit_lists.append(filter_.list_name)
                if len(hit_lists) == len(self._list_names):
                    break

        whitelist_hit: Filter | None = None
        for exception in self._candidates(self._exceptions, tokens, request_host):
            if exception.options.is_document_exception:
                continue
            if exception.matches(url, context.content_type, page_host, third_party=third_party):
                whitelist_hit = exception
                break
        if whitelist_hit is None:
            for exception in self._document_exceptions:
                if exception.matches_document(url, request_host) or exception.matches_document(
                    context.page_url, page_host
                ):
                    whitelist_hit = exception
                    break

        return Classification(
            blacklist_filter=blacklist_hit,
            whitelist_filter=whitelist_hit,
            blacklist_lists=tuple(hit_lists),
        )

    def export_snapshot_state(self) -> dict:
        """JSON-ready primitive form of the full matcher state.

        The filter table is deduplicated by object identity so document
        exceptions (which appear both in the exception index and the
        ``_document_exceptions`` fast path) restore as one shared object,
        preserving the original aliasing.
        """
        table: list[Filter] = []
        ids: dict[int, int] = {}

        def ref(filter_: Filter) -> int:
            key = id(filter_)
            if key not in ids:
                ids[key] = len(table)
                table.append(filter_)
            return ids[key]

        blocking = self._blocking.to_snapshot(ref)
        exceptions = self._exceptions.to_snapshot(ref)
        document_exceptions = [ref(f) for f in self._document_exceptions]
        # A list has far fewer distinct option sets than filters: each
        # is written once and filters refer to it by position.  The
        # regex is no part of the wire form; it compiles on first search.
        option_refs: dict[tuple, int] = {}
        filters = [
            (
                f.text,
                f.kind.value,
                f.pattern,
                f.list_name,
                option_refs.setdefault(_options_to_wire(f.options), len(option_refs)),
            )
            for f in table
        ]
        return {
            "state_version": SNAPSHOT_STATE_VERSION,
            "fingerprint": self._fingerprint,
            "use_index": self._use_index,
            "list_names": list(self._list_names),
            "page_sensitive_documents": self._page_sensitive_documents,
            "keyword_counts": sorted(self._keyword_counts.items()),
            "options": list(option_refs),
            "filters": filters,
            "blocking": blocking,
            "exceptions": exceptions,
            "document_exceptions": document_exceptions,
        }

    @classmethod
    def restore_snapshot_state(cls, state: dict) -> "FilterEngine":
        """Rebuild an engine from :meth:`export_snapshot_state` output.

        A classmethod so subclasses (the actrie engine) restore as their
        own type.  ``_keyword_counts`` is restored too: filters added
        *after* a snapshot load must land in the same buckets they would
        have landed in had the whole history run in one process, or the
        restored engine and a from-scratch engine could report different
        filters for multi-match URLs.
        """
        version = state.get("state_version")
        if version != SNAPSHOT_STATE_VERSION:
            raise ValueError(
                f"unsupported engine snapshot state version {version!r} "
                f"(expected {SNAPSHOT_STATE_VERSION})"
            )
        engine = cls(use_keyword_index=state["use_index"])
        # Built directly rather than via Filter.parse, so the restored
        # filters carry exactly the option sets the original engine
        # matched with.  Filters with equal options share one
        # FilterOptions object: nothing mutates options after parsing.
        options = [_options_from_wire(wire) for wire in state["options"]]
        filters = [
            Filter(
                text=text,
                kind=FilterKind(kind),
                pattern=pattern,
                options=options[option_ref],
                list_name=list_name,
            )
            for text, kind, pattern, list_name, option_ref in state["filters"]
        ]
        engine._blocking = _FilterIndex.from_snapshot(state["blocking"], filters)
        engine._exceptions = _FilterIndex.from_snapshot(state["exceptions"], filters)
        engine._document_exceptions = [filters[i] for i in state["document_exceptions"]]
        engine._keyword_counts = dict(state["keyword_counts"])
        engine._list_names = list(state["list_names"])
        engine._fingerprint = state["fingerprint"]
        engine._page_sensitive_documents = state["page_sensitive_documents"]
        return engine


@dataclass(frozen=True, slots=True)
class Classification:
    """Offline classification record (paper Fig 1 result box).

    ``is a match`` -> :attr:`is_ad`; ``which filter list`` ->
    :attr:`blacklist_name`; ``is whitelisted`` -> :attr:`is_whitelisted`.
    ``blacklist_lists`` carries *every* list with a blocking match —
    §7.3 needs to know that a whitelisted request would also have been
    filtered by EasyPrivacy, even when EasyList matched first.
    """

    blacklist_filter: Filter | None
    whitelist_filter: Filter | None
    blacklist_lists: tuple[str, ...] = ()

    @property
    def is_ad(self) -> bool:
        """Paper's "ad request": any blacklist or whitelist hit (§6 fn 2)."""
        return self.blacklist_filter is not None or self.whitelist_filter is not None

    @property
    def is_blacklisted(self) -> bool:
        return self.blacklist_filter is not None

    @property
    def is_whitelisted(self) -> bool:
        return self.whitelist_filter is not None

    @property
    def would_block(self) -> bool:
        """Runtime outcome: blocked unless an exception rescues it."""
        return self.blacklist_filter is not None and self.whitelist_filter is None

    @property
    def blacklist_name(self) -> str | None:
        return self.blacklist_filter.list_name if self.blacklist_filter else None

    @property
    def whitelist_name(self) -> str | None:
        return self.whitelist_filter.list_name if self.whitelist_filter else None
