"""Aho–Corasick substring prefilter matcher core.

The keyword-bucket engine (:mod:`repro.filterlist.engine`) spends most
of an uncached decision on discovery overhead the profile singles out:
the linear ``$document``-exception scan, per-candidate
:class:`~enum.IntFlag` arithmetic inside :meth:`Filter.matches`, and
generator plumbing in ``_FilterIndex.candidates``.  This module keeps
the *semantics* of the bucket engine bit-for-bit (the differential
harness in ``tests/test_engine_differential.py`` holds it to that)
while replacing the discovery machinery:

1. **Keyword discovery** runs one multi-pattern scan over the URL
   instead of tokenizing and probing the bucket dict per token.  Every
   indexed keyword goes into one trie-structured regex
   (:func:`trie_regex`), so the scan happens at C speed inside
   :mod:`re`; the pure-Python Aho–Corasick walk
   (:meth:`AhoCorasick.iter_matches`) is the reference implementation
   ``tests/test_actrie.py`` holds that regex to, and production never
   builds it.
2. **Candidate confirmation** uses flattened per-filter records
   ``(type_mask_int, third_party, domain_opts, regex_search, list_name,
   filter)`` so the hot loop does plain-``int`` mask tests and a bound
   ``regex.search`` instead of attribute chases through ``Filter`` and
   ``FilterOptions``.  A bucket is flattened the first time a URL
   reaches it (:class:`_Records`): flattening all of a list-scale
   engine up front costs the daemon 8 % of its peak resident size
   (DESIGN.md §15), and most buckets are never consulted.
3. **Keywordless tail** filters are guarded by one "any required
   literal present?" scan (the same trie regex, unanchored); the
   per-filter containment loop only runs on the rare URLs that pass it.
4. **Document exceptions** are bucketed by registrable domain exactly
   like the host-anchored blocking filters, eliminating the per-request
   linear scan for the common ``@@||host^$document`` shape.

Candidate *order* — which decides the reported filter on multi-match
URLs — is preserved exactly: host bucket first, then keyword buckets in
URL-token first-occurrence order, then the keywordless tail in
insertion order.  (Visiting a keyword bucket twice when a token repeats
cannot change any first-match/first-per-list outcome, so unlike the
bucket engine no dedup pass is needed.)
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any, Iterable, Iterator

from repro.filterlist.engine import (
    Classification,
    Decision,
    FilterEngine,
    MatchResult,
    RequestContext,
    _FilterIndex,
    _host_bucket_key,
)
from repro.filterlist.filter import Filter
from repro.http.url import is_third_party, registrable_domain, split_url

__all__ = ["AhoCorasick", "ACTrieEngine", "trie_regex"]


class AhoCorasick:
    """A classic Aho–Corasick automaton over a set of literal words.

    The reference implementation: :meth:`iter_matches` walks goto/fail
    links in pure Python, easy to verify against a naive scan.  The
    engine runs the same word set through :func:`trie_regex` instead
    and never builds this automaton.
    """

    def __init__(self, words: "list[str] | tuple[str, ...]" = ()) -> None:
        # Node 0 is the root.  _goto maps per-node char transitions;
        # _output collects the words ending at a node (after build(),
        # also every word ending at a fail-link suffix).
        self._goto: list[dict[str, int]] = [{}]
        self._fail: list[int] = [0]
        self._output: list[list[str]] = [[]]
        self._words: set[str] = set()
        self._built = False
        for word in words:
            self.add(word)

    def add(self, word: str) -> None:
        if self._built:
            raise RuntimeError("automaton already built")
        if not word:
            raise ValueError("empty word")
        if word in self._words:
            return
        self._words.add(word)
        node = 0
        for char in word:
            nxt = self._goto[node].get(char)
            if nxt is None:
                nxt = len(self._goto)
                self._goto[node][char] = nxt
                self._goto.append({})
                self._fail.append(0)
                self._output.append([])
            node = nxt
        self._output[node].append(word)

    def build(self) -> None:
        """Compute BFS failure links (idempotent)."""
        if self._built:
            return
        queue: deque[int] = deque()
        for child in self._goto[0].values():
            self._fail[child] = 0
            queue.append(child)
        while queue:
            node = queue.popleft()
            for char, child in self._goto[node].items():
                queue.append(child)
                fallback = self._fail[node]
                while fallback and char not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[child] = self._goto[fallback].get(char, 0)
                self._output[child] = self._output[child] + self._output[self._fail[child]]
        self._built = True

    def iter_matches(self, text: str) -> Iterator[tuple[int, str]]:
        """Yield ``(start, word)`` for every occurrence, in text order.

        Overlapping and nested occurrences are all reported (standard
        Aho–Corasick semantics).
        """
        self.build()
        node = 0
        for index, char in enumerate(text):
            while node and char not in self._goto[node]:
                node = self._fail[node]
            node = self._goto[node].get(char, 0)
            for word in self._output[node]:
                yield index - len(word) + 1, word


def trie_regex(words: Iterable[str]) -> str:
    """Trie-structured regex source matching exactly ``words``.

    Shared prefixes collapse into one branch, which is what makes a
    large keyword alternation tractable.  Longest-match preference
    falls out of the structure: at a node that both ends a word and
    continues, the continuation branch is tried first (greedy
    ``(?:...)?``), so a caller wrapping this in token-boundary
    lookarounds sees whole-token matches.  The source is serialized
    straight off the sorted word list — no trie is materialized.
    """
    ordered = sorted(set(words))
    if not ordered or not ordered[0]:
        raise ValueError("no words, or an empty word")

    def serialize(lo: int, hi: int, depth: int) -> str:
        """``ordered[lo:hi]`` share their first ``depth`` characters."""
        end = len(ordered[lo]) == depth  # the bare prefix sorts first
        if end:
            lo += 1
        branches = []
        while lo < hi:
            char = ordered[lo][depth]
            nxt = lo + 1
            while nxt < hi and ordered[nxt][depth] == char:
                nxt += 1
            branches.append(re.escape(char) + serialize(lo, nxt, depth + 1))
            lo = nxt
        if not branches:
            return ""
        if len(branches) == 1 and not end:
            return branches[0]
        return "(?:" + "|".join(branches) + ")" + ("?" if end else "")

    return serialize(0, len(ordered), 0)


# IntFlag attribute access goes through a descriptor on every call;
# memoize the plain int once per distinct flag value instead.  Filter
# type masks go through the same table, so the thousands of records
# sharing a mask share one int object.
_CT_VALUE: dict = {}


def _ct_int(content_type: Any) -> int:
    value = _CT_VALUE.get(content_type)
    if value is None:
        value = _CT_VALUE[content_type] = int(content_type)
    return value


# One confirmation record per filter: everything Filter.matches() needs,
# pre-extracted so the hot loop never touches IntFlag or FilterOptions
# attributes.  Layout: (type_mask_int, third_party, domain_opts_or_None,
# regex_search, list_name, filter).
_Record = tuple


def _record(filter_: Filter) -> _Record:
    opts = filter_.options
    domain_opts = opts if (opts.domains_include or opts.domains_exclude) else None
    return (
        _ct_int(opts.type_mask),
        opts.third_party,
        domain_opts,
        filter_.regex.search,
        filter_.list_name,
        filter_,
    )


class _Records(dict):
    """Bucket key -> confirmation records, flattened on first touch.

    Indexing is the only way in.  The ``_FilterIndex`` bucket map stays
    the source of truth (shared, not copied); a key it does not hold
    answers ``None`` and is not stored, so request hosts cannot grow
    the table.  ``$document`` exceptions are dropped while flattening:
    they get their own page-level pass, and the bucket engine skips
    them inline at the same point.
    """

    __slots__ = ("_source",)

    def __init__(self, source: dict[str, list[Filter]]) -> None:
        self._source = source

    def __missing__(self, key: str) -> "list[_Record] | None":
        bucket = self._source.get(key)
        if bucket is None:
            return None
        records = self[key] = [_record(f) for f in bucket if not f.options.is_document_exception]
        return records


def _required_literal(pattern: str) -> str | None:
    """Longest literal every URL matching ``pattern`` must contain.

    Edge anchors (``||``, ``|``) are positional, not literal, so they
    are stripped; the remainder is split on ``*`` (wildcard), ``^``
    (separator class) and ``|`` (mid-pattern pipes are literal, but a
    fragment of a required literal is itself required, so splitting
    stays sound).  Lower-cased because prefiltering scans the
    lower-cased URL — sound even for ``$match-case`` filters, which can
    only be *stricter* than the case-blind containment test.
    """
    text = pattern.lower()
    if text.startswith("||"):
        text = text[2:]
    elif text.startswith("|"):
        text = text[1:]
    if text.endswith("|"):
        text = text[:-1]
    segments = re.split(r"[*^|]", text)
    best = max(segments, key=len, default="")
    return best if len(best) >= 3 else None


_TOKEN_BOUNDARY_BEFORE = r"(?<![a-z0-9%])"
_TOKEN_BOUNDARY_AFTER = r"(?![a-z0-9%])"


class _CompiledIndex:
    """Discovery-ready view of one ``_FilterIndex``."""

    __slots__ = ("by_host", "host_all", "by_keyword", "keyed", "tail", "tail_always", "tail_any")

    def __init__(self, index: _FilterIndex) -> None:
        self.by_host = _Records(index._by_host)  # noqa: SLF001 — same-package internals
        self.host_all: list[_Record] | None = None
        self.by_keyword = _Records(index._by_keyword)  # noqa: SLF001
        # The keywordless tail, guarded by one any-literal scan: when no
        # required literal occurs in the URL, only the filters with no
        # extractable literal (tail_always) need confirming — and their
        # relative order is their insertion order, unchanged.
        self.tail: list[tuple[str | None, _Record]] = [
            (_required_literal(f.pattern), _record(f))
            for f in index._keywordless  # noqa: SLF001
            if not f.options.is_document_exception
        ]
        self.tail_always: list[_Record] = [rec for lit, rec in self.tail if lit is None]
        literals = {lit for lit, _rec in self.tail if lit is not None}
        self.tail_any: re.Pattern[str] | None = (
            re.compile(trie_regex(literals)) if literals else None
        )
        # Whether anything but the host probe can discover a candidate.
        self.keyed = bool(self.tail) or any(
            not f.options.is_document_exception
            for bucket in index._by_keyword.values()  # noqa: SLF001
            for f in bucket
        )

    def opaque_host_bucket(self) -> "list[_Record] | None":
        """Every host bucket's records in index order: what a host with
        no registrable domain falls back to.  Built on the first such
        host and shared by all of them."""
        if self.host_all is None:
            by_host = self.by_host
            self.host_all = [record for key in by_host._source for record in by_host[key]]  # noqa: SLF001
        return self.host_all or None

    def buckets_for(
        self, host_bucket: "list[_Record] | None", tokens: list[str], url_lower: str
    ) -> list:
        """Candidate buckets in bucket-engine consultation order."""
        buckets: list[list[_Record]] = []
        if host_bucket:
            buckets.append(host_bucket)
        if tokens:
            by_keyword = self.by_keyword
            for token in tokens:
                bucket = by_keyword[token]
                if bucket:
                    buckets.append(bucket)
        if self.tail_any is not None and self.tail_any.search(url_lower) is not None:
            buckets.append(
                [rec for lit, rec in self.tail if lit is None or lit in url_lower]
            )
        elif self.tail_always:
            buckets.append(self.tail_always)
        return buckets


class _Compiled:
    """All compiled matcher state (never serialized — transient).

    ``host_cache`` / ``page_cache`` memoize *bucket pointers* per
    hostname / page URL — which candidate lists a host resolves to —
    never decisions: every request still runs its full confirmation
    pass, so (unlike the decision cache) cache state can never change a
    result, only skip re-deriving ``registrable_domain`` and dict
    probes for hosts the trace repeats.  Both are bounded and process-
    local.
    """

    __slots__ = (
        "findall",
        "blocking",
        "exceptions",
        "doc_by_host",
        "doc_rest",
        "doc_all",
        "host_cache",
        "page_cache",
        "total_lists",
    )

    def __init__(
        self,
        blocking_index: _FilterIndex,
        exception_index: _FilterIndex,
        document_exceptions: list[Filter],
        total_lists: int,
    ) -> None:
        self.blocking = _CompiledIndex(blocking_index)
        self.exceptions = _CompiledIndex(exception_index)
        keywords = set(blocking_index._by_keyword)  # noqa: SLF001
        keywords.update(exception_index._by_keyword)  # noqa: SLF001
        self.findall = (
            re.compile(
                _TOKEN_BOUNDARY_BEFORE + "(?:" + trie_regex(keywords) + ")" + _TOKEN_BOUNDARY_AFTER
            ).findall
            if keywords
            else None
        )
        # Document exceptions, bucketed like the host-anchored blocking
        # filters; the serial keeps multi-bucket candidates sortable
        # back into insertion order.
        self.doc_by_host: dict[str, list[tuple[int, Filter]]] = {}
        self.doc_rest: list[tuple[int, Filter]] = []
        self.doc_all = list(enumerate(document_exceptions))
        for entry in self.doc_all:
            key = _host_bucket_key(entry[1].pattern)
            if key is not None:
                self.doc_by_host.setdefault(key, []).append(entry)
            else:
                self.doc_rest.append(entry)
        self.total_lists = total_lists
        # request_host -> (bl_bucket|None, ex_bucket|None, doc_bucket|None, opaque)
        self.host_cache: dict[str, tuple] = {}
        # page_url -> (page_host, doc_bucket|None, opaque)
        self.page_cache: dict[str, tuple] = {}

    _CACHE_LIMIT = 1 << 17

    def host_entry(self, request_host: str) -> tuple:
        """Cache-miss path; hot callers probe ``host_cache`` directly."""
        entry = self.host_cache.get(request_host)
        if entry is None:
            if "@" in request_host or ":" in request_host:
                # Same fallback as _FilterIndex.candidates: an opaque
                # host voids the registrable-domain shortcut.
                entry = (
                    self.blocking.opaque_host_bucket(),
                    self.exceptions.opaque_host_bucket(),
                    None,
                    True,
                )
            elif not request_host:
                # The bucket engine probes its host dict even for an
                # empty host (and misses); only the document-exception
                # pass, which the bucket engine runs as a full linear
                # scan, needs the conservative opaque fallback here.
                entry = (None, None, None, True)
            else:
                key = registrable_domain(request_host)
                entry = (
                    self.blocking.by_host[key] or None,
                    self.exceptions.by_host[key] or None,
                    self.doc_by_host.get(key),
                    False,
                )
            if len(self.host_cache) >= self._CACHE_LIMIT:
                self.host_cache.clear()
            self.host_cache[request_host] = entry
        return entry

    def page_entry(self, page_url: str) -> tuple:
        """Cache-miss path; hot callers probe ``page_cache`` directly."""
        entry = self.page_cache.get(page_url)
        if entry is None:
            page_host = split_url(page_url).host
            if not page_host or "@" in page_host or ":" in page_host:
                entry = (page_host, None, True)
            else:
                entry = (page_host, self.doc_by_host.get(registrable_domain(page_host)), False)
            if len(self.page_cache) >= self._CACHE_LIMIT:
                self.page_cache.clear()
            self.page_cache[page_url] = entry
        return entry


_NO_MATCH = MatchResult(decision=Decision.NONE)
_NO_CLASSIFICATION = Classification(blacklist_filter=None, whitelist_filter=None)


class ACTrieEngine(FilterEngine):
    """Drop-in :class:`FilterEngine` with an Aho–Corasick matcher core.

    Semantics (including which filter is reported on multi-match URLs)
    are identical to the bucket engine — only candidate discovery and
    confirmation change.  The compiled state is process-local, dropped
    by any :meth:`add_filters` and never serialized: snapshots carry
    the portable bucket state and each process compiles its own.
    Whoever builds an engine for serving calls :meth:`compile` once the
    last list is in, so no request pays for it; an engine nobody
    compiled compiles itself on first use.
    """

    _TRANSIENT_STATE = ("_compiled",)

    def __init__(self, *, use_keyword_index: bool = True):
        super().__init__(use_keyword_index=use_keyword_index)
        self._compiled: _Compiled | None = None

    def add_filters(self, filters, list_name: str | None = None) -> None:  # type: ignore[override]
        super().add_filters(filters, list_name)
        self._compiled = None

    # -- compilation --------------------------------------------------

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def compile(self) -> None:
        """Build the discovery state for the filters loaded so far (idempotent)."""
        if self._compiled is None:
            self._compile()

    def _compile(self) -> _Compiled:
        compiled = self._compiled = _Compiled(
            self._blocking, self._exceptions, self._document_exceptions, len(self._list_names)
        )
        return compiled

    @staticmethod
    def _doc_merge(
        compiled: _Compiled,
        first: "list[tuple[int, Filter]] | None",
        second: "list[tuple[int, Filter]] | None",
    ) -> "list[tuple[int, Filter]] | tuple[()]":
        """Merge doc-exception buckets back into insertion (serial) order.

        The bucket engine consults ``_document_exceptions`` in add
        order, so multi-source candidates re-sort by serial before
        confirmation.  Identical bucket objects (request and page host
        sharing a registrable domain) collapse to one.
        """
        if second is first:
            second = None
        if first is None:
            merged = second
        elif second is None:
            merged = first
        else:
            merged = sorted(first + second)
        rest = compiled.doc_rest
        if rest:
            merged = rest if merged is None else sorted(merged + rest)
        return merged if merged is not None else ()

    # -- matching -----------------------------------------------------

    def match(
        self, url: str, context: RequestContext, *, request_host: str | None = None
    ) -> MatchResult:
        if not self._use_index:
            return super().match(url, context, request_host=request_host)
        compiled = self._compiled or self._compile()
        page_url = context.page_url
        page_host, page_doc, page_opaque = compiled.page_cache.get(
            page_url
        ) or compiled.page_entry(page_url)
        if request_host is None:
            request_host = split_url(url).host

        if compiled.doc_all:
            if page_opaque:
                doc_candidates = compiled.doc_all
            else:
                doc_candidates = self._doc_merge(compiled, page_doc, None)
            for _serial, exception in doc_candidates:
                if exception.matches_document(page_url, page_host):
                    return MatchResult(
                        decision=Decision.WHITELIST,
                        blocking_filter=None,
                        exception_filter=exception,
                    )

        bl_host, ex_host, _req_doc, _req_opaque = compiled.host_cache.get(
            request_host
        ) or compiled.host_entry(request_host)
        url_lower = url.lower()
        findall = compiled.findall
        tokens = findall(url_lower) if findall is not None else []
        content_type = _ct_int(context.content_type)
        third_party: bool | None = None  # computed on first $third-party candidate

        blocking_hit: Filter | None = None
        for bucket in compiled.blocking.buckets_for(bl_host, tokens, url_lower):
            for mask, party, domain_opts, search, _list_name, filter_ in bucket:
                if not mask & content_type:
                    continue
                if party is not None:
                    if third_party is None:
                        third_party = (
                            is_third_party(request_host, page_host) if page_host else True
                        )
                    if party != third_party:
                        continue
                if domain_opts is not None and not domain_opts.applies_to_domain(page_host):
                    continue
                if search(url) is not None:
                    blocking_hit = filter_
                    break
            if blocking_hit is not None:
                break
        if blocking_hit is None:
            return _NO_MATCH

        if ex_host is None and not compiled.exceptions.keyed:
            return MatchResult(decision=Decision.BLOCK, blocking_filter=blocking_hit)
        for bucket in compiled.exceptions.buckets_for(ex_host, tokens, url_lower):
            for mask, party, domain_opts, search, _list_name, exception in bucket:
                if not mask & content_type:
                    continue
                if party is not None:
                    if third_party is None:
                        third_party = (
                            is_third_party(request_host, page_host) if page_host else True
                        )
                    if party != third_party:
                        continue
                if domain_opts is not None and not domain_opts.applies_to_domain(page_host):
                    continue
                if search(url) is not None:
                    return MatchResult(
                        decision=Decision.WHITELIST,
                        blocking_filter=blocking_hit,
                        exception_filter=exception,
                    )
        return MatchResult(decision=Decision.BLOCK, blocking_filter=blocking_hit)

    def classify(
        self, url: str, context: RequestContext, *, request_host: str | None = None
    ) -> Classification:
        if not self._use_index:
            return super().classify(url, context, request_host=request_host)
        compiled = self._compiled or self._compile()
        page_url = context.page_url
        page_host, page_doc, page_opaque = compiled.page_cache.get(
            page_url
        ) or compiled.page_entry(page_url)
        if request_host is None:
            request_host = split_url(url).host
        bl_host, ex_host, req_doc, req_opaque = compiled.host_cache.get(
            request_host
        ) or compiled.host_entry(request_host)

        url_lower = url.lower()
        findall = compiled.findall
        tokens = findall(url_lower) if findall is not None else []
        content_type = _ct_int(context.content_type)
        third_party: bool | None = None  # computed on first $third-party candidate

        blacklist_hit: Filter | None = None
        hit_lists: list[str] = []
        total_lists = compiled.total_lists
        for bucket in compiled.blocking.buckets_for(bl_host, tokens, url_lower):
            for mask, party, domain_opts, search, list_name, filter_ in bucket:
                if list_name in hit_lists or not mask & content_type:
                    continue
                if party is not None:
                    if third_party is None:
                        third_party = (
                            is_third_party(request_host, page_host) if page_host else True
                        )
                    if party != third_party:
                        continue
                if domain_opts is not None and not domain_opts.applies_to_domain(page_host):
                    continue
                if search(url) is None:
                    continue
                if blacklist_hit is None:
                    blacklist_hit = filter_
                hit_lists.append(list_name)
            if len(hit_lists) == total_lists:
                break

        whitelist_hit: Filter | None = None
        if ex_host is not None or compiled.exceptions.keyed:
            for bucket in compiled.exceptions.buckets_for(ex_host, tokens, url_lower):
                for mask, party, domain_opts, search, _list_name, exception in bucket:
                    if not mask & content_type:
                        continue
                    if party is not None:
                        if third_party is None:
                            third_party = (
                                is_third_party(request_host, page_host) if page_host else True
                            )
                        if party != third_party:
                            continue
                    if domain_opts is not None and not domain_opts.applies_to_domain(page_host):
                        continue
                    if search(url) is not None:
                        whitelist_hit = exception
                        break
                if whitelist_hit is not None:
                    break
        if whitelist_hit is None and compiled.doc_all:
            if req_opaque or page_opaque:
                doc_candidates = compiled.doc_all
            else:
                doc_candidates = self._doc_merge(compiled, req_doc, page_doc)
            if doc_candidates:
                for _serial, exception in doc_candidates:
                    if exception.matches_document(url, request_host) or (
                        exception.matches_document(page_url, page_host)
                    ):
                        whitelist_hit = exception
                        break

        if blacklist_hit is None and whitelist_hit is None:
            return _NO_CLASSIFICATION
        return Classification(
            blacklist_filter=blacklist_hit,
            whitelist_filter=whitelist_hit,
            blacklist_lists=tuple(hit_lists),
        )
