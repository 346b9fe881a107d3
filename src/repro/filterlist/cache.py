"""Memoized decision layer over a :class:`FilterEngine` (DESIGN.md §11).

Trace traffic is massively repetitive — the same ad/CDN URLs recur
across users and pageviews (the repetition the paper's base-URL
normalization exploits, §4) — yet the engine re-tokenizes and re-scans
filter buckets for every record.  :class:`CachingEngine` wraps any
engine with a bounded LRU over complete classification outcomes, keyed
on everything the outcome is a function of:

* the request URL and content type,
* the page host (third-party bit, ``$domain=`` scoping),
* the full page URL **only when the engine carries a ``$document``
  exception whose outcome can depend on the page path** — for the
  common ``@@||host^$document`` shape the page host suffices, which is
  what keeps the hit rate high (see
  ``FilterEngine.document_matching_needs_page_url``).

Every cache entry is guarded by the engine's **fingerprint** — a hash
chained over all filter text ever loaded — so results computed against
one filter state can never be served against another: ``add_filters``
rotates the fingerprint and drops the cache, and a warm cache attached
to a mismatched engine is refused with :class:`EngineFingerprintMismatch`.

Cache contents are *transient by contract*: they are pure memoization,
excluded from checkpoint ``export_state``/``merge_state`` (see
``_TRANSIENT_STATE`` in ``robustness/health.py``; ``tests/test_state_wire.py``
holds the rule), so
cached and uncached runs are byte-identical and resume never depends
on cache warmth.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.filterlist.engine import Classification, FilterEngine, MatchResult, RequestContext
from repro.filterlist.filter import Filter

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "CacheStats",
    "DecisionCache",
    "CachingEngine",
    "EngineFingerprintMismatch",
]


DEFAULT_CACHE_SIZE = 65536

_MISSING = object()


class EngineFingerprintMismatch(RuntimeError):
    """A warm cache was attached to an engine with different filters."""


@dataclass(slots=True)
class CacheStats:
    """Observable cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


class DecisionCache:
    """Bounded LRU of classification outcomes, fingerprint-guarded.

    The cache never serializes: it holds live :class:`Classification` /
    :class:`MatchResult` objects (frozen, safely shared) and is rebuilt
    from scratch on every process start or filter reload.
    """

    def __init__(self, fingerprint: str, *, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self._fingerprint = fingerprint
        self._maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats()

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def check_fingerprint(self, fingerprint: str) -> None:
        """Refuse to keep warm entries across a filter-state change."""
        if fingerprint != self._fingerprint:
            raise EngineFingerprintMismatch(
                f"decision cache was built for engine {self._fingerprint[:12]}… "
                f"but is being used with engine {fingerprint[:12]}…; "
                "call invalidate() after changing filters"
            )

    def get(self, key: Hashable) -> object:
        """Cached outcome for ``key`` or the module-level miss sentinel."""
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.stats.misses += 1
            return _MISSING
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Hashable, value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self._maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value

    def invalidate(self, fingerprint: str) -> None:
        """Drop every entry and re-key the cache to ``fingerprint``."""
        self._entries.clear()
        self._fingerprint = fingerprint

    @staticmethod
    def missing() -> object:
        return _MISSING


class CachingEngine:
    """Drop-in :class:`FilterEngine` front with memoized decisions.

    Delegates every classification to the wrapped engine on a miss and
    replays the engine's exact (frozen) result objects on a hit, so a
    cached run is byte-identical to an uncached one by construction —
    the property tests in ``tests/test_decision_cache.py`` and the
    golden gate enforce it end to end.
    """

    def __init__(self, engine: FilterEngine, *, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        self._engine = engine
        self._cache = DecisionCache(engine.fingerprint, maxsize=maxsize)

    @property
    def engine(self) -> FilterEngine:
        """The wrapped engine (escape hatch for uncached access)."""
        return self._engine

    @property
    def cache(self) -> DecisionCache:
        return self._cache

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    # -- delegated engine surface -------------------------------------

    @property
    def list_names(self) -> list[str]:
        return self._engine.list_names

    @property
    def filter_count(self) -> int:
        return self._engine.filter_count

    @property
    def fingerprint(self) -> str:
        return self._engine.fingerprint

    @property
    def document_matching_needs_page_url(self) -> bool:
        return self._engine.document_matching_needs_page_url

    def iter_filters(self) -> list[Filter]:
        return self._engine.iter_filters()

    def add_filters(self, filters: Iterable[Filter], list_name: str | None = None) -> None:
        """Load more filters and drop every memoized decision.

        The wrapped engine's fingerprint rotates with the new filter
        text; re-keying the cache to it keeps the guard honest.  The
        invalidation runs even when the engine's ``add_filters`` raises
        partway: the engine may already have mutated matching state
        (the stale-fingerprint window), and a warm cache keyed on the
        pre-mutation fingerprint would silently replay decisions from
        the old filter set — e.g. after a snapshot load followed by a
        failed incremental list add.
        """
        try:
            self._engine.add_filters(filters, list_name)
        finally:
            self._cache.invalidate(self._engine.fingerprint)

    # -- memoized classification --------------------------------------

    def _key(self, kind: str, url: str, context: RequestContext) -> Hashable:
        page = (
            context.page_url
            if self._engine.document_matching_needs_page_url
            else context.page_host
        )
        return (kind, url, context.content_type, page)

    def classify(
        self, url: str, context: RequestContext, *, request_host: str | None = None
    ) -> Classification:
        self._cache.check_fingerprint(self._engine.fingerprint)
        key = self._key("classify", url, context)
        cached = self._cache.get(key)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        result = self._engine.classify(url, context, request_host=request_host)
        self._cache.put(key, result)
        return result

    def match(
        self, url: str, context: RequestContext, *, request_host: str | None = None
    ) -> MatchResult:
        self._cache.check_fingerprint(self._engine.fingerprint)
        key = self._key("match", url, context)
        cached = self._cache.get(key)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        result = self._engine.match(url, context, request_host=request_host)
        self._cache.put(key, result)
        return result

    def should_block(self, url: str, context: RequestContext) -> bool:
        return self.match(url, context).is_blocked
