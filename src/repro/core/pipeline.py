"""The ad-classification pipeline (Fig 1) — the paper's contribution.

Consumes Bro-style HTTP log records and produces, per request, the
``libadblockplus`` classification result ``{is a match, which filter
list, is whitelisted}`` using only information available in headers:

1. group requests per user — the (client IP, User-Agent) pair;
2. reconstruct page structure per user with the **referrer map**
   (``Location`` repair + embedded-URL extraction);
3. infer the ABP **content type** (extension map, header fallback,
   redirect fix-up from the consequent request);
4. **normalize** query strings without clobbering values that filter
   rules specify;
5. classify the normalized URL in its page context against the filter
   lists.

Every step is individually switchable for the ablation benchmarks.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from repro.core.content_type import resolve_content_type, type_from_mime, type_from_path
from repro.core.normalize import ProtectedValues, collect_protected_values, normalize_url
from repro.core.referrer_map import ReferrerMap
from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.cache import DEFAULT_CACHE_SIZE, CacheStats, CachingEngine
from repro.filterlist.engine import Classification, FilterEngine, RequestContext
from repro.filterlist.lists import FilterList
from repro.filterlist.options import ContentType
from repro.http.log import HttpLogRecord
from repro.http.url import split_url, split_url_uncached
from repro.robustness import PipelineHealth

__all__ = [
    "PipelineConfig",
    "ClassifiedRequest",
    "AdClassificationPipeline",
    "StreamingClassifier",
    "UserKey",
]

UserKey = tuple[str, str]  # (client IP, User-Agent string)


@dataclass(slots=True)
class PipelineConfig:
    """Feature switches of the pipeline (ablation knobs, DESIGN.md §5)."""

    use_referrer_map: bool = True
    use_location_repair: bool = True
    use_embedded_urls: bool = True
    # How long, in trace seconds, the referrer map remembers a URL after
    # its last use: between half of it and all of it (DESIGN.md §5).
    # None remembers everything; 60 s is the smallest horizon that grades
    # like None (EXPERIMENTS.md).
    referrer_horizon_s: float | None = 60.0
    use_normalization: bool = True
    redirect_type_fixup: bool = True
    extension_first: bool = True
    use_keyword_index: bool = True
    # Which engine class a list-built pipeline constructs (DESIGN.md
    # §15): "actrie" is the production engine; "buckets" is the plain
    # FilterEngine, kept as the oracle tests and benchmarks/perf compare
    # against.  Programmatic only — no CLI flag selects it.
    matcher: str = "actrie"
    # Memoized decision layer (DESIGN.md §11).  Pure memoization: results
    # are byte-identical either way; the switch exists for benchmarking
    # and as an escape hatch (`repro classify --no-decision-cache`).
    use_decision_cache: bool = True
    decision_cache_size: int = DEFAULT_CACHE_SIZE


@dataclass(slots=True)
class ClassifiedRequest:
    """One request with its reconstructed context and classification."""

    record: HttpLogRecord
    user: UserKey
    page_url: str
    content_type: ContentType
    is_page_root: bool
    normalized_url: str
    classification: Classification
    # Position in the serial ingest order (StreamingClassifier sets it);
    # shard workers tag their output rows with it.
    index: int = -1

    @property
    def is_ad(self) -> bool:
        return self.classification.is_ad

    @property
    def is_whitelisted(self) -> bool:
        return self.classification.is_whitelisted

    @property
    def blacklist_name(self) -> str | None:
        return self.classification.blacklist_name

    @property
    def whitelist_name(self) -> str | None:
        return self.classification.whitelist_name

    @property
    def bytes(self) -> int:
        return self.record.content_length or 0


# Cap on pending redirect fix-ups per user; oldest entries are evicted
# first so recent redirects still get their type fix-up.
_MAX_PENDING_FIXUPS = 10_000


@dataclass(slots=True)
class _UserState:
    referrer_map: ReferrerMap
    # Redirect targets awaiting their consequent request, for the
    # content-type fix-up: target URL -> index into the entries list.
    # LRU-ordered: oldest pending redirect is evicted when full.
    pending_type_fixup: OrderedDict[str, int] = field(default_factory=OrderedDict)


# Version tag of StreamingClassifier.export_state payloads, so a stale
# checkpoint from an older layout is rejected instead of misread.
# Version 2 adds the referrer clock and the maps' two generations.
_STATE_VERSION = 2


class StreamingClassifier:
    """The Fig 1 pipeline as an explicit-state push machine.

    Every mutable piece of a run — the reorder min-heap, the referrer
    clock, per-user referrer maps and pending type fix-ups, the held
    redirect sources — lives on the instance, which buys two things:

    * **feed/drain control** for callers that need to act *between*
      records (the run loop hands entries to its sink and cuts
      checkpoints there);
    * **serializable state** — :meth:`export_state` snapshots the run
      as a primitive-only object tree and :meth:`restore_state` rebuilds
      it, so a crashed run resumed from a checkpoint classifies the
      remaining records exactly as the uninterrupted run would
      (DESIGN.md §8).

    There is one release rule: an entry is handed on once it has
    *settled*, i.e. once nothing can change it.  A record that is not a
    redirect source settles when it is classified; a redirect source
    settles when its fix-up fires, when a later redirect by its user to
    the same target replaces it, when ``_MAX_PENDING_FIXUPS`` evicts it,
    or at :meth:`finish`.  :meth:`feed` classifies, :meth:`drain` takes
    what has settled since the last drain (index order but for those
    late redirect sources), and :meth:`finish` returns every entry not
    yet drained, in index order.
    A caller that drains holds only the redirect sources still waiting;
    one that never drains gets the whole run from :meth:`finish`.

    The referrer clock reads ``floor(ts / (horizon / 2))`` of each
    ingested index, starting at 0 and never going back; when it ticks,
    every user's map advances (DESIGN.md §5), so a run holds about the
    last ``referrer_horizon_s`` seconds of all users' traffic.  A user
    whose map has aged empty and who has no redirect source waiting is
    dropped: its next request recreates the same state, so the run
    holds the users of the last horizon, not every user it has seen.
    Placeholders move the clock too, so a shard ages its maps and drops
    its users at the serial moments.
    """

    def __init__(
        self,
        pipeline: "AdClassificationPipeline",
        *,
        fixup_window: None = None,
        reorder_window: float | None = None,
        health: PipelineHealth | None = None,
    ):
        # Only None, which benchmarks/perf/layers.py still passes; the
        # keyword goes when that file is unfrozen (ROADMAP 8-I(d)).
        if fixup_window is not None:
            raise TypeError("fixup_window is gone: entries are released as they settle")
        horizon = pipeline.config.referrer_horizon_s
        if horizon is not None and not horizon > 0:
            raise ValueError(f"referrer_horizon_s must be positive or None, not {horizon!r}")
        self.pipeline = pipeline
        # Seconds per referrer-clock epoch, None when maps never age.
        self._epoch_s = None if horizon is None else horizon / 2
        self._epoch = 0
        # The maps that may hold entries: used since the last tick, and
        # used in the epoch before it.  Every other map is empty, so a
        # tick skips it and its clock catches up when it is next used.
        self._used: dict[UserKey, ReferrerMap] = {}
        self._aging: dict[UserKey, ReferrerMap] = {}
        self.reorder_window = reorder_window
        self.health = health
        self.users: dict[UserKey, _UserState] = {}
        # Redirect sources waiting for their consequent request.
        self.buffer: dict[int, ClassifiedRequest] = {}
        self._settled: list[ClassifiedRequest] = []
        self.next_index = 0
        # Reorder-buffer state (active when reorder_window is not None).
        # Rows are (ts, arrival seq, record), the record None for a
        # record another shard owns.
        self._heap: list[tuple[float, int, HttpLogRecord | None]] = []
        self._seq = 0
        self._max_ts = float("-inf")

    # -- streaming --------------------------------------------------------

    def feed(self, record: HttpLogRecord, owned: bool = True) -> None:
        """Push one record; :meth:`drain` takes the entries it settled.

        A shard worker (DESIGN.md §10) feeds every record of the stream
        but classifies only the users it owns.  A record with
        ``owned=False`` is a placeholder: it takes its place in the
        reorder heap and, when popped, one ingest index — so indexes and
        reorder pops happen at exactly the serial moments, and each
        entry's ``index`` is its position in the serial output.
        """
        if self.reorder_window is None:
            self._ingest(record.ts, record if owned else None)
            return
        if owned and record.ts < self._max_ts and self.health is not None:
            self.health.records_reordered += 1
        self._max_ts = max(self._max_ts, record.ts)
        heapq.heappush(self._heap, (record.ts, self._seq, record if owned else None))
        self._seq += 1
        horizon = self._max_ts - self.reorder_window
        while self._heap and self._heap[0][0] <= horizon:
            ts, _, popped = heapq.heappop(self._heap)
            self._ingest(ts, popped)

    def drain(self) -> list[ClassifiedRequest]:
        """Take the entries that settled since the last drain."""
        settled, self._settled = self._settled, []
        return settled

    def finish(self) -> list[ClassifiedRequest]:
        """End of stream: empty the reorder heap, settle the waiting
        redirect sources, and return every entry not yet drained, in
        index order."""
        while self._heap:
            ts, _, popped = heapq.heappop(self._heap)
            self._ingest(ts, popped)
        entries, self._settled = self._settled, []
        entries.extend(self.buffer.values())
        self.buffer.clear()
        entries.sort(key=attrgetter("index"))
        return entries

    def _ingest(self, ts: float, record: HttpLogRecord | None) -> None:
        """Consume the next ingest index at time ``ts``; classify
        ``record`` unless it is another shard's placeholder."""
        index = self.next_index
        self.next_index = index + 1
        if self._epoch_s is not None:
            epoch = int(ts // self._epoch_s)
            if epoch > self._epoch:
                self._tick(epoch)
        if record is None:
            return
        entry = self._classify_record(record, index)
        if record.location is not None and self.pipeline.config.redirect_type_fixup:
            self.buffer[index] = entry  # a redirect source: its fix-up may come
        else:
            self._settled.append(entry)

    def _tick(self, epoch: int) -> None:
        """Move the referrer clock to ``epoch``, age every map that may
        hold entries (a map used in both epochs ages once), and drop each
        user whose map has aged empty and who has no redirect source
        waiting: the same state as a user never seen."""
        aged = {**self._aging, **self._used}
        self._aging = self._used if epoch == self._epoch + 1 else {}
        self._used = {}
        self._epoch = epoch
        for user, referrer_map in aged.items():
            referrer_map.advance(epoch)
            if referrer_map.is_empty() and not self.users[user].pending_type_fixup:
                del self.users[user]
                # A restored map may have aged once already (see
                # restore_state), so it can empty on a one-epoch step.
                self._aging.pop(user, None)

    def _settle(self, index: int) -> ClassifiedRequest:
        """A waiting redirect source can no longer change: hand it on."""
        source = self.buffer.pop(index)
        self._settled.append(source)
        return source

    def _classify_record(self, record: HttpLogRecord, index: int) -> ClassifiedRequest:
        config = self.pipeline.config
        user = (record.client, record.user_agent or "")
        state = self.users.get(user)
        if state is None:
            state = _UserState(
                referrer_map=ReferrerMap(
                    track_embedded=config.use_embedded_urls, epoch=self._epoch
                )
            )
            self.users[user] = state

        # Split the request URL once, unmemoised (most request URLs are
        # one-off), and hand every step the part it reads.
        url = record.url
        parts = split_url_uncached(url)
        # Read without is_page_root: HTML is SUBDOCUMENT here, and
        # resolve_content_type promotes it for a page root.
        from_mime = type_from_mime(record.content_type)
        looks_like_document = from_mime is ContentType.SUBDOCUMENT

        if config.use_referrer_map:
            referrer_map = state.referrer_map
            if self._epoch_s is not None and user not in self._used:
                # First use since the last tick: a map idle for longer
                # is empty, and only its clock moves.
                referrer_map.advance(self._epoch)
                self._used[user] = referrer_map
            attribution = referrer_map.observe(
                url,
                record.referrer,
                looks_like_document=looks_like_document,
                location=record.location if config.use_location_repair else None,
                query=parts.query,
            )
            page_url, is_page_root = attribution.page_url, attribution.is_page_root
        else:
            # URL-only ablation: every request is its own context.
            page_url, is_page_root = url, looks_like_document

        content_type = resolve_content_type(
            type_from_path(parts.path),
            from_mime,
            is_page_root=is_page_root,
            extension_first=config.extension_first,
        )

        if config.redirect_type_fixup:
            # Is this the consequent request of an earlier redirect?
            fixup_index = state.pending_type_fixup.pop(url, None)
            if fixup_index is not None:
                source = self._settle(fixup_index)
                if source.content_type != content_type:
                    source.content_type = content_type
                    source.classification = self.pipeline._classify(source)
            if record.location is not None:
                pending = state.pending_type_fixup
                replaced = pending.pop(record.location, None)
                pending[record.location] = index
                if replaced is not None:
                    self._settle(replaced)
                while len(pending) > _MAX_PENDING_FIXUPS:
                    self._settle(pending.popitem(last=False)[1])

        entry = ClassifiedRequest(
            record=record,
            user=user,
            page_url=page_url,
            content_type=content_type,
            is_page_root=is_page_root,
            normalized_url=(
                normalize_url(url, self.pipeline._protected, parts=parts)
                if config.use_normalization
                else url
            ),
            classification=None,  # type: ignore[arg-type]
            index=index,
        )
        # Normalization rewrites only the query, so the host is the request's.
        entry.classification = self.pipeline._classify(entry, request_host=parts.host)
        return entry

    # -- checkpoint wire form (DESIGN.md §8) -------------------------------

    def export_state(self) -> dict:
        """Snapshot the run as a primitive-only object tree; a checkpoint
        is cut right after a :meth:`drain`.

        Classifications of the waiting redirect sources are deliberately NOT
        serialized — the engine is deterministic given the entry's own
        fields, so :meth:`restore_state` recomputes them.  That keeps
        engine internals (compiled filters) out of the checkpoint and
        the payload fast to write.
        """
        assert not self._settled, "drain() before export_state()"
        return {
            "version": _STATE_VERSION,
            "next_index": self.next_index,
            "epoch": self._epoch,
            "users": [
                (
                    user,
                    state.referrer_map.export_state(),
                    list(state.pending_type_fixup.items()),
                )
                for user, state in self.users.items()
            ],
            "buffer": [
                (
                    index,
                    entry.record.to_row(),
                    entry.page_url,
                    int(entry.content_type),
                    entry.is_page_root,
                    entry.normalized_url,
                )
                for index, entry in self.buffer.items()
            ],
            "reorder": {
                "heap": [
                    (ts, seq, record.to_row() if record is not None else None)
                    for ts, seq, record in self._heap
                ],
                "seq": self._seq,
                "max_ts": self._max_ts,
            },
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild a snapshot taken by :meth:`export_state`."""
        version = state.get("version")
        if version != _STATE_VERSION:
            raise ValueError(f"unsupported classifier state version {version!r}")
        config = self.pipeline.config
        self.next_index = state["next_index"]
        self._epoch = state["epoch"]
        self.users = {}
        self._used, self._aging = {}, {}
        for user, referrer_state, pending in state["users"]:
            user = tuple(user)
            referrer_map = ReferrerMap.from_state(
                referrer_state, track_embedded=config.use_embedded_urls
            )
            self.users[user] = _UserState(
                referrer_map=referrer_map, pending_type_fixup=OrderedDict(pending)
            )
            if referrer_state["epoch"] == self._epoch:
                # It may hold entries (a map behind the clock is empty);
                # aging it at the next tick is right either way.
                self._used[user] = referrer_map
        self.buffer = {}
        self._settled = []
        for index, row, page_url, content_type, is_page_root, normalized_url in state["buffer"]:
            entry = ClassifiedRequest(
                record=HttpLogRecord.from_row(row),
                user=(row[1], row[7] or ""),  # (client, user_agent)
                page_url=page_url,
                content_type=ContentType(content_type),
                is_page_root=is_page_root,
                normalized_url=normalized_url,
                classification=None,  # type: ignore[arg-type]
                index=index,
            )
            entry.classification = self.pipeline._classify(entry)
            self.buffer[index] = entry
        reorder = state["reorder"]
        self._heap = [
            (ts, seq, HttpLogRecord.from_row(row) if row is not None else None)
            for ts, seq, row in reorder["heap"]
        ]
        heapq.heapify(self._heap)
        self._seq = reorder["seq"]
        self._max_ts = reorder["max_ts"]


_ENGINES: dict[str, type[FilterEngine]] = {"actrie": ACTrieEngine, "buckets": FilterEngine}


class AdClassificationPipeline:
    """End-to-end Fig 1 pipeline over header-trace records.

    Args:
        lists: filter lists keyed by canonical name (the subscription
            bundle to classify against).
        config: feature switches.
    """

    def __init__(self, lists: dict[str, FilterList], config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.lists = lists
        engine_class = _ENGINES.get(self.config.matcher)
        if engine_class is None:
            raise ValueError(f"unknown matcher {self.config.matcher!r}")
        engine: FilterEngine | CachingEngine = engine_class(
            use_keyword_index=self.config.use_keyword_index
        )
        all_filters = []
        for name, filter_list in lists.items():
            engine.add_filters(filter_list.filters, list_name=name)
            all_filters.extend(filter_list.filters)
        if self.config.use_decision_cache:
            engine = CachingEngine(engine, maxsize=self.config.decision_cache_size)
        self._engine = engine
        self._protected: ProtectedValues = collect_protected_values(all_filters)

    @classmethod
    def from_engine(
        cls, engine: FilterEngine, config: PipelineConfig | None = None
    ) -> "AdClassificationPipeline":
        """Build a pipeline around an already-built engine.

        The snapshot fast path: ``repro compile-lists`` freezes the
        engine once, and every later process restores it in
        milliseconds instead of re-parsing lists (DESIGN.md §15).  The
        protected-value set for URL normalization is recomputed from
        the restored filters, so classification matches a list-built
        pipeline exactly.
        """
        pipeline = cls.__new__(cls)
        pipeline.config = config or PipelineConfig()
        pipeline.lists = {}
        all_filters = engine.iter_filters()
        wrapped: FilterEngine | CachingEngine = engine
        if pipeline.config.use_decision_cache:
            wrapped = CachingEngine(engine, maxsize=pipeline.config.decision_cache_size)
        pipeline._engine = wrapped
        pipeline._protected = collect_protected_values(all_filters)
        return pipeline

    @property
    def engine(self) -> FilterEngine | CachingEngine:
        return self._engine

    @property
    def decision_cache_stats(self) -> CacheStats | None:
        """Live cache counters, or None when the cache is disabled."""
        if isinstance(self._engine, CachingEngine):
            return self._engine.stats
        return None

    def process(
        self,
        records: Iterable[HttpLogRecord],
        *,
        reorder_window: float | None = None,
        health: PipelineHealth | None = None,
    ) -> list[ClassifiedRequest]:
        """Classify a time-ordered record stream into a list, in index order.

        Records must be sorted by timestamp (multi-user streams are
        fine; state is kept per user).  ``reorder_window`` (seconds)
        re-sorts a slightly out-of-order stream through a bounded
        buffer, so streams shuffled within that jitter window classify
        identically to sorted ones.  ``health`` tallies reorderings.
        Idle users leave on the referrer clock, as in every run (see
        :class:`StreamingClassifier`).  This holds every entry until the
        stream ends; a caller that wants bounded memory drives a
        :class:`StreamingClassifier` and drains it, as the run loop does.
        """
        classifier = StreamingClassifier(self, reorder_window=reorder_window, health=health)
        for record in records:
            classifier.feed(record)
        return classifier.finish()

    def _classify(
        self, entry: ClassifiedRequest, *, request_host: str | None = None
    ) -> Classification:
        context = RequestContext(content_type=entry.content_type, page_url=entry.page_url)
        if request_host is None:
            # Rare paths (redirect fix-up, restore) split it here.
            request_host = split_url(entry.normalized_url).host
        return self._engine.classify(
            entry.normalized_url, context, request_host=request_host
        )

    def classify_one(
        self,
        url: str,
        *,
        content_type: ContentType,
        page_url: str,
    ) -> Classification:
        """Classify a single URL with explicit context (no reconstruction)."""
        normalized = normalize_url(url, self._protected) if self.config.use_normalization else url
        return self._engine.classify(normalized, RequestContext(content_type, page_url))
