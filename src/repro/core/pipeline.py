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
from typing import Iterable, Iterator

from repro.core.content_type import infer_content_type, type_from_mime
from repro.core.normalize import ProtectedValues, collect_protected_values, normalize_url
from repro.core.referrer_map import ReferrerMap
from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.cache import DEFAULT_CACHE_SIZE, CacheStats, CachingEngine
from repro.filterlist.engine import Classification, FilterEngine, RequestContext
from repro.filterlist.lists import FilterList
from repro.filterlist.options import ContentType
from repro.http.log import HttpLogRecord
from repro.http.url import split_url
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
_STATE_VERSION = 1


class StreamingClassifier:
    """The Fig 1 pipeline as an explicit-state push machine.

    Where :meth:`AdClassificationPipeline.iter_process` keeps its state
    in generator locals, this class keeps every mutable piece — the
    reorder min-heap, per-user referrer maps and pending type fix-ups,
    the fix-up entry buffer — on the instance, which buys two things:

    * **feed/finish control** for drivers that need to act *between*
      records (the durable runner checkpoints there);
    * **serializable state** — :meth:`export_state` snapshots the run
      as a primitive-only object tree and :meth:`restore_state` rebuilds
      it, so a crashed run resumed from a checkpoint classifies the
      remaining records exactly as the uninterrupted run would
      (DESIGN.md §8).

    ``feed`` returns the entries *released* by that record (usually 0
    or 1 once the fix-up buffer is warm); ``finish`` drains the rest.
    """

    def __init__(
        self,
        pipeline: "AdClassificationPipeline",
        *,
        fixup_window: int | None = 1024,
        reorder_window: float | None = None,
        max_users: int | None = None,
        health: PipelineHealth | None = None,
    ):
        self.pipeline = pipeline
        self.fixup_window = fixup_window
        self.reorder_window = reorder_window
        self.max_users = max_users
        self.health = health
        self.users: "OrderedDict[UserKey, _UserState]" = OrderedDict()
        self.buffer: "OrderedDict[int, ClassifiedRequest]" = OrderedDict()
        self.next_index = 0
        # Reorder-buffer state (active when reorder_window is not None).
        self._heap: list[tuple[float, int, HttpLogRecord]] = []
        self._seq = 0
        self._max_ts = float("-inf")

    # -- streaming --------------------------------------------------------

    def feed(self, record: HttpLogRecord) -> list[ClassifiedRequest]:
        """Push one record; return the entries released by it."""
        released: list[tuple[int, ClassifiedRequest]] = []
        if self.reorder_window is None:
            self._ingest(record, released)
            return [entry for _, entry in released]
        if record.ts < self._max_ts and self.health is not None:
            self.health.records_reordered += 1
        self._max_ts = max(self._max_ts, record.ts)
        heapq.heappush(self._heap, (record.ts, self._seq, record))
        self._seq += 1
        horizon = self._max_ts - self.reorder_window
        while self._heap and self._heap[0][0] <= horizon:
            self._ingest(heapq.heappop(self._heap)[2], released)
        return [entry for _, entry in released]

    def feed_at(self, record: HttpLogRecord, index: int) -> list[tuple[int, ClassifiedRequest]]:
        """Ingest ``record`` at an explicit global entry index.

        Shard-parallel workers (DESIGN.md §10) see only the records
        their shard owns, but the fix-up buffer's release horizon and
        the redirect fix-up reach-back are defined over *global* ingest
        indexes — the position the record holds in the serial ingest
        order.  The caller supplies that index; records owned by other
        shards advance the horizon through :meth:`tick`.  Released
        entries come back with their indexes so the parallel merge can
        re-interleave shards into the exact serial emission order.

        The reorder buffer must be off — parallel workers replicate the
        global reorder heap externally, where non-owned records are
        placeholders, and drive this method with already-ordered pops.
        """
        if self.reorder_window is not None:
            raise ValueError("feed_at() requires reorder_window=None")
        released: list[tuple[int, ClassifiedRequest]] = []
        self._ingest(record, released, index=index)
        return released

    def tick(self, index: int) -> list[tuple[int, ClassifiedRequest]]:
        """Advance the global ingest index past a non-owned record.

        Releases (and returns) buffered entries that fall outside the
        fix-up window once position ``index`` is consumed, exactly as a
        serial classifier would when ingesting the record held by
        another shard.
        """
        released: list[tuple[int, ClassifiedRequest]] = []
        if self.next_index <= index:
            self.next_index = index + 1
        self._release(index, released)
        return released

    def finish(self) -> list[ClassifiedRequest]:
        """Drain the reorder heap and the fix-up buffer; end of stream."""
        return [entry for _, entry in self.finish_indexed()]

    def finish_indexed(self) -> list[tuple[int, ClassifiedRequest]]:
        """:meth:`finish`, with each entry's global ingest index."""
        released: list[tuple[int, ClassifiedRequest]] = []
        while self._heap:
            self._ingest(heapq.heappop(self._heap)[2], released)
        while self.buffer:
            released.append(self.buffer.popitem(last=False))
        return released

    def _ingest(
        self,
        record: HttpLogRecord,
        released: list[tuple[int, ClassifiedRequest]],
        index: int | None = None,
    ) -> None:
        if index is None:
            index = self.next_index
        config = self.pipeline.config
        health = self.health
        user = (record.client, record.user_agent or "")
        state = self.users.get(user)
        if state is None:
            state = _UserState(
                referrer_map=ReferrerMap(track_embedded=config.use_embedded_urls)
            )
            self.users[user] = state
            if self.max_users is not None and len(self.users) > self.max_users:
                self.users.popitem(last=False)
                if health is not None:
                    health.users_evicted += 1
            if health is not None:
                health.observe_users(len(self.users))
        else:
            self.users.move_to_end(user)

        url = record.url
        looks_like_document = type_from_mime(record.content_type) in (
            ContentType.DOCUMENT,
            ContentType.SUBDOCUMENT,
        )

        if config.use_referrer_map:
            attribution = state.referrer_map.observe(
                url,
                record.referrer,
                looks_like_document=looks_like_document,
                location=record.location if config.use_location_repair else None,
            )
            page_url, is_page_root = attribution.page_url, attribution.is_page_root
        else:
            # URL-only ablation: every request is its own context.
            page_url, is_page_root = url, looks_like_document

        content_type = infer_content_type(
            url,
            record.content_type,
            is_page_root=is_page_root,
            extension_first=config.extension_first,
        )

        if config.redirect_type_fixup:
            # Is this the consequent request of an earlier redirect?
            fixup_index = state.pending_type_fixup.pop(url, None)
            if fixup_index is not None:
                source = self.buffer.get(fixup_index)
                if source is not None and source.content_type != content_type:
                    source.content_type = content_type
                    source.classification = self.pipeline._classify(source)
            if record.location is not None:
                pending = state.pending_type_fixup
                pending[record.location] = index
                pending.move_to_end(record.location)
                while len(pending) > _MAX_PENDING_FIXUPS:
                    pending.popitem(last=False)

        entry = ClassifiedRequest(
            record=record,
            user=user,
            page_url=page_url,
            content_type=content_type,
            is_page_root=is_page_root,
            normalized_url=(
                normalize_url(url, self.pipeline._protected)
                if config.use_normalization
                else url
            ),
            classification=None,  # type: ignore[arg-type]
        )
        entry.classification = self.pipeline._classify(entry)
        self.buffer[index] = entry
        if self.next_index <= index:
            self.next_index = index + 1
        self._release(index, released)

    def _release(self, index: int, released: list[tuple[int, ClassifiedRequest]]) -> None:
        # Release everything at or below `index - fixup_window`.  For
        # the serial path (contiguous indexes) this is exactly the old
        # "pop while len(buffer) > fixup_window" rule; for a shard (a
        # subset of the global indexes) it releases precisely the owned
        # entries the serial run would have released by this point.
        if self.fixup_window is None:
            return
        horizon = index - self.fixup_window
        while self.buffer:
            oldest = next(iter(self.buffer))
            if oldest > horizon:
                break
            released.append(self.buffer.popitem(last=False))

    # -- checkpoint wire form (DESIGN.md §8) -------------------------------

    def export_state(self) -> dict:
        """Snapshot the run as a primitive-only object tree.

        Classifications of still-buffered entries are deliberately NOT
        serialized — the engine is deterministic given the entry's own
        fields, so :meth:`restore_state` recomputes them.  That keeps
        engine internals (compiled filters) out of the checkpoint and
        the payload fast to write.
        """
        return {
            "version": _STATE_VERSION,
            "next_index": self.next_index,
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
                "heap": [(ts, seq, record.to_row()) for ts, seq, record in self._heap],
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
        self.users = OrderedDict()
        for user, referrer_state, pending in state["users"]:
            self.users[tuple(user)] = _UserState(
                referrer_map=ReferrerMap.from_state(
                    referrer_state, track_embedded=config.use_embedded_urls
                ),
                pending_type_fixup=OrderedDict(pending),
            )
        self.buffer = OrderedDict()
        for index, row, page_url, content_type, is_page_root, normalized_url in state["buffer"]:
            entry = ClassifiedRequest(
                record=HttpLogRecord.from_row(row),
                user=(row[1], row[7] or ""),  # (client, user_agent)
                page_url=page_url,
                content_type=ContentType(content_type),
                is_page_root=is_page_root,
                normalized_url=normalized_url,
                classification=None,  # type: ignore[arg-type]
            )
            entry.classification = self.pipeline._classify(entry)
            self.buffer[index] = entry
        reorder = state["reorder"]
        self._heap = [
            (ts, seq, HttpLogRecord.from_row(row)) for ts, seq, row in reorder["heap"]
        ]
        heapq.heapify(self._heap)
        self._seq = reorder["seq"]
        self._max_ts = reorder["max_ts"]

    def merge_state(self, state: dict) -> None:
        """Fold another classifier's exported state into this one.

        Shard-parallel runs (DESIGN.md §10) give every worker its own
        classifier over a disjoint slice of users and entry indexes, so
        the fold is a disjoint union of per-user state and buffered
        entries.  The merge stays total on overlap anyway, resolving
        deterministically and order-insensitively: referrer maps union
        key-wise, a pending fix-up shared by two states keeps the larger
        entry index (the later redirect — what serial overwrite keeps),
        and a buffer index present in both keeps the already-held entry.
        """
        version = state.get("version")
        if version != _STATE_VERSION:
            raise ValueError(f"unsupported classifier state version {version!r}")
        config = self.pipeline.config
        self.next_index = max(self.next_index, state["next_index"])
        for user, referrer_state, pending in state["users"]:
            key = (user[0], user[1])
            mine = self.users.get(key)
            if mine is None:
                self.users[key] = _UserState(
                    referrer_map=ReferrerMap.from_state(
                        referrer_state, track_embedded=config.use_embedded_urls
                    ),
                    pending_type_fixup=OrderedDict(pending),
                )
            else:
                mine.referrer_map.merge_state(referrer_state)
                fixups = mine.pending_type_fixup
                for url, fixup_index in pending:
                    held = fixups.get(url)
                    if held is None or fixup_index > held:
                        fixups[url] = fixup_index
        changed = False
        for index, row, page_url, content_type, is_page_root, normalized_url in state["buffer"]:
            if index in self.buffer:
                continue
            entry = ClassifiedRequest(
                record=HttpLogRecord.from_row(row),
                user=(row[1], row[7] or ""),  # (client, user_agent)
                page_url=page_url,
                content_type=ContentType(content_type),
                is_page_root=is_page_root,
                normalized_url=normalized_url,
                classification=None,  # type: ignore[arg-type]
            )
            entry.classification = self.pipeline._classify(entry)
            self.buffer[index] = entry
            changed = True
        if changed:
            # Interleave shard indexes back into global release order.
            self.buffer = OrderedDict(sorted(self.buffer.items()))
        reorder = state["reorder"]
        for ts, seq, row in reorder["heap"]:
            heapq.heappush(self._heap, (ts, seq, HttpLogRecord.from_row(row)))
        self._seq = max(self._seq, reorder["seq"])
        self._max_ts = max(self._max_ts, reorder["max_ts"])


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

    def process(self, records: Iterable[HttpLogRecord], **kwargs) -> list[ClassifiedRequest]:
        """Classify a time-ordered record stream into a list.

        Records must be sorted by timestamp (multi-user streams are
        fine; state is kept per user).  Keyword arguments are forwarded
        to :meth:`iter_process`.
        """
        kwargs.setdefault("fixup_window", None)
        return list(self.iter_process(records, **kwargs))

    def iter_process(
        self,
        records: Iterable[HttpLogRecord],
        *,
        resume_from: dict | None = None,
        fixup_window: int | None = 1024,
        reorder_window: float | None = None,
        max_users: int | None = None,
        health: PipelineHealth | None = None,
    ) -> "Iterator[ClassifiedRequest]":
        """Streaming classification with bounded memory.

        Entries are yielded once they leave the ``fixup_window``-sized
        buffer; the redirect content-type fix-up can only reach back
        inside the buffer (redirect targets follow their redirect
        within a handful of requests in practice).  ``fixup_window=None``
        buffers everything — identical results to :meth:`process`.

        ``reorder_window`` (seconds) re-sorts a slightly out-of-order
        stream through a bounded buffer, so streams shuffled within that
        jitter window classify identically to sorted ones.  ``max_users``
        LRU-evicts idle per-user state so memory stays bounded on
        million-user streams (an evicted user restarts with an empty
        referrer map if it reappears).  ``health`` tallies reorderings
        and evictions.

        ``resume_from`` takes a :meth:`StreamingClassifier.export_state`
        snapshot; ``records`` must then be the remainder of the stream
        it was taken from, and the other options must match that run's.
        """
        classifier = StreamingClassifier(
            self,
            fixup_window=fixup_window,
            reorder_window=reorder_window,
            max_users=max_users,
            health=health,
        )
        if resume_from is not None:
            classifier.restore_state(resume_from)
        for record in records:
            yield from classifier.feed(record)
        yield from classifier.finish()

    def _classify(self, entry: ClassifiedRequest) -> Classification:
        context = RequestContext(content_type=entry.content_type, page_url=entry.page_url)
        # Split once here; the engine would otherwise re-split per call.
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
