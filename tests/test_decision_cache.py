"""Decision cache: cached == uncached, byte for byte (DESIGN.md §11).

The memoized decision layer promises that enabling the cache changes
*when* work happens, never *what* comes out.  These tests enforce it:

* unit tests pin the LRU/eviction/fingerprint mechanics of
  :class:`DecisionCache` and the invalidation contract of
  :class:`CachingEngine.add_filters`;
* the adaptive key tests prove the page-host key is only used when the
  engine's ``$document`` exceptions are host-only;
* hypothesis properties drive cached and uncached pipelines over
  randomly corrupted traces and compare classification rows, the
  quarantine sidecar, and the health summary.
"""

from __future__ import annotations

import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdClassificationPipeline, PipelineConfig
from repro.filterlist.cache import (
    CacheStats,
    CachingEngine,
    DecisionCache,
    EngineFingerprintMismatch,
)
from repro.filterlist.engine import Decision, FilterEngine, RequestContext
from repro.filterlist.filter import Filter
from repro.filterlist.options import ContentType
from repro.http.log import read_log, write_log
from repro.robustness import ErrorPolicy, PipelineHealth, QuarantineWriter
from repro.robustness.runstate import classification_row
from repro.trace.corruption import TraceCorruptor


def _engine(lines: dict[str, list[str]]) -> FilterEngine:
    engine = FilterEngine()
    for list_name, filters in lines.items():
        engine.add_filters([Filter.parse(f) for f in filters], list_name=list_name)
    return engine


_PAGE = RequestContext(content_type=ContentType.IMAGE, page_url="http://news.example/story")


# ---------------------------------------------------------------------------
# DecisionCache mechanics


class TestDecisionCache:
    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            DecisionCache("fp", maxsize=0)

    def test_hit_miss_counting(self):
        cache = DecisionCache("fp", maxsize=4)
        missing = DecisionCache.missing()
        assert cache.get("a") is missing
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_counts_and_drops_oldest(self):
        cache = DecisionCache("fp", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.get("b") is DecisionCache.missing()
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_existing_key_does_not_evict(self):
        cache = DecisionCache("fp", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.stats.evictions == 0
        assert cache.get("a") == 10

    def test_fingerprint_guard(self):
        cache = DecisionCache("fp-one", maxsize=2)
        cache.check_fingerprint("fp-one")  # no-op on match
        with pytest.raises(EngineFingerprintMismatch):
            cache.check_fingerprint("fp-two")

    def test_invalidate_clears_and_rekeys(self):
        cache = DecisionCache("fp-one", maxsize=2)
        cache.put("a", 1)
        cache.invalidate("fp-two")
        assert len(cache) == 0
        assert cache.fingerprint == "fp-two"
        cache.check_fingerprint("fp-two")

    def test_stats_merge(self):
        first = CacheStats(hits=2, misses=3, evictions=1)
        first.merge(CacheStats(hits=1, misses=1, evictions=0))
        assert (first.hits, first.misses, first.evictions) == (3, 4, 1)


# ---------------------------------------------------------------------------
# CachingEngine semantics


class TestCachingEngine:
    def test_hit_replays_the_same_result_object(self):
        cached = CachingEngine(_engine({"easylist": ["||ads.example^"]}))
        first = cached.match("http://ads.example/b.gif", _PAGE)
        second = cached.match("http://ads.example/b.gif", _PAGE)
        assert second is first  # frozen result, replayed verbatim
        assert cached.stats.hits == 1
        assert cached.stats.misses == 1
        assert first.decision == Decision.BLOCK

    def test_classify_and_match_do_not_share_entries(self):
        cached = CachingEngine(_engine({"easylist": ["||ads.example^"]}))
        cached.match("http://ads.example/b.gif", _PAGE)
        cached.classify("http://ads.example/b.gif", _PAGE)
        assert cached.stats.misses == 2
        assert cached.stats.hits == 0

    def test_add_filters_invalidates_after_first_match(self):
        cached = CachingEngine(_engine({"easylist": ["||ads.example^"]}))
        url = "http://ads.example/textad/1.gif"
        before = cached.match(url, _PAGE)
        assert before.decision == Decision.BLOCK
        old_fingerprint = cached.fingerprint
        cached.add_filters(
            [Filter.parse("@@||ads.example/textad/")], list_name="acceptable_ads"
        )
        assert cached.fingerprint != old_fingerprint
        after = cached.match(url, _PAGE)
        assert after.decision == Decision.WHITELIST  # not the stale BLOCK
        assert cached.stats.hits == 0  # both lookups were misses

    def test_mutating_the_wrapped_engine_directly_is_refused(self):
        engine = _engine({"easylist": ["||ads.example^"]})
        cached = CachingEngine(engine)
        cached.match("http://ads.example/b.gif", _PAGE)
        # Bypass the wrapper: the engine's fingerprint rotates but the
        # warm cache is never invalidated -> every lookup must refuse.
        engine.add_filters([Filter.parse("||evil.example^")], list_name="easylist")
        with pytest.raises(EngineFingerprintMismatch):
            cached.match("http://ads.example/b.gif", _PAGE)
        with pytest.raises(EngineFingerprintMismatch):
            cached.classify("http://ads.example/b.gif", _PAGE)

    def test_same_filters_same_fingerprint(self):
        lines = {"easylist": ["||ads.example^", "/banners/*$image"]}
        assert _engine(lines).fingerprint == _engine(lines).fingerprint
        assert (
            _engine(lines).fingerprint
            != _engine({"easylist": ["||ads.example^"]}).fingerprint
        )

    def test_should_block_goes_through_the_cache(self):
        cached = CachingEngine(_engine({"easylist": ["||ads.example^"]}))
        assert cached.should_block("http://ads.example/b.gif", _PAGE)
        assert cached.should_block("http://ads.example/b.gif", _PAGE)
        assert cached.stats.hits == 1


class TestAdaptiveKey:
    def test_host_only_document_exceptions_key_on_page_host(self):
        cached = CachingEngine(
            _engine(
                {
                    "easylist": ["||tracker.example^"],
                    "acceptable_ads": ["@@||friendly.example^$document"],
                }
            )
        )
        assert not cached.document_matching_needs_page_url
        url = "http://tracker.example/pixel.gif"
        one = cached.match(url, RequestContext(ContentType.IMAGE, "http://friendly.example/a"))
        two = cached.match(url, RequestContext(ContentType.IMAGE, "http://friendly.example/b"))
        assert two is one  # same page host, different path: one entry
        assert cached.stats.hits == 1
        assert one.decision == Decision.WHITELIST

    def test_path_sensitive_document_exception_keys_on_page_url(self):
        cached = CachingEngine(
            _engine(
                {
                    "easylist": ["||tracker.example^"],
                    "acceptable_ads": ["@@||friendly.example/allow/$document"],
                }
            )
        )
        assert cached.document_matching_needs_page_url
        url = "http://tracker.example/pixel.gif"
        allowed = cached.match(url, RequestContext(ContentType.IMAGE, "http://friendly.example/allow/x"))
        blocked = cached.match(url, RequestContext(ContentType.IMAGE, "http://friendly.example/other"))
        assert cached.stats.hits == 0  # different page paths: distinct entries
        assert allowed.decision == Decision.WHITELIST
        assert blocked.decision == Decision.BLOCK


# ---------------------------------------------------------------------------
# Pipeline level: cached vs uncached over corrupted traces


@pytest.fixture(scope="module")
def trace_text(rbn_trace):
    stream = io.StringIO()
    write_log(rbn_trace.http[:1500], stream)
    return stream.getvalue()


@pytest.fixture(scope="module")
def uncached_pipeline(lists):
    return AdClassificationPipeline(lists, PipelineConfig(use_decision_cache=False))


def _classify_file(pipeline, path, policy, reorder_window):
    health = PipelineHealth()
    sidecar = io.BytesIO()
    quarantine = (
        QuarantineWriter(sidecar) if policy is ErrorPolicy.QUARANTINE else None
    )
    with open(path) as stream:
        records = list(
            read_log(stream, on_error=policy, health=health, quarantine=quarantine)
        )
    entries = pipeline.process(records, health=health, reorder_window=reorder_window)
    rows = [classification_row(entry) for entry in entries]
    return rows, sidecar.getvalue(), health.summary()


@settings(max_examples=6, deadline=None)
@given(
    policy=st.sampled_from([ErrorPolicy.SKIP, ErrorPolicy.QUARANTINE]),
    rate=st.sampled_from([0.0, 0.03, 0.1]),
    jitter_s=st.sampled_from([0.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_cached_output_is_byte_identical(
    pipeline, uncached_pipeline, trace_text, policy, rate, jitter_s, seed
):
    corruptor = TraceCorruptor(rate=rate, jitter_s=jitter_s, seed=seed)
    reorder_window = 5.0 if jitter_s else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.tsv")
        with open(path, "w") as stream:
            stream.write(corruptor.corrupt_text(trace_text))
        cached = _classify_file(pipeline, path, policy, reorder_window)
        uncached = _classify_file(uncached_pipeline, path, policy, reorder_window)
    assert cached[0] == uncached[0]  # classification rows, in order
    assert cached[1] == uncached[1]  # quarantine sidecar bytes
    assert cached[2] == uncached[2]  # health summary text


def test_session_pipeline_caches_by_default(pipeline, trace_text):
    assert isinstance(pipeline.engine, CachingEngine)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.tsv")
        with open(path, "w") as stream:
            stream.write(trace_text)
        _classify_file(pipeline, path, ErrorPolicy.SKIP, None)
    stats = pipeline.decision_cache_stats
    assert stats is not None
    assert stats.hits > 0  # real traces repeat URLs; the cache must pay off


def test_uncached_pipeline_reports_no_stats(uncached_pipeline):
    assert uncached_pipeline.decision_cache_stats is None
    assert isinstance(uncached_pipeline.engine, FilterEngine)


def test_cache_counters_stay_out_of_health_state():
    health = PipelineHealth()
    health.add_cache_stats(10, 5, 1)
    state = health.export_state()
    for key in state:
        assert not key.startswith("cache_")
    assert "cache" not in health.summary()
    block = health.cache_summary()
    assert "-- decision cache --" in block
    assert "hits:              10 (66.7%)" in block
    restored = PipelineHealth.from_state(state)
    assert restored.cache_hits == 0  # transient: resume restarts at zero
    folded = PipelineHealth()
    folded.merge_state(state)
    assert folded.cache_hits == 0

    empty = PipelineHealth()
    assert empty.cache_summary() == ""
