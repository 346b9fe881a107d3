"""Property: hot reload never serves a stale decision.

The engine fingerprint (DESIGN.md §11) keys the decision cache; the
serve reload path (:meth:`EngineHolder.adopt`) relies on it for its
central promise:

* a reload that *changed* the list installs a fresh cache — every
  subsequent classification equals what a cold engine built from the
  new list says (no stale hit can survive);
* a reload that *didn't* change the list keeps the warm cache object —
  byte-for-byte identical list text must not cost the hit rate.

Hypothesis drives both sides with randomized list pairs and query sets.

A swap must not cost the next request anything either: the reload
builds *and compiles* the replacement off the event loop, so what
:meth:`EngineHolder.adopt` receives is ready to answer.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.lists import FilterList
from repro.filterlist.options import ContentType
from repro.serve import EngineHolder, EngineSource
from repro.serve.reload import ReloadManager

# Debug-mode loops: a slow callback, an asyncio-logged error or an
# un-awaited coroutine fails the test (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("asyncio_debug")

HOSTS = ["ads.alpha.com", "cdn.beta.net", "track.gamma.org", "static.delta.io"]
PATHS = ["/spot.gif", "/lib.js", "/banner/x.png", "/index.html", "/pixel"]

rules = st.lists(
    st.sampled_from(
        [f"||{host}^" for host in HOSTS]
        + [f"@@||{host}^" for host in HOSTS]
        + ["/banner/*", "/pixel*$image"]
    ),
    min_size=1,
    max_size=6,
    unique=True,
)

urls = st.lists(
    st.tuples(st.sampled_from(HOSTS), st.sampled_from(PATHS)).map(
        lambda pair: f"http://{pair[0]}{pair[1]}"
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


def build_engine(rule_lines: list[str]) -> FilterEngine:
    engine = FilterEngine()
    lst = FilterList.from_text("\n".join(rule_lines) + "\n", name="prop")
    engine.add_filters(lst.filters, list_name="prop")
    return engine


def classify_all(engine, query_urls: list[str]) -> list[tuple]:
    results = []
    for url in query_urls:
        context = RequestContext(content_type=ContentType.IMAGE, page_url="")
        c = engine.classify(url, context)
        results.append((url, c.is_ad, c.is_blacklisted, c.is_whitelisted, c.would_block))
    return results


class TestReloadStaleness:
    @settings(max_examples=60, deadline=None)
    @given(first=rules, second=rules, query=urls)
    def test_changed_fingerprint_never_serves_stale(self, first, second, query):
        holder = EngineHolder(build_engine(first), cache_size=256)
        classify_all(holder.engine, query)  # warm the cache on list #1
        classify_all(holder.engine, query)

        replacement = build_engine(second)
        status = holder.adopt(replacement)

        fresh = build_engine(second)
        if status == "swapped":
            assert replacement.fingerprint != build_engine(first).fingerprint
            assert holder.generation == 2
        else:
            assert status == "noop"
            assert holder.generation == 1
        # The invariant that matters either way: what the holder serves
        # now is exactly what a cold engine on list #2... or, for a noop,
        # list #1 == list #2 ... says.  Never a stale mixture.
        assert classify_all(holder.engine, query) == classify_all(fresh, query)

    @settings(max_examples=30, deadline=None)
    @given(first=rules, query=urls)
    def test_identical_fingerprint_preserves_warm_cache(self, first, query):
        holder = EngineHolder(build_engine(first), cache_size=256)
        classify_all(holder.engine, query)
        cache_before = holder.cache
        assert cache_before is not None
        misses_before = cache_before.stats.misses

        assert holder.adopt(build_engine(first)) == "noop"

        assert holder.cache is cache_before  # same object, not a rebuild
        classify_all(holder.engine, query)
        # Every repeat lookup hits; no new misses were paid for the noop.
        assert cache_before.stats.misses == misses_before
        assert cache_before.stats.hits >= len(query)

    @settings(max_examples=30, deadline=None)
    @given(first=rules, second=rules, query=urls)
    def test_cumulative_cache_stats_survive_swaps(self, first, second, query):
        holder = EngineHolder(build_engine(first), cache_size=256)
        classify_all(holder.engine, query)
        lookups_before = holder.cache_stats().lookups
        holder.adopt(build_engine(second))
        classify_all(holder.engine, query)
        total = holder.cache_stats()
        # /metrics reports lifetime totals: a swap retires, never resets.
        assert total.lookups == lookups_before + len(query)


class TestReloadCompilesOffLoop:
    def test_swapped_in_engine_is_compiled_before_adoption(self, tmp_path, forbid_engine_compile):
        path = tmp_path / "list.txt"
        path.write_text("||ads.alpha.com^\n")
        source = EngineSource(list_paths=[str(path)])
        holder = EngineHolder(source.build(), cache_size=256)
        adopt, seen_compiled = holder.adopt, []

        def recording_adopt(engine):
            seen_compiled.append(engine.is_compiled)
            return adopt(engine)

        holder.adopt = recording_adopt
        path.write_text("||ads.alpha.com^\n||cdn.beta.net^\n")
        outcome = asyncio.run(ReloadManager(source, holder).reload())
        assert outcome.status == "swapped"
        assert seen_compiled == [True]
        forbid_engine_compile()  # ...and the first request builds nothing
        results = classify_all(holder.engine, ["http://cdn.beta.net/lib.js"])
        assert results[0][1:3] == (True, True)
