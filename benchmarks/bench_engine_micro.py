"""Micro-benchmarks: filter-engine matching throughput.

Not a paper table — engineering benchmarks for the substrate that the
whole methodology stands on, including the keyword-index speedup over
a linear scan (DESIGN.md §5, ablation 1).
"""

from __future__ import annotations

import random

import pytest

from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.options import ContentType


@pytest.fixture(scope="module")
def url_corpus(ecosystem):
    """A mixed URL corpus: ads, trackers, content."""
    from repro.web.page import build_page

    rng = random.Random(10)
    urls = []
    publishers = [p for p in ecosystem.publishers if p.ad_networks]
    while len(urls) < 2000:
        page = build_page(rng.choice(publishers), ecosystem, rng)
        urls.extend(
            (obj.url, obj.abp_type, page.page_url) for obj in page.objects
        )
    return urls[:2000]


def _run_matches(engine, corpus):
    hits = 0
    for url, content_type, page_url in corpus:
        if engine.match(url, RequestContext(content_type, page_url)).is_ad:
            hits += 1
    return hits


def test_match_indexed(benchmark, lists, url_corpus):
    engine = FilterEngine(use_keyword_index=True)
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)
    hits = benchmark(_run_matches, engine, url_corpus)
    assert hits > 0


def test_match_linear(benchmark, lists, url_corpus):
    engine = FilterEngine(use_keyword_index=False)
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)
    hits = benchmark(_run_matches, engine, url_corpus)
    assert hits > 0


def test_classify_indexed(benchmark, lists, url_corpus):
    engine = FilterEngine(use_keyword_index=True)
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)

    def run():
        return sum(
            1 for url, content_type, page_url in url_corpus
            if engine.classify(url, RequestContext(content_type, page_url)).is_ad
        )

    hits = benchmark(run)
    assert hits > 0


def test_engine_build(benchmark, lists):
    def build():
        engine = FilterEngine()
        for name, lst in lists.items():
            engine.add_filters(lst.filters, list_name=name)
        return engine

    engine = benchmark(build)
    assert engine.filter_count > 50


def test_single_match_hot_path(benchmark, lists):
    engine = FilterEngine()
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)
    context = RequestContext(ContentType.IMAGE, "http://news0001.de/story")
    url = "http://static.news0001.de/media/img/1234.jpg"
    result = benchmark(engine.match, url, context)
    assert not result.is_ad


def test_match_actrie(benchmark, lists, url_corpus):
    """The Aho–Corasick token-prefilter backend (DESIGN.md §15)."""
    from repro.filterlist.actrie import ACTrieEngine

    engine = ACTrieEngine()
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)
    hits = benchmark(_run_matches, engine, url_corpus)
    assert hits > 0


def test_snapshot_load(benchmark, lists, tmp_path_factory):
    """Deserializing a compiled snapshot vs rebuilding from lists."""
    from repro.filterlist.snapshot import load_snapshot, write_snapshot

    engine = FilterEngine()
    for name, lst in lists.items():
        engine.add_filters(lst.filters, list_name=name)
    path = str(tmp_path_factory.mktemp("snap") / "engine.snap")
    write_snapshot(path, engine)
    loaded = benchmark(load_snapshot, path)
    assert loaded.engine.fingerprint == engine.fingerprint


def test_url_split_cache_sweep(rbn2, results_dir):
    """Hit-rate and wall-time sweep over ``split_url`` memo bounds.

    The stream is the classify-time lookup sequence for the RBN-2
    trace — per record the pipeline splits the request URL (normalize),
    the referrer (page attribution) and the page URL again per match
    context — so temporal locality here is exactly what the production
    memo sees.  Tunes ``repro.http.url.URL_CACHE_SIZE``; writes
    ``results/url_split_cache.txt``.
    """
    import functools
    import time

    from conftest import write_result
    from repro.http.url import URL_CACHE_SIZE, split_url

    _, trace, entries = rbn2
    stream = []
    for record, entry in zip(trace.http, entries):
        stream.append(record.url)
        if record.referrer:
            stream.append(record.referrer)
        stream.append(entry.normalized_url)
        if entry.page_url:
            stream.append(entry.page_url)
    distinct = len(set(stream))

    raw = split_url.__wrapped__
    rows = []
    for size in (1024, 4096, 16384, 32768, 65536, None):
        cached = functools.lru_cache(maxsize=size)(raw)
        best = float("inf")
        for _ in range(3):
            cached.cache_clear()
            started = time.perf_counter()
            for url in stream:
                cached(url)
            best = min(best, time.perf_counter() - started)
        info = cached.cache_info()
        rows.append((size, info.hits / len(stream), best))

    lines = [
        "split_url lru_cache maxsize sweep (classify-time lookup stream)",
        f"stream: {len(stream)} lookups, {distinct} distinct URLs "
        f"({len(trace.http)} RBN-2 records)",
        "",
        f"{'maxsize':>9} {'hit_rate':>9} {'pass_s':>7} {'ns/lookup':>10}",
    ]
    for size, hit_rate, best in rows:
        label = "unbounded" if size is None else str(size)
        lines.append(
            f"{label:>9} {hit_rate * 100:>8.1f}% {best:>7.3f} "
            f"{best / len(stream) * 1e9:>10.0f}"
        )
    lines += [
        "",
        f"shipping URL_CACHE_SIZE={URL_CACHE_SIZE}",
    ]
    write_result(results_dir, "url_split_cache.txt", "\n".join(lines) + "\n")

    by_size = {size: hit_rate for size, hit_rate, _ in rows}
    # The shipped bound must be within a point of an unbounded memo —
    # if this trips, the working set grew and URL_CACHE_SIZE is stale.
    assert by_size[None] - by_size[URL_CACHE_SIZE] < 0.01
