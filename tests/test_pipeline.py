"""Tests for repro.core.pipeline — the paper's Fig 1 methodology."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.content_type import type_from_extension, type_from_mime
from repro.core.pipeline import AdClassificationPipeline, ClassifiedRequest, PipelineConfig
from repro.core.referrer_map import ReferrerMap
from repro.filterlist.engine import RequestContext
from repro.filterlist.options import ContentType
from repro.http.log import HttpLogRecord
from repro.http.url import SplitUrl, format_query, join_url, parse_query, split_url


def _record(url, *, referrer=None, mime=None, ts=0.0, status=200, location=None,
            client="10.0.0.1", ua="UA", size=100):
    parts = split_url(url)
    return HttpLogRecord(
        ts=ts, client=client, server="101.0.0.1", method="GET",
        host=parts.host, uri=parts.path_and_query or "/",
        referrer=referrer, user_agent=ua, status=status,
        content_type=mime, content_length=size, location=location,
        tcp_handshake_ms=10.0, http_handshake_ms=12.0, flow_id=1,
    )


class TestPipelineClassification:
    def test_end_to_end_page(self, lists, ecosystem):
        pipeline = AdClassificationPipeline(lists)
        ad_domain = ecosystem.ad_networks[0].serving_domains[0]
        page = "http://news0001.example/story.html"
        records = [
            _record(page, mime="text/html", ts=0.0),
            _record(f"http://{ad_domain}/adtag/show.js?ad_slot=1",
                    referrer=page, mime="application/javascript", ts=0.1),
            _record("http://static.news0001.example/img/1.jpg",
                    referrer=page, mime="image/jpeg", ts=0.2),
        ]
        entries = pipeline.process(records)
        assert not entries[0].is_ad  # the page itself
        assert entries[1].is_ad and entries[1].blacklist_name == "easylist"
        assert not entries[2].is_ad
        assert entries[1].page_url == page

    def test_third_party_context_from_referrer_map(self, lists, ecosystem):
        """The same URL is an ad in third-party context only."""
        pipeline = AdClassificationPipeline(lists)
        ad_domain = ecosystem.ad_networks[0].serving_domains[0]
        url = f"http://{ad_domain}/creative/1-ad-300x250.gif"
        page = "http://news.example/x.html"
        third = pipeline.process([
            _record(page, mime="text/html", ts=0.0),
            _record(url, referrer=page, mime="image/gif", ts=0.1),
        ])[1]
        first = pipeline.process([
            _record(f"http://{ad_domain}/landing.html", mime="text/html", ts=0.0),
            _record(url, referrer=f"http://{ad_domain}/landing.html",
                    mime="image/gif", ts=0.1),
        ])[1]
        # ||domain^$third-party does not fire on the network's own page,
        # but the asset-scoped /creative/ rule still can; what must hold
        # is that the page context was third-party vs first-party.
        assert third.is_ad
        assert third.page_url == page
        assert first.page_url == f"http://{ad_domain}/landing.html"

    def test_redirect_type_fixup_reclassifies(self, lists):
        """§3.1: a redirecting URL inherits the consequent request's
        type, rescuing image-typed exception filters."""
        pipeline = AdClassificationPipeline(lists)
        page = "http://news.example/x.html"
        redirect = "http://r.example/adserver/click?id=1"
        target = "http://r.example/img/banner.gif"
        records = [
            _record(page, mime="text/html", ts=0.0),
            _record(redirect, referrer=page, mime="text/html", status=302,
                    location=target, ts=0.1),
            _record(target, mime="image/gif", ts=0.2),
        ]
        entries = pipeline.process(records)
        # Redirecting URL got the target's IMAGE type via fix-up.
        assert entries[1].content_type == ContentType.IMAGE
        # And the target inherited the page attribution via Location.
        assert entries[2].page_url == page

    def test_users_isolated(self, lists):
        pipeline = AdClassificationPipeline(lists)
        page_a = "http://site-a.example/"
        page_b = "http://site-b.example/"
        records = [
            _record(page_a, mime="text/html", ts=0.0, client="10.0.0.1"),
            _record(page_b, mime="text/html", ts=0.1, client="10.0.0.2"),
            _record("http://cdn.example/x.js", referrer=page_a, ts=0.2, client="10.0.0.1"),
            _record("http://cdn.example/x.js", referrer=page_b, ts=0.3, client="10.0.0.2"),
        ]
        entries = pipeline.process(records)
        assert entries[2].page_url == page_a
        assert entries[3].page_url == page_b
        assert entries[2].user != entries[3].user

    def test_classify_one(self, lists, ecosystem):
        pipeline = AdClassificationPipeline(lists)
        ad_domain = ecosystem.ad_networks[0].serving_domains[0]
        classification = pipeline.classify_one(
            f"http://{ad_domain}/adtag/show.js?ad_slot=2",
            content_type=ContentType.SCRIPT,
            page_url="http://news.example/",
        )
        assert classification.is_blacklisted


class TestAblations:
    def _records(self, ecosystem):
        ad_domain = ecosystem.ad_networks[0].serving_domains[0]
        page = "http://news.example/story.html"
        redirect = f"http://{ad_domain}/adserver/click?redirect=http://target.example/x.gif"
        return [
            _record(page, mime="text/html", ts=0.0),
            _record(redirect, referrer=page, mime="text/html", status=302,
                    location="http://target.example/x.gif", ts=0.1),
            _record("http://target.example/x.gif", mime="image/gif", ts=0.2),
        ]

    def test_no_referrer_map_loses_page_context(self, lists, ecosystem):
        config = PipelineConfig(use_referrer_map=False)
        pipeline = AdClassificationPipeline(lists, config)
        entries = pipeline.process(self._records(ecosystem))
        # Every request becomes its own page context.
        assert entries[2].page_url == "http://target.example/x.gif"

    def test_no_location_repair(self, lists, ecosystem):
        config = PipelineConfig(use_location_repair=False, use_embedded_urls=False)
        pipeline = AdClassificationPipeline(lists, config)
        entries = pipeline.process(self._records(ecosystem))
        assert entries[2].page_url == "http://target.example/x.gif"

    def test_embedded_repair_alone_recovers(self, lists, ecosystem):
        config = PipelineConfig(use_location_repair=False, use_embedded_urls=True)
        pipeline = AdClassificationPipeline(lists, config)
        entries = pipeline.process(self._records(ecosystem))
        assert entries[2].page_url == "http://news.example/story.html"

    def test_no_normalization_embeds_trigger_false_positives(self, lists, ecosystem):
        ad_domain = ecosystem.ad_networks[0].serving_domains[0]
        page = "http://news.example/story.html"
        # An innocent request carrying an ad URL in its query string.
        # (Domain-anchored rules cannot fire mid-string, but unanchored
        # path patterns like /adserver/ do — the paper's case.)
        carrier = f"http://api.news.example/log?last=http://{ad_domain}/adserver/click"
        records = [
            _record(page, mime="text/html", ts=0.0),
            _record(carrier, referrer=page, mime="application/json", ts=0.1),
        ]
        with_norm = AdClassificationPipeline(lists).process(records)
        without_norm = AdClassificationPipeline(
            lists, PipelineConfig(use_normalization=False)
        ).process(records)
        assert not with_norm[1].is_ad
        assert without_norm[1].is_ad  # the false positive the paper fixes

    def test_keyword_index_ablation_same_results(self, lists, ecosystem):
        records = self._records(ecosystem)
        indexed = AdClassificationPipeline(lists).process(records)
        linear = AdClassificationPipeline(
            lists, PipelineConfig(use_keyword_index=False)
        ).process(records)
        for a, b in zip(indexed, linear):
            assert a.is_ad == b.is_ad
            assert a.blacklist_name == b.blacklist_name

    def test_matcher_selects_production_engine_or_oracle(self, lists):
        from repro.filterlist import ACTrieEngine, FilterEngine

        for matcher, kind in ((None, ACTrieEngine), ("actrie", ACTrieEngine), ("buckets", FilterEngine)):
            config = PipelineConfig(use_decision_cache=False)
            if matcher is not None:
                config.matcher = matcher
            assert type(AdClassificationPipeline(lists, config).engine) is kind

    def test_unknown_matcher_is_rejected(self):
        with pytest.raises(ValueError, match="unknown matcher"):
            AdClassificationPipeline({}, PipelineConfig(matcher="combined"))


class TestAgainstGroundTruth:
    def test_precision_recall_on_rbn_trace(self, classified, rbn_trace):
        """Blacklist classifications recover generative ground truth.

        Whitelist-only hits are excluded on the positive side: they are
        the paper's own gstatic anomaly — the acceptable-ads list
        deliberately matching non-ad infrastructure (§7.3) — not a
        pipeline error.
        """
        true_positive = false_positive = false_negative = 0
        for entry, truth in zip(classified, rbn_trace.truth):
            truth_ad = truth.intent in ("ad", "tracker")
            predicted = entry.classification.is_blacklisted
            if predicted and truth_ad:
                true_positive += 1
            elif predicted and not truth_ad:
                false_positive += 1
            elif truth_ad and not entry.is_ad:
                false_negative += 1
        precision = true_positive / max(1, true_positive + false_positive)
        recall = true_positive / max(1, true_positive + false_negative)
        assert precision > 0.95, f"precision {precision:.3f}"
        assert recall > 0.90, f"recall {recall:.3f}"

    def test_whitelist_only_hits_are_the_gstatic_anomaly(self, classified, rbn_trace):
        """Ad-classified content requests must be dominated by the
        overly general $document whitelist rule, as in the paper."""
        whitelist_only_content = 0
        gstatic = 0
        for entry, truth in zip(classified, rbn_trace.truth):
            if entry.is_ad and not entry.classification.is_blacklisted:
                if truth.intent == "content":
                    whitelist_only_content += 1
                    if "gstatic-like.com" in entry.record.host:
                        gstatic += 1
        if whitelist_only_content:
            assert gstatic / whitelist_only_content > 0.95

    def test_acceptable_ads_recovered_as_whitelisted(self, classified, rbn_trace):
        hits = misses = 0
        for entry, truth in zip(classified, rbn_trace.truth):
            if truth.intent == "ad" and truth.acceptable:
                if entry.is_whitelisted:
                    hits += 1
                else:
                    misses += 1
        if hits + misses:
            assert hits / (hits + misses) > 0.9


# ---------------------------------------------------------------------------
# Fold differential: the fold against a transcription of its per-layer form


def _reference_infer(url, mime, *, is_page_root, extension_first):
    """Content-type inference as written per layer: split the URL, read
    the header with the page-root flag."""
    from_extension = type_from_extension(url)
    from_header = type_from_mime(mime, is_page_root=is_page_root)
    inferred = (from_extension or from_header) if extension_first else (from_header or from_extension)
    if inferred is None:
        return ContentType.DOCUMENT if is_page_root else ContentType.OTHER
    return inferred


def _reference_normalize(url, protected):
    """Query normalization as written per layer: split, rewrite, rejoin."""
    parts = split_url(url)
    if not parts.query:
        return url
    pairs = [
        (key, value if not value or protected.protects(key, value) else "X")
        for key, value in parse_query(parts.query)
    ]
    return join_url(SplitUrl(parts.scheme, parts.host, parts.port, parts.path, format_query(pairs)))


def _reference_fold(pipeline, records):
    """``pipeline.process(records)`` with every layer splitting the URL
    itself, and the engine re-splitting the normalized URL for its host."""
    config = pipeline.config

    def classify(entry):
        context = RequestContext(entry.content_type, entry.page_url)
        host = split_url(entry.normalized_url).host
        return pipeline.engine.classify(entry.normalized_url, context, request_host=host)

    maps, waiting, entries, epoch = {}, {}, [], 0
    for index, record in enumerate(records):
        if config.referrer_horizon_s is not None:
            # The referrer clock ticks every half horizon and ages every map.
            epoch = max(epoch, int(record.ts // (config.referrer_horizon_s / 2)))
            for referrer_map in maps.values():
                referrer_map.advance(epoch)
        user = (record.client, record.user_agent or "")
        url = record.url
        looks_like_document = type_from_mime(record.content_type) in (
            ContentType.DOCUMENT, ContentType.SUBDOCUMENT,
        )
        if config.use_referrer_map:
            referrer_map = maps.setdefault(
                user, ReferrerMap(track_embedded=config.use_embedded_urls, epoch=epoch)
            )
            attribution = referrer_map.observe(
                url, record.referrer, looks_like_document=looks_like_document,
                location=record.location if config.use_location_repair else None,
            )
            page_url, is_page_root = attribution.page_url, attribution.is_page_root
        else:
            page_url, is_page_root = url, looks_like_document
        content_type = _reference_infer(
            url, record.content_type, is_page_root=is_page_root,
            extension_first=config.extension_first,
        )
        if config.redirect_type_fixup:
            pending = waiting.setdefault(user, {})
            source_index = pending.pop(url, None)
            if source_index is not None and entries[source_index].content_type != content_type:
                entries[source_index].content_type = content_type
                entries[source_index].classification = classify(entries[source_index])
            if record.location is not None:
                pending[record.location] = index
        normalized = _reference_normalize(url, pipeline._protected) if config.use_normalization else url
        entry = ClassifiedRequest(record, user, page_url, content_type, is_page_root, normalized, None)
        entry.classification = classify(entry)
        entries.append(entry)
    return entries


def _fields(entry):
    return (entry.user, entry.page_url, entry.content_type, entry.is_page_root,
            entry.normalized_url, entry.classification)


_ABLATIONS = {
    "default": {},
    "no-referrer-map": {"use_referrer_map": False},
    "no-embedded-urls": {"use_embedded_urls": False},
    "no-location-repair": {"use_location_repair": False},
    "no-normalization": {"use_normalization": False},
    "header-first": {"extension_first": False},
    "no-redirect-fixup": {"redirect_type_fixup": False},
    "no-decision-cache": {"use_decision_cache": False},
    # The clock ticks every 2 s, so a drawn trace (one record a second)
    # forgets its early pages; None never forgets.
    "short-referrer-horizon": {"referrer_horizon_s": 4.0},
    "no-referrer-horizon": {"referrer_horizon_s": None},
}


# Rules whose key=value fragments normalization must keep; the generated
# lists have none.
_PROTECTING = "@@*jsp?callback=aslHandleAds*\n/adserver/*&ad_slot=1\n"


@pytest.fixture(scope="module", params=sorted(_ABLATIONS))
def ablated(request, lists):
    from repro.filterlist.lists import FilterList

    protecting = {**lists, "protecting": FilterList.from_text(_PROTECTING, "protecting")}
    return AdClassificationPipeline(protecting, PipelineConfig(**_ABLATIONS[request.param]))


_PATHS = ["", "/", "/x.gif", "/a/B.PNG", "/adserver/click", "/banner/1.jpg", "/lib.js",
          "/s.css", "/v.mp4", "/index.html", "/adtag/show.js", "/n\nl.js", "/t\tab", "/a.jsp"]
_QUERIES = ["", "?", "?&", "?ad_slot=1", "?b=2&ad_slot=1", "?a=1&b", "?x=%0A",
            "?next=\nhttp://t.example/\tz",
            "?redirect=http%3A%2F%2Ftarget.example%2Fx.gif", "?u=http://target.example/y.png&cb=9",
            "?callback=aslHandleAds", "?a=b?c=d"]
_FRAGMENTS = ["", "#frag", "#a?b=1"]
_MIMES = [None, "text/html", "text/html; charset=utf-8", "application/xhtml+xml", "image/gif",
          "application/javascript", "application/json", "video/mp4", "text/css",
          "application/x-shockwave-flash", "weird/thing"]
_HOSTS = ["news.example", "News.EXAMPLE", "target.example", "cdn.example:8080", "cdn.example:",
          "user@ads.example", "[2001:db8::1]", "[2001:db8::1]:81", "2001:db8::1"]


@st.composite
def _traces(draw, ad_host):
    """Records of two users: origin- and absolute-form URIs (any scheme
    case), odd hosts, fragments, raw LF/TAB, referrers to earlier
    requests, redirects whose Location is the next request, and
    referer-less requests for a URL an earlier query embedded."""
    hosts = _HOSTS + [ad_host, ad_host.upper(), f"{ad_host}:8080"]
    specs = draw(st.lists(st.tuples(
        st.sampled_from(hosts),
        st.sampled_from(["", "http", "HTTP", "https", "Https"]),  # "": origin-form
        st.sampled_from(_PATHS), st.sampled_from(_QUERIES), st.sampled_from(_FRAGMENTS),
        st.sampled_from(_MIMES),
        st.one_of(st.none(), st.integers(0, 24), st.just("http://news.example/"),
                  st.just(f"http://{ad_host}/")),
        st.booleans(),  # redirect to the next request
        st.sampled_from(["10.0.0.1", "10.0.0.2"]),
        st.sampled_from([None, None, "/x.gif", "/y.png"]),  # an embedded target instead
    ), min_size=1, max_size=25))
    records = []
    for i, (host, scheme, path, query, fragment, mime, referrer, _, client, embedded) in enumerate(specs):
        target = path + query + fragment
        uri = f"{scheme}://{host}{target}" if scheme else (target or "/")
        if embedded is not None:
            host, uri, referrer = "target.example", embedded, None
        if isinstance(referrer, int):
            referrer = records[referrer].url if referrer < i else None
        records.append(HttpLogRecord(
            ts=float(i), client=client, server="101.0.0.1", method="GET", host=host, uri=uri,
            referrer=referrer, user_agent="UA", status=200, content_type=mime,
            content_length=100, location=None, tcp_handshake_ms=1.0,
            http_handshake_ms=1.0, flow_id=i,
        ))
    for i, spec in enumerate(specs[:-1]):
        if spec[7]:
            records[i].status, records[i].location = 302, records[i + 1].url
    return records


class TestFoldDifferential:
    """The fold splits each record's URL once and threads the parts
    through every step; what it produces must be what the per-layer
    calls it replaced produce.  ``benchmarks/perf`` builds its oracle
    with this fold, so a drift here would not show there."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_entries_as_per_layer_calls(self, ablated, ecosystem, data):
        ad_host = data.draw(st.sampled_from(ecosystem.ad_networks[0].serving_domains))
        records = data.draw(_traces(ad_host))
        expected = _reference_fold(ablated, records)
        assert [_fields(entry) for entry in ablated.process(records)] == [
            _fields(entry) for entry in expected
        ]

    def test_same_entries_on_the_generated_trace(self, ablated, rbn_trace):
        records = rbn_trace.http[:4000]
        expected = _reference_fold(ablated, records)
        actual = ablated.process(records)
        assert [_fields(entry) for entry in actual] == [_fields(entry) for entry in expected]
        assert sum(entry.is_ad for entry in actual) > 100
