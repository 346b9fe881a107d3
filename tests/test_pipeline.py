"""Tests for repro.core.pipeline — the paper's Fig 1 methodology."""

from __future__ import annotations

import pytest

from repro.core.pipeline import AdClassificationPipeline, PipelineConfig
from repro.filterlist.options import ContentType
from repro.http.log import HttpLogRecord


def _record(url, *, referrer=None, mime=None, ts=0.0, status=200, location=None,
            client="10.0.0.1", ua="UA", size=100):
    from repro.http.url import split_url

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
