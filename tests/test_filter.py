"""Unit tests for repro.filterlist.filter (pattern compilation/matching)."""

from __future__ import annotations

import random

import pytest

from repro.filterlist.filter import (
    ElementHidingRule,
    Filter,
    FilterKind,
    compile_pattern,
    extract_keywords,
)
from repro.filterlist.options import ContentType


def _matches(pattern: str, url: str, **kwargs) -> bool:
    return compile_pattern(pattern, **kwargs).search(url) is not None


class TestPatternCompilation:
    def test_plain_substring(self):
        assert _matches("/adserver/", "http://x.com/adserver/img.gif")
        assert not _matches("/adserver/", "http://x.com/content/img.gif")

    def test_wildcard(self):
        assert _matches("/banner/*/img", "http://x.com/banner/123/img.png")
        assert not _matches("/banner/*/img", "http://x.com/banner/123/script.js")

    def test_separator_matches_non_url_chars(self):
        assert _matches("/ads^", "http://x.com/ads?x=1")
        assert _matches("/ads^", "http://x.com/ads/")
        assert _matches("/ads^", "http://x.com/ads")  # end of URL
        assert not _matches("/ads^", "http://x.com/adserver")  # letter follows

    def test_start_anchor(self):
        assert _matches("|http://ads.", "http://ads.example.com/x")
        assert not _matches("|http://ads.", "http://www.example.com/http://ads.x")

    def test_end_anchor(self):
        assert _matches("swf|", "http://x.com/movie.swf")
        assert not _matches("swf|", "http://x.com/movie.swf?x=1")

    def test_domain_anchor(self):
        assert _matches("||ads.example.com^", "http://ads.example.com/x")
        assert _matches("||example.com^", "http://sub.example.com/x")
        assert _matches("||example.com^", "https://example.com/")
        assert not _matches("||example.com^", "http://badexample.com/")
        assert not _matches("||example.com^", "http://example.com.evil.net/")

    def test_case_insensitive_by_default(self):
        assert _matches("/ADS/", "http://x.com/ads/1")
        assert not _matches("/ADS/", "http://x.com/ads/1", match_case=True)

    def test_collapsed_wildcards(self):
        assert _matches("a***b", "http://x.com/a-and-b")


class TestKeywordExtraction:
    def test_simple(self):
        assert "adserver" in extract_keywords("/adserver/*")

    def test_skips_runs_adjacent_to_wildcard(self):
        # ABP's keyword regex requires non-* boundaries on both sides.
        assert extract_keywords("/ban*ner/") == []
        assert extract_keywords("/ban*ner/img/") == ["img"]

    def test_options_not_included(self):
        keywords = extract_keywords("/track.js$script,third-party")
        assert "script" not in keywords
        assert "third" not in keywords
        assert "track" in keywords

    def test_exception_marker_stripped(self):
        assert "gstatic" in extract_keywords("@@||gstatic.com^$document")

    def test_short_runs_skipped(self):
        assert extract_keywords("/a/*") == []


class TestFilterParse:
    def test_blocking_filter(self):
        filter_ = Filter.parse("||ads.example.com^$third-party", list_name="easylist")
        assert filter_.kind is FilterKind.BLOCKING
        assert filter_.options.third_party is True
        assert filter_.list_name == "easylist"

    def test_exception_filter(self):
        filter_ = Filter.parse("@@||good.example.com/player/$script")
        assert filter_.is_exception
        assert filter_.options.type_mask == ContentType.SCRIPT

    def test_dollar_in_pattern_not_options(self):
        # A trailing $ followed by a path-like string is not an option list.
        filter_ = Filter.parse("/x$/path")
        assert filter_.pattern == "/x$/path"

    def test_matches_respects_type(self):
        filter_ = Filter.parse("/ads/banner.$image")
        assert filter_.matches(
            "http://x.com/ads/banner.gif", ContentType.IMAGE, "x.com", third_party=False
        )
        assert not filter_.matches(
            "http://x.com/ads/banner.js", ContentType.SCRIPT, "x.com", third_party=False
        )

    def test_matches_respects_third_party(self):
        filter_ = Filter.parse("||ad.example^$third-party")
        assert filter_.matches(
            "http://ad.example/x", ContentType.IMAGE, "news.example", third_party=True
        )
        assert not filter_.matches(
            "http://ad.example/x", ContentType.IMAGE, "ad.example", third_party=False
        )

    def test_matches_respects_domain_option(self):
        filter_ = Filter.parse("/ads/serve/*$domain=news.example")
        assert filter_.matches(
            "http://news.example/ads/serve/1.js", ContentType.SCRIPT,
            "news.example", third_party=False,
        )
        assert not filter_.matches(
            "http://other.example/ads/serve/1.js", ContentType.SCRIPT,
            "other.example", third_party=False,
        )

    def test_document_exception_matching(self):
        filter_ = Filter.parse("@@||gstatic-like.com^$document")
        assert filter_.matches_document("http://cdn.gstatic-like.com/f.woff",
                                        "cdn.gstatic-like.com")
        assert not filter_.matches_document("http://other.com/", "other.com")
        blocking = Filter.parse("||x.com^")
        assert not blocking.matches_document("http://x.com/", "x.com")


class TestLazyRegex:
    """The pattern compiles on first read of ``regex``; nothing a caller
    can compare or print tells a searched filter from a fresh one."""

    def test_equality_and_repr_are_unchanged_by_searching(self):
        line = "||ads.example.com^$third-party,script"
        searched, fresh = Filter.parse(line), Filter.parse(line)
        before = repr(searched)
        assert searched.matches(
            "http://ads.example.com/a.js", ContentType.SCRIPT, "news.example", third_party=True
        )
        assert searched == fresh
        assert repr(searched) == before == repr(fresh)
        assert "regex" not in before

    def test_regex_is_compiled_once_and_honours_match_case(self):
        filter_ = Filter.parse("/BannerAd/$match-case")
        assert filter_.regex is filter_.regex
        assert filter_.regex.search("http://x.example/BannerAd/1")
        assert not filter_.regex.search("http://x.example/bannerad/1")

    @pytest.mark.parametrize("seed", [20151028, 7])
    def test_compile_pattern_raises_for_no_input(self, seed):
        """Deferring the compile must never turn a load-time rejection
        into a request-time exception: every character is escaped or
        substituted, so no pattern can fail to compile."""
        alphabet = (
            list("|*^") * 4
            + list(r"\.+?()[]{}$-/&=:%#~,!'\"")
            + list("abcXYZ019_ ")
            + ["\x00", "\x07", "\t", "\n", "\r", "\x1b", "\x7f"]
            + ["\u00e9", "\u0130", "\u212a", "\u4e2d", "\U0001f600", "\udcff"]
        )
        rng = random.Random(seed)
        for _ in range(2500):
            pattern = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
            for match_case in (False, True):
                compiled = compile_pattern(pattern, match_case=match_case)
                compiled.search("http://ads.example.com/banner?x=1")


class TestElementHiding:
    def test_generic_rule(self):
        rule = ElementHidingRule.parse("##.banner-ad-row")
        assert rule.selector == ".banner-ad-row"
        assert not rule.is_exception
        assert rule.applies_to("any.example")

    def test_domain_scoped_rule(self):
        rule = ElementHidingRule.parse("news.example,blog.example##.textad")
        assert rule.applies_to("news.example")
        assert rule.applies_to("sub.news.example")
        assert not rule.applies_to("other.example")

    def test_excluded_domain(self):
        rule = ElementHidingRule.parse("~vip.example##.ad")
        assert rule.applies_to("news.example")
        assert not rule.applies_to("vip.example")

    def test_exception_rule(self):
        rule = ElementHidingRule.parse("site.example#@#.ad")
        assert rule.is_exception

    def test_not_a_hiding_rule(self):
        with pytest.raises(ValueError):
            ElementHidingRule.parse("||plain.filter^")
