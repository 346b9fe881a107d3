"""Static ReDoS detection: known-catastrophic shapes vs. benign patterns."""

from __future__ import annotations

import pytest

from repro.staticcheck.redos import analyze_regex, regex_rule_body

CATASTROPHIC = [
    r"(a+)+b",            # classic nested unbounded quantifier
    r"(a*)*b",
    r"(a|a)*b",           # ambiguous alternation under a repeat
    r"(a?b?)+c",          # both branches nullable under a repeat
    r"(\d+|\d+x)+y",      # overlapping first sets under a repeat
    r"(a{2,}){2,}b",      # unbounded outer over repeated body
    r"(a{100}){100}",     # stacked large bounded repeats
]

BENIGN = [
    r"abc",
    r"a+b+c+",            # sequential repeats never multiply
    r"(abc)+d",           # repeated body is unambiguous
    r"[0-9a-f]{32}",      # single bounded repeat
    r"https?://[^/]+/ads/",
    r"(foo|bar)baz",      # alternation not under a quantifier
]


@pytest.mark.parametrize("pattern", CATASTROPHIC)
def test_catastrophic_detected(pattern):
    hazard = analyze_regex(pattern)
    assert hazard is not None, pattern
    assert hazard.reason


@pytest.mark.parametrize("pattern", BENIGN)
def test_benign_passes(pattern):
    assert analyze_regex(pattern) is None, pattern


def test_unparseable_regex_is_a_hazard():
    hazard = analyze_regex("(unclosed")
    assert hazard is not None
    assert "unparseable" in hazard.reason


class TestRegexRuleBody:
    def test_slash_enclosed_with_metachars(self):
        assert regex_rule_body("/(a+)+b/") == "(a+)+b"

    def test_plain_pattern_is_not_regex(self):
        # ABP treats /ads/ as a substring pattern, not a regex.
        assert regex_rule_body("/ads/") is None

    def test_unenclosed_pattern(self):
        assert regex_rule_body("||ads.example^") is None
