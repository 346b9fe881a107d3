"""The production engine's own machinery (DESIGN.md §15).

Decisions are held to the oracle elsewhere
(``tests/test_engine_differential.py``); here the keyword scan is held
to the pure-Python Aho–Corasick reference, and the compile life cycle —
eager where an engine is built for serving, self-healing after
``add_filters`` — is pinned.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filterlist.actrie import ACTrieEngine, AhoCorasick, trie_regex
from repro.filterlist.engine import RequestContext
from repro.filterlist.filter import Filter
from repro.filterlist.options import ContentType

_TOKEN_CHARS = "abc1%"
_words = st.lists(st.text(_TOKEN_CHARS, min_size=1, max_size=5), min_size=1, max_size=12)
_texts = st.text(_TOKEN_CHARS + "/.", max_size=40)


@settings(max_examples=200, deadline=None)
@given(words=_words, text=_texts)
def test_token_finder_equals_reference_automaton(words, text):
    """The engine's finder — the trie regex between token boundaries —
    reports exactly the reference's occurrences that span a whole token."""
    finder = re.compile("(?<![a-z0-9%])(?:" + trie_regex(words) + ")(?![a-z0-9%])")
    tokens = {match.span() for match in re.finditer(r"[a-z0-9%]+", text)}
    expected = sorted(
        (start, word)
        for start, word in AhoCorasick(words).iter_matches(text)
        if (start, start + len(word)) in tokens
    )
    assert [(m.start(), m.group()) for m in finder.finditer(text)] == expected


@settings(max_examples=200, deadline=None)
@given(words=_words, text=_texts)
def test_any_literal_guard_equals_reference_automaton(words, text):
    """Unanchored (the keywordless-tail guard): some word occurs, or none."""
    found = re.compile(trie_regex(words)).search(text) is not None
    assert found == any(True for _ in AhoCorasick(words).iter_matches(text))


def test_trie_regex_rejects_empty_input():
    for words in ([], [""]):
        with pytest.raises(ValueError):
            trie_regex(words)


_CONTEXT = RequestContext(ContentType.IMAGE, "http://news.example/")


def _engine() -> ACTrieEngine:
    engine = ACTrieEngine()
    engine.add_filters(
        [Filter.parse(t) for t in ("||ads.example^", "||other.example^", "/banner/", "/pixel/")],
        list_name="easylist",
    )
    return engine


class TestCompileLifeCycle:
    def test_uncompiled_engine_compiles_itself_on_first_use(self):
        engine = _engine()
        assert not engine.is_compiled
        assert engine.match("http://ads.example/x.gif", _CONTEXT).is_blocked
        assert engine.is_compiled

    def test_compile_is_idempotent_and_leaves_requests_nothing_to_build(
        self, forbid_engine_compile
    ):
        engine = _engine()
        engine.compile()
        compiled = engine._compiled
        engine.compile()
        assert engine._compiled is compiled
        forbid_engine_compile()
        assert engine.classify("http://pub.example/banner/1.gif", _CONTEXT).is_blacklisted

    def test_add_filters_drops_the_compiled_state(self):
        engine = _engine()
        engine.compile()
        url = "http://late.example/x.gif"
        assert not engine.match(url, _CONTEXT).is_blocked
        engine.add_filters([Filter.parse("||late.example^")], list_name="update")
        assert not engine.is_compiled
        assert engine.match(url, _CONTEXT).is_blocked

    def test_opaque_hosts_share_one_fallback_list(self):
        """A userinfo or IPv6-literal host falls back to every host
        bucket; that list is built once per compile, never per host (a
        daemon caches one entry per distinct client-supplied host)."""
        engine = _engine()
        engine.compile()
        compiled = engine._compiled
        hosts = ("user@cdn.ads.example", "other@cdn.ads.example", "[2001:db8::1]")
        for host in hosts:
            assert engine.classify(f"http://{host}/x.gif", _CONTEXT).is_blacklisted == (
                "ads.example" in host
            )
        fallbacks = {id(compiled.host_cache[host][0]) for host in hosts}
        assert fallbacks == {id(compiled.blocking.host_all)}

    def test_request_hosts_cannot_grow_the_record_tables(self):
        engine = _engine()
        engine.compile()
        for miss in ("http://unknown1.example/", "http://unknown2.example/x.gif"):
            assert not engine.classify(miss, _CONTEXT).is_blacklisted
        blocking = engine._compiled.blocking
        assert not set(blocking.by_host) - {"ads.example", "other.example"}
        assert not set(blocking.by_keyword) - {"banner", "pixel"}
