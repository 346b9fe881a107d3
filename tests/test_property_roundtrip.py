"""Property test: every parser-accepted rule decides identically under
the oracle (the plain bucket :class:`FilterEngine`), the production
:class:`ACTrieEngine`, and a production engine restored from a snapshot
of the oracle.

This is the linter's soundness anchor (DESIGN.md §9.2): the FL checks
reason about pattern structure, which is only meaningful if the engines
agree on what a pattern *means*.  Hypothesis generates rules from the
documented ABP grammar plus URLs biased to collide with them, and
asserts equality of the decision and of which filter produced it.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.filter import Filter
from repro.filterlist.options import ContentType
from repro.filterlist.snapshot import load_snapshot, write_snapshot

# -- rule generation --------------------------------------------------------

_HOSTS = ("ads.example", "cdn.example", "track.example", "a.ads.example")
_PATH_WORDS = ("banner", "img", "ads", "track", "a+b", "x{1}", "pix.gif")

_host = st.sampled_from(_HOSTS)
_path_word = st.sampled_from(_PATH_WORDS)


@st.composite
def _patterns(draw):
    shape = draw(st.integers(0, 4))
    if shape == 0:
        return f"||{draw(_host)}^"
    if shape == 1:
        return f"||{draw(_host)}/{draw(_path_word)}"
    if shape == 2:
        return f"/{draw(_path_word)}/"
    if shape == 3:
        return f"/{draw(_path_word)}/*{draw(_path_word)}"
    return f"|http://{draw(_host)}/{draw(_path_word)}"


@st.composite
def _option_suffixes(draw):
    options = []
    if draw(st.booleans()):
        options.append(draw(st.sampled_from(("script", "image", "~script", "stylesheet"))))
    if draw(st.booleans()):
        options.append(draw(st.sampled_from(("third-party", "~third-party"))))
    if draw(st.booleans()):
        options.append(f"domain={draw(_host)}")
    return "$" + ",".join(options) if options else ""


@st.composite
def _rules(draw):
    prefix = "@@" if draw(st.booleans()) else ""
    return f"{prefix}{draw(_patterns())}{draw(_option_suffixes())}"


@st.composite
def _urls(draw):
    host = draw(_host)
    segments = draw(st.lists(_path_word, min_size=0, max_size=3))
    return f"http://{host}/" + "/".join(segments)


@st.composite
def _contexts(draw):
    return RequestContext(
        content_type=draw(st.sampled_from(
            (ContentType.SCRIPT, ContentType.IMAGE, ContentType.OTHER)
        )),
        page_url=f"http://{draw(_host)}/page",
    )


def _build_engines(rules, directory):
    """The oracle, then the production engine built and snapshot-restored."""
    oracle, production = FilterEngine(), ACTrieEngine()
    for engine in (oracle, production):
        filters = []
        for rule in rules:
            try:
                filters.append(Filter.parse(rule))
            except ValueError:
                pass  # parser-rejected rules are out of scope
        engine.add_filters(filters, list_name="prop")
    path = str(directory / "engine.snap")
    write_snapshot(path, oracle)
    return oracle, (production, load_snapshot(path).engine)


def _text(filter_):
    return None if filter_ is None else filter_.text


@settings(max_examples=150, deadline=None)
@given(
    rules=st.lists(_rules(), min_size=1, max_size=8),
    url=_urls(),
    context=_contexts(),
)
def test_engines_agree_on_match(rules, url, context, tmp_path_factory):
    oracle, others = _build_engines(rules, tmp_path_factory.mktemp("snap"))
    a = oracle.match(url, context)
    for engine in others:
        b = engine.match(url, context)
        assert a.decision == b.decision, (rules, url)
        assert _text(a.blocking_filter) == _text(b.blocking_filter), (rules, url)
        assert _text(a.exception_filter) == _text(b.exception_filter), (rules, url)


@settings(max_examples=150, deadline=None)
@given(
    rules=st.lists(_rules(), min_size=1, max_size=8),
    url=_urls(),
    context=_contexts(),
)
def test_engines_agree_on_classify(rules, url, context, tmp_path_factory):
    oracle, others = _build_engines(rules, tmp_path_factory.mktemp("snap"))
    a = oracle.classify(url, context)
    for engine in others:
        b = engine.classify(url, context)
        assert _text(a.blacklist_filter) == _text(b.blacklist_filter), (rules, url)
        assert _text(a.whitelist_filter) == _text(b.whitelist_filter), (rules, url)
