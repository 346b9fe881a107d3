"""Oracle-vs-production differential decision harness (DESIGN.md §15).

The production engine must be *decision-identical* to the oracle — and
since a filter's regex compiles on first search, identical no matter
which patterns happen to be compiled when a request arrives.  Four
routes to one contract: the plain bucketed :class:`FilterEngine`
(``buckets``, the oracle), the Aho–Corasick :class:`ACTrieEngine` every
production path builds (``actrie``), and both engine classes restored
from a ``repro compile-lists`` snapshot (``snapshot`` is what
``load_snapshot`` hands production, ``snapshot-buckets`` the oracle's
restore of the same state).  Hypothesis generates filter lists and
URL/content-type/page-host workloads; every generated decision is
compared across all four, asserting not just the tri-state outcome but
the *identity* (text + list attribution) of the blocking and exception
filters — the paper's EasyList-vs-EasyPrivacy attribution (§6) rides
on which filter matched, not only whether one did.

Shrunk counterexamples from harness development are committed below as
:class:`TestRegressions` so the exact divergences that once existed
can never silently return.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.filter import Filter
from repro.filterlist.options import ContentType
from repro.filterlist.snapshot import load_snapshot, write_snapshot

# ---------------------------------------------------------------------------
# strategies: a small closed world so filters and URLs actually collide
# ---------------------------------------------------------------------------

_HOSTS = (
    "ads.example",
    "cdn.ads.example",
    "track.example",
    "pub.example",
    "news.example",
    "static.example",
)
_TOKENS = ("ad", "banner", "pixel", "track", "adserver", "promo", "img", "js")
_EXTS = ("gif", "js", "png", "html", "css")

# A userinfo or IPv6-literal host voids the registrable-domain
# shortcut, so both engines fall back to every host bucket (and every
# $document exception).
_OPAQUE_HOSTS = ("user@cdn.ads.example", "[2001:db8::1]")

_host = st.sampled_from(_HOSTS)
_token = st.sampled_from(_TOKENS)


@st.composite
def _filter_text(draw) -> str:
    """One syntactically valid ABP filter over the closed world."""
    kind = draw(st.sampled_from(
        ("host", "host_path", "substring", "sep_token", "wildcard", "anchor")
    ))
    if kind == "host":
        body = f"||{draw(_host)}^"
    elif kind == "host_path":
        body = f"||{draw(_host)}/{draw(_token)}/"
    elif kind == "substring":
        body = f"/{draw(_token)}/"
    elif kind == "sep_token":
        body = f"&{draw(_token)}="
    elif kind == "wildcard":
        body = f"/{draw(_token)}/*.{draw(st.sampled_from(_EXTS))}"
    else:
        body = f"|http://{draw(_host)}/"

    options = draw(st.sampled_from(
        ("", "$script", "$image", "$third-party", "$~third-party",
         "$script,image", "$domain=news.example", "$domain=~news.example")
    ))
    exception = draw(st.booleans())
    text = body + options
    if exception:
        text = "@@" + text
        if draw(st.booleans()):
            text = text.rstrip("^") + "^$document"
    return text


@st.composite
def _lists(draw) -> dict[str, list[str]]:
    names = draw(st.sampled_from((("easylist",), ("easylist", "easyprivacy"))))
    return {
        name: draw(st.lists(_filter_text(), min_size=1, max_size=12))
        for name in names
    }


@st.composite
def _url(draw) -> str:
    host = draw(st.sampled_from(_HOSTS + _OPAQUE_HOSTS))
    segments = draw(st.lists(_token, min_size=0, max_size=3))
    path = "/".join(segments)
    ext = draw(st.sampled_from(_EXTS))
    query = draw(st.sampled_from(("", f"?{draw(_token)}={draw(_token)}", "?x=1")))
    return f"http://{host}/{path}{'/' if path else ''}f.{ext}{query}"


_context = st.builds(
    RequestContext,
    content_type=st.sampled_from(
        (ContentType.IMAGE, ContentType.SCRIPT, ContentType.DOCUMENT, ContentType.OTHER)
    ),
    page_url=st.sampled_from(
        ("http://news.example/", "http://ads.example/", "http://pub.example/a",
         "http://user@news.example/", "")
    ),
)

_workload = st.lists(st.tuples(_url(), _context), min_size=1, max_size=20)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


def _filter_key(filter_: Filter | None) -> tuple[str, str] | None:
    return None if filter_ is None else (filter_.text, filter_.list_name or "")


def _match_signature(result) -> tuple:
    return (
        result.decision,
        _filter_key(result.blocking_filter),
        _filter_key(result.exception_filter),
    )


def _classify_signature(classification) -> tuple:
    return (
        _filter_key(classification.blacklist_filter),
        _filter_key(classification.whitelist_filter),
        classification.blacklist_lists,
    )


def _build_engines(lines: dict[str, list[str]], tmp_path):
    """All four decision paths, loaded with the same filters."""
    base = FilterEngine()
    actrie = ACTrieEngine()
    for name, texts in lines.items():
        base.add_filters([Filter.parse(text) for text in texts], list_name=name)
        actrie.add_filters([Filter.parse(text) for text in texts], list_name=name)
    snapshot_path = str(tmp_path / "engine.snap")
    write_snapshot(snapshot_path, base)
    restored = load_snapshot(snapshot_path).engine
    return {
        "buckets": base,
        "actrie": actrie,
        "snapshot": restored,
        "snapshot-buckets": FilterEngine.restore_snapshot_state(base.export_snapshot_state()),
    }


def _assert_identical(engines, url: str, context: RequestContext) -> None:
    match_signatures = {
        name: _match_signature(engine.match(url, context))
        for name, engine in engines.items()
    }
    assert len(set(match_signatures.values())) == 1, (url, context, match_signatures)
    classify_signatures = {
        name: _classify_signature(engine.classify(url, context))
        for name, engine in engines.items()
    }
    assert len(set(classify_signatures.values())) == 1, (url, context, classify_signatures)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(lines=_lists(), workload=_workload)
    def test_four_way_decision_identity(self, lines, workload, tmp_path_factory):
        engines = _build_engines(lines, tmp_path_factory.mktemp("snap"))
        for url, context in workload:
            _assert_identical(engines, url, context)

    @settings(max_examples=25, deadline=None)
    @given(lines=_lists(), workload=_workload)
    def test_snapshot_restores_every_matcher_identically(
        self, lines, workload, tmp_path_factory
    ):
        """An artifact the production engine compiled (as ``repro
        compile-lists`` does) restores identically as either class."""
        base = ACTrieEngine()
        for name, texts in lines.items():
            base.add_filters([Filter.parse(t) for t in texts], list_name=name)
        path = str(tmp_path_factory.mktemp("snap") / "engine.snap")
        write_snapshot(path, base)
        restored = load_snapshot(path).engine
        engines = {
            "buckets": FilterEngine.restore_snapshot_state(restored.export_snapshot_state()),
            "actrie": restored,
            "direct": base,
        }
        for url, context in workload:
            _assert_identical(engines, url, context)


    @settings(max_examples=40, deadline=None)
    @given(lines=_lists(), workload=_workload, opaque=st.sampled_from(_OPAQUE_HOSTS))
    def test_lazy_restored_engine_against_cold_built_oracle(
        self, lines, workload, opaque, tmp_path_factory
    ):
        """A restored engine has compiled no filter pattern yet; the
        oracle is built from text and has compiled every one.  The
        restored engine's first request carries an opaque host, which
        flattens (and compiles) every host bucket at once; whatever is
        compiled when, the matched filter's text and list must agree."""
        oracle = FilterEngine()
        for name, texts in lines.items():
            oracle.add_filters([Filter.parse(text) for text in texts], list_name=name)
        path = str(tmp_path_factory.mktemp("snap") / "engine.snap")
        write_snapshot(path, oracle)
        for filter_ in oracle.iter_filters():
            assert filter_.regex is not None  # the oracle defers nothing
        restored = load_snapshot(path).engine
        assert isinstance(restored, ACTrieEngine)
        engines = {"oracle": oracle, "restored": restored}
        first = (
            f"http://{opaque}/ad/f.gif",
            RequestContext(ContentType.IMAGE, "http://news.example/"),
        )
        for url, context in [first, *workload]:
            _assert_identical(engines, url, context)


class TestEcosystemDifferential:
    """The same four-way identity over realistic synthetic-ecosystem traffic."""

    def test_four_way_identity_on_ecosystem_pages(self, ecosystem, lists, tmp_path):
        from repro.web.page import build_page
        import random

        lines = {
            name: [f.text for f in lst.filters] for name, lst in lists.items()
        }
        engines = _build_engines(lines, tmp_path)
        rng = random.Random(23)
        publishers = [p for p in ecosystem.publishers if p.ad_networks]
        checked = 0
        for _ in range(20):
            page = build_page(rng.choice(publishers), ecosystem, rng)
            for obj in page.objects:
                _assert_identical(
                    engines, obj.url, RequestContext(obj.abp_type, page.page_url)
                )
                checked += 1
        assert checked > 400


# ---------------------------------------------------------------------------
# committed shrunk counterexamples (regression fixtures)
# ---------------------------------------------------------------------------

# Each entry is (filters-by-list, url, content_type, page_url) — minimal
# inputs that once produced an oracle/production divergence during harness
# development.  They run as plain assertions so the fix can never rot.
_REGRESSIONS = [
    # actrie host-bucket probe once indexed the empty host, diverging on
    # schemeless/hostless URLs against keywordless host filters.
    pytest.param(
        {"easylist": ["||ads.example^"]},
        "x", ContentType.OTHER, "",
        id="actrie-empty-host-probe",
    ),
    # $document exceptions are page-sensitive: the snapshot must carry
    # page_sensitive_documents or restored engines silently stop
    # whitelisting whole pages.
    pytest.param(
        {"easylist": ["||ads.example^", "@@||news.example^$document"]},
        "http://ads.example/f.gif", ContentType.IMAGE, "http://news.example/",
        id="snapshot-document-exception",
    ),
    # $~third-party against an empty page_url: party-ness is undecidable,
    # every backend must fall the same way.
    pytest.param(
        {"easylist": ["||ads.example^$~third-party"]},
        "http://ads.example/f.gif", ContentType.IMAGE, "",
        id="first-party-option-empty-page",
    ),
    # An opaque request host reaches host-anchored filters only through
    # the all-host-buckets fallback.
    pytest.param(
        {"easylist": ["||track.example^", "||ads.example^"], "easyprivacy": ["||ads.example/f"]},
        "http://user@cdn.ads.example/f.gif", ContentType.IMAGE, "http://news.example/",
        id="opaque-host-fallback",
    ),
]


class TestRegressions:
    @pytest.mark.parametrize("lines,url,content_type,page_url", _REGRESSIONS)
    def test_shrunk_counterexample(self, lines, url, content_type, page_url, tmp_path):
        engines = _build_engines(lines, tmp_path)
        _assert_identical(engines, url, RequestContext(content_type, page_url))
