"""Unit tests for repro.core.referrer_map (§3.1 page reconstruction)."""

from __future__ import annotations

from repro.core.referrer_map import ReferrerMap

_PAGE = "http://news.example/story.html"


class TestBasicChains:
    def test_direct_navigation_is_root(self):
        rmap = ReferrerMap()
        attribution = rmap.observe(_PAGE, None, looks_like_document=True)
        assert attribution.page_url == _PAGE
        assert attribution.is_page_root
        assert attribution.via == "root"

    def test_children_attach_to_page(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        child = rmap.observe(
            "http://static.news.example/a.css", _PAGE, looks_like_document=False
        )
        assert child.page_url == _PAGE
        assert not child.is_page_root

    def test_transitive_chain(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        script = "http://ads.example/tag.js"
        rmap.observe(script, _PAGE, looks_like_document=False)
        pixel = rmap.observe(
            "http://ads.example/pixel.gif", script, looks_like_document=False
        )
        assert pixel.page_url == _PAGE

    def test_unseen_referer_becomes_root(self):
        rmap = ReferrerMap()
        child = rmap.observe(
            "http://cdn.example/x.js", "http://unseen.example/page", looks_like_document=False
        )
        assert child.page_url == "http://unseen.example/page"

    def test_iframe_html_stays_in_page(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        iframe = rmap.observe(
            "http://ads.example/frame.html", _PAGE, looks_like_document=True
        )
        assert iframe.page_url == _PAGE
        assert not iframe.is_page_root


    def test_page_of_unknown(self):
        assert ReferrerMap().page_of("http://nowhere.example/") is None


class TestLocationRepair:
    def test_redirect_followup_attaches(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        rmap.observe(
            "http://ads.example/click?x=1",
            _PAGE,
            looks_like_document=False,
            location="http://cdn.ads.example/banner.gif",
        )
        followup = rmap.observe(
            "http://cdn.ads.example/banner.gif", None, looks_like_document=False
        )
        assert followup.page_url == _PAGE
        assert followup.via == "location"

    def test_without_location_chain_breaks(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        rmap.observe("http://ads.example/click?x=1", _PAGE, looks_like_document=False)
        followup = rmap.observe(
            "http://cdn.ads.example/banner.gif", None, looks_like_document=False
        )
        assert followup.page_url == "http://cdn.ads.example/banner.gif"
        assert followup.via == "root"

    def test_pending_redirect_consumed_once(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        rmap.observe(
            "http://r.example/r", _PAGE, looks_like_document=False,
            location="http://t.example/x",
        )
        first = rmap.observe("http://t.example/x", None, looks_like_document=False)
        second = rmap.observe("http://t.example/x", None, looks_like_document=False)
        assert first.via == "location"
        assert second.via == "root"


class TestEmbeddedRepair:
    def test_embedded_url_attaches(self):
        rmap = ReferrerMap()
        rmap.observe(_PAGE, None, looks_like_document=True)
        rmap.observe(
            "http://r.example/go?redirect=http://target.example/ad.gif",
            _PAGE,
            looks_like_document=False,
        )
        followup = rmap.observe(
            "http://target.example/ad.gif", None, looks_like_document=False
        )
        assert followup.page_url == _PAGE
        assert followup.via == "embedded"

    def test_embedded_tracking_disabled(self):
        rmap = ReferrerMap(track_embedded=False)
        rmap.observe(_PAGE, None, looks_like_document=True)
        rmap.observe(
            "http://r.example/go?redirect=http://target.example/ad.gif",
            _PAGE,
            looks_like_document=False,
        )
        followup = rmap.observe(
            "http://target.example/ad.gif", None, looks_like_document=False
        )
        assert followup.via == "root"


class TestHorizon:
    """Two generations on a clock: :meth:`ReferrerMap.advance`."""

    @staticmethod
    def _visited(epochs=(0, 1)):
        """A page and its children, one batch per epoch."""
        rmap = ReferrerMap()
        for epoch in epochs:
            rmap.advance(epoch)
            page = f"http://news.example/{epoch}.html"
            rmap.observe(page, None, looks_like_document=True, location=f"http://t.example/{epoch}")
            rmap.observe(f"http://cdn.example/{epoch}.js", page, looks_like_document=False)
            rmap.observe(
                f"http://r.example/go?u=http://land.example/{epoch}", page,
                looks_like_document=False,
            )
        return rmap

    def test_advance_is_idempotent_and_composable(self):
        stepped, jumped, repeated = self._visited(), self._visited(), self._visited()
        stepped.advance(2)
        stepped.advance(3)
        jumped.advance(3)
        assert stepped.export_state() == jumped.export_state()
        repeated.advance(2)
        once = repeated.export_state()
        repeated.advance(2)
        repeated.advance(1)  # an epoch below the map's own
        assert repeated.export_state() == once
        assert once["epoch"] == 2 and once["page_root"][1]  # the previous generation

    def test_a_hit_in_the_previous_generation_is_promoted(self):
        rmap = self._visited(epochs=(0,))
        rmap.advance(1)
        child = rmap.observe("http://cdn.example/late.js", "http://cdn.example/0.js",
                             looks_like_document=False)
        assert child.page_url == "http://news.example/0.html"
        rmap.advance(2)
        # The referer was promoted; its page and sibling were not.
        assert rmap.page_of("http://cdn.example/0.js") == "http://news.example/0.html"
        assert rmap.page_of("http://news.example/0.html") is None
        assert rmap.page_of("http://cdn.example/late.js") == "http://news.example/0.html"
        embedded = rmap.observe("http://land.example/0", None, looks_like_document=False)
        assert embedded.via == "root"  # forgotten with its generation

    def test_a_pending_redirect_is_consumed_once_across_generations(self):
        rmap = self._visited(epochs=(0,))
        rmap.advance(1)
        first = rmap.observe("http://t.example/0", None, looks_like_document=False)
        assert (first.via, first.page_url) == ("location", "http://news.example/0.html")
        rmap.advance(2)
        second = rmap.observe("http://t.example/0", None, looks_like_document=False)
        assert second.via == "root"

    def test_an_embedded_url_resolves_from_the_previous_generation(self):
        rmap = self._visited(epochs=(0,))
        rmap.advance(1)
        landing = rmap.observe("http://land.example/0", None, looks_like_document=False)
        assert (landing.via, landing.page_url) == ("embedded", "http://news.example/0.html")

    def test_state_holds_only_the_last_horizon(self):
        """20 horizons of steady traffic, the clock ticking every half
        horizon: what the map remembers was used in the last horizon,
        and everything used in the last half is remembered."""
        horizon, step = 60.0, 0.25
        rmap, last_use = ReferrerMap(), {}
        page = _PAGE
        for tick in range(int(20 * horizon / step)):
            ts = tick * step
            rmap.advance(int(ts // (horizon / 2)))
            if tick % 40 == 0:
                page = f"http://news.example/{tick}.html"
                rmap.observe(page, None, looks_like_document=True)
                last_use[page] = ts
            else:
                child = f"http://cdn.example/{tick}.js"
                assert rmap.observe(child, page, looks_like_document=False).page_url == page
                last_use[child] = last_use[page] = ts
        state = rmap.export_state()
        held = [url for generation in state["page_root"] for url, _root in generation]
        assert held and len(held) <= horizon / step
        assert all(ts - last_use[url] < horizon for url in held)
        recent = {url for url, used in last_use.items() if ts - used < horizon / 2}
        assert recent <= set(held)
