"""Unit tests for repro.web (categories, ASes, ecosystem, pages, alexa)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.web.adtech import AdChainKind, ServerDelayModel, build_ad_chain
from repro.web.alexa import alexa_top, alexa_urls
from repro.web.asdb import AsDatabase, AsKind, default_as_database
from repro.web.categories import PROFILES, SiteCategory, profile_for
from repro.web.ecosystem import Ecosystem, EcosystemConfig
from repro.web.page import ObjectKind, build_page


class TestCategories:
    def test_every_category_has_profile(self):
        for category in SiteCategory:
            assert profile_for(category) is PROFILES[category]

    def test_popularity_weights_normalizable(self):
        total = sum(p.popularity_weight for p in PROFILES.values())
        assert 0.9 < total < 1.2

    def test_adult_never_acceptable(self):
        assert PROFILES[SiteCategory.ADULT].acceptable_ads_affinity == 0.0


class TestAsDatabase:
    def test_register_and_lookup(self):
        db = AsDatabase()
        as_ = db.register("TestNet", AsKind.HOSTING, n_prefixes=2)
        ip = db.address_in(as_, 0)
        assert db.lookup(ip) is as_
        assert db.lookup("9.9.9.9") is None

    def test_addresses_spread_over_prefixes(self):
        db = AsDatabase()
        as_ = db.register("TestNet", AsKind.HOSTING, n_prefixes=2)
        first = db.address_in(as_, 0)
        second = db.address_in(as_, 1)
        assert first.split(".")[:2] != second.split(".")[:2]

    def test_duplicate_asn_rejected(self):
        db = AsDatabase()
        db.register("A", AsKind.CDN, asn=1)
        with pytest.raises(ValueError):
            db.register("B", AsKind.CDN, asn=1)

    def test_default_database_players(self):
        db = default_as_database()
        names = {as_.name for as_ in db.all()}
        # The Table 5 player mix.
        for expected in ("Googol", "Akamight", "AppNexus-like", "Criterion", "Hetzfeld"):
            assert expected in names

    def test_by_name(self):
        db = default_as_database()
        assert db.by_name("Googol").kind == AsKind.SEARCH
        assert db.by_name("NoSuch") is None


class TestEcosystem:
    def test_deterministic(self):
        a = Ecosystem.generate(EcosystemConfig(n_publishers=50, seed=7))
        b = Ecosystem.generate(EcosystemConfig(n_publishers=50, seed=7))
        assert [p.domain for p in a.publishers] == [p.domain for p in b.publishers]
        assert a.ip_for_host(a.publishers[0].domain) == b.ip_for_host(b.publishers[0].domain)

    def test_ip_stability_and_as_consistency(self, ecosystem):
        network = ecosystem.ad_networks[0]
        domain = network.serving_domains[0]
        ip = ecosystem.ip_for_host(domain)
        assert ecosystem.ip_for_host(domain) == ip
        assert ecosystem.as_for_ip(ip) is network.as_

    def test_unknown_subdomain_resolves_like_parent(self, ecosystem):
        publisher = ecosystem.publishers[0]
        parent_ip = ecosystem.ip_for_host(publisher.domain)
        assert ecosystem.ip_for_host(f"x.{publisher.domain}") == parent_ip

    def test_unknown_hosts_resolve_like_the_scan(self, ecosystem):
        """Memoised answers for unknown hosts, asked once and again, are
        the scan's; ``x.static.<publisher>`` is under both ``static.<publisher>``
        and ``<publisher>`` and resolves like the one inserted first."""
        publisher = ecosystem.publishers[0].domain
        network = ecosystem.ad_networks[0].serving_domains[0]
        hosts = [f"x.static.{publisher}", f"a.b.{publisher}", f"y.z.{network}",
                 "w.nowhere.example"]
        for host in hosts + hosts:
            assert ecosystem.ip_for_host(host) == ecosystem._resolve_unknown(host)
        known = list(ecosystem._host_ips)
        assert known.index(publisher) < known.index(f"static.{publisher}")
        assert ecosystem.ip_for_host(f"x.static.{publisher}") == ecosystem.ip_for_host(publisher)
        assert ecosystem.ip_for_host(publisher) != ecosystem.ip_for_host(f"static.{publisher}")

    def test_gstatic_hosted_by_dominant(self, ecosystem):
        ip = ecosystem.ip_for_host("fonts.gstatic-like.com")
        assert ecosystem.as_for_ip(ip).name == "Googol"

    def test_list_spec_covers_entities(self, ecosystem):
        spec = ecosystem.list_spec()
        for network in ecosystem.ad_networks:
            for domain in network.serving_domains:
                assert domain in spec.ad_network_domains
                if network.acceptable_ads:
                    assert domain in spec.acceptable_ad_domains
        for tracker in ecosystem.trackers:
            for domain in tracker.serving_domains:
                assert domain in spec.tracker_domains

    def test_zipf_sampling_prefers_top_ranks(self, ecosystem):
        rng = random.Random(3)
        counts = Counter(ecosystem.sample_publisher(rng).rank for _ in range(3000))
        top10 = sum(counts[rank] for rank in range(1, 11))
        bottom10 = sum(counts[rank] for rank in range(len(ecosystem.publishers) - 9,
                                                      len(ecosystem.publishers) + 1))
        assert top10 > bottom10 * 3

    def test_publisher_by_domain(self, ecosystem):
        publisher = ecosystem.publishers[5]
        assert ecosystem.publisher_by_domain(publisher.domain) is publisher
        assert ecosystem.publisher_by_domain("nope.example") is None


class TestAdChain:
    def test_chain_structure(self, ecosystem):
        rng = random.Random(1)
        publisher = next(p for p in ecosystem.publishers if p.ad_networks)
        chain = build_ad_chain(publisher, rng)
        kinds = [step.kind for step in chain]
        assert kinds[0] == AdChainKind.AD_SCRIPT
        assert AdChainKind.CREATIVE in kinds
        assert any(k == AdChainKind.TRACKING_PIXEL for k in kinds)

    def test_video_slot(self, ecosystem):
        rng = random.Random(2)
        publisher = next(p for p in ecosystem.publishers if p.ad_networks)
        chain = build_ad_chain(publisher, rng, video_slot=True)
        creative = next(step for step in chain if step.kind == AdChainKind.CREATIVE)
        assert creative.is_video

    def test_delay_regimes(self):
        rng = random.Random(5)
        model = ServerDelayModel(rng)
        frontend = [model.frontend_ms() for _ in range(500)]
        backoffice = [model.backoffice_ms() for _ in range(500)]
        assert sorted(frontend)[250] < 3.0  # ~1 ms median
        assert 5.0 < sorted(backoffice)[250] < 25.0  # ~10 ms median

    def test_rtb_delay_above_auction_window(self, ecosystem):
        rng = random.Random(6)
        model = ServerDelayModel(rng)
        exchange = next(n for n in ecosystem.ad_networks if n.is_exchange)
        delays = [model.rtb_ms(exchange) for _ in range(200)]
        assert min(delays) >= 100.0


class TestBuildPage:
    def _page(self, ecosystem, seed=4):
        rng = random.Random(seed)
        publisher = next(
            p for p in ecosystem.publishers if p.ad_networks and not p.ad_free
        )
        return build_page(publisher, ecosystem, rng)

    def test_tree_integrity(self, ecosystem):
        page = self._page(ecosystem)
        ids = {obj.object_id for obj in page.objects}
        assert ids == set(range(len(page.objects)))
        for obj in page.objects:
            if obj.parent_id is not None:
                assert obj.parent_id in ids
                assert obj.parent_id < obj.object_id
            assert obj.size >= 0
            assert obj.url.startswith("http://")

    def test_main_doc_first(self, ecosystem):
        page = self._page(ecosystem)
        assert page.objects[0].kind == ObjectKind.MAIN_DOC
        assert page.objects[0].parent_id is None

    def test_has_ads_and_trackers(self, ecosystem):
        intents: set[str] = set()
        for seed in range(10):
            page = self._page(ecosystem, seed=seed)
            intents |= {obj.intent for obj in page.objects}
        assert "content" in intents
        assert "ad" in intents
        assert "tracker" in intents

    def test_acceptable_urls_in_whitelisted_namespace(self, ecosystem):
        for seed in range(12):
            page = self._page(ecosystem, seed=seed)
            for obj in page.objects:
                if obj.acceptable:
                    assert "/textad/" in obj.url or "/static/" in obj.url

    def test_redirect_links_forward(self, ecosystem):
        import random as _random

        found = False
        rng = _random.Random(77)
        publishers = [p for p in ecosystem.publishers if p.ad_networks and not p.ad_free]
        for _ in range(150):
            page = build_page(rng.choice(publishers), ecosystem, rng)
            for obj in page.objects:
                if obj.redirect_to is not None:
                    assert 0 <= obj.redirect_to < len(page.objects)
                    assert obj.redirect_to != obj.object_id
                    found = True
        assert found, "no redirect chain generated in 150 pages"

    def test_ad_free_publisher_has_no_ads(self, ecosystem):
        ad_free = [p for p in ecosystem.publishers if p.ad_free]
        assert ad_free, "ecosystem generated no ad-free publishers"
        rng = random.Random(9)
        page = build_page(ad_free[0], ecosystem, rng)
        assert all(obj.intent != "ad" for obj in page.objects)


class TestAlexa:
    def test_rank_order(self, ecosystem):
        top = alexa_top(ecosystem, 10)
        assert [p.rank for p in top] == list(range(1, 11))

    def test_urls(self, ecosystem):
        urls = alexa_urls(ecosystem, 5)
        assert len(urls) == 5
        assert all(url.startswith("http://") and url.endswith("/") for url in urls)
