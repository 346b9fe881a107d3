"""Synthetic web + ad-tech ecosystem generator.

Builds a deterministic universe of publishers, ad networks, trackers,
CDNs and their hosting — the stand-in for "the Web" as observed from
the paper's vantage point.  Everything downstream (filter lists, the
browser emulator, the RBN trace generator) derives from one
:class:`Ecosystem` instance, so ground truth is consistent everywhere.

Key structural properties reproduced:

* publisher popularity is Zipf-distributed (an "Alexa" ranking falls
  out of it);
* the ad-tech side is concentrated: one dominant search/ad company, a
  handful of exchanges/ad networks with their own ASes, the rest on
  clouds and CDNs (Table 5);
* the *same* CDN/cloud IPs serve both ad and non-ad objects, while
  dedicated ad-tech ASes serve (almost) only ads (§8.1);
* some ad networks participate in the acceptable-ads programme, some
  publishers run first-party ad paths, some embed in-HTML text ads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.filterlist.easylist import ListSynthesisSpec, build_lists
from repro.filterlist.lists import FilterList
from repro.web.asdb import AsDatabase, AsKind, AutonomousSystem, default_as_database
from repro.web.categories import PROFILES, CategoryProfile, SiteCategory, profile_for

__all__ = ["AdNetwork", "Tracker", "Publisher", "Ecosystem", "EcosystemConfig", "ecosystem_lists"]


@dataclass(slots=True)
class AdNetwork:
    """An ad-tech company: exchange, ad network or ad server."""

    name: str
    serving_domains: list[str]
    as_: AutonomousSystem
    is_exchange: bool = False
    acceptable_ads: bool = False
    market_share: float = 0.01
    # Exchanges auction impressions; §8.2's ~100 ms bidding delay.
    rtb_delay_ms: tuple[float, float] = (100.0, 140.0)

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(slots=True)
class Tracker:
    """An analytics / tracking company (EasyPrivacy territory)."""

    name: str
    serving_domains: list[str]
    as_: AutonomousSystem
    market_share: float = 0.01

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(slots=True)
class Publisher:
    """A content site users visit."""

    domain: str
    category: SiteCategory
    rank: int  # 1 = most popular
    popularity: float  # Zipf weight, unnormalized
    as_: AutonomousSystem
    on_cdn: bool = False
    cdn_as: AutonomousSystem | None = None
    self_hosted_ads: bool = False
    text_ads: bool = False
    ad_free: bool = False  # runs no display ads at all (rare but real)
    https_landing: bool = False
    ad_networks: list[AdNetwork] = field(default_factory=list)
    trackers: list[Tracker] = field(default_factory=list)

    @property
    def profile(self) -> CategoryProfile:
        return profile_for(self.category)

    def __hash__(self) -> int:
        return hash(self.domain)


@dataclass(slots=True)
class EcosystemConfig:
    """Knobs of :meth:`Ecosystem.generate`."""

    n_publishers: int = 1000
    n_ad_networks: int = 25
    n_trackers: int = 30
    zipf_exponent: float = 0.9
    https_landing_share: float = 0.12
    cdn_hosting_share: float = 0.30
    seed: int = 20151028  # IMC'15 first day


_CATEGORY_ORDER = list(PROFILES)


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank**exponent) for rank in range(1, n + 1)]


class Ecosystem:
    """The generated universe.  Use :meth:`generate`, not ``__init__``."""

    def __init__(
        self,
        config: EcosystemConfig,
        asdb: AsDatabase,
        publishers: list[Publisher],
        ad_networks: list[AdNetwork],
        trackers: list[Tracker],
        dominant: AdNetwork,
    ):
        self.config = config
        self.asdb = asdb
        self.publishers = publishers
        self.ad_networks = ad_networks
        self.trackers = trackers
        self.dominant = dominant
        self._host_ips: dict[str, str] = {}
        self._host_counter: dict[int, int] = {}
        self._assign_ips()
        # ip_for_host's answers for hosts _host_ips does not hold; that
        # table is complete once constructed, so an answer never changes.
        self._fallback_ips: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Generation

    @classmethod
    def generate(cls, config: EcosystemConfig | None = None) -> "Ecosystem":
        config = config or EcosystemConfig()
        rng = random.Random(config.seed)
        asdb = default_as_database()

        ad_networks = cls._make_ad_networks(config, rng, asdb)
        trackers = cls._make_trackers(config, rng, asdb)
        publishers = cls._make_publishers(config, rng, asdb, ad_networks, trackers)
        dominant = ad_networks[0]
        return cls(config, asdb, publishers, ad_networks, trackers, dominant)

    @staticmethod
    def _make_ad_networks(
        config: EcosystemConfig, rng: random.Random, asdb: AsDatabase
    ) -> list[AdNetwork]:
        googol = asdb.by_name("Googol")
        appnexus = asdb.by_name("AppNexus-like")
        criteo = asdb.by_name("Criterion")
        aol = asdb.by_name("AOLike")
        clouds = [as_ for as_ in asdb.all() if as_.kind == AsKind.CLOUD]
        cdns = [as_ for as_ in asdb.all() if as_.kind == AsKind.CDN]
        hosting = [as_ for as_ in asdb.all() if as_.kind == AsKind.HOSTING]
        assert googol and appnexus and criteo and aol

        networks = [
            # The dominant player: ad server + exchange + analytics,
            # acceptable-ads participant (§7.3: ~48% of its ad traffic
            # whitelisted).
            AdNetwork(
                name="googol-ads",
                serving_domains=[
                    "ads.googol-services.net",
                    "pagead.googol-syndication.com",
                    "exchange.doubleklick.net",
                ],
                as_=googol,
                is_exchange=True,
                acceptable_ads=True,
                market_share=0.20,
            ),
            AdNetwork(
                name="appnexus-like",
                serving_domains=["ib.appnexus-like.com", "secure.appnexus-like.com"],
                as_=appnexus,
                is_exchange=True,
                acceptable_ads=False,
                market_share=0.08,
            ),
            AdNetwork(
                name="criterion",
                serving_domains=["static.criterion-ads.net", "bidder.criterion-ads.net"],
                as_=criteo,
                is_exchange=True,
                acceptable_ads=False,
                market_share=0.06,
            ),
            AdNetwork(
                name="aol-adtech",
                serving_domains=["adserver.aolike-ads.com"],
                as_=aol,
                is_exchange=True,
                acceptable_ads=False,
                market_share=0.05,
            ),
            # A video-ad specialist (the paper's busiest ad server is
            # operated by Liverail, a video ad platform).
            AdNetwork(
                name="liverail-like",
                serving_domains=["vid.liverail-like.tv"],
                as_=rng.choice(clouds),
                is_exchange=True,
                acceptable_ads=False,
                market_share=0.07,
            ),
        ]

        remaining = config.n_ad_networks - len(networks)
        for index in range(max(0, remaining)):
            kind_roll = rng.random()
            if kind_roll < 0.4:
                as_ = rng.choice(clouds)
            elif kind_roll < 0.65:
                as_ = rng.choice(cdns)
            else:
                as_ = rng.choice(hosting)
            name = f"adnet{index:02d}"
            networks.append(
                AdNetwork(
                    name=name,
                    serving_domains=[f"serve.{name}-media.com"],
                    as_=as_,
                    is_exchange=rng.random() < 0.3,
                    acceptable_ads=rng.random() < 0.3,
                    market_share=0.44 / max(1, remaining),
                )
            )
        return networks

    @staticmethod
    def _make_trackers(
        config: EcosystemConfig, rng: random.Random, asdb: AsDatabase
    ) -> list[Tracker]:
        googol = asdb.by_name("Googol")
        clouds = [as_ for as_ in asdb.all() if as_.kind == AsKind.CLOUD]
        hosting = [as_ for as_ in asdb.all() if as_.kind == AsKind.HOSTING]
        assert googol

        trackers = [
            Tracker(
                name="googol-analytics",
                serving_domains=["www.googol-analytics.com", "stats.googol-services.net"],
                as_=googol,
                market_share=0.35,
            ),
            Tracker(
                name="addthis-like",
                serving_domains=["s7.addthis-like.com"],
                as_=rng.choice(clouds),
                market_share=0.08,
            ),
        ]
        remaining = config.n_trackers - len(trackers)
        for index in range(max(0, remaining)):
            as_ = rng.choice(clouds if rng.random() < 0.5 else hosting)
            name = f"tracker{index:02d}"
            trackers.append(
                Tracker(
                    name=name,
                    serving_domains=[f"pixel.{name}-metrics.io"],
                    as_=as_,
                    market_share=0.57 / max(1, remaining),
                )
            )
        return trackers

    @staticmethod
    def _make_publishers(
        config: EcosystemConfig,
        rng: random.Random,
        asdb: AsDatabase,
        ad_networks: list[AdNetwork],
        trackers: list[Tracker],
    ) -> list[Publisher]:
        weights = _zipf_weights(config.n_publishers, config.zipf_exponent)
        cdns = [as_ for as_ in asdb.all() if as_.kind == AsKind.CDN]
        hosting = [as_ for as_ in asdb.all() if as_.kind == AsKind.HOSTING]
        clouds = [as_ for as_ in asdb.all() if as_.kind == AsKind.CLOUD]

        category_names = list(PROFILES)
        category_weights = [PROFILES[c].popularity_weight for c in category_names]

        net_names = ad_networks
        net_weights = [network.market_share for network in ad_networks]
        tracker_weights = [tracker.market_share for tracker in trackers]

        publishers: list[Publisher] = []
        for rank in range(1, config.n_publishers + 1):
            category = rng.choices(category_names, weights=category_weights)[0]
            profile = PROFILES[category]
            tld = rng.choices(["com", "net", "org", "de", "co.uk"], weights=[50, 15, 10, 20, 5])[0]
            domain = f"{category.value.replace('_', '')}{rank:04d}.{tld}"
            on_cdn = rng.random() < config.cdn_hosting_share
            as_ = rng.choice(hosting + clouds)
            cdn_as = rng.choice(cdns) if on_cdn else None

            n_networks = 1 + int(rng.random() * 2 + (profile.ad_slots_mean > 3.5))
            pub_networks = _weighted_sample(rng, net_names, net_weights, n_networks)
            n_trackers = max(1, round(rng.gauss(profile.tracker_mean / 2.5, 0.8)))
            pub_trackers = _weighted_sample(rng, trackers, tracker_weights, n_trackers)

            # Some sites run no display advertising at all (donation- or
            # subscription-funded); concentrated in reference/search.
            if category is SiteCategory.REFERENCE:
                ad_free_probability = 0.70
            elif category in (SiteCategory.SEARCH, SiteCategory.TRANSLATION):
                ad_free_probability = 0.35
            else:
                ad_free_probability = 0.05

            publishers.append(
                Publisher(
                    domain=domain,
                    category=category,
                    rank=rank,
                    popularity=weights[rank - 1],
                    as_=as_,
                    on_cdn=on_cdn,
                    cdn_as=cdn_as,
                    self_hosted_ads=rng.random() < 0.08,
                    text_ads=rng.random() < profile.text_ad_probability,
                    ad_free=rng.random() < ad_free_probability,
                    https_landing=rng.random() < config.https_landing_share,
                    ad_networks=pub_networks,
                    trackers=pub_trackers,
                )
            )
        return publishers

    # ------------------------------------------------------------------
    # IP assignment and lookups

    def _assign_ips(self) -> None:
        """Give every serving host a stable IP inside its entity's AS.

        CDN- and cloud-hosted entities draw from small *shared edge
        pools* per AS: the same front-end IPs serve publisher content
        AND ad objects — the §8.1 "same infrastructure" effect (21% of
        servers serve at least one ad object; they also carry most
        non-ad objects).  Dedicated ad-tech ASes keep exclusive
        servers.
        """
        googol = self.asdb.by_name("Googol")
        if googol is not None:
            # Shared static infrastructure of the dominant player — the
            # gstatic.com analogue the acceptable-ads list whitelists
            # with an overly general $document rule (§7.3).
            self._host_ips["gstatic-like.com"] = self._next_ip(googol)
            self._host_ips["fonts.gstatic-like.com"] = self._next_ip(googol)
            # Popular JS library hosting — plain content served from the
            # dominant AS, diluting its internal ad ratio (Table 5:
            # Google's is ~50%, not ~100%, because the same AS serves
            # lots of non-ad traffic).
            self._host_ips["ajax.googol-apis.com"] = self._next_ip(googol)
            self._host_ips["cdn.googol-apis.com"] = self._next_ip(googol)

        shared_pools: dict[int, list[str]] = {}

        def pool_ip(as_: AutonomousSystem, index_hint: int) -> str:
            pool = shared_pools.get(as_.asn)
            if pool is None:
                pool = [self._next_ip(as_) for _ in range(8)]
                shared_pools[as_.asn] = pool
            return pool[index_hint % len(pool)]

        hint = 0
        for network in self.ad_networks:
            for domain in network.serving_domains:
                if network.as_.kind in (AsKind.CDN, AsKind.CLOUD):
                    self._host_ips[domain] = pool_ip(network.as_, hint)
                else:
                    self._host_ips[domain] = self._next_ip(network.as_)
                hint += 1
        for tracker in self.trackers:
            for domain in tracker.serving_domains:
                if tracker.as_.kind in (AsKind.CDN, AsKind.CLOUD):
                    self._host_ips[domain] = pool_ip(tracker.as_, hint)
                else:
                    self._host_ips[domain] = self._next_ip(tracker.as_)
                hint += 1
        for publisher in self.publishers:
            serving_as = publisher.cdn_as if publisher.on_cdn and publisher.cdn_as else publisher.as_
            if serving_as.kind in (AsKind.CDN, AsKind.CLOUD):
                self._host_ips[publisher.domain] = pool_ip(serving_as, hint)
                self._host_ips[f"static.{publisher.domain}"] = pool_ip(serving_as, hint + 1)
            else:
                self._host_ips[publisher.domain] = self._next_ip(serving_as)
                self._host_ips[f"static.{publisher.domain}"] = self._next_ip(serving_as)
            hint += 2

    def _next_ip(self, as_: AutonomousSystem) -> str:
        counter = self._host_counter.get(as_.asn, 0)
        self._host_counter[as_.asn] = counter + 1
        return self.asdb.address_in(as_, counter)

    def ip_for_host(self, host: str) -> str:
        """Stable DNS-like resolution for any ecosystem host."""
        ip = self._host_ips.get(host) or self._fallback_ips.get(host)
        if ip is None:
            ip = self._fallback_ips[host] = self._resolve_unknown(host)
        return ip

    def _resolve_unknown(self, host: str) -> str:
        # Unknown subdomain: resolve like the first-inserted known host
        # it is a subdomain of, else hash into generic hosting space.
        for known, known_ip in self._host_ips.items():
            if host.endswith("." + known):
                return known_ip
        generic = self.asdb.by_name("TierOne-Transit")
        assert generic is not None
        index = hash(host) % 60000
        return self.asdb.address_in(generic, index)

    def as_for_ip(self, ip: str) -> AutonomousSystem | None:
        return self.asdb.lookup(ip)

    def publisher_by_domain(self, domain: str) -> Publisher | None:
        for publisher in self.publishers:
            if publisher.domain == domain:
                return publisher
        return None

    # ------------------------------------------------------------------
    # Filter-list synthesis input

    def list_spec(self) -> ListSynthesisSpec:
        """Derive the filter-list synthesis spec from this universe."""
        ad_domains: list[str] = []
        acceptable: list[str] = []
        for network in self.ad_networks:
            ad_domains.extend(network.serving_domains)
            if network.acceptable_ads:
                acceptable.extend(network.serving_domains)
        tracker_domains = [
            domain for tracker in self.trackers for domain in tracker.serving_domains
        ]
        self_hosting = [p.domain for p in self.publishers if p.self_hosted_ads]
        text_ads = [p.domain for p in self.publishers if p.text_ads]
        foreign = [p.domain for p in self.publishers if p.domain.endswith(".de")]
        # The overly general $document whitelist anomaly (§7.3): the
        # dominant player's static-infrastructure domain.
        overly_general = ["gstatic-like.com"]
        return ListSynthesisSpec(
            ad_network_domains=sorted(set(ad_domains)),
            tracker_domains=sorted(set(tracker_domains)),
            acceptable_ad_domains=sorted(set(acceptable)),
            overly_general_whitelist_domains=overly_general,
            self_hosting_publisher_domains=sorted(self_hosting),
            text_ad_publisher_domains=sorted(text_ads),
            foreign_publisher_domains=sorted(foreign)[:50],
        )

    # ------------------------------------------------------------------
    # Popularity

    def sample_publisher(self, rng: random.Random) -> Publisher:
        """Draw a publisher according to Zipf popularity."""
        total = getattr(self, "_popularity_total", None)
        if total is None:
            total = sum(p.popularity for p in self.publishers)
            self._popularity_total = total
            cumulative: list[float] = []
            acc = 0.0
            for publisher in self.publishers:
                acc += publisher.popularity
                cumulative.append(acc)
            self._popularity_cumulative = cumulative
        point = rng.random() * total
        cumulative = self._popularity_cumulative
        low, high = 0, len(cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < point:
                low = mid + 1
            else:
                high = mid
        return self.publishers[low]


def ecosystem_lists(publishers: int, seed: int) -> dict[str, FilterList]:
    """The filter lists of the ecosystem ``--publishers``/``--eco-seed``
    name: what `classify`, `compile-lists` and `serve` match against
    when given no list files or snapshot.  Fewer than one publisher is
    a usage error (exit 1), refused before anything is written."""
    if publishers < 1:
        raise SystemExit("error: --publishers must be >= 1")
    ecosystem = Ecosystem.generate(EcosystemConfig(n_publishers=publishers, seed=seed))
    return build_lists(ecosystem.list_spec())


def _weighted_sample(rng: random.Random, items: list, weights: list[float], k: int) -> list:
    """Sample up to ``k`` distinct items with probability ~ weights."""
    chosen: list = []
    available = list(range(len(items)))
    local_weights = list(weights)
    for _ in range(min(k, len(items))):
        total = sum(local_weights[i] for i in available)
        if total <= 0:
            break
        point = rng.random() * total
        acc = 0.0
        for position, index in enumerate(available):
            acc += local_weights[index]
            if acc >= point:
                chosen.append(items[index])
                available.pop(position)
                break
    return chosen
