"""Instrumented browser emulator.

Plays the role of the paper's Selenium-driven Chromium (§4.1): given a
page's ground-truth object tree and a :class:`BrowserProfile`, it
decides — with full DOM knowledge, like a real extension — which
requests are actually issued, which are blocked, and which in-HTML
text ads are element-hidden.  The output is the browser-side truth the
passive methodology is validated against.

Blocking cascades: a blocked ad tag never executes, so its descendant
requests (auction calls, creatives, pixels) are never issued — the
paper's "cascaded effects" bias (§10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.browser.ghostery import GhosteryDatabase
from repro.browser.profiles import BrowserProfile
from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.filter import ElementHidingRule
from repro.filterlist.lists import FilterList
from repro.http.url import split_url
from repro.web.page import ObjectKind, PageFetch, WebObject

__all__ = ["EmulatedRequest", "BrowserVisit", "BrowserEmulator", "ABP_UPDATE_HOSTS"]

# The Adblock Plus filter-download endpoints (synthetic stand-ins for
# easylist-downloads.adblockplus.org); subscribed browsers contact them
# over HTTPS — the paper's second usage indicator (§3.2).
ABP_UPDATE_HOSTS: tuple[str, ...] = (
    "easylist-downloads.adblock-plus.example",
    "notification.adblock-plus.example",
)


@dataclass(slots=True)
class EmulatedRequest:
    """One HTTP(S) request the emulated browser issued."""

    obj: WebObject
    url: str
    referer: str | None
    ts_offset: float  # seconds since visit start
    https: bool
    location: str | None = None  # redirect target, when a 3xx
    status: int = 200

    @property
    def declared_mime(self) -> str | None:
        return self.obj.declared_mime

    @property
    def size(self) -> int:
        return self.obj.size


@dataclass(slots=True)
class TlsConnection:
    """An HTTPS connection visible only at the TCP level."""

    host: str
    ts_offset: float
    purpose: str  # "page" | "abp_update"


@dataclass(slots=True)
class BrowserVisit:
    """Result of loading one page under one profile."""

    page: PageFetch
    profile: BrowserProfile
    requests: list[EmulatedRequest] = field(default_factory=list)
    blocked: list[WebObject] = field(default_factory=list)
    hidden_text_ads: int = 0
    tls_connections: list[TlsConnection] = field(default_factory=list)
    # Objects fetched over HTTPS: delivered to the user but invisible
    # to the port-80 header trace (§4.2 / §10).
    encrypted: list[WebObject] = field(default_factory=list)

    @property
    def page_url(self) -> str:
        return self.page.page_url


class BrowserEmulator:
    """Loads pages under a configured profile.

    Args:
        profile: browser configuration to emulate.
        lists: full list bundle by name; the profile picks its subset.
        ghostery_db: required when the profile enables Ghostery.
        rng: drives timing jitter and HTTPS upgrade decisions.
    """

    def __init__(
        self,
        profile: BrowserProfile,
        lists: dict[str, FilterList],
        *,
        ghostery_db: GhosteryDatabase | None = None,
        rng: random.Random | None = None,
    ):
        self.profile = profile
        self._rng = rng or random.Random(0)
        self._ghostery_db = ghostery_db
        if profile.ghostery_categories and ghostery_db is None:
            raise ValueError(f"profile {profile.name} needs a Ghostery database")

        self._engine: FilterEngine | None = None
        self._hiding_rules: list[ElementHidingRule] = []
        if profile.abp_lists:
            engine = FilterEngine()
            for name in profile.abp_lists:
                filter_list = lists[name]
                engine.add_filters(filter_list.filters, list_name=name)
                self._hiding_rules.extend(filter_list.hiding_rules)
            self._engine = engine
        # Page host -> whether an element-hiding rule applies there.
        self._hides_on_host: dict[str, bool] = {}

    def visit(self, page: PageFetch, *, list_update: bool = True) -> BrowserVisit:
        """Load ``page``, returning the issued/blocked request record.

        ``list_update`` adds the ABP filter-download HTTPS connections
        a freshly started browser performs (§3.2: on bootstrap or soft
        expiry) — the crawler starts a fresh instance per URL, so the
        default is on.
        """
        visit = BrowserVisit(page=page, profile=self.profile)
        if self.profile.has_abp and list_update:
            for index, host in enumerate(ABP_UPDATE_HOSTS[:1]):
                for list_index, _name in enumerate(self.profile.abp_lists):
                    visit.tls_connections.append(
                        TlsConnection(
                            host=host,
                            ts_offset=0.05 * (index + list_index + 1),
                            purpose="abp_update",
                        )
                    )

        issued_ts: dict[int, float] = {}
        skipped: set[int] = set()
        for obj in page.objects:
            if obj.parent_id is not None and obj.parent_id in skipped:
                # Parent was blocked (or skipped transitively): this
                # request is never triggered.
                skipped.add(obj.object_id)
                continue
            if self._blocks(obj, page):
                visit.blocked.append(obj)
                skipped.add(obj.object_id)
                continue
            ts = self._schedule(obj, issued_ts)
            issued_ts[obj.object_id] = ts
            https = self._is_https(obj, page)
            if https:
                visit.encrypted.append(obj)
                visit.tls_connections.append(
                    TlsConnection(host=split_url(obj.url).host, ts_offset=ts, purpose="page")
                )
                continue
            visit.requests.append(
                EmulatedRequest(
                    obj=obj,
                    url=obj.url,
                    referer=self._referer(obj, page),
                    ts_offset=ts,
                    https=False,
                    location=self._location(obj, page),
                    status=302 if obj.redirect_to is not None else 200,
                )
            )

        visit.hidden_text_ads = self._hidden_text_ads(page)
        return visit

    # ------------------------------------------------------------------

    def _blocks(self, obj: WebObject, page: PageFetch) -> bool:
        if obj.kind is ObjectKind.MAIN_DOC:
            return False
        if self._engine is not None:
            context = RequestContext(content_type=obj.abp_type, page_url=page.page_url)
            if self._engine.should_block(obj.url, context):
                return True
        if self._ghostery_db is not None and self.profile.ghostery_categories:
            if self._ghostery_db.should_block(obj.url, self.profile.ghostery_categories):
                return True
        return False

    def _schedule(self, obj: WebObject, issued_ts: dict[int, float]) -> float:
        if obj.parent_id is None:
            return 0.0
        parent_ts = issued_ts.get(obj.parent_id, 0.0)
        # Parent must complete (including server think time) before a
        # dependent request fires; siblings fan out with jitter.
        parent_delay = 0.0
        return parent_ts + parent_delay + self._rng.uniform(0.02, 0.5)

    def _is_https(self, obj: WebObject, page: PageFetch) -> bool:
        host = split_url(obj.url).host
        # Some ad infrastructure serves TLS regardless of the page
        # (secure.* endpoints, early HTTPS exchanges) — §4.2 observed
        # ad traffic over HTTPS that the methodology cannot classify,
        # and Table 1 shows blockers REDUCING HTTPS connection counts.
        if obj.is_ad_intent:
            if host.startswith("secure."):
                return True
            if self._rng.random() < 0.05:
                return True
        if not page.publisher.https_landing:
            return False
        page_host = split_url(page.page_url).host
        if obj.kind is ObjectKind.MAIN_DOC or host.endswith(page_host):
            return True
        # Mixed content: most third parties stay HTTP, some upgrade.
        return self._rng.random() < 0.35

    def _referer(self, obj: WebObject, page: PageFetch) -> str | None:
        if obj.kind is ObjectKind.MAIN_DOC:
            return None
        if obj.referer_stripped:
            return None
        if obj.parent_id is None:
            return page.page_url
        parent = page.by_id(obj.parent_id)
        if parent.redirect_to == obj.object_id:
            # Requests following a redirection carry no referer (§3.1)
            # — the Location header is the only link.
            return None
        if parent.kind is ObjectKind.MAIN_DOC:
            return page.page_url
        return parent.url

    def _location(self, obj: WebObject, page: PageFetch) -> str | None:
        if obj.redirect_to is None:
            return None
        return page.by_id(obj.redirect_to).url

    def _hidden_text_ads(self, page: PageFetch) -> int:
        if not page.text_ads or not self._hiding_rules:
            return 0
        page_host = split_url(page.page_url).host
        hides = self._hides_on_host.get(page_host)
        if hides is None:
            hides = self._hides_on_host[page_host] = any(
                not rule.is_exception and rule.applies_to(page_host)
                for rule in self._hiding_rules
            )
        return page.text_ads if hides else 0
