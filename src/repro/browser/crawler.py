"""Active-measurement crawl driver (§4.1).

Reproduces the Selenium/Chromium experiment: for each URL of the
"Alexa" top list, start a fresh browser instance under each of the
seven profiles, load the page, and capture the traffic as the
header records (:func:`repro.trace.records.render_visit`) that the
passive pipeline consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.browser.emulator import BrowserEmulator, BrowserVisit
from repro.browser.ghostery import GhosteryDatabase
from repro.browser.profiles import STANDARD_PROFILES, BrowserProfile
from repro.filterlist.lists import FilterList
from repro.trace.records import RttModel, TraceRecords, render_visit
from repro.web.alexa import alexa_top
from repro.web.ecosystem import Ecosystem
from repro.web.page import PageFetch, build_page

__all__ = ["CrawlResult", "Crawler"]

_CRAWLER_UA = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chromium/43.0.2357.81 Safari/537.36"
)
_CRAWLER_IP = "172.16.0.10"  # the measurement machine


@dataclass(slots=True)
class CrawlResult:
    """All visits and rendered traces of one profile's crawl."""

    profile: BrowserProfile
    visits: list[BrowserVisit] = field(default_factory=list)
    records: TraceRecords = field(default_factory=TraceRecords)

    @property
    def http_requests(self) -> int:
        return len(self.records.http)

    @property
    def https_connections(self) -> int:
        return len(self.records.tls)


class Crawler:
    """Crawls the top-``n`` list under every standard profile.

    The same page materialization (object tree) is used across the
    seven profiles of a site — exactly like the paper loads the same
    URL seven times — so differences between profiles are pure blocker
    effects, not sampling noise.
    """

    def __init__(
        self,
        ecosystem: Ecosystem,
        lists: dict[str, FilterList],
        *,
        seed: int = 4,
        profiles: tuple[BrowserProfile, ...] = STANDARD_PROFILES,
    ):
        self.ecosystem = ecosystem
        self.lists = lists
        self.profiles = profiles
        self._seed = seed
        self._ghostery = GhosteryDatabase.from_ecosystem(ecosystem)

    def crawl(self, n_sites: int = 1000, *, pages_per_site: int = 1) -> dict[str, CrawlResult]:
        """Run the full experiment; returns results keyed by profile."""
        rng = random.Random(self._seed)
        rtt = RttModel(seed=self._seed + 1)
        pages: list[PageFetch] = []
        for publisher in alexa_top(self.ecosystem, n_sites):
            for _ in range(pages_per_site):
                pages.append(build_page(publisher, self.ecosystem, rng, page_path="/"))

        results: dict[str, CrawlResult] = {}
        for profile in self.profiles:
            emulator = BrowserEmulator(
                profile,
                self.lists,
                ghostery_db=self._ghostery if profile.ghostery_categories else None,
                rng=random.Random(self._seed + 7),
            )
            result = CrawlResult(profile=profile)
            base_ts = 0.0
            for page in pages:
                # Fresh browser instance per URL: empty cache, ABP
                # fetches its lists on bootstrap (§4.1's methodology).
                visit = emulator.visit(page, list_update=True)
                result.visits.append(visit)
                rendered = render_visit(
                    visit,
                    client_ip=_CRAWLER_IP,
                    user_agent=_CRAWLER_UA,
                    base_ts=base_ts,
                    ecosystem=self.ecosystem,
                    rtt=rtt,
                    rng=rng,
                    device_id=f"crawler-{profile.name}",
                )
                result.records.extend(rendered)
                base_ts += 15.0  # 5 s settle + load + 5 s linger
            results[profile.name] = result
        return results
