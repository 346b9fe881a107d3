"""Synthetic web + ad-tech ecosystem substrate.

Replaces "the Web as seen from the vantage point": publishers with
Zipf popularity and category-dependent page structure, ad networks and
exchanges (with RTB latency), trackers, CDNs/clouds and an AS registry
mirroring the player mix the paper reports in Table 5.
"""

from repro.web.adtech import AdChainKind, AdChainStep, ServerDelayModel, build_ad_chain
from repro.web.alexa import alexa_top, alexa_urls
from repro.web.asdb import AsDatabase, AsKind, AutonomousSystem, default_as_database
from repro.web.categories import PROFILES, CategoryProfile, SiteCategory, profile_for
from repro.web.ecosystem import AdNetwork, Ecosystem, EcosystemConfig, Publisher, Tracker
from repro.web.page import ObjectKind, PageFetch, WebObject, build_page

__all__ = [
    "AdChainKind",
    "AdChainStep",
    "ServerDelayModel",
    "build_ad_chain",
    "alexa_top",
    "alexa_urls",
    "AsDatabase",
    "AsKind",
    "AutonomousSystem",
    "default_as_database",
    "PROFILES",
    "CategoryProfile",
    "SiteCategory",
    "profile_for",
    "AdNetwork",
    "Ecosystem",
    "EcosystemConfig",
    "Publisher",
    "Tracker",
    "ObjectKind",
    "PageFetch",
    "WebObject",
    "build_page",
]
