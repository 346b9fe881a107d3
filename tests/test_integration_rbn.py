"""End-to-end integration test at calibration scale.

Regenerates a reduced RBN-2 and asserts the paper's headline numbers
hold in *band* — the reproduction's acceptance test.  This is the
slowest test in the suite (about a minute); everything it checks is
also exercised piecemeal by the unit tests on a smaller fixture.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    AdClassificationPipeline,
    aggregate_users,
    annotate_browsers,
    classify_usage,
    easyprivacy_subscription_shares,
    heavy_hitters,
    usage_breakdown,
)
from repro.trace import RBNTraceGenerator, abp_server_ips, easylist_download_clients, rbn2_config
from repro.web import Ecosystem, EcosystemConfig

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def study():
    ecosystem = Ecosystem.generate(EcosystemConfig(n_publishers=300))
    config = rbn2_config(scale=0.008)
    generator = RBNTraceGenerator(config, ecosystem=ecosystem)
    trace = generator.generate()
    pipeline = AdClassificationPipeline(generator.lists)
    entries = pipeline.process(trace.http)
    return ecosystem, generator, trace, entries


class TestPaperBands:
    def test_ad_request_share(self, study):
        _, _, _, entries = study
        share = sum(1 for e in entries if e.is_ad) / len(entries)
        assert 0.13 < share < 0.25, f"paper: 18.89%, got {share:.1%}"

    def test_list_attribution_ordering(self, study):
        _, _, _, entries = study
        buckets = Counter(
            e.blacklist_name for e in entries if e.classification.is_blacklisted
        )
        easylist = buckets.get("easylist", 0)
        easyprivacy = buckets.get("easyprivacy", 0)
        total = easylist + easyprivacy
        assert easylist / total > 0.45  # paper: EL 55.9% of ad hits
        assert easyprivacy / total > 0.25  # paper: EP 35.1%
        assert easylist > easyprivacy

    def test_download_household_share(self, study):
        ecosystem, generator, trace, _ = study
        downloads = easylist_download_clients(trace.tls, abp_server_ips(ecosystem))
        share = len(downloads) / generator.subscribers
        assert 0.12 < share < 0.30, f"paper: 19.7%, got {share:.1%}"

    def test_usage_classes(self, study):
        ecosystem, generator, trace, entries = study
        stats = aggregate_users(entries)
        annotation = annotate_browsers(heavy_hitters(stats))
        downloads = easylist_download_clients(trace.tls, abp_server_ips(ecosystem))
        usages = classify_usage(list(annotation.browsers.values()), downloads)
        rows = {row.usage_type: row for row in usage_breakdown(usages)}
        # Paper: A 46.8, B 15.7, C 22.2, D 15.3 — assert loose bands.
        assert 0.30 < rows["A"].instance_share < 0.65
        assert 0.04 < rows["B"].instance_share < 0.30
        assert 0.12 < rows["C"].instance_share < 0.35
        assert 0.04 < rows["D"].instance_share < 0.30
        # Likely-ABP users contribute disproportionately few ads.
        assert rows["C"].ad_request_share < rows["C"].request_share

    def test_easyprivacy_adoption_gap(self, study):
        ecosystem, generator, trace, entries = study
        stats = aggregate_users(entries)
        annotation = annotate_browsers(heavy_hitters(stats))
        downloads = easylist_download_clients(trace.tls, abp_server_ips(ecosystem))
        usages = classify_usage(list(annotation.browsers.values()), downloads)
        abp_share, plain_share = easyprivacy_subscription_shares(usages, max_hits=10)
        # Paper: 13.1% vs ~0.1% — a clear gap must exist.
        assert abp_share > plain_share + 0.03
        assert plain_share < 0.05

    def test_detection_agrees_with_ground_truth(self, study):
        """Class C (likely ABP) must be enriched in true ABP devices."""
        ecosystem, generator, trace, entries = study
        device_profiles = {}
        for household in generator.households:
            for device in household.devices:
                device_profiles[(household.ip, device.user_agent)] = device.profile

        stats = aggregate_users(entries)
        annotation = annotate_browsers(heavy_hitters(stats))
        downloads = easylist_download_clients(trace.tls, abp_server_ips(ecosystem))
        usages = classify_usage(list(annotation.browsers.values()), downloads)

        def abp_share(group):
            members = [u for u in usages if u.usage_type == group]
            if not members:
                return 0.0
            with_abp = sum(
                1 for u in members
                if (profile := device_profiles.get(u.stats.user)) and profile.has_abp
            )
            return with_abp / len(members)

        assert abp_share("C") > 0.8  # precision of the indicator pair
        assert abp_share("A") < 0.1
