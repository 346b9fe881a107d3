"""Unit tests for repro.trace.generator (the RBN simulator) and the
visit rendering it runs (repro.trace.records.render_visit)."""

from __future__ import annotations

import random
from collections import Counter

from repro.browser.emulator import BrowserEmulator
from repro.browser.profiles import profile_by_name
from repro.trace.capture import abp_server_ips
from repro.trace.generator import rbn1_config, rbn2_config
from repro.trace.records import RttModel, render_visit
from repro.web.page import build_page


class TestPresets:
    def test_rbn1_preset(self):
        config = rbn1_config(scale=0.01)
        assert config.duration_s == 4 * 86400.0
        assert config.population.n_households == 75
        # Starts Saturday midnight (§5: 11 Apr 2015, a Saturday).
        assert (config.start_ts // 86400.0) % 7 == 5
        assert config.start_ts % 86400.0 == 0

    def test_rbn2_preset(self):
        config = rbn2_config(scale=0.01)
        assert config.duration_s == 15.5 * 3600.0
        assert config.population.n_households == 197
        # Starts Tuesday 15:30.
        assert (config.start_ts // 86400.0) % 7 == 1
        assert config.start_ts % 86400.0 == 15.5 * 3600.0

    def test_overrides(self):
        config = rbn2_config(scale=0.01, seed=77, pages_per_hour=9.0)
        assert config.seed == 77
        assert config.pages_per_hour == 9.0


class TestGeneratedTrace:
    def test_records_time_sorted(self, rbn_trace):
        stamps = [record.ts for record in rbn_trace.http]
        assert stamps == sorted(stamps)

    def test_truth_aligned(self, rbn_trace):
        assert len(rbn_trace.truth) == len(rbn_trace.http)

    def test_timestamps_inside_window(self, rbn_trace, rbn_generator):
        config = rbn_generator.config
        for record in rbn_trace.http[:2000]:
            assert config.start_ts <= record.ts <= config.end_ts + 300

    def test_client_ips_are_household_ips(self, rbn_trace, rbn_generator):
        household_ips = {h.ip for h in rbn_generator.households}
        clients = {record.client for record in rbn_trace.http}
        assert clients <= household_ips

    def test_intent_mix(self, rbn_trace):
        intents = Counter(truth.intent for truth in rbn_trace.truth)
        assert intents["content"] > intents["ad"] > 0
        assert intents["tracker"] > 0
        assert intents["app"] > 0

    def test_abp_devices_fetch_no_nonacceptable_ads(self, rbn_trace):
        # Acceptable ads get through for default ABP installs and
        # trackers get through for EL-only installs (§6.3) — but no
        # plain ad may survive an EasyList subscription.
        for truth in rbn_trace.truth:
            if truth.profile_name == "AdBP-user" and truth.intent == "ad":
                assert truth.acceptable

    def test_vanilla_devices_fetch_plain_ads(self, rbn_trace):
        plain_ads = sum(
            1
            for truth in rbn_trace.truth
            if truth.profile_name == "Vanilla" and truth.intent == "ad" and not truth.acceptable
        )
        assert plain_ads > 0

    def test_abp_update_tls_present(self, rbn_trace, rbn_generator):
        abp_ips = abp_server_ips(rbn_generator.ecosystem)
        updates = [record for record in rbn_trace.tls if record.server in abp_ips]
        has_abp_households = [h for h in rbn_generator.households if h.has_abp_device]
        if has_abp_households:
            assert updates, "no ABP list-download connections in trace"
            update_clients = {record.client for record in updates}
            abp_ips_of_households = {h.ip for h in has_abp_households}
            assert update_clients <= abp_ips_of_households

    def test_server_ips_resolve_to_ecosystem(self, rbn_trace, rbn_generator):
        ecosystem = rbn_generator.ecosystem
        for record in rbn_trace.http[:500]:
            assert record.server == ecosystem.ip_for_host(record.host)

    def test_deterministic(self, rbn_generator, rbn_trace):
        from repro.trace.generator import RBNTraceGenerator

        again = RBNTraceGenerator(
            rbn_generator.config,
            ecosystem=rbn_generator.ecosystem,
            lists=rbn_generator.lists,
        ).generate()
        assert len(again.http) == len(rbn_trace.http)
        assert [r.url for r in again.http[:200]] == [r.url for r in rbn_trace.http[:200]]


def _visit(ecosystem, lists, seed=21):
    rng = random.Random(seed)
    publishers = [
        p for p in ecosystem.publishers
        if p.ad_networks and not p.https_landing and not p.ad_free
    ]
    page = build_page(rng.choice(publishers), ecosystem, rng)
    emulator = BrowserEmulator(profile_by_name("Vanilla"), lists, rng=rng)
    return emulator.visit(page, list_update=False)


class TestRenderVisit:
    def test_one_record_per_request(self, ecosystem, lists):
        visit = _visit(ecosystem, lists)
        records = render_visit(
            visit, client_ip="10.9.9.9", user_agent="UA", base_ts=1000.0,
            ecosystem=ecosystem, rtt=RttModel(1), rng=random.Random(2),
        )
        assert len(records.http) == len(visit.requests)
        assert len(records.truth) == len(records.http)

    def test_persistent_connections_share_flow(self, ecosystem, lists):
        visit = _visit(ecosystem, lists)
        records = render_visit(
            visit, client_ip="10.9.9.9", user_agent="UA", base_ts=1000.0,
            ecosystem=ecosystem, rtt=RttModel(1), rng=random.Random(2),
        )
        by_host_flow = {}
        for record in records.http:
            by_host_flow.setdefault(record.host, set()).add(record.flow_id)
        for host, flows in by_host_flow.items():
            assert len(flows) == 1, f"host {host} spread over flows {flows}"
        # And same flow -> same TCP handshake measurement.
        by_flow_handshake = {}
        for record in records.http:
            by_flow_handshake.setdefault(record.flow_id, set()).add(record.tcp_handshake_ms)
        assert all(len(values) == 1 for values in by_flow_handshake.values())

    def test_http_handshake_includes_server_delay(self, ecosystem, lists):
        visit = _visit(ecosystem, lists)
        records = render_visit(
            visit, client_ip="10.9.9.9", user_agent="UA", base_ts=1000.0,
            ecosystem=ecosystem, rtt=RttModel(1), rng=random.Random(2),
        )
        for record, request in zip(records.http, visit.requests):
            gap = record.http_handshake_ms - record.tcp_handshake_ms
            # The gap is server delay plus RTT jitter of up to ~±5%.
            assert gap >= request.obj.server_delay_ms - 0.05 * record.tcp_handshake_ms - 1.0

    def test_ground_truth_fields(self, ecosystem, lists):
        visit = _visit(ecosystem, lists)
        records = render_visit(
            visit, client_ip="10.9.9.9", user_agent="UA", base_ts=1000.0,
            ecosystem=ecosystem, rtt=RttModel(1), rng=random.Random(2),
            device_id="dev-1",
        )
        assert all(truth.device_id == "dev-1" for truth in records.truth)
        assert all(truth.page_url == visit.page_url for truth in records.truth)
