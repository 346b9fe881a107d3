"""Unit tests for repro.trace (population, activity, records, capture)."""

from __future__ import annotations

import random
from collections import Counter

from repro.browser.emulator import ABP_UPDATE_HOSTS
from repro.http.useragent import BrowserFamily, parse_user_agent
from repro.trace.activity import activity_rate, diurnal_rate, expected_views, weekly_factor
from repro.trace.capture import abp_server_ips, capture_stats, easylist_download_clients
from repro.trace.population import PopulationConfig, generate_population
from repro.trace.records import RttModel, TlsConnectionRecord

_SATURDAY = 5 * 86400.0
_MONDAY_NOON = 12 * 3600.0
_MONDAY_4AM = 4 * 3600.0
_MONDAY_8PM = 20 * 3600.0


class TestActivity:
    def test_diurnal_shape(self):
        assert diurnal_rate(_MONDAY_8PM) > diurnal_rate(_MONDAY_NOON) > diurnal_rate(_MONDAY_4AM)

    def test_night_owl_flatter(self):
        casual_night = diurnal_rate(_MONDAY_4AM, night_owl=False)
        owl_night = diurnal_rate(_MONDAY_4AM, night_owl=True)
        assert owl_night > casual_night

    def test_weekend_quieter(self):
        assert weekly_factor(_SATURDAY) < weekly_factor(_MONDAY_NOON)
        # Saturday is the quietest day (§7.1).
        factors = [weekly_factor(day * 86400.0) for day in range(7)]
        assert min(factors) == weekly_factor(_SATURDAY)

    def test_activity_rate_scales(self):
        assert activity_rate(_MONDAY_8PM, 2.0) == 2 * activity_rate(_MONDAY_8PM, 1.0)

    def test_expected_views_integrates(self):
        total = expected_views(0.0, 86400.0, 1.0)
        assert 0.0 < total < 86400.0
        # More base rate, more views.
        assert expected_views(0.0, 86400.0, 2.0) > total


class TestPopulation:
    def test_deterministic(self):
        a = generate_population(PopulationConfig(n_households=20, seed=1))
        b = generate_population(PopulationConfig(n_households=20, seed=1))
        assert [d.user_agent for h in a for d in h.devices] == [
            d.user_agent for h in b for d in h.devices
        ]

    def test_every_household_has_devices_and_unique_ip(self):
        households = generate_population(PopulationConfig(n_households=50, seed=2))
        ips = [h.ip for h in households]
        assert len(set(ips)) == len(ips)
        assert all(h.devices for h in households)

    def test_ua_strings_parse_to_declared_family(self):
        households = generate_population(PopulationConfig(n_households=80, seed=3))
        for household in households:
            for device in household.devices:
                info = parse_user_agent(device.user_agent)
                if device.is_browser:
                    assert info.family == device.family, device.user_agent
                else:
                    assert not info.is_browser, device.user_agent

    def test_abp_penetration_household_correlated(self):
        config = PopulationConfig(n_households=400, seed=4)
        households = generate_population(config)
        adopting = [h for h in households if h.has_abp_device]
        share = len(adopting) / len(households)
        # Every adopting household has >= 1 ABP browser by construction;
        # the share tracks household_abp_rate.
        assert abs(share - config.household_abp_rate) < 0.08

    def test_abp_configurations(self):
        households = generate_population(PopulationConfig(n_households=400, seed=5))
        abp_devices = [
            d for h in households for d in h.devices if d.profile.has_abp
        ]
        assert abp_devices
        with_ep = sum(1 for d in abp_devices if "easyprivacy" in d.profile.abp_lists)
        with_aa = sum(1 for d in abp_devices if "acceptable_ads" in d.profile.abp_lists)
        assert 0.04 < with_ep / len(abp_devices) < 0.25  # ~13%
        assert 0.70 < with_aa / len(abp_devices) < 0.95  # ~85% keep AA

    def test_browser_family_mix(self):
        households = generate_population(PopulationConfig(n_households=400, seed=6))
        families = Counter(
            d.family for h in households for d in h.devices if d.is_browser
        )
        total = sum(families.values())
        assert families[BrowserFamily.FIREFOX] / total > families[BrowserFamily.IE] / total


class TestRttModel:
    def test_stable_per_server(self):
        model = RttModel(seed=1)
        assert model.base_rtt_ms("1.2.3.4") == model.base_rtt_ms("1.2.3.4")

    def test_different_servers_differ(self):
        model = RttModel(seed=1)
        values = {model.base_rtt_ms(f"10.0.0.{i}") for i in range(30)}
        assert len(values) > 10

    def test_handshake_jitter_around_base(self):
        model = RttModel(seed=1)
        rng = random.Random(2)
        base = model.base_rtt_ms("5.5.5.5")
        for _ in range(50):
            sample = model.handshake_ms("5.5.5.5", rng)
            assert 0.9 * base < sample < 1.2 * base


class TestCapture:
    def test_abp_server_ips(self, ecosystem):
        ips = abp_server_ips(ecosystem)
        assert len(ips) == len(set(ABP_UPDATE_HOSTS))

    def test_download_clients(self, ecosystem):
        ips = abp_server_ips(ecosystem)
        abp_ip = next(iter(ips))
        tls = [
            TlsConnectionRecord(ts=1.0, client="10.0.0.1", server=abp_ip),
            TlsConnectionRecord(ts=2.0, client="10.0.0.2", server="9.9.9.9"),
        ]
        assert easylist_download_clients(tls, ips) == {"10.0.0.1"}

    def test_capture_stats(self, rbn_trace, rbn_generator):
        stats = capture_stats(rbn_trace, subscribers=rbn_generator.subscribers)
        assert stats.http_requests == len(rbn_trace.http)
        assert stats.http_bytes > stats.http_requests  # headers counted
        assert 0 < stats.duration_hours <= 7


class TestUaCollisions:
    def test_collisions_merge_pairs(self):
        config = PopulationConfig(n_households=300, seed=8, ua_collision_share=0.5)
        households = generate_population(config)
        collided = 0
        for household in households:
            uas = [d.user_agent for d in household.devices if d.is_browser]
            collided += len(uas) - len(set(uas))
        assert collided > 0

    def test_collisions_can_mix_profiles(self):
        """The interesting case: one pair, two devices, only one ABP —
        the paper's type-B mechanism."""
        config = PopulationConfig(
            n_households=600, seed=9, ua_collision_share=0.5, household_abp_rate=0.6
        )
        households = generate_population(config)
        mixed = 0
        for household in households:
            by_ua: dict[str, set[bool]] = {}
            for device in household.devices:
                if device.is_browser:
                    by_ua.setdefault(device.user_agent, set()).add(device.profile.has_abp)
            mixed += sum(1 for values in by_ua.values() if len(values) == 2)
        assert mixed > 0

    def test_zero_collision_share(self):
        config = PopulationConfig(n_households=200, seed=8, ua_collision_share=0.0)
        households = generate_population(config)
        collided = total = 0
        for household in households:
            uas = [d.user_agent for d in household.devices if d.is_browser]
            collided += len(uas) - len(set(uas))
            total += len(uas)
        # Accidental same-build collisions exist but must be rare
        # compared to the engineered share.
        assert collided / total < 0.03
