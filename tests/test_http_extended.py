"""Extended HTTP substrate tests: HTTP/1.0 bodies, parser fuzzing,
streaming pipeline equivalence, NAT UA collisions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import StreamingClassifier
from repro.http.parser import HttpParseError, parse_response_stream


class TestReadUntilClose:
    def test_http10_body_to_eof(self):
        data = (
            b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n"
            b"body-without-length-running-to-eof"
        )
        responses = parse_response_stream(data)
        assert len(responses) == 1
        assert responses[0].body_length == len(b"body-without-length-running-to-eof")

    def test_connection_close_body_to_eof(self):
        data = (
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"
            b"everything here is body GET /fake HTTP/1.1\r\n\r\n"
        )
        responses = parse_response_stream(data)
        assert len(responses) == 1  # the fake request line is body

    def test_content_length_beats_until_close(self):
        data = (
            b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\nbody"
            b"HTTP/1.0 404 NF\r\nContent-Length: 0\r\n\r\n"
        )
        responses = parse_response_stream(data)
        assert [r.status for r in responses] == [200, 404]

    def test_head_still_bodyless(self):
        data = b"HTTP/1.0 200 OK\r\n\r\n"
        responses = parse_response_stream(data, ["HEAD"])
        assert responses[0].body_length == 0


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_response_parser_total(self, data):
        """Random bytes either parse or raise HttpParseError — never
        anything else, never hang."""
        try:
            parse_response_stream(data)
        except HttpParseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_request_parser_total(self, data):
        from repro.http.parser import parse_request_stream

        try:
            parse_request_stream(data)
        except HttpParseError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(prefix=st.binary(max_size=32))
    def test_valid_message_with_garbage_prefix_rejected(self, prefix):
        data = prefix + b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
        try:
            responses = parse_response_stream(data)
            # If it parsed, the garbage must have been header-shaped.
            assert all(isinstance(r.status, int) for r in responses)
        except HttpParseError:
            pass


class TestStreamingPipeline:
    def test_drained_entries_match_process(self, pipeline, rbn_trace):
        sample = rbn_trace.http[:8000]
        batch = pipeline.process(sample)
        classifier = StreamingClassifier(pipeline)
        streamed = []
        for record in sample:
            classifier.feed(record)
            streamed.extend(classifier.drain())
        streamed.extend(classifier.finish())
        streamed.sort(key=lambda entry: entry.index)
        assert len(streamed) == len(batch)
        for a, b in zip(batch, streamed):
            assert a.record is b.record
            assert a.page_url == b.page_url
            assert a.is_ad == b.is_ad
            assert a.blacklist_name == b.blacklist_name

    def test_drain_is_lazy(self, pipeline, rbn_trace):
        classifier = StreamingClassifier(pipeline)
        records = iter(rbn_trace.http[:5000])
        first: list = []
        while not first:
            classifier.feed(next(records))
            first = classifier.drain()
        assert first[0].record is rbn_trace.http[0]

    def test_unbounded_window(self, pipeline, rbn_trace):
        """A caller that never drains gets the whole run from finish()."""
        sample = rbn_trace.http[:2000]
        classifier = StreamingClassifier(pipeline, fixup_window=None)
        for record in sample:
            classifier.feed(record)
        assert len(classifier.finish()) == len(sample)
        with pytest.raises(TypeError, match="fixup_window"):
            StreamingClassifier(pipeline, fixup_window=1024)


class TestUaCollisions:
    def test_collisions_merge_pairs(self):
        from repro.trace.population import PopulationConfig, generate_population

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
        from repro.trace.population import PopulationConfig, generate_population

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
        from repro.trace.population import PopulationConfig, generate_population

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
