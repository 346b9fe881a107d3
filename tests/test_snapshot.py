"""Snapshot format: round-trip identity, fault injection, exit discipline.

The contract under test (DESIGN.md §15): a ``repro compile-lists``
artifact either restores the *exact* engine that was compiled, or the
load raises a typed :class:`SnapshotError` — storage damage, version
skew and identity drift are all *detected*, never deserialized into a
silently different matcher.  :class:`ByteCorruptor` provides the
seeded storage pathologies (the binary sibling of the TSV trace
corruptor).
"""

from __future__ import annotations

import pathlib
import struct

import pytest

from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.cache import CachingEngine
from repro.filterlist.engine import (
    SNAPSHOT_STATE_VERSION,
    FilterEngine,
    RequestContext,
    fingerprint_of_filters,
    tokenize_url,
)
from repro.filterlist.filter import Filter
from repro.filterlist.options import ContentType
from repro.filterlist.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotFingerprintMismatch,
    SnapshotVersionError,
    inspect_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.robustness import CheckpointError, CheckpointStore
from repro.serve.reload import EngineSource
from repro.trace.corruption import BYTE_PATHOLOGIES, ByteCorruptor

_FILTERS = {
    "easylist": [
        "||ads.example^$third-party",
        "/adserver/*",
        "&ad_slot=",
        "/banners/*$image",
        "@@||ads.example/player/",
        "@@||news.example^$document",
    ],
    "easyprivacy": ["/pixel.gif?", "/track.js$script"],
}

_PROBES = [
    ("http://ads.example/creative/1.gif", ContentType.IMAGE, "http://news.example/"),
    ("http://ads.example/player/core.js", ContentType.SCRIPT, "http://news.example/"),
    ("http://pub.example/adserver/x", ContentType.OTHER, "http://pub.example/"),
    ("http://t.example/pixel.gif?uid=1", ContentType.IMAGE, "http://news.example/"),
    ("http://clean.example/index.html", ContentType.DOCUMENT, "http://clean.example/"),
]


def _engine() -> FilterEngine:
    engine = FilterEngine()
    for name, texts in _FILTERS.items():
        engine.add_filters([Filter.parse(t) for t in texts], list_name=name)
    return engine


def _decisions(engine) -> list[tuple]:
    out = []
    for url, content_type, page in _PROBES:
        context = RequestContext(content_type, page)
        result = engine.match(url, context)
        out.append((
            result.decision,
            result.blocking_filter.text if result.blocking_filter else None,
            result.list_name,
            result.whitelist_name,
        ))
    return out


@pytest.fixture()
def snapshot_path(tmp_path) -> str:
    path = str(tmp_path / "engine.snap")
    write_snapshot(path, _engine(), lists_fingerprint="abcd1234", source="unit")
    return path


class TestRoundTrip:
    def test_restored_engine_is_decision_identical(self, snapshot_path, forbid_engine_compile):
        base = _engine()
        loaded = load_snapshot(snapshot_path)
        assert loaded.engine.fingerprint == base.fingerprint
        assert loaded.engine.filter_count == base.filter_count
        assert loaded.engine.list_names == base.list_names
        # Filter equality covers text, kind, pattern, list and option set.
        assert loaded.engine.iter_filters() == base.iter_filters()
        forbid_engine_compile()  # restored means ready: no request compiles
        assert _decisions(loaded.engine) == _decisions(base)

    @pytest.mark.parametrize(
        "kind", [FilterEngine, ACTrieEngine], ids=["buckets", "actrie"]
    )
    def test_every_matcher_restores(self, snapshot_path, kind):
        """The oracle class restores the state ``load_snapshot`` hands
        the production class."""
        state = load_snapshot(snapshot_path).engine.export_snapshot_state()
        restored = kind.restore_snapshot_state(state)
        assert type(restored) is kind
        assert _decisions(restored) == _decisions(_engine())

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.snap"), str(tmp_path / "b.snap")
        write_snapshot(a, _engine(), lists_fingerprint="ff", source="x")
        write_snapshot(b, _engine(), lists_fingerprint="ff", source="x")
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()

    def test_inspect_reports_metadata_without_engine(self, snapshot_path):
        info = inspect_snapshot(snapshot_path)
        assert info.state_version == SNAPSHOT_STATE_VERSION
        assert info.lists_fingerprint == "abcd1234"
        assert info.source == "unit"
        assert info.filter_count == 8
        assert info.list_names == ("easylist", "easyprivacy")
        assert info.fingerprint == _engine().fingerprint

    def test_missing_file_raises_file_not_found(self, tmp_path):
        # Not SnapshotCorrupt: a missing artifact is a missing input
        # (exit 2), not storage damage (exit 6).
        with pytest.raises(FileNotFoundError):
            load_snapshot(str(tmp_path / "nope.snap"))

    def test_surrogate_bearing_filter_text_round_trips(self, tmp_path):
        # A list read with surrogateescape can hand the engine a lone
        # surrogate; the fingerprint already hashes it with "replace",
        # and the JSON payload must carry it through unchanged.
        text = "/ad\udcff/banner"
        engine = FilterEngine()
        engine.add_filters([Filter.parse(text), Filter.parse("/caf\u00e9/")], list_name="odd")
        path = str(tmp_path / "odd.snap")
        write_snapshot(path, engine)
        restored = load_snapshot(path).engine
        assert [f.text for f in restored.iter_filters()] == [
            f.text for f in engine.iter_filters()
        ]
        assert restored.fingerprint == engine.fingerprint
        context = RequestContext(ContentType.IMAGE, "http://pub.example/")
        assert restored.match("http://x.example/ad\udcff/banner", context).is_blocked


class TestLazyVerificationRegexes:
    """Restoring compiles the ACTrie index, not 5,000 filter regexes:
    a filter's pattern compiles when a request first reaches its bucket."""

    @staticmethod
    def _list_scale_engine() -> FilterEngine:
        lines = []
        for i in range(1200):
            lines += [
                f"||ads{i}.net{i % 53}.example^$third-party",
                f"/banner{i}/*$image",
                f"&slot{i}=",
                f"||cdn{i}.example/static{i % 7}/",
                f"@@||ok{i}.net{i % 53}.example^",
            ]
        lines += ["||shared.example^", "/banner7/*.gif", "@@||shared.example/ok/", "ad*x", "@@*y*z"]
        engine = FilterEngine()
        engine.add_filters([Filter.parse(line) for line in lines], list_name="generated")
        return engine

    @staticmethod
    def _compiled(engine) -> set[int]:
        return {id(f) for f in engine.iter_filters() if f._regex is not None}  # noqa: SLF001

    def test_restore_compiles_on_first_touch_only(self, tmp_path, forbid_engine_compile):
        path = str(tmp_path / "big.snap")
        cold = self._list_scale_engine()
        assert cold.filter_count >= 5000
        write_snapshot(path, cold)
        engine = load_snapshot(path).engine
        forbid_engine_compile()  # the index is compiled; only patterns are deferred
        tail = {
            id(f)
            for index in (engine._blocking, engine._exceptions)  # noqa: SLF001
            for f in index._keywordless  # noqa: SLF001
        }
        assert tail and self._compiled(engine) <= tail

        url = "http://ads7.shared.example/banner7/x.gif?slot9=1"
        context = RequestContext(ContentType.IMAGE, "http://news.example/")
        got = engine.classify(url, context)
        consulted = set(tail)
        for index in (engine._blocking, engine._exceptions):  # noqa: SLF001
            consulted.update(id(f) for f in index._by_host.get("shared.example", ()))  # noqa: SLF001
            for token in tokenize_url(url):
                consulted.update(id(f) for f in index._by_keyword.get(token, ()))  # noqa: SLF001
        compiled = self._compiled(engine)
        assert compiled - tail, "the request searched no bucketed filter"
        assert compiled <= consulted
        assert len(compiled) < 20

        want = cold.classify(url, context)
        assert want.blacklist_filter is not None
        for attr in ("blacklist_filter", "whitelist_filter"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert (a and (a.text, a.list_name)) == (b and (b.text, b.list_name))
        assert got.blacklist_lists == want.blacklist_lists


class TestFaultInjection:
    """Every storage pathology is detected, never a wrong decision."""

    @pytest.mark.parametrize(
        "artifact, seed, pathology",
        [
            pytest.param(artifact, seed, pathology, id=f"{prefix}{seed}-{pathology}")
            for artifact, prefix in (("snapshot", ""), ("checkpoint", "checkpoint-"))
            for seed in (1, 1337, 9009)
            for pathology in BYTE_PATHOLOGIES
        ],
    )
    def test_byte_damage_is_detected(self, snapshot_path, tmp_path, artifact, seed, pathology):
        """Snapshots and checkpoints share one container, so the same
        damage is detected in both; a checkpoint store then falls back
        to the older generation."""
        if artifact == "snapshot":
            ByteCorruptor(seed=seed).corrupt_file(snapshot_path, snapshot_path, pathology)
            with pytest.raises(SnapshotError):
                load_snapshot(snapshot_path)
            return
        store = CheckpointStore(tmp_path / "ckpt")
        state = {"records_fed": 500, "max_ts": float("-inf"), "rows": [[1.5, "a\nb", None]] * 40}
        store.save(state)
        newest = store.save({**state, "records_fed": 1000})
        path = store.path_for(newest.generation)
        ByteCorruptor(seed=seed).corrupt_file(path, path, pathology)
        with pytest.raises(CheckpointError):
            store.load(newest.generation)
        assert store.latest().payload == state

    def test_damage_never_reaches_decisions(self, snapshot_path, tmp_path):
        """Exhaustive single-bit flips over a prefix: detect or refuse,
        and on the rare undetected-header flip never diverge silently."""
        clean = pathlib.Path(snapshot_path).read_bytes()
        expected = _decisions(_engine())
        damaged_path = tmp_path / "damaged.snap"
        for position in range(0, min(len(clean), 256)):
            for bit in range(8):
                damaged = bytearray(clean)
                damaged[position] ^= 1 << bit
                damaged_path.write_bytes(bytes(damaged))
                try:
                    loaded = load_snapshot(str(damaged_path))
                except SnapshotError:
                    continue
                # A flip inside the stored *digest or length* that still
                # validates is impossible; anything that loads must be
                # decision-identical.
                assert _decisions(loaded.engine) == expected, (position, bit)

    def test_truncated_header(self, snapshot_path):
        data = pathlib.Path(snapshot_path).read_bytes()
        pathlib.Path(snapshot_path).write_bytes(data[:10])
        with pytest.raises(SnapshotCorrupt, match="truncated header"):
            load_snapshot(snapshot_path)

    def test_bad_magic(self, snapshot_path):
        data = bytearray(pathlib.Path(snapshot_path).read_bytes())
        data[:8] = b"NOTASNAP"
        pathlib.Path(snapshot_path).write_bytes(bytes(data))
        with pytest.raises(SnapshotCorrupt, match="bad magic"):
            load_snapshot(snapshot_path)

    def test_version_bump_is_a_version_error(self, snapshot_path):
        data = bytearray(pathlib.Path(snapshot_path).read_bytes())
        data[8] = 99  # container version field (little-endian u32 after magic)
        pathlib.Path(snapshot_path).write_bytes(bytes(data))
        with pytest.raises(SnapshotVersionError, match="unsupported snapshot version"):
            load_snapshot(snapshot_path)

    def test_v1_pickle_era_header_is_a_version_error(self, snapshot_path):
        # A snapshot written before the JSON payload (container version
        # 1) is version skew like any other: refused before a payload
        # byte is read, never unpickled.
        assert SNAPSHOT_VERSION == 2
        data = pathlib.Path(snapshot_path).read_bytes()
        v1 = data[:8] + struct.pack("<I", 1) + data[12:]
        pathlib.Path(snapshot_path).write_bytes(v1)
        with pytest.raises(SnapshotVersionError, match="unsupported snapshot version 1"):
            load_snapshot(snapshot_path)
        with pytest.raises(SnapshotVersionError):
            inspect_snapshot(snapshot_path)

    def test_fingerprint_mismatch_is_identity_not_damage(self, snapshot_path):
        expected = "0" * 64
        with pytest.raises(SnapshotFingerprintMismatch) as excinfo:
            load_snapshot(snapshot_path, expected_fingerprint=expected)
        assert excinfo.value.expected == expected
        assert excinfo.value.actual == _engine().fingerprint
        # and the matching pin loads fine
        load_snapshot(snapshot_path, expected_fingerprint=_engine().fingerprint)


class TestFingerprintOfFilters:
    """The manifest-side fingerprint replays the engine's hash chain."""

    def test_matches_engine_fingerprint(self):
        groups = [
            (name, [Filter.parse(t) for t in texts])
            for name, texts in _FILTERS.items()
        ]
        assert fingerprint_of_filters(groups) == _engine().fingerprint

    def test_order_and_content_sensitivity(self):
        groups = [("easylist", [Filter.parse("/ad/")])]
        base = fingerprint_of_filters(groups)
        assert fingerprint_of_filters([("easylist", [Filter.parse("/ads/")])]) != base
        assert fingerprint_of_filters([("other", [Filter.parse("/ad/")])]) != base


class TestCachingEngineStaleFingerprintWindow:
    """Satellite 3: mutation after a snapshot load must not replay
    decisions keyed to the pre-mutation fingerprint."""

    def test_add_filters_rekeys_cache(self, snapshot_path):
        caching = CachingEngine(load_snapshot(snapshot_path).engine)
        context = RequestContext(ContentType.IMAGE, "http://pub.example/")
        url = "http://late.example/sneaky.gif"
        assert caching.match(url, context).decision == "none"
        caching.add_filters([Filter.parse("||late.example^")], list_name="update")
        assert caching.match(url, context).decision == "block"

    def test_partial_add_failure_still_invalidates(self, snapshot_path):
        class ExplodingEngine(FilterEngine):
            def add_filters(self, filters, list_name=None):
                super().add_filters(filters, list_name)
                raise RuntimeError("mid-add crash after state mutation")

        state = load_snapshot(snapshot_path).engine.export_snapshot_state()
        engine = ExplodingEngine.restore_snapshot_state(state)
        caching = CachingEngine(engine)
        context = RequestContext(ContentType.IMAGE, "http://pub.example/")
        url = "http://late.example/sneaky.gif"
        assert caching.match(url, context).decision == "none"  # warm the cache
        with pytest.raises(RuntimeError):
            caching.add_filters([Filter.parse("||late.example^")], list_name="update")
        # The engine mutated before raising; a stale cache would replay
        # the memoized "none" here.
        assert caching.match(url, context).decision == "block"

    def test_add_after_restore_matches_cold_build(self, snapshot_path):
        """Appending to a restored engine lands in the same buckets a
        cold build would use — restored ``_keyword_counts`` keep the
        rarest-keyword choice stable."""
        restored = load_snapshot(snapshot_path).engine
        extra = ["/promo/*$script", "||extra.example^"]
        restored.add_filters([Filter.parse(t) for t in extra], list_name="update")
        cold = _engine()
        cold.add_filters([Filter.parse(t) for t in extra], list_name="update")
        assert restored.fingerprint == cold.fingerprint
        probes = _PROBES + [
            ("http://extra.example/x.gif", ContentType.IMAGE, "http://news.example/"),
            ("http://pub.example/promo/a.js", ContentType.SCRIPT, "http://news.example/"),
        ]
        for url, content_type, page in probes:
            context = RequestContext(content_type, page)
            assert (
                restored.match(url, context).decision
                == cold.match(url, context).decision
            ), url


class TestEngineSourceSnapshotMode:
    """`repro serve --engine-snapshot`: snapshot-backed build and reload."""

    def test_builds_compiled_production_engine(self, snapshot_path, forbid_engine_compile):
        engine = EngineSource(snapshot_path=snapshot_path).build()
        assert isinstance(engine, ACTrieEngine) and engine.is_compiled
        forbid_engine_compile()
        assert _decisions(engine) == _decisions(_engine())

    def test_describe_reports_snapshot_mode(self, snapshot_path):
        description = EngineSource(snapshot_path=snapshot_path).describe()
        assert description == {"mode": "snapshot", "path": snapshot_path}

    def test_snapshot_and_lists_are_exclusive(self, snapshot_path, tmp_path):
        lists = tmp_path / "list.txt"
        lists.write_text("/ad/\n")
        with pytest.raises(ValueError, match="mutually exclusive"):
            EngineSource(snapshot_path=snapshot_path, list_paths=[str(lists)])

    def test_corrupt_snapshot_fails_the_build(self, snapshot_path):
        ByteCorruptor().corrupt_file(snapshot_path, snapshot_path, "bitflip")
        source = EngineSource(snapshot_path=snapshot_path)
        with pytest.raises(SnapshotError):
            source.build()


class TestByteCorruptor:
    def test_deterministic_under_seed(self):
        data = bytes(range(256)) * 4
        for pathology in BYTE_PATHOLOGIES:
            a = ByteCorruptor(seed=7).corrupt(data, pathology)
            b = ByteCorruptor(seed=7).corrupt(data, pathology)
            assert a == b
            assert a != data

    def test_unknown_pathology_rejected(self):
        with pytest.raises(ValueError, match="unknown byte pathology"):
            ByteCorruptor().corrupt(b"x", "gamma_ray")
