"""Merge laws for every ``merge_state()`` (DESIGN.md §10).

The pool's parent folds per-shard health counters and (for ``report``)
traffic accumulators from their exports, so each ``merge_state`` must
behave like a commutative, associative monoid action on exported
snapshots.  Every field is a sum, and no output reads a dict's
insertion order: the health summary orders reasons by
``(-count, reason)`` and Table 4 its rows by ``(-ad_requests, mime)``,
so the same entries folded in any order print the same tables.
Classifier state is never merged: each shard feeds the whole stream to
its own classifier, and the last test checks that the shards' released
entries re-interleave into exactly the serial output.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traffic import TrafficAccumulator
from repro.core.pipeline import StreamingClassifier
from repro.http.log import shard_of
from repro.robustness.health import PipelineHealth
from repro.robustness.runstate import classification_row

# ---------------------------------------------------------------------------
# Strategies: exported-state snapshots, built from primitives


counts = st.integers(min_value=0, max_value=10_000)
names = st.text(alphabet="abcdefgh/.-", min_size=1, max_size=8)
count_maps = st.dictionaries(names, st.integers(min_value=1, max_value=100), max_size=4)

health_states = st.fixed_dictionaries(
    {
        "records_seen": counts,
        "records_ok": counts,
        "records_dropped": counts,
        "records_quarantined": counts,
        "records_repaired": counts,
        "records_reordered": counts,
        "stage_errors": st.dictionaries(names, count_maps, max_size=3),
    }
)

traffic_states = st.fixed_dictionaries(
    {
        "total_requests": counts,
        "total_bytes": counts,
        "ad_requests": counts,
        "ad_bytes": counts,
        "by_list": count_maps,
        "ad_requests_by_mime": count_maps,
        "ad_bytes_by_mime": count_maps,
        "nonad_requests_by_mime": count_maps,
        "nonad_bytes_by_mime": count_maps,
    }
)


# ---------------------------------------------------------------------------
# The generic laws, parameterized over (fresh-instance, export, merge)


MERGEABLES = {
    "health": (
        PipelineHealth,
        lambda obj: obj.export_state(),
        health_states,
    ),
    "traffic": (
        TrafficAccumulator,
        lambda obj: obj.export_state(),
        traffic_states,
    ),
}


def _fold(fresh, states):
    obj = fresh()
    for state in states:
        obj.merge_state(state)
    return obj


@pytest.mark.parametrize("kind", sorted(MERGEABLES))
class TestMergeLaws:
    def _bind(self, kind):
        return MERGEABLES[kind]

    def test_identity(self, kind):
        fresh, export, strategy = self._bind(kind)

        @settings(max_examples=50, deadline=None)
        @given(state=strategy)
        def law(state):
            merged = _fold(fresh, [state])
            assert export(merged) == state
            # Folding a fresh instance's own export is a no-op.
            merged.merge_state(export(fresh()))
            assert export(merged) == state

        law()

    def test_commutativity(self, kind):
        fresh, export, strategy = self._bind(kind)

        @settings(max_examples=50, deadline=None)
        @given(a=strategy, b=strategy)
        def law(a, b):
            assert export(_fold(fresh, [a, b])) == export(_fold(fresh, [b, a]))

        law()

    def test_associativity(self, kind):
        fresh, export, strategy = self._bind(kind)

        @settings(max_examples=50, deadline=None)
        @given(a=strategy, b=strategy, c=strategy)
        def law(a, b, c):
            flat = _fold(fresh, [a, b, c])
            nested = _fold(fresh, [export(_fold(fresh, [a, b])), c])
            assert export(flat) == export(nested)

        law()


# ---------------------------------------------------------------------------
# Class-specific semantics the generic laws cannot express


def test_health_summary_is_fold_order_insensitive():
    a = PipelineHealth()
    a.record_error("read_log", "bad-value")
    a.record_error("read_log", "field-count")
    b = PipelineHealth()
    b.record_error("read_log", "field-count")

    ab = PipelineHealth()
    ab.merge_state(a.export_state())
    ab.merge_state(b.export_state())
    ba = PipelineHealth()
    ba.merge_state(b.export_state())
    ba.merge_state(a.export_state())
    assert ab.summary() == ba.summary()
    # Equal counts tie-break by reason name, not insertion order.
    assert ab.summary().index("bad-value") > ab.summary().index("field-count")


def _tied_entries(classified, *, mimes=4, per_mime=2):
    """``per_mime`` ad entries of each of ``mimes`` Content-Types, so
    every Table 4 row ties, plus as many non-ad entries."""
    by_mime: dict[str, list] = {}
    for entry in classified:
        if entry.is_ad:
            chosen = by_mime.setdefault(entry.record.content_type or "-", [])
            if len(chosen) < per_mime:
                chosen.append(entry)
    ads = [
        entry for chosen in by_mime.values() if len(chosen) == per_mime for entry in chosen
    ][: mimes * per_mime]
    assert len(ads) == mimes * per_mime
    return ads + [entry for entry in classified if not entry.is_ad][: len(ads)]


def test_table4_is_fold_order_insensitive(classified):
    entries = _tied_entries(classified)
    in_order = TrafficAccumulator()
    for entry in entries:
        in_order.add(entry)
    expected = in_order.content_type_rows()

    def fold(part):
        accumulator = TrafficAccumulator()
        for entry in part:
            accumulator.add(entry)
        return accumulator

    @settings(max_examples=50, deadline=None)
    @given(shuffled=st.permutations(entries), cut=st.integers(0, len(entries)))
    def law(shuffled, cut):
        assert fold(shuffled).content_type_rows() == expected
        a, b = fold(shuffled[:cut]).export_state(), fold(shuffled[cut:]).export_state()
        assert _fold(TrafficAccumulator, [a, b]).content_type_rows() == expected
        assert _fold(TrafficAccumulator, [b, a]).content_type_rows() == expected

    law()
    # Equal counts tie-break by MIME name, not insertion order.
    tied = TrafficAccumulator(ad_requests=2, ad_requests_by_mime={"text/html": 1, "image/gif": 1})
    assert [row.content_type for row in tied.content_type_rows()] == ["image/gif", "text/html"]


# ---------------------------------------------------------------------------
# StreamingClassifier: shards fed the whole stream reproduce the serial run


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("drain_every", [None, 8])
def test_classifier_shard_fold_equals_serial_state(
    pipeline, rbn_trace, workers, drain_every
):
    """W classifiers, each fed every record with ``owned`` set for its
    shard's users, release entries that interleave by ``entry.index``
    into exactly the serial classifier's output — with and without the
    reorder buffer, over a jittered (out-of-order) stream, whether the
    caller drains every ``drain_every`` records or never."""
    rng = random.Random(5)
    records = [
        dataclasses.replace(record, ts=record.ts + rng.uniform(0.0, 3.0))
        for record in rbn_trace.http[:600]
    ]
    owners = [shard_of(record.client, record.user_agent or "", workers) for record in records]

    def run(classifier, owned):
        released = []
        for count, (record, mine) in enumerate(zip(records, owned), 1):
            classifier.feed(record, mine)
            if drain_every and count % drain_every == 0:
                released.extend(classifier.drain())
        released.extend(classifier.finish())
        return released

    for reorder_window in (None, 5.0):
        serial_health = PipelineHealth()
        serial = StreamingClassifier(
            pipeline, reorder_window=reorder_window, health=serial_health
        )
        expected = sorted(run(serial, [True] * len(records)), key=lambda entry: entry.index)

        healths = [PipelineHealth() for _ in range(workers)]
        released = []
        for shard_id, health in enumerate(healths):
            shard = StreamingClassifier(
                pipeline, reorder_window=reorder_window, health=health
            )
            released.extend(run(shard, [owner == shard_id for owner in owners]))
            assert shard.next_index == len(records)

        released.sort(key=lambda entry: entry.index)
        assert [entry.index for entry in released] == [entry.index for entry in expected]
        assert [classification_row(entry) for entry in released] == [
            classification_row(entry) for entry in expected
        ]
        assert sum(health.records_reordered for health in healths) == (
            serial_health.records_reordered
        )
        if reorder_window is not None:
            assert serial_health.records_reordered > 0
