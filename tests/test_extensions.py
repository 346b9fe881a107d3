"""Tests for the extension modules: list evolution and page views."""

from __future__ import annotations

from repro.core.pageviews import attribution_accuracy, page_view_stats
from repro.filterlist.evolution import ChurnRates, evolve, staleness_series


class TestEvolution:
    def test_deterministic(self, lists):
        a = evolve(lists["easylist"], steps=3)
        b = evolve(lists["easylist"], steps=3)
        assert [f.text for f in a.filters] == [f.text for f in b.filters]

    def test_version_bumped(self, lists):
        evolved = evolve(lists["easylist"], steps=2)
        assert evolved.version.endswith("+2")
        assert evolved.name == "easylist"

    def test_churn_removes_and_adds(self, lists):
        original = lists["easylist"]
        evolved = evolve(original, steps=5, rates=ChurnRates(removed=0.1, added=0.1))
        original_texts = {f.text for f in original.filters if not f.is_exception}
        evolved_texts = {f.text for f in evolved.filters if not f.is_exception}
        assert original_texts - evolved_texts, "nothing was removed"
        assert evolved_texts - original_texts, "nothing was added"

    def test_exceptions_preserved(self, lists):
        original = lists["easylist"]
        evolved = evolve(original, steps=10, rates=ChurnRates(removed=0.2))
        original_exceptions = {f.text for f in original.filters if f.is_exception}
        evolved_exceptions = {f.text for f in evolved.filters if f.is_exception}
        assert original_exceptions <= evolved_exceptions

    def test_all_rules_still_parse(self, lists):
        evolved = evolve(lists["easylist"], steps=8)
        # Every filter object exists and compiled (regex attribute).
        for filter_ in evolved.filters:
            assert filter_.regex is not None

    def test_staleness_series(self, lists):
        series = staleness_series(lists["easylist"], max_steps=3)
        assert [steps for steps, _ in series] == [0, 1, 2, 3]
        assert series[0][1] is lists["easylist"]

    def test_staleness_degrades_recall(self, ecosystem, lists, rbn_trace):
        """Classifying with a heavily diverged list misses ads."""
        from repro.core import AdClassificationPipeline, grade_classification

        sample = rbn_trace.http[:20_000]
        truths = rbn_trace.truth[:20_000]

        fresh = AdClassificationPipeline(lists).process(sample)
        stale_lists = dict(lists)
        stale_lists["easylist"] = evolve(
            lists["easylist"], steps=12, rates=ChurnRates(removed=0.15, added=0.05)
        )
        stale = AdClassificationPipeline(stale_lists).process(sample)

        fresh_matrix = grade_classification(fresh, truths)
        stale_matrix = grade_classification(stale, truths)
        assert stale_matrix.recall < fresh_matrix.recall


class TestPageViews:
    def test_stats_shape(self, classified):
        stats = page_view_stats(classified)
        assert stats.n_requests == len(classified)
        assert 0 < stats.n_pages <= stats.n_requests
        assert stats.n_users > 0
        assert stats.mean_requests_per_page > 1.0

    def test_attribution_accuracy(self, classified, rbn_trace):
        accuracy = attribution_accuracy(classified, rbn_trace.truth)
        assert accuracy.graded > 0
        # The referrer map must recover page context for matching
        # semantics: same-site attribution well above 90%.
        assert accuracy.same_site > 0.9
        assert accuracy.exact > 0.7
        assert accuracy.exact <= accuracy.same_site
        assert "exact" in accuracy.summary

    def test_no_referrer_map_destroys_attribution(self, lists, rbn_trace):
        from repro.core import AdClassificationPipeline, PipelineConfig

        sample = rbn_trace.http[:10_000]
        truths = rbn_trace.truth[:10_000]
        entries = AdClassificationPipeline(
            lists, PipelineConfig(use_referrer_map=False)
        ).process(sample)
        accuracy = attribution_accuracy(entries, truths)
        baseline = attribution_accuracy(
            AdClassificationPipeline(lists).process(sample), truths
        )
        assert accuracy.exact < baseline.exact
