"""Grade the referrer map's horizon (DESIGN.md §5, ``referrer_horizon_s``).

The map forgets a URL between H/2 and H trace seconds after its last
use.  This bench classifies the RBN-1 and RBN-2 analogues and the
Vanilla crawl under H ∈ {60 s, 300 s, 1800 s, ∞} and grades page
attribution (exact and same-site) and blacklist precision/recall
against the generator's ground truth.  The default horizon must grade
like ∞ to four decimals; it is the smallest of the grid that does.
"""

from __future__ import annotations

from conftest import write_result

from repro.analysis.report import render_table
from repro.core import AdClassificationPipeline, PipelineConfig
from repro.core.pageviews import attribution_accuracy
from repro.core.validation import grade_classification

HORIZONS = (60.0, 300.0, 1800.0, None)


def _graded(lists, horizon, records, truths) -> tuple[tuple[str, ...], list[str]]:
    """The four grades to four decimals, and every request's page."""
    pipeline = AdClassificationPipeline(lists, PipelineConfig(referrer_horizon_s=horizon))
    entries = pipeline.process(records)
    attribution = attribution_accuracy(entries, truths)
    matrix = grade_classification(entries, truths)
    grades = tuple(
        f"{value:.4f}"
        for value in (attribution.exact, attribution.same_site, matrix.precision, matrix.recall)
    )
    return grades, [entry.page_url for entry in entries]


def test_referrer_horizon_grid(benchmark, rbn1, rbn2, crawl, lists, results_dir):
    traces = {
        "RBN-1": (rbn1[1].http, rbn1[1].truth),
        "RBN-2": (rbn2[1].http, rbn2[1].truth),
        "crawl (Vanilla)": (crawl["Vanilla"].records.http, crawl["Vanilla"].records.truth),
    }
    rows, grades = [], {}
    for name, (records, truths) in traces.items():
        pages = {}
        for horizon in HORIZONS:
            grades[name, horizon], pages[horizon] = _graded(lists, horizon, records, truths)
        for horizon in HORIZONS:
            exact, same_site, precision, recall = grades[name, horizon]
            rows.append({
                "trace": name,
                "records": len(records),
                "H": "∞" if horizon is None else f"{horizon:g} s",
                "exact": exact,
                "same-site": same_site,
                "precision": precision,
                "recall": recall,
                "pages ≠ ∞": sum(a != b for a, b in zip(pages[horizon], pages[None])),
            })
    text = render_table(rows, title="Referrer-map horizon grid")
    write_result(results_dir, "referrer_horizon.txt", text)
    print(text)

    # The benchmark clock measures the default horizon on RBN-2.
    default = AdClassificationPipeline(lists)
    benchmark.pedantic(default.process, args=(traces["RBN-2"][0],), rounds=1, iterations=1)

    smallest = next(
        horizon
        for horizon in HORIZONS
        if all(grades[name, horizon] == grades[name, None] for name in traces)
    )
    assert default.config.referrer_horizon_s == smallest
