"""Golden decision corpus: committed inputs, committed decisions.

``tests/golden/decisions/`` pins the *decision layer* the way
``tests/golden/`` pins the full pipeline: the committed inputs are a
sampled slice of the golden RBN-2 trace plus an EasyList-style subset
(every 2nd rule of the ecosystem lists), and ``decisions.tsv`` is the
expected per-request verdict — decision, blocking filter text, list
attribution, whitelist attribution.  Any drift in parsing, bucketing,
option semantics or the matcher shows up as a line diff here, and the
oracle (``buckets``), the production engine (``actrie``) and a snapshot
round-trip into the production engine (``snapshot``) must all reproduce
the same golden bytes.

After a *deliberate* decision-layer change, regenerate with

    pytest tests/test_golden_decisions.py --update-golden

The filter subset and the trace are never regenerated; they are the
fixed inputs that keep the expectations comparable across commits.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.content_type import infer_content_type
from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.parser import parse_list_text
from repro.filterlist.snapshot import load_snapshot, write_snapshot
from repro.http.log import read_log
from repro.robustness import ErrorPolicy

DECISIONS = pathlib.Path(__file__).parent / "golden" / "decisions"
TRACE = pathlib.Path(__file__).parent / "golden" / "trace.tsv"
EXPECTED = DECISIONS / "decisions.tsv"

_LIST_FILES = ("easylist.txt", "easyprivacy.txt", "acceptable_ads.txt")
_SAMPLE_EVERY = 7  # every 7th parseable trace record → ~250 probes

_HEADER = "url\tcontent_type\tpage\tdecision\tfilter\tlist\twhitelist\n"


def _build_engine(engine) -> None:
    for filename in _LIST_FILES:
        parsed = parse_list_text(
            (DECISIONS / filename).read_text(), name=filename.removesuffix(".txt")
        )
        engine.add_filters(parsed.filters, list_name=parsed.name)


def _workload() -> list[tuple[str, RequestContext]]:
    with TRACE.open() as stream:
        records = list(read_log(stream, on_error=ErrorPolicy.SKIP))
    workload = []
    for record in records[:: _SAMPLE_EVERY]:
        content_type = infer_content_type(record.url, record.content_type)
        page = record.referrer or ""
        workload.append((record.url, RequestContext(content_type, page)))
    return workload


def _decision_rows(engine) -> bytes:
    rows = [_HEADER]
    for url, context in _workload():
        result = engine.match(url, context)
        rows.append(
            "\t".join(
                (
                    url,
                    context.content_type.name or str(context.content_type),
                    context.page_url or "-",
                    result.decision,
                    result.blocking_filter.text if result.blocking_filter else "-",
                    result.list_name or "-",
                    result.whitelist_name or "-",
                )
            )
            + "\n"
        )
    return "".join(rows).encode("utf-8")


def _engines(tmp_path):
    buckets = FilterEngine()
    actrie = ACTrieEngine()
    for engine in (buckets, actrie):
        _build_engine(engine)
    snapshot = str(tmp_path / "golden.snap")
    write_snapshot(snapshot, buckets)
    return {
        "buckets": buckets,
        "actrie": actrie,
        "snapshot": load_snapshot(snapshot).engine,
    }


def test_update_golden_decisions(request, tmp_path):
    """Regenerates decisions.tsv when --update-golden is given."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("pass --update-golden to regenerate expectations")
    EXPECTED.write_bytes(_decision_rows(_engines(tmp_path)["buckets"]))


def test_corpus_is_nontrivial(tmp_path):
    """The sampled slice must exercise all three verdicts, or the gate
    is vacuous."""
    body = _decision_rows(_engines(tmp_path)["buckets"]).decode("utf-8")
    decisions = {line.split("\t")[3] for line in body.splitlines()[1:]}
    assert decisions == {"none", "block", "whitelist"}


@pytest.mark.parametrize("backend", ["buckets", "actrie", "snapshot"])
def test_decisions_match_golden(backend, tmp_path):
    engines = _engines(tmp_path)
    assert _decision_rows(engines[backend]) == EXPECTED.read_bytes(), (
        f"decision corpus drifted under the {backend} backend — if the "
        "change is intentional, rerun with --update-golden and review the diff"
    )
