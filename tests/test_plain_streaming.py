"""A plain run releases each entry once it settles and still writes the
bytes of ``process()`` (DESIGN.md §8).

The oracle is ``classification_row`` over ``pipeline.process()`` (or, for
`usage` and `report`, ``aggregate_users`` / ``TrafficAccumulator`` folded
over it in order), run on the records read back from the same file.
Each synthetic case puts a redirect source where its row can only land
late: a fix-up that reaches back past a durable run's window, a redirect
never resolved, one replaced by a second redirect to the same target,
one evicted by the pending cap or by ``max_users``.  `repro usage` and
`repro report` must print what an in-order run of the same loop prints.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.traffic import TrafficAccumulator
from repro.cli import main
from repro.core import aggregate_users
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import AdClassificationPipeline, StreamingClassifier
from repro.filterlist.lists import FilterList
from repro.http.log import HttpLogRecord, SeekableLogReader, write_log
from repro.http.url import split_url
from repro.robustness import runstate as runstate_module
from repro.robustness.runstate import (
    DURABLE_FIXUP_WINDOW,
    ClassifySink,
    TrafficSink,
    UserStatsSink,
    classification_row,
    run_serial,
)

# A redirect through the click URL is an ad only once the fix-up has
# given it its target's IMAGE type.
_LIST = "/adserver/click$image\n/banner.gif\n"
_PAGE = "http://news.example/story.html"
_TAB_PAGE = "http://news.example/a\tb.html"  # written as %09, read back as a TAB


def _record(url, *, ts, mime, location=None, client="10.0.0.1", referrer=_PAGE):
    parts = split_url(url)
    return HttpLogRecord(
        ts=ts, client=client, server="101.0.0.1", method="GET",
        host=parts.host, uri=parts.path_and_query or "/",
        referrer=referrer, user_agent="UA", status=302 if location else 200,
        content_type=mime, content_length=100, location=location,
        tcp_handshake_ms=10.0, http_handshake_ms=12.0, flow_id=1,
    )


class _Trace:
    """Records in time order, one ts step apart."""

    def __init__(self):
        self.records: list[HttpLogRecord] = []

    def add(self, url, mime="application/javascript", **kwargs) -> int:
        self.records.append(_record(url, ts=float(len(self.records)), mime=mime, **kwargs))
        return len(self.records) - 1

    def page(self, url=_PAGE, **kwargs) -> int:
        return self.add(url, "text/html", referrer=None, **kwargs)

    def redirect(self, target, n=1, **kwargs) -> int:
        return self.add(f"http://r.example/adserver/click?id={n}", "text/html",
                        location=target, **kwargs)

    def target(self, target, **kwargs) -> int:
        return self.add(target, "image/gif", **kwargs)

    def filler(self, count, **kwargs) -> None:
        for _ in range(count):
            self.add(f"http://cdn.example/f{len(self.records)}.js", **kwargs)


def _fixup_beyond_the_window():
    trace = _Trace()
    trace.page()
    source = trace.redirect("http://t.example/x.gif")
    trace.filler(DURABLE_FIXUP_WINDOW + 500)
    trace.target("http://t.example/x.gif")
    return trace.records, {"ad": [source]}


def _never_resolved():
    trace = _Trace()
    trace.page()
    source = trace.redirect("http://t.example/gone.gif")
    trace.filler(50)
    return trace.records, {"not_ad": [source]}


def _same_location_twice():
    trace = _Trace()
    trace.page()
    first = trace.redirect("http://t.example/x.gif", 1)
    trace.filler(3)
    second = trace.redirect("http://t.example/x.gif", 2)
    trace.filler(3)
    trace.target("http://t.example/x.gif")
    trace.filler(3)
    return trace.records, {"not_ad": [first], "ad": [second]}


def _pending_cap_eviction():
    trace = _Trace()
    trace.page()
    sources = [trace.redirect(f"http://t.example/{n}.gif", n) for n in range(3)]
    trace.filler(5)
    for n in range(3):
        trace.target(f"http://t.example/{n}.gif")
        trace.filler(2)
    # The cap is 2: registering the third redirect evicts the first.
    return trace.records, {"not_ad": sources[:1], "ad": sources[1:]}


def _user_eviction():
    trace = _Trace()
    trace.page()
    source = trace.redirect("http://t.example/x.gif")
    trace.filler(3)
    trace.page("http://other.example/", client="10.0.0.2")  # max_users=1 evicts 10.0.0.1
    trace.filler(3, client="10.0.0.2")
    trace.target("http://t.example/x.gif")
    return trace.records, {"not_ad": [source]}


def _field_needs_encoding():
    trace = _Trace()
    trace.page(_TAB_PAGE)
    source = trace.redirect("http://t.example/x.gif", referrer=_TAB_PAGE)
    trace.filler(5, referrer=_TAB_PAGE)
    trace.target("http://t.example/x.gif", referrer=_TAB_PAGE)
    return trace.records, {"ad": [source]}


CASES = {
    "fixup-reaches-past-the-durable-window": (_fixup_beyond_the_window, {}),
    "redirect-never-resolved": (_never_resolved, {}),
    "two-redirects-to-one-location": (_same_location_twice, {}),
    "pending-cap-eviction": (_pending_cap_eviction, {}),
    "max-users-eviction": (_user_eviction, {"max_users": 1}),
    "row-needs-encode-field": (_field_needs_encoding, {}),
}


@pytest.fixture()
def small_pipeline():
    return AdClassificationPipeline({"easylist": FilterList.from_text(_LIST, "easylist")})


@pytest.fixture()
def watch_held(monkeypatch):
    """Check after every record that the classifier holds no entry but
    the pending redirect sources; the fixture's value counts the checks."""
    checks = []
    feed = StreamingClassifier.feed

    def checked_feed(self, record, owned=True):
        released = feed(self, record, owned)
        if self.release_settled:  # the plain run's classifier, not the oracle's
            pending = sum(len(state.pending_type_fixup) for state in self.users.values())
            assert len(self.buffer) <= pending
            checks.append(len(self.buffer))
        return released

    monkeypatch.setattr(StreamingClassifier, "feed", checked_feed)
    return checks


def _write_trace(tmp_path, records) -> str:
    path = tmp_path / "trace.tsv"
    with open(path, "w", encoding="utf-8") as stream:
        write_log(records, stream)
    return str(path)


def _read_back(path) -> list[HttpLogRecord]:
    with SeekableLogReader(path) as reader:
        return list(reader)


def _oracle_bytes(entries) -> bytes:
    rows = "".join(classification_row(entry) + "\n" for entry in entries)
    return (ClassifySink.HEADER + rows).encode("utf-8")


def _plain_classify(tmp_path, trace, pipeline, **kwargs) -> tuple[bytes, ClassifySink]:
    out = tmp_path / "out.tsv"
    sink = ClassifySink(final_path=str(out))
    run_serial(trace, pipeline, sink, **kwargs)
    assert not (tmp_path / "out.tsv.part").exists()
    return out.read_bytes(), sink


@pytest.mark.parametrize("case", sorted(CASES))
def test_plain_classify_is_byte_identical_to_process(case, tmp_path, monkeypatch,
                                                     small_pipeline, watch_held):
    monkeypatch.setattr(pipeline_module, "_MAX_PENDING_FIXUPS", 2)
    build, kwargs = CASES[case]
    records, expect = build()
    trace = _write_trace(tmp_path, records)
    entries = small_pipeline.process(_read_back(trace), **kwargs)
    # The case is live: each source's fix-up fired, or could not.
    assert [entries[i].is_ad for i in expect.get("ad", [])] == [True] * len(expect.get("ad", []))
    assert not any(entries[i].is_ad for i in expect.get("not_ad", []))

    output, _ = _plain_classify(tmp_path, trace, small_pipeline, **kwargs)
    assert output == _oracle_bytes(entries)
    assert watch_held and max(watch_held) >= 1  # a source was held, and only those


def test_the_encoded_row_is_one_of_the_late_ones(tmp_path, small_pipeline):
    records, expect = _field_needs_encoding()
    trace = _write_trace(tmp_path, records)
    (source,) = expect["ad"]
    output, sink = _plain_classify(tmp_path, trace, small_pipeline)
    assert "%09" in output.decode("utf-8").splitlines()[1 + source]
    assert sink.total == len(records)


def _jittered(records, seed=42):
    rng = random.Random(seed)
    return sorted(records, key=lambda record: record.ts + rng.uniform(-1.0, 1.0))


def test_rbn_trace_with_a_reorder_window(tmp_path, pipeline, rbn_trace, watch_held):
    trace = _write_trace(tmp_path, _jittered(sorted(rbn_trace.http[:20000], key=lambda r: r.ts)))
    entries = pipeline.process(_read_back(trace), reorder_window=2.0)
    output, _ = _plain_classify(tmp_path, trace, pipeline, reorder_window=2.0)
    assert output == _oracle_bytes(entries)
    assert max(watch_held) < 100  # the pending sources, not the run


def test_counters_without_an_output_file(tmp_path, pipeline, rbn_trace):
    trace = _write_trace(tmp_path, rbn_trace.http)
    entries = pipeline.process(_read_back(trace))
    sink = ClassifySink()
    run_serial(trace, pipeline, sink)
    assert (sink.total, sink.ads, sink.whitelisted) == (
        len(entries),
        sum(entry.is_ad for entry in entries),
        sum(entry.is_whitelisted for entry in entries),
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "trace.tsv"]


# -- usage and report: the fold's dict order is output -----------------------


def _late_first_touch():
    """Index 0 is user A's redirect source and the first ``text/html``
    ad; it settles only at index 2, after user B's ``image/gif`` ad at
    index 1.  Folded as they arrive, B and ``image/gif`` would come
    first; Table 4's tie-break and the usage table's user order would
    change with them."""
    trace = _Trace()
    trace.redirect("http://t.example/x.gif", referrer=None)
    trace.add("http://ads.example/banner.gif", "image/gif", client="10.0.0.2", referrer=None)
    trace.target("http://t.example/x.gif", referrer=None)
    return trace.records


def _traffic_fold(accumulator: TrafficAccumulator) -> str:
    return json.dumps(accumulator.export_state())  # keeps each dict's order


@pytest.mark.parametrize("source", ["rbn", "late-first-touch"])
def test_usage_and_report_folds_match_the_in_order_fold(source, tmp_path, pipeline,
                                                        small_pipeline, rbn_trace):
    records, chosen = (
        (rbn_trace.http, pipeline) if source == "rbn" else (_late_first_touch(), small_pipeline)
    )
    trace = _write_trace(tmp_path, records)
    entries = chosen.process(_read_back(trace))
    in_order = TrafficAccumulator()
    for entry in entries:
        in_order.add(entry)

    users, traffic = UserStatsSink(), TrafficSink()
    run_serial(trace, chosen, users)
    run_serial(trace, chosen, traffic)

    assert users._order.late and traffic._order.late  # entries did arrive out of order
    assert list(users.stats.items()) == list(aggregate_users(entries).items())
    assert (users.total, users.total_ads) == (len(entries), sum(e.is_ad for e in entries))
    assert _traffic_fold(traffic.accumulator) == _traffic_fold(in_order)
    assert traffic.accumulator.content_type_rows() == in_order.content_type_rows()
    if source == "late-first-touch":
        assert list(users.stats) == [("10.0.0.1", "UA"), ("10.0.0.2", "UA")]
        assert list(in_order.ad_requests_by_mime) == ["text/html", "image/gif"]


_CLI_ECO = ["--publishers", "80", "--eco-seed", "99"]


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plain-cli")
    http_path, tls_path = tmp / "trace.tsv", tmp / "tls.tsv"
    assert main(["trace", *_CLI_ECO, "--preset", "rbn2", "--scale", "0.0005",
                 "--out", str(http_path), "--tls-out", str(tls_path)]) == 0
    return http_path, tls_path


@pytest.mark.parametrize("command", ["usage", "report"])
def test_usage_and_report_print_what_an_in_order_run_prints(command, cli_trace, capsys,
                                                            monkeypatch):
    http_path, tls_path = cli_trace
    argv = [command, *_CLI_ECO, "--trace", str(http_path)]
    if command == "usage":
        argv += ["--tls", str(tls_path), "--min-requests", "50"]
    late = []
    note = runstate_module._FoldOrder.note

    def watched_note(self, index, keys):
        late.append(index < self.next_index)
        note(self, index, keys)

    monkeypatch.setattr(runstate_module._FoldOrder, "note", watched_note)
    assert main(argv) == 0
    settled = capsys.readouterr().out
    assert any(late)

    init = StreamingClassifier.__init__

    def in_order_init(self, *args, **kwargs):
        init(self, *args, **{**kwargs, "release_settled": False})

    monkeypatch.setattr(StreamingClassifier, "__init__", in_order_init)
    assert main(argv) == 0
    assert capsys.readouterr().out == settled
