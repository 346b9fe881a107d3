"""Every run releases each entry once it settles and still writes the
bytes of ``process()`` (DESIGN.md §8).

The oracle is ``classification_row`` over ``pipeline.process()`` (or, for
`usage` and `report`, ``aggregate_users`` / ``TrafficAccumulator`` folded
over it in order), run on the records read back from the same file.
Each synthetic case puts a redirect source where its row can only land
late: a fix-up that reaches back 1,524 rows, a redirect
never resolved, one replaced by a second redirect to the same target,
one whose consequent comes after the referrer horizon, one whose user
is idle for three horizons (an idle user hands its sources on and is
dropped, and comes back).  `repro usage` and `repro report` must print
what an in-order run of the same loop prints.
Durable runs — serial, cut while a source waits, crashed and resumed,
pooled — and plain pool runs must write the same bytes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.analysis.traffic import TrafficAccumulator
from repro.cli import main
from repro.core import aggregate_users
from repro.core.pipeline import AdClassificationPipeline, StreamingClassifier
from repro.filterlist.lists import FilterList
from repro.http.log import HttpLogRecord, SeekableLogReader, shard_of, write_log
from repro.http.url import split_url
from repro.parallel import ParallelRun
from repro.robustness import runstate as runstate_module
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.crash import CrashInjector, CrashMode, InjectedCrash
from repro.robustness.runstate import (
    Checkpointing,
    ClassifySink,
    RunManifest,
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
    """Records in time order, ``step`` seconds apart."""

    def __init__(self, step=1.0):
        self.records: list[HttpLogRecord] = []
        self.step = step

    def add(self, url, mime="application/javascript", **kwargs) -> int:
        ts = len(self.records) * self.step
        self.records.append(_record(url, ts=ts, mime=mime, **kwargs))
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


def _horizon() -> int:
    return int(AdClassificationPipeline(_small_lists()).config.referrer_horizon_s)


def _fixup_beyond_the_window():
    trace = _Trace(step=0.02)  # 1,526 records within the horizon
    trace.page()
    source = trace.redirect("http://t.example/x.gif")
    trace.filler(1024 + 500)  # past the window durable runs once had
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


def _source_outlives_the_horizon():
    """An active user's first source waits two horizons for its target
    and settles by age with the type it had; its second source's target
    comes within one and repairs it."""
    horizon = _horizon()
    trace = _Trace()
    trace.page()
    stale = trace.redirect("http://t.example/late.gif", 1)
    trace.filler(2 * horizon)
    fresh = trace.redirect("http://t.example/soon.gif", 2)
    trace.target("http://t.example/late.gif")
    trace.filler(horizon // 2)
    trace.target("http://t.example/soon.gif")
    return trace.records, {"not_ad": [stale], "ad": [fresh]}


def _idle_user_hands_its_source_on():
    """10.0.0.1 leaves a redirect source waiting and is silent for three
    referrer horizons while 10.0.0.2 drives the clock; 10.0.0.3 is as
    idle with nothing waiting.  Both are dropped, 10.0.0.1 handing its
    source on, and both come back: the target no longer repairs it."""
    idle_page = "http://idle.example/"
    trace = _Trace()
    trace.page()
    source = trace.redirect("http://t.example/x.gif")
    trace.page(idle_page, client="10.0.0.3")
    trace.filler(3 * _horizon(), client="10.0.0.2")
    trace.add(f"{idle_page}back.js", client="10.0.0.3", referrer=idle_page)
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
    "source-outlives-the-horizon": (_source_outlives_the_horizon, {}),
    "idle-user-hands-its-source-on": (_idle_user_hands_its_source_on, {}),
    "row-needs-encode-field": (_field_needs_encoding, {}),
}


def _small_lists():
    return {"easylist": FilterList.from_text(_LIST, "easylist")}


@pytest.fixture()
def small_pipeline():
    return AdClassificationPipeline(_small_lists())


def _waiting(classifier) -> list:
    """The redirect sources a classifier holds, over all its users."""
    return [
        source
        for state in classifier.users.values()
        for source in state.pending_type_fixup.values()
    ]


@pytest.fixture()
def watch_held(monkeypatch):
    """Check after every record the run loop feeds that its classifier
    holds no entry but the waiting redirect sources, none older than the
    horizon at the clock's last tick, and what settled since the last
    drain; the fixture's value counts the sources held."""
    checks = []

    class Watched(StreamingClassifier):
        def feed(self, record, owned=True):
            super().feed(record, owned)
            waiting = _waiting(self)
            oldest_kept = (self._epoch - 2) * self._epoch_s
            assert all(source.record.ts >= oldest_kept for source in waiting)
            # A batch and a burst of reorder pops, not the run.
            assert len(self._settled) < 1000
            checks.append(len(waiting))

    monkeypatch.setattr(runstate_module, "StreamingClassifier", Watched)
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
def test_plain_classify_is_byte_identical_to_process(case, tmp_path, small_pipeline,
                                                     watch_held):
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


def test_an_idle_user_hands_its_sources_on_and_leaves(small_pipeline):
    records, expect = _idle_user_hands_its_source_on()
    (source,) = expect["not_ad"]
    classifier = StreamingClassifier(small_pipeline)
    handed = []
    for record in records[:-2]:  # up to 10.0.0.3's return
        classifier.feed(record)
        handed += [entry.index for entry in classifier.drain()]
    assert sorted(client for client, _ in classifier.users) == ["10.0.0.2"]
    assert source in handed and not _waiting(classifier)


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


# -- usage and report: the folds do not depend on arrival order --------------


def _late_first_touch():
    """Index 0 is user A's redirect source and the first ``text/html``
    ad; it settles only at index 2, after user B's ``image/gif`` ad at
    index 1, so the sinks see B and ``image/gif`` first.  The two MIME
    types tie in Table 4, which breaks the tie by name."""
    trace = _Trace()
    trace.redirect("http://t.example/x.gif", referrer=None)
    trace.add("http://ads.example/banner.gif", "image/gif", client="10.0.0.2", referrer=None)
    trace.target("http://t.example/x.gif", referrer=None)
    return trace.records


def _came_late(indexes) -> bool:
    """Whether an index arrived after a higher one."""
    newest = itertools.accumulate(indexes, max)
    return any(index < high for index, high in zip(indexes[1:], newest))


@pytest.fixture()
def noted(monkeypatch):
    """The indexes each fold sink is handed, in arrival order."""
    noted = {}
    for sink_class in (UserStatsSink, TrafficSink):

        def watched_consume(self, entry, consume=sink_class.consume):
            noted.setdefault(id(self), []).append(entry.index)
            consume(self, entry)

        monkeypatch.setattr(sink_class, "consume", watched_consume)
    return noted


@pytest.mark.parametrize("source", ["rbn", "late-first-touch"])
def test_usage_and_report_folds_match_the_in_order_fold(source, tmp_path, pipeline,
                                                        small_pipeline, rbn_trace, noted):
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

    # Entries did arrive out of order.
    assert _came_late(noted[id(users)]) and _came_late(noted[id(traffic)])
    assert users.stats == aggregate_users(entries)
    assert (users.total, users.total_ads) == (len(entries), sum(e.is_ad for e in entries))
    assert traffic.accumulator.export_state() == in_order.export_state()
    assert traffic.accumulator.content_type_rows() == in_order.content_type_rows()
    if source == "late-first-touch":
        rows = traffic.accumulator.content_type_rows()
        assert [row.content_type for row in rows] == ["image/gif", "text/html"]


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
                                                            monkeypatch, noted):
    http_path, tls_path = cli_trace
    argv = [command, *_CLI_ECO, "--trace", str(http_path)]
    if command == "usage":
        argv += ["--tls", str(tls_path), "--min-requests", "50"]
    assert main(argv) == 0
    settled = capsys.readouterr().out
    assert any(_came_late(indexes) for indexes in noted.values())

    # A loop that never drains gets every entry from finish(), in order.
    monkeypatch.setattr(StreamingClassifier, "drain", lambda self: [])
    assert main(argv) == 0
    assert capsys.readouterr().out == settled


# -- durable and pool runs write the same bytes -------------------------------


_IDLE_USER, _FILLER = "10.0.0.2", "10.0.0.3"  # 10.0.0.1 is the default client


def _across_horizons():
    """Five half horizons of traffic, one record a second, the clock
    ticking every half horizon (DESIGN.md §5).  10.0.0.1 leaves a
    redirect source waiting past the cut at the first tick, which settles
    by age before its target comes, and a script
    whose URL, after that tick, resolves only from the previous
    generation; 10.0.0.2 is idle across two ticks, then comes back to a
    referer the second one forgot, and last sends a record that arrives
    after a later record from the next epoch; the filler user 10.0.0.3
    makes every tick, on another shard than 10.0.0.2 under two workers
    and under four.  Returns the records, the checkpoint interval (the
    first cut falls right after the first tick) and the record indexes
    whose page the horizon decides."""
    tick = int(AdClassificationPipeline(_small_lists()).config.referrer_horizon_s / 2)
    idle_page, idle_child = "http://idle.example/", "http://idle.example/k.js"
    script, back = "http://cdn.example/s.js", "http://idle.example/back.js"
    special = {
        0: dict(url=_PAGE, mime="text/html", referrer=None),
        1: dict(url=idle_page, mime="text/html", referrer=None, client=_IDLE_USER),
        2: dict(url=idle_child, referrer=idle_page, client=_IDLE_USER),
        3: dict(url="http://r.example/adserver/click?id=1", mime="text/html",
                location="http://t.example/x.gif"),
        20: dict(url=script),
        tick + 5: dict(url="http://ads.example/pixel.gif", mime="image/gif", referrer=script),
        2 * tick + 2: dict(url=back, referrer=idle_child, client=_IDLE_USER),
        3 * tick + 10: dict(url="http://t.example/x.gif", mime="image/gif"),
        4 * tick - 1: dict(url="http://cdn.example/early.js", client=_FILLER, ts=4 * tick),
        4 * tick: dict(url="http://idle.example/late.js", referrer=back, client=_IDLE_USER,
                       ts=4 * tick - 0.5),
    }
    records = []
    for second in range(5 * tick):
        fields = special.get(second, {"client": _FILLER} if second % 10 == 0 else {})
        records.append(_record(
            fields.get("url", f"http://cdn.example/f{second}.js"),
            ts=float(fields.get("ts", second)),
            mime=fields.get("mime", "application/javascript"),
            location=fields.get("location"),
            client=fields.get("client", "10.0.0.1"),
            referrer=fields.get("referrer", _PAGE),
        ))
    decided = {"from-previous": tick + 5, "came-back": 2 * tick + 2,
               "after-a-later-epoch": 4 * tick}
    return records, tick + 1, decided


def _first_cut(records, pipeline, every, *, after_a_late_row) -> int:
    """The first checkpoint cut at which a redirect source still waits
    and, with ``after_a_late_row``, a late entry was already handed on."""
    classifier, newest, late = StreamingClassifier(pipeline), -1, False
    for count, record in enumerate(records, 1):
        classifier.feed(record)
        for entry in classifier.drain():
            late = late or entry.index < newest
            newest = max(newest, entry.index)
        if count % every == 0 and _waiting(classifier) and (late or not after_a_late_row):
            return count
    raise AssertionError("no such cut")


def _checkpointing(directory, command, lists, trace, out=None, *, every, resume=False,
                   crash_after=None) -> Checkpointing:
    manifest = RunManifest.build(command=command, params={}, lists=lists, input_path=trace,
                                 output_path=out, quarantine_path=None)
    return Checkpointing(
        directory=str(directory), manifest=manifest, every=every, resume=resume,
        crash_injector=CrashInjector(crash_after, mode=CrashMode.RAISE) if crash_after else None,
    )


@pytest.mark.parametrize(
    "source",
    ["fixup-reaches-1524-rows-back", "rbn-usage-trace", "across-referrer-horizons",
     "idle-user-hands-its-source-on"],
)
def test_durable_and_pool_runs_write_the_bytes_of_process(source, tmp_path, pipeline, lists,
                                                          small_pipeline, rbn_trace):
    # The tail case's only late row comes after the last cut.
    rbn = source == "rbn-usage-trace"
    if rbn:
        records, chosen, chosen_lists, every = rbn_trace.http, pipeline, lists, 1000
    elif source == "across-referrer-horizons":
        records, every, decided = _across_horizons()
        chosen, chosen_lists = small_pipeline, _small_lists()
    elif source == "idle-user-hands-its-source-on":
        # The first cut falls between the idle users' last requests and
        # their drop, which hands 10.0.0.1's source on after the resume.
        records, chosen, chosen_lists, every = _idle_user_hands_its_source_on()[0], \
            small_pipeline, _small_lists(), 50
    else:
        records, chosen, chosen_lists, every = _fixup_beyond_the_window()[0], small_pipeline, \
            _small_lists(), 500
    trace = _write_trace(tmp_path, records)
    read_back = _read_back(trace)
    entries = chosen.process(read_back)
    expected = _oracle_bytes(entries)
    cut = _first_cut(read_back, chosen, every, after_a_late_row=rbn)
    crash_after = cut + every // 2
    assert crash_after < len(read_back)
    if source == "across-referrer-horizons":
        # The case is live: the horizon, not the whole history, decides
        # these pages (the referer's own page if forgotten).
        pages = {name: entries[index].page_url for name, index in decided.items()}
        assert pages == {"from-previous": _PAGE, "came-back": "http://idle.example/k.js",
                         "after-a-later-epoch": "http://idle.example/back.js"}
        for workers in (2, 4):
            idle, filler = (shard_of(client, "UA", workers) for client in (_IDLE_USER, _FILLER))
            assert idle != filler

    def classify(name, *, workers=None, durable=True, **kwargs) -> bytes:
        directory, out = tmp_path / name, str(tmp_path / f"{name}.tsv")
        checkpointing = part = None
        if durable:
            checkpointing = _checkpointing(directory, "classify", chosen_lists, trace, out,
                                           every=every, **kwargs)
            part = str(directory / "output.part")
        sink = ClassifySink(part_path=part, final_path=out)
        if workers is None:
            run_serial(trace, chosen, sink, checkpointing=checkpointing)
        else:
            ParallelRun(workers=workers, input_path=trace, pipeline=chosen, sink=sink,
                        checkpointing=checkpointing).run()
        with open(out, "rb") as stream:
            return stream.read()

    assert classify("durable") == expected
    for workers in (None, 2):
        name = f"crashed-{workers}"
        with pytest.raises(InjectedCrash):
            classify(name, workers=workers, crash_after=crash_after)
        if workers is None:
            # The cut the run resumes from holds a waiting source, and
            # the sink a gap where its row goes (and a filled one).
            payload = CheckpointStore(str(tmp_path / name)).latest().payload
            assert payload["records_fed"] == cut
            waiting = [index for _, _, sources in payload["classifier"]["users"]
                       for _, index, *_ in sources]
            assert waiting and payload["sink"]["gaps"]
            if source in ("across-referrer-horizons", "idle-user-hands-its-source-on"):
                # It settles by age after the cut: its target comes too
                # late to make it an ad.
                assert not any(entries[index].is_ad for index in waiting)
            assert bool(payload["sink"]["late"]) == rbn
            if source == "across-referrer-horizons":
                # Cut right after the first tick: the script is only in
                # the previous generation of 10.0.0.1's map.
                assert payload["classifier"]["epoch"] == 1
                (referrers,) = [m for user, m, _ in payload["classifier"]["users"]
                                if user[0] == "10.0.0.1"]
                current, previous = referrers["page_root"]
                script = "http://cdn.example/s.js"
                assert script in dict(previous) and script not in dict(current)
        assert classify(name, workers=workers, resume=True) == expected
    assert classify("durable-pool-2", workers=2) == expected
    assert classify("durable-pool-4", workers=4) == expected
    assert classify("plain-pool-2", workers=2, durable=False) == expected


def test_durable_usage_and_report_resume_to_the_in_order_fold(tmp_path, pipeline, lists,
                                                              rbn_trace):
    trace = _write_trace(tmp_path, rbn_trace.http)
    read_back = _read_back(trace)
    entries = pipeline.process(read_back)
    in_order = TrafficAccumulator()
    for entry in entries:
        in_order.add(entry)
    every = 1000
    crash_after = _first_cut(read_back, pipeline, every, after_a_late_row=True) + every // 2
    assert crash_after < len(read_back)

    def durable(sink, name, **kwargs):
        checkpointing = _checkpointing(tmp_path / name, name, lists, trace, every=every,
                                       **kwargs)
        run_serial(trace, pipeline, sink, checkpointing=checkpointing)
        return sink

    for name, make in (("usage", UserStatsSink), ("report", TrafficSink)):
        with pytest.raises(InjectedCrash):
            durable(make(), name, crash_after=crash_after)
        payload = CheckpointStore(str(tmp_path / name)).latest().payload
        assert "order" not in payload["sink"]  # counters only: the fold is order-free
        resumed = durable(make(), name, resume=True)
        if name == "usage":
            assert resumed.stats == aggregate_users(entries)
        else:
            assert resumed.accumulator.export_state() == in_order.export_state()


def test_classify_sink_places_late_rows_and_drops_replays(tmp_path):
    """The pool's index-aware write: a gap handed over below the
    frontier takes its late row, a replayed row that fills no gap is
    dropped, and a gap that never fills refuses the publish."""
    out = tmp_path / "out.tsv"
    sink = ClassifySink(final_path=str(out))
    sink.begin(fresh=True, state=None)
    sink.consume_row(0, "r0", True, False)
    sink.advance(3)  # 1 and 2 wait for late rows
    sink.consume_row(4, "r4", False, True)
    sink.advance(5)  # 3 is a gap too
    for index, row in ((2, "r2"), (0, "r0"), (2, "r2"), (1, "r1"), (3, "r3")):
        sink.consume_row(index, row, False, False)
    with pytest.raises(AssertionError, match="two different rows"):
        sink.consume_row(3, "other", False, False)
    assert (sink.total, sink.ads, sink.whitelisted) == (5, 1, 1)
    sink.finalize()
    assert out.read_text() == ClassifySink.HEADER + "r0\nr1\nr2\nr3\nr4\n"

    sink = ClassifySink(final_path=str(out))
    sink.begin(fresh=True, state=None)
    sink.consume_row(0, "r0", False, False)
    sink.advance(2)
    with pytest.raises(AssertionError, match="never delivered: \\[1\\]"):
        sink.finalize()
    sink.close()
    assert not (tmp_path / "out.tsv.part").exists()


def test_classify_sink_writes_held_rows_in_index_order(tmp_path):
    """Rows handed over out of order above the frontier are held, and
    :meth:`advance` writes them in index order; a publish refuses while
    a row is still held above the frontier."""
    out = tmp_path / "out.tsv"
    sink = ClassifySink(final_path=str(out))
    sink.begin(fresh=True, state=None)
    for index in (3, 1, 0, 2, 5, 4):
        sink.consume_row(index, f"r{index}", index == 1, False)
    sink.advance(4)
    assert sink.total == 4 and sink.ads == 1  # 4 and 5 are held, not counted
    with pytest.raises(AssertionError, match="held above the frontier 4: \\[4, 5\\]"):
        sink.finalize()
    sink.advance(6)
    sink.finalize()
    assert out.read_text() == ClassifySink.HEADER + "".join(f"r{i}\n" for i in range(6))
    assert sink.total == 6


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
