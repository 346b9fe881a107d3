"""The traced pass: per-layer metrics, one layer = one module of the program.

Calls into each module's *public* functions are timed from here, inside
spans; nothing inside the program is instrumented.  Outside timing cannot
nest inside ``StreamingClassifier.feed``, so each child layer of the fold
is timed by replaying its argument stream — recovered from the fold's
``ClassifiedRequest`` entries — into that layer's public function with
cold caches; the fold's self time is its span minus those children.

A layer that does no work on a workload (text decode on a binlog trace,
the daemon on a batch workload) is not measured there and reads 0.
"""

from __future__ import annotations

import asyncio
import filecmp
import json
import os
import statistics
import subprocess
import sys
import time

from e2e import (
    Daemon,
    E2EResult,
    check_cli,
    engine_args,
    first_decision,
    load_payloads,
    run_cli,
    verify_replies,
)
from loadgen import Connection, closed_loop, open_loop
from spans import SpanRecorder
from stats import percentile, samples_beyond
from workloads import POOL_WORKERS, SERVE_BATCH, SERVE_CONNECTIONS, Workload

__all__ = ["run_traced"]

HERE = os.path.dirname(os.path.abspath(__file__))
#: Open-loop rates of the traced pass; 2000 req/s is the reference rate.
RATES = (1000, 2000, 3500)
REFERENCE_RATE = 2000
#: ``serve.max_rate_rps``: the highest rate whose p99 stays within this limit.
P99_LIMIT_MS = 5.0
#: Processes per start-up figure (``cli.startup_s``, ``cli.ready_s``); their median is reported.
CLI_SAMPLES = 3
WARMUP_S = 0.5


def run_traced(workload: Workload, seed: int, work: str, env: dict[str, str],
               seconds: float, out_dir: str) -> E2EResult:
    src = env["PYTHONPATH"].split(os.pathsep)[0]
    if src not in sys.path:
        sys.path.insert(0, src)  # the layers are called in this process
    recorder = SpanRecorder(workload.name)
    result = E2EResult()
    walls = [run_cli(["--help"], env, work).wall_s for _ in range(CLI_SAMPLES)]
    result.metrics["cli.startup_s"] = statistics.median(walls)
    engine = _trace_engine(workload, seed, work, recorder, result)
    if workload.kind == "batch":
        _trace_batch(workload, seed, work, env, engine, recorder, result)
    else:
        _trace_serve(workload, seed, work, env, engine, seconds, recorder, result)
    recorder.write(os.path.join(out_dir, f"trace_{workload.name}.json"))
    return result


def _trace_engine(workload: Workload, seed: int, work: str, recorder: SpanRecorder, result: E2EResult):
    """Build, freeze and restore the workload's engine; returns the restored one."""
    from repro.filterlist import build_lists
    from repro.filterlist.engine import FilterEngine
    from repro.filterlist.lists import FilterList
    from repro.filterlist.snapshot import load_snapshot, write_snapshot
    from repro.web import Ecosystem, EcosystemConfig

    with recorder.span("filterlist.engine.build") as build:
        if workload.padding_filters:
            lists = {}
            for file in sorted(os.listdir(os.path.join(work, "lists"))):
                with open(os.path.join(work, "lists", file)) as stream:
                    name = os.path.splitext(file)[0]
                    lists[name] = FilterList.from_text(stream.read(), name)
        else:
            ecosystem = Ecosystem.generate(
                EcosystemConfig(n_publishers=workload.publishers, seed=seed)
            )
            lists = build_lists(ecosystem.list_spec())
        built = FilterEngine()
        for name, filter_list in lists.items():
            built.add_filters(filter_list.filters, list_name=name)
    snapshot = os.path.join(work, "traced.snap")
    with recorder.span("filterlist.snapshot.write") as write:
        write_snapshot(snapshot, built)
    with recorder.span("filterlist.snapshot.load") as load:
        engine = load_snapshot(snapshot).engine
    result.metrics.update({
        "filterlist.engine.build_s": build.duration,
        "filterlist.engine.filters": engine.filter_count,
        "filterlist.snapshot.write_s": write.duration,
        "filterlist.snapshot.load_s": load.duration,
        "filterlist.snapshot.bytes": os.path.getsize(snapshot),
    })
    return engine


def _trace_batch(workload: Workload, seed: int, work: str, env: dict[str, str], engine,
                 recorder: SpanRecorder, result: E2EResult) -> None:
    from repro.core import (
        aggregate_users,
        annotate_browsers,
        classify_usage,
        heavy_hitters,
    )
    from repro.core.content_type import infer_content_type, type_from_mime
    from repro.core.normalize import collect_protected_values, normalize_url
    from repro.core.pipeline import AdClassificationPipeline, StreamingClassifier
    from repro.core.referrer_map import ReferrerMap
    from repro.filterlist.cache import CachingEngine
    from repro.filterlist.engine import RequestContext
    from repro.filterlist.options import ContentType
    from repro.http.log import SeekableLogReader
    from repro.http.url import split_url
    from repro.robustness import atomic_writer
    from repro.robustness.runstate import ClassifySink, classification_row
    from repro.trace import TlsConnectionRecord, abp_server_ips, easylist_download_clients
    from repro.web import Ecosystem, EcosystemConfig

    m = result.metrics
    trace = os.path.join(work, f"trace.{workload.fmt}")
    family = "http.log" if workload.fmt == "tsv" else "http.binlog"

    with recorder.span(f"{family}.decode") as decode:
        with SeekableLogReader(trace) as reader:
            count = sum(1 for _ in reader)
    with recorder.span(f"{family}.materialize") as materialize:
        with SeekableLogReader(trace) as reader:
            records = list(reader)
    m[f"{family}.decode_s"] = decode.duration
    m[f"{family}.decode_rps"] = count / decode.duration
    m[f"{family}.materialize_s"] = materialize.duration
    m[f"{family}.bytes_per_record"] = os.path.getsize(trace) / count

    # The fold, as `pipeline.process` runs it: every entry stays buffered.
    pipeline = AdClassificationPipeline.from_engine(engine)
    split_url.cache_clear()
    classifier = StreamingClassifier(pipeline, fixup_window=None)
    with recorder.span("core.pipeline.fold") as fold:
        for record in records:
            classifier.feed(record)
        entries = classifier.finish()
    url_cache = split_url.cache_info()
    cache_stats = pipeline.decision_cache_stats
    m["http.url.cache_hit_rate"] = url_cache.hits / max(1, url_cache.hits + url_cache.misses)
    m["filterlist.cache.hit_rate"] = cache_stats.hit_rate
    m["filterlist.cache.evictions"] = cache_stats.evictions

    # Child layers, replayed with cold caches over the fold's own arguments.
    split_url.cache_clear()
    with recorder.span("http.url.split", parent=fold) as split:
        for entry in entries:
            split_url(entry.record.url)
    protected = collect_protected_values(engine.iter_filters())
    with recorder.span("core.normalize.normalize", parent=fold) as normalize:
        for entry in entries:
            normalize_url(entry.record.url, protected)
    documents = (ContentType.DOCUMENT, ContentType.SUBDOCUMENT)
    maps: dict = {}
    with recorder.span("core.referrer_map.observe", parent=fold) as observe:
        for entry in entries:
            record = entry.record
            referrer_map = maps.get(entry.user)
            if referrer_map is None:
                referrer_map = maps[entry.user] = ReferrerMap(track_embedded=True)
            referrer_map.observe(
                record.url,
                record.referrer,
                looks_like_document=type_from_mime(record.content_type) in documents,
                location=record.location,
            )
    with recorder.span("core.content_type.infer", parent=fold) as infer:
        for entry in entries:
            infer_content_type(
                entry.record.url, entry.record.content_type,
                is_page_root=entry.is_page_root, extension_first=True,
            )
    decisions = [
        (entry.normalized_url, RequestContext(entry.content_type, entry.page_url),
         split_url(entry.normalized_url).host)
        for entry in entries
    ]
    cached = CachingEngine(engine)
    with recorder.span("filterlist.cache.classify", parent=fold) as cache_classify:
        for url, context, host in decisions:
            cached.classify(url, context, request_host=host)
    with recorder.span("filterlist.engine.classify") as engine_classify:
        for url, context, host in decisions:
            engine.classify(url, context, request_host=host)
    m["http.url.split_s"] = split.duration
    m["core.normalize.normalize_s"] = normalize.duration
    m["core.referrer_map.observe_s"] = observe.duration
    m["core.referrer_map.users"] = len(maps)
    m["core.content_type.infer_s"] = infer.duration
    m["filterlist.cache.classify_s"] = cache_classify.duration
    m["filterlist.engine.classify_s"] = engine_classify.duration
    m["filterlist.engine.decide_us"] = 1e6 * engine_classify.duration / len(decisions)
    m["core.pipeline.fold_s"] = fold.duration
    m["core.pipeline.fold_rps"] = len(records) / fold.duration
    m["core.pipeline.self_s"] = recorder.self_time(fold)

    # The same fold with no span around it: what tracing itself costs.
    untraced = StreamingClassifier(AdClassificationPipeline.from_engine(engine), fixup_window=None)
    split_url.cache_clear()
    started = time.perf_counter()
    for record in records:
        untraced.feed(record)
    untraced.finish()
    unspanned = time.perf_counter() - started
    m["trace.overhead_share"] = (fold.duration - unspanned) / unspanned

    with recorder.span("robustness.runstate.render") as render:
        rows = [classification_row(entry) for entry in entries]
    output = os.path.join(work, "traced_out.tsv")
    with recorder.span("robustness.atomic.commit") as commit:
        with atomic_writer(output) as stream:
            stream.write(ClassifySink.HEADER)
            for row in rows:
                stream.write(row + "\n")
    m["robustness.runstate.render_s"] = render.duration
    m["robustness.atomic.commit_s"] = commit.duration
    m["robustness.runstate.output_bytes"] = os.path.getsize(output)
    if not filecmp.cmp(output, os.path.join(work, "expected.tsv"), shallow=False):
        result.problems.append("the traced fold's output differs from the uncached buckets oracle")

    with recorder.span("core.users.aggregate") as aggregate:
        stats = aggregate_users(entries)
    ecosystem = Ecosystem.generate(EcosystemConfig(n_publishers=workload.publishers, seed=seed))
    with open(os.path.join(work, "tls.tsv")) as stream:
        tls = [
            TlsConnectionRecord(ts=float(ts), client=client, server=server, server_port=int(port))
            for ts, client, server, port in (
                line.rstrip("\n").split("\t") for line in stream if not line.startswith("#")
            )
        ]
    with recorder.span("core.adblock_detect.usage") as usage:
        downloads = easylist_download_clients(tls, abp_server_ips(ecosystem))
        annotation = annotate_browsers(heavy_hitters(stats))
        classify_usage(list(annotation.browsers.values()), downloads)
    m["core.users.aggregate_s"] = aggregate.duration
    m["core.adblock_detect.usage_s"] = usage.duration

    # Spawn to first decision: the whole CLI over a one-record trace.
    first = ["classify", *engine_args(workload, seed, work), "--health-format", "json",
             "--trace", os.path.join(work, f"trace1.{workload.fmt}")]
    ready = []
    for _ in range(CLI_SAMPLES):
        with recorder.span("cli.ready"):
            ready.append(run_cli(first, env, work))
        check_cli(ready[-1], "classify (1 record)", 1, result)
    m["cli.ready_s"] = statistics.median(run.wall_s for run in ready)

    # Whole commands once more, for the ratios no in-process call can give.
    base = ["classify", *engine_args(workload, seed, work), "--health-format", "json", "--trace", trace]
    commands = {
        "serial": [*base, "--out", os.path.join(work, "traced_serial.tsv")],
        "pool": [*base, "--out", os.path.join(work, "traced_pool.tsv"), "--workers", str(POOL_WORKERS)],
        "usage": ["usage", *engine_args(workload, seed, work),
                  "--trace", trace, "--tls", os.path.join(work, "tls.tsv")],
    }
    if not workload.padding_filters:
        # A durable run pins the engine to the ecosystem flags' lists, which a
        # padded snapshot is not: only the flag-built workloads can run it.
        commands["durable"] = [*base, "--out", os.path.join(work, "traced_durable.tsv"),
                               "--checkpoint-dir", os.path.join(work, "checkpoints")]
    runs = {}
    for name, argv in commands.items():
        with recorder.span(f"cli.{name}"):
            runs[name] = run_cli(argv, env, work)
        if name == "usage":
            # `usage` prints its health document only when it lost records:
            # exit code 0 and the usage table are what a clean run shows.
            result.attempted += workload.records
            if runs[name].returncode != 0 or "paper Table 3" not in runs[name].stdout:
                result.failed += workload.records
                result.problems.append(f"usage: exit code {runs[name].returncode}: {runs[name].stderr[-300:]}")
            continue
        check_cli(runs[name], name, workload.records, result)
        if not result.problems and not filecmp.cmp(
            os.path.join(work, f"traced_{name}.tsv"), os.path.join(work, "expected.tsv"), shallow=False
        ):
            result.problems.append(f"{name}: classify output differs from the uncached buckets oracle")
    m["cli.usage_rps"] = workload.records / runs["usage"].wall_s
    m["parallel.runner.wall_s"] = runs["pool"].wall_s
    m["parallel.pool_rps"] = workload.records / runs["pool"].wall_s
    m["parallel.speedup"] = runs["serial"].wall_s / runs["pool"].wall_s
    m["parallel.cpu_inflation"] = runs["pool"].cpu_s / runs["serial"].cpu_s
    if "durable" in runs:
        m["robustness.checkpoint.durable_overhead_share"] = (
            (runs["durable"].wall_s - runs["serial"].wall_s) / runs["serial"].wall_s
        )
    # Useful work per worker: records it owns of the records it decodes.
    shares = []
    for worker in range(POOL_WORKERS):
        with SeekableLogReader(trace, shard=(worker, POOL_WORKERS)) as reader:
            owned = [is_owned for _, is_owned in reader.iter_shard()]
        shares.append(sum(owned) / len(owned))
    m["parallel.worker.owned_share"] = statistics.mean(shares)


def _trace_serve(workload: Workload, seed: int, work: str, env: dict[str, str], engine,
                 seconds: float, recorder: SpanRecorder, result: E2EResult) -> None:
    from repro.core.content_type import infer_content_type, type_from_mime
    from repro.filterlist.cache import DEFAULT_CACHE_SIZE
    from repro.filterlist.engine import RequestContext
    from repro.serve import EngineHolder
    from repro.serve.admission import AdmissionQueue
    from repro.serve.metrics import ServeMetrics

    m = result.metrics
    singles, batches = load_payloads(work)
    # One open-loop window per rate and one batched closed-loop leg share the run.
    window = seconds / (len(RATES) + 1)

    # Transport alone: the same two-connection client against a constant handler.
    echo = subprocess.Popen([sys.executable, os.path.join(HERE, "http11_echo.py")],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        assert echo.stdout is not None
        port = int(echo.stdout.readline())
        with recorder.span("serve.http11.roundtrip"):
            transport = asyncio.run(closed_loop(port, singles, connections=SERVE_CONNECTIONS, seconds=2.0))
    finally:
        echo.terminate()
        echo.wait()
        assert echo.stdout is not None
        echo.stdout.close()
    m["serve.http11.roundtrip_us"] = 1e6 * statistics.mean(transport.latencies_s)

    async def admission_only(count: int) -> float:
        async def handler(payload):
            return payload

        queue = AdmissionQueue(handler, ServeMetrics())
        queue.start()
        started = time.perf_counter()
        for index in range(count):
            await queue.submit(index)
        elapsed = time.perf_counter() - started
        await queue.drain(1.0)
        return elapsed

    with recorder.span("serve.admission.submit"):
        m["serve.admission.submit_us"] = 1e6 * asyncio.run(admission_only(20_000)) / 20_000

    # The engine as the daemon holds it, over the request stream, no transport.
    with open(os.path.join(work, "requests.jsonl")) as stream:
        requests = [json.loads(line) for line in stream]
    contexts = []
    for request in requests:
        mime = request.get("content_type")
        content_type = type_from_mime(mime) if mime else infer_content_type(request["url"], None)
        contexts.append((request["url"], RequestContext(content_type, request["page_url"])))
    held = EngineHolder(engine, cache_size=DEFAULT_CACHE_SIZE).engine
    with recorder.span("serve.engine.classify") as classify:
        for url, context in contexts:
            held.classify(url, context)
    m["serve.engine.classify_us"] = 1e6 * classify.duration / len(contexts)

    daemon = Daemon(engine_args(workload, seed, work), env)
    try:
        daemon.wait_port()
        status = asyncio.run(first_decision(daemon.port, singles[0]))
        m["serve.ready_s"] = time.perf_counter() - daemon.spawned_at
        result.attempted += 1
        if status != 200:
            result.failed += 1
            result.problems.append(f"first request answered {status}")
        # Lazy set-up (first-use regex compiles, allocator growth) is paid once
        # per daemon, not per request: let it finish before timing latencies.
        asyncio.run(closed_loop(daemon.port, singles, connections=SERVE_CONNECTIONS, seconds=WARMUP_S))
        qualifying = 0
        for rate in RATES:
            with recorder.span(f"serve.open_loop.r{rate}"):
                schedule = asyncio.run(open_loop(
                    daemon.port, singles, connections=SERVE_CONNECTIONS, rate=rate, seconds=window,
                ))
            result.attempted += schedule.total
            result.failed += schedule.failed
            latencies = sorted(schedule.latencies_s)
            if samples_beyond(len(latencies), 0.99) < 10:
                result.problems.append(
                    f"{len(latencies)} samples at {rate} req/s leave fewer than ten beyond p99: "
                    f"lengthen --seconds"
                )
            # A failed request counts as over any limit: pad the tail with them.
            latencies += [float("inf")] * schedule.failed
            p99_ms = 1e3 * percentile(latencies, 0.99)
            m[f"serve.p99_ms.r{rate}"] = p99_ms
            if rate == REFERENCE_RATE:
                m[f"serve.p50_ms.r{rate}"] = 1e3 * percentile(latencies, 0.50)
                m["serve.generator_late_ms_p99"] = 1e3 * percentile(sorted(schedule.lateness_s), 0.99)
                m["serve.backlog_end"] = schedule.backlog_end
            if p99_ms <= P99_LIMIT_MS and schedule.backlog_end == 0:
                qualifying = rate
            if schedule.failed:
                result.problems.append(f"{schedule.failed} requests failed at {rate} req/s")
        m["serve.max_rate_rps"] = qualifying

        with recorder.span("serve.batch"):
            batched = asyncio.run(closed_loop(
                daemon.port, batches, connections=SERVE_CONNECTIONS, seconds=window,
            ))
        result.attempted += batched.requests
        result.failed += batched.failed
        if batched.failed:
            result.problems.append(f"{batched.failed} batched requests failed")
        m["serve.batch_rps"] = batched.per_second * SERVE_BATCH

        async def after_load() -> dict:
            connection = await Connection.open(daemon.port)
            try:
                started = time.perf_counter()
                status, _ = await connection.roundtrip(
                    b"POST /-/reload HTTP/1.1\r\nHost: perf\r\nContent-Length: 0\r\n\r\n"
                )
                m["serve.reload_s"] = time.perf_counter() - started
                if status != 200:
                    result.problems.append(f"POST /-/reload answered {status}")
                _, body = await connection.get("/metrics")
            finally:
                await connection.close()
            return json.loads(body)

        sent, problems = asyncio.run(verify_replies(daemon.port, work, singles, batches))
        result.attempted += sent
        result.failed += len(problems)
        result.problems.extend(problems)
        document = asyncio.run(after_load())
        m["serve.cache.hit_rate"] = document["cache"]["hit_rate"]
        m["serve.shed"] = document["serve"]["shed"]
        m["serve.timed_out"] = document["serve"]["timed_out"]
        m["serve.rss_mib"] = daemon.peak_rss_mib()
    finally:
        if daemon.stop() != 0:
            result.problems.append("repro serve did not exit with code 0")
