"""Command-line interface.

Composable subcommands over on-disk TSV logs, mirroring how the
paper's pipeline was operated (Bro logs staged to disk, classification
and analyses run offline):

* ``repro ecosystem`` — inspect the synthetic web and its filter lists.
* ``repro trace`` — generate an RBN capture to TSV (HTTP log + TLS log).
* ``repro classify`` — run the Fig 1 pipeline over a stored HTTP log.
* ``repro usage`` — the §6 ad-blocker usage study over stored logs.
* ``repro crawl`` — the §4 active measurement (Table 1).
* ``repro report`` — §7 traffic characterization over a stored log.
* ``repro corrupt`` — seeded fault injection into a stored log (testing).
* ``repro lint`` — static analysis: filter-list lint (FL001-FL008) and,
  with ``--self``, the repo-invariant codebase gate (RC001-RC004).
* ``repro serve`` — the long-lived classification daemon: bounded
  admission with backpressure, graceful drain on SIGTERM/SIGINT, hot
  filter-list reload on SIGHUP / ``POST /-/reload`` (DESIGN.md §13).

Commands that read logs take ``--on-error {strict,skip,quarantine}``;
exit codes are 0 (clean), 1 (strict-mode abort on the first bad line),
3 (completed degraded: dropped records, or shards lost under
``--on-worker-failure degrade``), 4 (``--resume`` refused on a run
manifest mismatch), 5 (a shard worker failed terminally and the run
aborted), 130 (interrupted by SIGINT/SIGTERM; durable state is kept
for ``--resume``) — see DESIGN.md §7–§8, §12.

``classify``/``usage``/``report`` become *durable* with
``--checkpoint-dir``: progress is checkpointed every
``--checkpoint-every`` records and a crashed run continues from the
newest valid checkpoint with ``--resume``, producing output
byte-identical to an uninterrupted run (DESIGN.md §8).

All commands that need the ecosystem/lists rebuild them
deterministically from ``--publishers/--eco-seed``, so separate
invocations compose as long as those flags agree.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence, TextIO

from repro.core import AdClassificationPipeline
from repro.exitcodes import (
    EXIT_INTERRUPTED,
    EXIT_MANIFEST_MISMATCH,
    EXIT_MISSING_INPUT,
    EXIT_SNAPSHOT_INVALID,
    EXIT_STRICT_ABORT,
    EXIT_WORKER_FAILURE,
)
from repro.filterlist import build_lists
from repro.filterlist.snapshot import (
    SnapshotError,
    SnapshotFingerprintMismatch,
    load_snapshot,
    write_snapshot,
)
from repro.filterlist.stats import compare_lists
from repro.http.binlog import write_binlog
from repro.http.log import SeekableLogReader, write_log
from repro.http.url import split_url
from repro.parallel.supervision import RunInterrupted, WorkerFailure
from repro.robustness import (
    CrashInjector,
    ErrorPolicy,
    LogParseError,
    PipelineHealth,
    atomic_writer,
)
from repro.robustness.runstate import (
    DEFAULT_CHECKPOINT_EVERY,
    Checkpointing,
    ClassifySink,
    ManifestMismatch,
    RunManifest,
    RunResult,
    RunSink,
    TrafficSink,
    UserStatsSink,
    open_quarantine,
    run_serial,
)
from repro.trace import (
    CorruptionConfig,
    RBNTraceGenerator,
    TlsConnectionRecord,
    TraceCorruptor,
    abp_server_ips,
    easylist_download_clients,
    rbn1_config,
    rbn2_config,
)
from repro.web import Ecosystem, EcosystemConfig

__all__ = ["main", "build_parser"]


def _ecosystem_from(args: argparse.Namespace) -> Ecosystem:
    return Ecosystem.generate(
        EcosystemConfig(n_publishers=args.publishers, seed=args.eco_seed)
    )


def _add_ecosystem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--publishers", type=int, default=300,
                        help="number of synthetic publishers (default 300)")
    parser.add_argument("--eco-seed", type=int, default=20151028,
                        help="ecosystem generation seed")


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--on-error", choices=("strict", "skip", "quarantine"),
                        default="strict",
                        help="what to do with malformed log lines (default strict)")
    parser.add_argument("--quarantine-out",
                        help="sidecar path for rejected lines "
                             "(default <trace>.quarantine)")
    parser.add_argument("--health-format", choices=("text", "json"), default="text",
                        help="end-of-run health summary format (default text); "
                             "json emits the same document `repro serve` exposes "
                             "at /metrics under \"health\"")


def _add_checkpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir",
                        help="make the run durable: write the run manifest, periodic "
                             "checkpoints and in-progress outputs into this directory")
    parser.add_argument("--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY,
                        metavar="N",
                        help=f"records between checkpoints (default "
                             f"{DEFAULT_CHECKPOINT_EVERY}; 0 disables periodic "
                             f"checkpoints but keeps atomic output commit)")
    parser.add_argument("--resume", action="store_true",
                        help="continue a crashed run from the newest valid checkpoint "
                             "in --checkpoint-dir; exits 4 if the config, filter lists "
                             "or input no longer match the run manifest")
    # Testing hook for the crash-recovery harness: hard-abort (no
    # flush, no cleanup) after N records, like an OOM kill would.
    parser.add_argument("--crash-after", type=int, metavar="N", help=argparse.SUPPRESS)


def _check_checkpoint_args(args: argparse.Namespace) -> None:
    if (args.resume or args.crash_after) and not args.checkpoint_dir:
        raise SystemExit("error: --resume/--crash-after require --checkpoint-dir")


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, metavar="N",
                        help="shard classification by user across N worker "
                             "processes; output is byte-identical to the "
                             "serial path (DESIGN.md §10)")
    parser.add_argument("--worker-timeout", type=float, default=30.0, metavar="S",
                        help="seconds of worker silence before the supervisor "
                             "declares it hung and kills it (default 30; "
                             "0 disables hang detection and heartbeats)")
    parser.add_argument("--worker-retries", type=int, default=2, metavar="N",
                        help="times a crashed or hung shard is respawned from "
                             "its last checkpoint before the failure is "
                             "terminal (default 2; 0 disables recovery)")
    parser.add_argument("--on-worker-failure", choices=("abort", "degrade"),
                        default="abort",
                        help="after retries are exhausted: abort the whole run "
                             "(exit 5) or finish the surviving shards and "
                             "report the gap honestly (exit 3; default abort)")
    # Testing hook for the chaos harness (tests/test_supervision.py):
    # inject worker faults, e.g. "crash-hard:worker=1:after=500".  The
    # REPRO_CHAOS environment variable is an equivalent spelling.
    parser.add_argument("--chaos", metavar="SPEC", help=argparse.SUPPRESS)


def _add_snapshot_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine-snapshot", metavar="FILE",
                        help="restore the engine from a `repro compile-lists` "
                             "snapshot instead of re-parsing lists; on durable "
                             "runs its fingerprint is pinned against the lists "
                             "the manifest records (mismatch exits 4)")
    parser.add_argument("--snapshot-policy", choices=("refuse", "rebuild"),
                        default="refuse",
                        help="on a corrupt/truncated/version-incompatible "
                             "snapshot: refuse (exit 6) or rebuild from lists "
                             "(default refuse; a fingerprint mismatch always "
                             "refuses — never silent divergence)")


def _resolve_pipeline(
    args: argparse.Namespace, get_lists, *, expected_fingerprint: str | None = None
) -> AdClassificationPipeline:
    """Build the classification pipeline: snapshot fast path or lists.

    ``get_lists`` is a zero-argument callable (memoized by callers) so
    the snapshot path can skip list synthesis entirely; it is only
    invoked on the rebuild fallback or when no snapshot was given.
    Durable runs pass ``expected_fingerprint`` (computed from the lists
    the manifest pins) so a snapshot compiled from *different* list
    content is refused — an identity violation (exit 4), never rebuilt
    over silently.
    """
    from repro.core.pipeline import PipelineConfig

    config = PipelineConfig(use_decision_cache=not args.no_decision_cache)
    snapshot_path = getattr(args, "engine_snapshot", None)
    if snapshot_path:
        try:
            loaded = load_snapshot(snapshot_path, expected_fingerprint=expected_fingerprint)
        except FileNotFoundError:
            if args.snapshot_policy == "refuse":
                raise  # main() maps this to EXIT_MISSING_INPUT
            print(f"warning: snapshot {snapshot_path} missing; "
                  f"rebuilding engine from lists", file=sys.stderr)
        except SnapshotFingerprintMismatch:
            raise  # identity violation, not damage: always refuse (exit 4)
        except SnapshotError:
            if args.snapshot_policy == "refuse":
                raise  # main() maps this to EXIT_SNAPSHOT_INVALID
            print(f"warning: snapshot {snapshot_path} failed validation; "
                  f"rebuilding engine from lists", file=sys.stderr)
        else:
            return AdClassificationPipeline.from_engine(loaded.engine, config)
    return AdClassificationPipeline(get_lists(), config)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-decision-cache", action="store_true",
                        help="disable the memoized decision layer (DESIGN.md §11); "
                             "output is byte-identical either way — this is an "
                             "escape hatch for benchmarking and debugging")


def _check_parallel_args(args: argparse.Namespace) -> None:
    if args.workers is None:
        return
    if args.workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    if args.worker_timeout < 0:
        raise SystemExit("error: --worker-timeout must be >= 0")
    if args.worker_retries < 0:
        raise SystemExit("error: --worker-retries must be >= 0")
    if getattr(args, "max_users", None) is not None:
        raise SystemExit("error: --workers is incompatible with --max-users "
                         "(the LRU eviction order is global, not shardable)")


def _supervision_kwargs(args: argparse.Namespace) -> dict:
    """Map the supervision flags onto ParallelRun keyword arguments."""
    from repro.robustness.retry import RetryPolicy

    retry = None
    if args.worker_retries:
        # N retries = N + 1 incarnations; keep the default backoff shape.
        retry = RetryPolicy(max_attempts=args.worker_retries + 1,
                            base_delay_s=0.1, multiplier=2.0, max_delay_s=5.0)
    return {
        "worker_timeout": args.worker_timeout or None,
        "retry": retry,
        "on_worker_failure": args.on_worker_failure,
        "chaos": args.chaos,
    }


def _pipeline_factory(args: argparse.Namespace):
    """Picklable per-worker pipeline builder from the ecosystem flags."""
    import functools

    from repro.parallel import build_ecosystem_pipeline

    return functools.partial(
        build_ecosystem_pipeline,
        args.publishers,
        args.eco_seed,
        not args.no_decision_cache,
        getattr(args, "engine_snapshot", None),
        getattr(args, "snapshot_policy", "refuse"),
    )


def _lists_factory(args: argparse.Namespace):
    """Zero-argument memoized list builder (snapshot paths never pay it)."""
    memo: dict = {}

    def get_lists():
        if "lists" not in memo:
            memo["lists"] = build_lists(_ecosystem_from(args).list_spec())
        return memo["lists"]

    return get_lists


def _expected_engine_fingerprint(lists) -> str:
    """The fingerprint an engine built from ``lists`` would carry."""
    from repro.filterlist.engine import fingerprint_of_filters

    return fingerprint_of_filters(
        (name, filter_list.filters) for name, filter_list in lists.items()
    )


def _note_cache(health: PipelineHealth, pipeline: AdClassificationPipeline) -> None:
    """Fold the process's cache counters into ``health``.

    The counters are transient observability (never checkpointed or
    merged — see ``PipelineHealth._TRANSIENT_STATE``); this is the one
    place the serial CLI path copies them over for reporting.  Covers
    both the decision cache and the ``split_url`` memo (pool workers
    ship their own counters in the ``done`` message instead).
    """
    stats = pipeline.decision_cache_stats
    if stats is not None:
        health.add_cache_stats(stats.hits, stats.misses, stats.evictions)
    url_info = split_url.cache_info()
    if url_info.hits or url_info.misses:
        health.add_url_cache_stats(url_info.hits, url_info.misses)


def _quarantine_path(args: argparse.Namespace) -> str | None:
    """The sidecar path, or None unless ``--on-error quarantine``."""
    if args.on_error != "quarantine":
        return None
    path = args.quarantine_out or f"{args.trace}.quarantine"
    # A durable run names the sidecar the way its manifest pins it: absolute.
    return os.path.abspath(path) if getattr(args, "checkpoint_dir", None) else path


def _print_quarantined(count: int, path: str | None) -> None:
    if count:
        print(f"quarantined {count} lines to {path}")


def _run(
    args: argparse.Namespace,
    sink: RunSink,
    params: dict,
    *,
    reorder_window: float | None = None,
    max_users: int | None = None,
) -> RunResult:
    """Execute one classify/usage/report: trace → classifier → ``sink``.

    The one way a record reaches a sink: :func:`run_serial`, or with
    ``--workers`` the shard pool folding into the same sink
    (DESIGN.md §10).  ``--checkpoint-dir`` hands either one a
    :class:`Checkpointing`, keyed by ``params``, the manifest's
    identity of the run (DESIGN.md §8); without it the run is plain.
    """
    policy = ErrorPolicy(args.on_error)
    quarantine_path = _quarantine_path(args)
    workers = getattr(args, "workers", None)
    get_lists = _lists_factory(args)
    checkpointing = None
    if args.checkpoint_dir:
        checkpointing = Checkpointing(
            directory=args.checkpoint_dir,
            manifest=RunManifest.build(
                command=params["command"],
                params=params,
                lists=get_lists(),
                input_path=args.trace,
                output_path=getattr(args, "out", None),
                quarantine_path=quarantine_path,
            ),
            every=args.checkpoint_every or None,
            resume=args.resume,
            crash_injector=CrashInjector(args.crash_after) if args.crash_after else None,
        )
    if workers is None:
        expected = None
        if checkpointing is not None and args.engine_snapshot:
            expected = _expected_engine_fingerprint(get_lists())
        pipeline = _resolve_pipeline(args, get_lists, expected_fingerprint=expected)
        result = run_serial(
            args.trace,
            pipeline,
            sink,
            on_error=policy,
            quarantine_path=quarantine_path,
            reorder_window=reorder_window,
            max_users=max_users,
            checkpointing=checkpointing,
            log=print,
        )
        _note_cache(result.health, pipeline)
    else:
        from repro.parallel import ParallelRun

        result = ParallelRun(
            workers=workers,
            input_path=args.trace,
            pipeline_factory=_pipeline_factory(args),
            on_error=policy,
            quarantine_path=quarantine_path,
            reorder_window=reorder_window,
            emit="fold" if isinstance(sink, TrafficSink) else "rows",
            sink=sink,
            checkpointing=checkpointing,
            # The pool narrates (resume point, respawns, lost shards) on
            # durable runs; a plain run's stdout is its summary alone.
            log=print if checkpointing is not None else (lambda message: None),
            **_supervision_kwargs(args),
        ).run()
    _print_quarantined(result.quarantine_count, quarantine_path)
    return result


def _finish(
    health: PipelineHealth, *, always_summarize: bool = False, fmt: str = "text"
) -> int:
    """Print the end-of-run health summary; map degradation to exit code.

    ``fmt="json"`` emits :meth:`PipelineHealth.summary_dict` — the same
    document ``repro serve`` exposes under ``/metrics``'s ``health`` key
    — and always emits it (asking for JSON *is* asking for the summary).

    In text mode the decision-cache block prints *before* the
    ``-- pipeline health --`` marker: tools (and this repo's tests)
    byte-compare everything from the marker onward across execution
    plans, and cache counters legitimately differ between
    serial/parallel/cached/uncached runs.
    """
    if fmt == "json":
        import json as _json

        print(_json.dumps(health.summary_dict(), indent=2))
    elif always_summarize or health.degraded:
        cache_block = health.cache_summary()
        if cache_block:
            print()
            print(cache_block)
        print()
        print(health.summary())
    return health.exit_code()


def _write_tls(records: list[TlsConnectionRecord], stream: TextIO) -> None:
    stream.write("#ts\tclient\tserver\tserver_port\n")
    for record in records:
        stream.write(f"{record.ts}\t{record.client}\t{record.server}\t{record.server_port}\n")


def _read_tls(stream: TextIO) -> list[TlsConnectionRecord]:
    records = []
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ts, client, server, port = line.split("\t")
        records.append(
            TlsConnectionRecord(ts=float(ts), client=client, server=server,
                                server_port=int(port))
        )
    return records


# ---------------------------------------------------------------------------


def _cmd_ecosystem(args: argparse.Namespace) -> int:
    # Table commands import repro.analysis (and with it numpy) here:
    # classify and serve must not pay for it at start-up.
    from repro.analysis.report import render_table

    ecosystem = _ecosystem_from(args)
    lists = build_lists(ecosystem.list_spec())
    print(f"publishers:  {len(ecosystem.publishers)}")
    print(f"ad networks: {len(ecosystem.ad_networks)} "
          f"({sum(1 for n in ecosystem.ad_networks if n.acceptable_ads)} in acceptable-ads)")
    print(f"trackers:    {len(ecosystem.trackers)}")
    print(f"ASes:        {len(ecosystem.asdb.all())}")
    print()
    print(render_table(compare_lists(lists), title="synthetic filter lists"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    ecosystem = _ecosystem_from(args)
    preset = rbn1_config if args.preset == "rbn1" else rbn2_config
    config = preset(scale=args.scale)
    generator = RBNTraceGenerator(config, ecosystem=ecosystem)
    trace = generator.generate()
    if args.format == "bin":
        with atomic_writer(args.out, mode="wb") as stream:
            count = write_binlog(trace.http, stream)
    else:
        with atomic_writer(args.out) as stream:
            count = write_log(trace.http, stream)
    print(f"wrote {count} HTTP records to {args.out}")
    if args.tls_out:
        with atomic_writer(args.tls_out) as stream:
            _write_tls(trace.tls, stream)
        print(f"wrote {len(trace.tls)} TLS records to {args.tls_out}")
    print(f"({generator.subscribers} subscribers, "
          f"{config.duration_s / 3600:.1f} h window)")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Transcode an HTTP log between TSV and binlog framing.

    The input format is sniffed from the leading magic; the default
    target is the *other* format.  Records stream straight from the
    reader into the writer, so conversion is O(1) in memory, and the
    usual error policies apply — a damaged frame aborts a strict
    convert (exit 1) or is dropped/quarantined and reported via the
    degraded exit (3), exactly like ``classify`` would treat it.
    """
    policy = ErrorPolicy(args.on_error)
    health = PipelineHealth()
    quarantine_path = _quarantine_path(args)
    quarantine = open_quarantine(policy, quarantine_path)
    with quarantine or contextlib.nullcontext():
        with SeekableLogReader(
            args.trace, on_error=policy, health=health, quarantine=quarantine
        ) as reader:
            source = reader.format
            target = args.to or ("tsv" if source == "bin" else "bin")
            if target == "bin":
                with atomic_writer(args.out, mode="wb") as stream:
                    count = write_binlog(reader, stream)
            else:
                with atomic_writer(args.out) as stream:
                    count = write_log(reader, stream)
    _print_quarantined(quarantine.count if quarantine is not None else 0, quarantine_path)
    print(f"converted {count} records: {args.trace} ({source}) -> {args.out} ({target})")
    if health.records_dropped:
        print(health.summary())
    return health.exit_code()


def _classify_summary(total: int, ads: int, whitelisted: int) -> None:
    print(f"{total} requests classified")
    print(f"ad-related: {ads} ({ads / max(1, total):.1%})")
    print(f"whitelisted: {whitelisted} ({whitelisted / max(1, ads):.1%} of ads)")


def _classify_params(args: argparse.Namespace) -> dict:
    """Manifest params for `repro classify`; ``workers`` is pinned so a
    serial checkpoint directory cannot be resumed with a different pool
    shape (the sharding itself is part of what the run *is*)."""
    return {
        "command": "classify",
        "publishers": args.publishers,
        "eco_seed": args.eco_seed,
        "on_error": args.on_error,
        "max_users": args.max_users,
        "reorder_window": args.reorder_window,
        "workers": args.workers,
        # Pinned for hygiene even though cached and uncached runs are
        # byte-identical: a resumed run should be the run you started.
        "decision_cache": not args.no_decision_cache,
        # Pinned like the cache: the snapshot fast path is part of the
        # run you started.
        "engine_snapshot": bool(args.engine_snapshot),
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    _check_checkpoint_args(args)
    _check_parallel_args(args)
    part_path = None
    if args.out and args.checkpoint_dir:
        part_path = os.path.join(args.checkpoint_dir, "output.part")
    sink = ClassifySink(
        part_path=part_path, final_path=os.path.abspath(args.out) if args.out else None
    )
    result = _run(
        args,
        sink,
        _classify_params(args),
        reorder_window=args.reorder_window,
        max_users=args.max_users,
    )
    _classify_summary(sink.total, sink.ads, sink.whitelisted)
    if args.out and not result.degraded_shards:
        print(f"wrote classification to {args.out}")
    elif args.out and not args.checkpoint_dir:
        print(f"not writing {args.out}: output is a partial prefix "
              f"(shards {result.degraded_shards} lost)")
    return _finish(result.health, always_summarize=True, fmt=args.health_format)


def _cmd_usage(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.core import (
        annotate_browsers,
        classify_usage,
        heavy_hitters,
        usage_breakdown,
    )

    _check_checkpoint_args(args)
    ecosystem = _ecosystem_from(args)
    sink = UserStatsSink()
    params = {
        "command": "usage",
        "publishers": args.publishers,
        "eco_seed": args.eco_seed,
        "on_error": args.on_error,
    }
    health = _run(args, sink, params).health

    with open(args.tls) as stream:
        tls_records = _read_tls(stream)
    downloads = easylist_download_clients(tls_records, abp_server_ips(ecosystem))

    annotation = annotate_browsers(heavy_hitters(sink.stats, min_requests=args.min_requests))
    usages = classify_usage(
        list(annotation.browsers.values()), downloads, threshold=args.threshold
    )
    rows = [
        {
            "Type": row.usage_type,
            "Instances": row.instances,
            "share": f"{100 * row.instance_share:.1f}%",
            "% requests": f"{100 * row.request_share:.1f}%",
            "% ad reqs": f"{100 * row.ad_request_share:.1f}%",
        }
        for row in usage_breakdown(usages, total_requests=sink.total, total_ads=sink.total_ads)
    ]
    print(render_table(rows, title="ad-blocker usage classes (paper Table 3)"))
    likely = sum(1 for usage in usages if usage.likely_adblock)
    print(f"likely Adblock Plus users: {likely}/{len(usages)} active browsers")
    return _finish(health, fmt=args.health_format)


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.browser.crawler import Crawler
    from repro.filterlist.lists import EASYLIST, EASYPRIVACY

    ecosystem = _ecosystem_from(args)
    lists = build_lists(ecosystem.list_spec())
    pipeline = AdClassificationPipeline(lists)
    crawler = Crawler(ecosystem, lists, seed=args.seed)
    results = crawler.crawl(n_sites=args.sites)

    rows = []
    for name, result in results.items():
        entries = pipeline.process(result.records.http)
        rows.append(
            {
                "Browser Mode": name,
                "#HTTPS": result.https_connections,
                "#HTTP": result.http_requests,
                "#ELhits": sum(
                    1 for e in entries
                    if (e.blacklist_name or "").startswith(EASYLIST)
                    or (e.is_whitelisted and not e.classification.is_blacklisted)
                ),
                "#EPhits": sum(1 for e in entries if e.blacklist_name == EASYPRIVACY),
            }
        )
    print(render_table(rows, title=f"active crawl over top-{args.sites} (paper Table 1)"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table

    _check_checkpoint_args(args)
    _check_parallel_args(args)
    if args.workers is not None and args.checkpoint_dir:
        raise SystemExit(
            "error: --workers with --checkpoint-dir is only supported for classify"
        )
    sink = TrafficSink()
    params = {
        "command": "report",
        "publishers": args.publishers,
        "eco_seed": args.eco_seed,
        "on_error": args.on_error,
    }
    health = _run(args, sink, params).health

    accumulator = sink.accumulator
    summary = accumulator.summary()
    print(f"requests: {summary.total_requests}; ad share "
          f"{summary.ad_request_share:.2%} of requests / "
          f"{summary.ad_byte_share:.2%} of bytes")
    print(f"list split: EasyList {summary.easylist_share_of_ads:.1%}, "
          f"EasyPrivacy {summary.easyprivacy_share_of_ads:.1%}, "
          f"non-intrusive {summary.non_intrusive_share_of_ads:.1%}\n")
    rows = [
        {
            "Content-type": row.content_type,
            "Ads Reqs": f"{100 * row.ad_request_share:.1f}%",
            "Ads Bytes": f"{100 * row.ad_byte_share:.1f}%",
            "Non-Ads Reqs": f"{100 * row.nonad_request_share:.1f}%",
            "Non-Ads Bytes": f"{100 * row.nonad_byte_share:.1f}%",
        }
        for row in accumulator.content_type_rows()
    ]
    print(render_table(rows, title="traffic by Content-Type (paper Table 4)"))
    return _finish(health, fmt=args.health_format)


def _cmd_compile_lists(args: argparse.Namespace) -> int:
    """`repro compile-lists`: freeze lists into an engine snapshot."""
    import json
    import time

    from repro.filterlist.engine import FilterEngine
    from repro.robustness.runstate import fingerprint_lists
    from repro.serve import EngineSource

    source = EngineSource(
        list_paths=args.lists,
        publishers=args.publishers,
        eco_seed=args.eco_seed,
        lint=args.lint,
    )
    started = time.perf_counter()
    lists = source.load_lists()
    engine = FilterEngine()
    for name, filter_list in lists.items():
        engine.add_filters(filter_list.filters, list_name=name)
    build_s = time.perf_counter() - started
    info = write_snapshot(
        args.out,
        engine,
        lists_fingerprint=fingerprint_lists(lists),
        source=json.dumps(source.describe(), sort_keys=True),
    )
    size = os.path.getsize(args.out)
    print(f"compiled {info.filter_count} filters from "
          f"{', '.join(info.list_names)} in {build_s:.2f}s")
    print(f"wrote snapshot to {args.out} ({size / 1024:.0f} KiB, "
          f"engine fingerprint {info.fingerprint[:12]}…)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.filterlist.cache import DEFAULT_CACHE_SIZE
    from repro.robustness.crash import CHAOS_ENV
    from repro.serve import EngineHolder, EngineSource, ServeApp, ServeConfig

    source = EngineSource(
        list_paths=args.lists,
        publishers=args.publishers,
        eco_seed=args.eco_seed,
        lint=args.lint,
        snapshot_path=args.engine_snapshot,
    )
    try:
        engine = source.build()
    except FileNotFoundError:
        raise  # main() maps this to EXIT_MISSING_INPUT
    except SnapshotError:
        raise  # main() maps this to exit 4 (identity) or 6 (damage)
    except (OSError, ValueError) as exc:
        print(f"error: could not build engine: {exc}", file=sys.stderr)
        return EXIT_STRICT_ABORT
    holder = EngineHolder(
        engine,
        cache_size=None if args.no_decision_cache else DEFAULT_CACHE_SIZE,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        timeout_s=args.timeout,
        concurrency=args.concurrency,
        drain_timeout_s=args.drain_timeout,
        chaos=args.chaos or os.environ.get(CHAOS_ENV),
    )
    app = ServeApp(holder, source, config, log=lambda message: print(message, flush=True))
    return asyncio.run(app.serve_forever())


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck import (
        Severity,
        apply_baseline,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )

    if not args.files and not args.self:
        raise SystemExit("error: give filter-list files to lint, or --self")

    diagnostics = []
    if args.files:
        from repro.staticcheck import lint_paths

        # Baseline fingerprints embed the list path; normalize to a
        # cwd-relative form so absolute and relative invocations agree.
        paths = []
        for path in args.files:
            relative = os.path.relpath(path)
            paths.append(path if relative.startswith("..") else relative)
        diagnostics.extend(lint_paths(paths))
    if args.self:
        import repro
        from repro.staticcheck import lint_package

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        source_root = os.path.dirname(package_root)
        diagnostics.extend(lint_package(package_root, source_root=source_root))

    if args.write_baseline:
        count = write_baseline(args.write_baseline, diagnostics)
        print(f"wrote baseline with {count} fingerprint(s) to {args.write_baseline}")
        return 0

    suppressed = 0
    if args.baseline:
        diagnostics, suppressed = apply_baseline(diagnostics, load_baseline(args.baseline))

    if args.format == "json":
        print(render_json(diagnostics))
    elif diagnostics:
        print(render_text(diagnostics))
    else:
        print("no findings")
    if suppressed:
        print(f"({suppressed} baselined finding(s) suppressed)", file=sys.stderr)

    threshold = Severity.parse(args.fail_on)
    return 1 if any(diag.severity >= threshold for diag in diagnostics) else 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    corruptor = TraceCorruptor(
        CorruptionConfig(
            rate=args.rate,
            duplicate_rate=args.duplicate_rate,
            jitter_s=args.jitter_s,
            skew_segments=args.skew_segments,
            skew_s=args.skew_s,
            seed=args.seed,
        )
    )
    stats = corruptor.corrupt_file(args.trace, args.out)
    print(f"wrote {args.out}: {stats.lines_corrupted}/{stats.lines_seen} lines damaged, "
          f"{stats.lines_duplicated} duplicated, {stats.lines_jittered} reordered, "
          f"{stats.lines_skewed} clock-skewed")
    for pathology, count in stats.by_pathology.most_common():
        print(f"  {pathology}: {count}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Annoyed Users' (IMC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eco = sub.add_parser("ecosystem", help="inspect the synthetic web & filter lists")
    _add_ecosystem_flags(p_eco)
    p_eco.set_defaults(func=_cmd_ecosystem)

    p_trace = sub.add_parser("trace", help="generate an RBN capture to TSV or binlog")
    _add_ecosystem_flags(p_trace)
    p_trace.add_argument("--preset", choices=("rbn1", "rbn2"), default="rbn2")
    p_trace.add_argument("--scale", type=float, default=0.002)
    p_trace.add_argument("--out", required=True, help="HTTP log path")
    p_trace.add_argument("--format", choices=("tsv", "bin"), default="tsv",
                         help="HTTP log encoding: TSV interchange (default) or "
                              "the binary ingestion fast path (DESIGN.md §16)")
    p_trace.add_argument("--tls-out", help="TLS connection log TSV path")
    p_trace.set_defaults(func=_cmd_trace)

    p_convert = sub.add_parser(
        "convert",
        help="transcode an HTTP log between TSV and binary framing",
        description="Transcode an HTTP log between the TSV interchange format and "
                    "the binary ingestion framing (DESIGN.md §16). The input format "
                    "is sniffed; classification over either encoding of the same "
                    "records is byte-identical.",
    )
    p_convert.add_argument("--trace", required=True, help="input HTTP log (format sniffed)")
    p_convert.add_argument("--out", required=True, help="output path")
    p_convert.add_argument("--to", choices=("tsv", "bin"),
                           help="target encoding (default: the opposite of the input)")
    p_convert.add_argument("--on-error", choices=("strict", "skip", "quarantine"),
                           default="strict",
                           help="what to do with damaged frames (default strict)")
    p_convert.add_argument("--quarantine-out",
                           help="sidecar path for rejected frames "
                                "(default <trace>.quarantine)")
    p_convert.set_defaults(func=_cmd_convert)

    p_classify = sub.add_parser("classify", help="classify a stored HTTP log")
    _add_ecosystem_flags(p_classify)
    _add_robustness_flags(p_classify)
    _add_checkpoint_flags(p_classify)
    _add_parallel_flags(p_classify)
    _add_cache_flags(p_classify)
    _add_snapshot_flags(p_classify)
    p_classify.add_argument("--trace", required=True)
    p_classify.add_argument("--out", help="write per-request classification TSV")
    p_classify.add_argument("--max-users", type=int,
                            help="LRU-evict idle per-user state beyond this many users")
    p_classify.add_argument("--reorder-window", type=float,
                            help="re-sort out-of-order records within this many seconds")
    p_classify.set_defaults(func=_cmd_classify)

    p_usage = sub.add_parser("usage", help="ad-blocker usage study over stored logs")
    _add_ecosystem_flags(p_usage)
    _add_robustness_flags(p_usage)
    _add_checkpoint_flags(p_usage)
    _add_cache_flags(p_usage)
    _add_snapshot_flags(p_usage)
    p_usage.add_argument("--trace", required=True)
    p_usage.add_argument("--tls", required=True)
    p_usage.add_argument("--threshold", type=float, default=0.05)
    p_usage.add_argument("--min-requests", type=int, default=1000)
    p_usage.set_defaults(func=_cmd_usage)

    p_lint = sub.add_parser(
        "lint", help="static analysis: filter-list lint / codebase gate (DESIGN.md §9)"
    )
    p_lint.add_argument("files", nargs="*",
                        help="filter-list files to lint (FL001-FL008)")
    p_lint.add_argument("--self", action="store_true",
                        help="lint the repro package itself (RC001-RC004)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--fail-on", choices=("error", "warning"), default="error",
                        help="lowest severity that makes the exit code 1 "
                             "(default error)")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="suppress findings whose fingerprint is in this "
                             "baseline file")
    p_lint.add_argument("--write-baseline", metavar="FILE",
                        help="record current findings as the accepted baseline "
                             "and exit 0")
    p_lint.set_defaults(func=_cmd_lint)

    p_corrupt = sub.add_parser(
        "corrupt", help="inject capture faults into a stored HTTP log (testing)"
    )
    p_corrupt.add_argument("--trace", required=True, help="clean HTTP log TSV")
    p_corrupt.add_argument("--out", required=True, help="damaged HTTP log TSV")
    p_corrupt.add_argument("--rate", type=float, default=0.1,
                           help="fraction of lines hit by unparseable damage")
    p_corrupt.add_argument("--duplicate-rate", type=float, default=0.0)
    p_corrupt.add_argument("--jitter-s", type=float, default=0.0,
                           help="locally shuffle records within this ts window")
    p_corrupt.add_argument("--skew-segments", type=int, default=0)
    p_corrupt.add_argument("--skew-s", type=float, default=0.0)
    p_corrupt.add_argument("--seed", type=int, default=1337)
    p_corrupt.set_defaults(func=_cmd_corrupt)

    p_crawl = sub.add_parser("crawl", help="active measurement study (Table 1)")
    _add_ecosystem_flags(p_crawl)
    p_crawl.add_argument("--sites", type=int, default=100)
    p_crawl.add_argument("--seed", type=int, default=4)
    p_crawl.set_defaults(func=_cmd_crawl)

    p_report = sub.add_parser("report", help="traffic characterization (Table 4)")
    _add_ecosystem_flags(p_report)
    _add_robustness_flags(p_report)
    _add_checkpoint_flags(p_report)
    _add_parallel_flags(p_report)
    _add_cache_flags(p_report)
    _add_snapshot_flags(p_report)
    p_report.add_argument("--trace", required=True)
    p_report.set_defaults(func=_cmd_report)

    p_compile = sub.add_parser(
        "compile-lists",
        help="compile filter lists into a precompiled engine snapshot "
             "(DESIGN.md §15)",
    )
    _add_ecosystem_flags(p_compile)
    p_compile.add_argument("--lists", nargs="+", metavar="FILE",
                           help="filter-list files to compile; omit to compile "
                                "the synthetic ecosystem's lists")
    p_compile.add_argument("--lint", choices=("off", "refuse", "quarantine"),
                           default="refuse",
                           help="filter-list lint gate applied before compiling "
                                "(default refuse; DESIGN.md §9.4)")
    p_compile.add_argument("--out", required=True,
                           help="snapshot path (restored via --engine-snapshot)")
    p_compile.set_defaults(func=_cmd_compile_lists)

    p_serve = sub.add_parser(
        "serve", help="long-lived classification daemon (DESIGN.md §13)"
    )
    _add_ecosystem_flags(p_serve)
    _add_cache_flags(p_serve)
    p_serve.add_argument("--lists", nargs="+", metavar="FILE",
                         help="filter-list files to serve (re-read on reload); "
                              "omit to serve the synthetic ecosystem's lists")
    p_serve.add_argument("--lint", choices=("off", "refuse", "quarantine"),
                         default="refuse",
                         help="filter-list lint gate applied on load and on every "
                              "reload (default refuse; DESIGN.md §9.4)")
    p_serve.add_argument("--engine-snapshot", metavar="FILE",
                         help="serve a `repro compile-lists` snapshot; SIGHUP / "
                              "POST /-/reload re-reads the file, so swapping the "
                              "artifact is a zero-parse hot reload; a snapshot "
                              "that fails validation at startup exits 6, on "
                              "reload keeps the last good engine serving")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8400,
                         help="listen port (default 8400; 0 picks a free port)")
    p_serve.add_argument("--queue-depth", type=int, default=1024,
                         help="bounded admission queue depth; beyond it requests "
                              "are shed with 429 + Retry-After (default 1024)")
    p_serve.add_argument("--timeout", type=float, default=5.0, metavar="S",
                         help="per-request deadline; admitted requests not "
                              "answered in time get 503 (default 5)")
    p_serve.add_argument("--concurrency", type=int, default=8,
                         help="classification workers draining the queue "
                              "(default 8)")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0, metavar="S",
                         help="seconds a shutdown signal waits for accepted "
                              "requests before deadlining them (default 10)")
    # Testing hook for the serve chaos harness, e.g.
    # "slow-handler:after=10:delay=0.2;reload-storm:every=5".  The
    # REPRO_CHAOS environment variable is an equivalent spelling.
    p_serve.add_argument("--chaos", metavar="SPEC", help=argparse.SUPPRESS)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LogParseError as exc:
        print(f"error: malformed input at {exc}; rerun with "
              f"--on-error skip|quarantine to degrade gracefully", file=sys.stderr)
        return EXIT_STRICT_ABORT
    except ManifestMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST_MISMATCH
    except SnapshotFingerprintMismatch as exc:
        # The snapshot is valid but compiled from different list content
        # — an identity violation, same contract as a manifest mismatch.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST_MISMATCH
    except SnapshotError as exc:
        print(f"error: {exc}; recompile with `repro compile-lists` or rerun "
              f"with --snapshot-policy rebuild", file=sys.stderr)
        return EXIT_SNAPSHOT_INVALID
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except WorkerFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_FAILURE
    except RunInterrupted as exc:
        print(f"interrupted: {exc}; durable state kept for --resume", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        # Non-durable serial path: no checkpoint to keep, but the exit
        # code contract (130 = interrupted) holds everywhere.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
