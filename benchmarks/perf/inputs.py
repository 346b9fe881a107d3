"""Deterministic input generation for one workload (the set-up step).

Run as a child process with ``PYTHONHASHSEED=0`` — the trace generator is
not reproducible across hash seeds (ROADMAP item 2) — through the
program's public generator API only.  Everything the program under test
later receives is a file written here; ``manifest.json`` records each
file's SHA-256 so two set-ups from one seed can be proven identical
(``run.py --selfcheck`` does).

The reference outputs are written here too, after the ``inputs ready``
line that ends the timed part of set-up, by a plain uncached ``buckets``
pipeline — a matcher configuration the timed commands do not themselves
run.  The batch reference covers the whole trace: the serial CLI buffers
the full stream, so a redirect's content-type fix-up can reach back from
arbitrarily far ahead and no prefix of the trace has a final answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

from workloads import SERVE_BATCH, WORKLOADS, Workload

__all__ = [
    "INPUTS_READY",
    "PADDING_SHAPES",
    "SERVE_SAMPLES",
    "generate",
    "padding_rules",
    "padding_shape",
    "sha256_file",
]

#: Capture window of every trace.  A short window over many households
#: (`Workload.scale`) keeps the record count, and with it the set-up time,
#: steady from seed to seed; the trace is then cut to `Workload.records`.
DURATION_S = 0.6 * 3600.0
#: Non-browser traffic is left out.  Its volume is heavy-tailed (one
#: streaming device made 71 % of the trace of one seed in twenty), and the
#: generator resolves each such request by a scan over every ecosystem
#: host, which made that seed's set-up ten times slower than the others'.
APP_BURSTS_PER_HOUR = 0.0
#: Printed (and flushed) once every input file and the manifest are on disk;
#: the parent stops the set-up clock when it reads this line.
INPUTS_READY = "inputs ready"
#: Serve replies compared field by field, as single requests and inside batches.
SERVE_SAMPLES = 1_000

_WORDS = (
    "ad ads banner track pixel beacon sponsor promo click serve media cdn "
    "stat metric tag sync bid rtb pop native video"
).split()
_TLDS = "com net org io info biz".split()
_TYPES = "image script subdocument stylesheet object xmlhttprequest media".split()

#: EasyList's shape mix, as cumulative shares of the padding rules.
PADDING_SHAPES = (
    ("host_anchor", 0.55),  # ||host^ , half with $third-party
    ("path_typed", 0.80),  # /path/word_*$image,script
    ("query_param", 0.88),  # &param=
    ("domain_scoped", 0.93),  # /path/*$domain=host
    ("exception", 1.00),  # @@||host/path/$type
)


def padding_rules(count: int, seed: int) -> list[str]:
    """``count`` seeded filter rules in EasyList's shape mix.

    Hosts live under ``*-pad.<tld>`` and path/param tokens carry random
    digits, so padding rules enlarge every index the matcher consults
    without deciding any request of the trace.
    """
    rng = random.Random(seed)
    rules = []
    for _ in range(count):
        host = f"{rng.choice(_WORDS)}{rng.randrange(10**6):06d}.{rng.choice(_WORDS)}-pad.{rng.choice(_TLDS)}"
        token = f"{rng.choice(_WORDS)}{rng.randrange(10**5):05d}"
        roll = rng.random()
        if roll < PADDING_SHAPES[0][1]:
            rules.append(f"||{host}^" + ("$third-party" if rng.random() < 0.5 else ""))
        elif roll < PADDING_SHAPES[1][1]:
            types = ",".join(sorted(rng.sample(_TYPES, rng.randint(1, 2))))
            rules.append(f"/{token}/{rng.choice(_WORDS)}_*${types}")
        elif roll < PADDING_SHAPES[2][1]:
            rules.append(f"&{token}id=")
        elif roll < PADDING_SHAPES[3][1]:
            rules.append(f"/{token}/*$domain={host}")
        else:
            rules.append(f"@@||{host}/{rng.choice(_WORDS)}/${rng.choice(_TYPES)}")
    return rules


def padding_shape(rule: str) -> str:
    """Which entry of :data:`PADDING_SHAPES` a padding rule belongs to."""
    if rule.startswith("@@"):
        return "exception"
    if rule.startswith("||"):
        return "host_anchor"
    if rule.startswith("&"):
        return "query_param"
    if "$domain=" in rule:
        return "domain_scoped"
    return "path_typed"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _trace(workload: Workload, seed: int, ecosystem, lists):
    """Exactly ``workload.records`` records: the time-ordered head of an RBN-2 run."""
    from repro.trace import RBNTraceGenerator, rbn2_config

    scale = workload.scale
    while True:
        config = rbn2_config(
            scale=scale,
            duration_s=DURATION_S,
            page_pool_size=workload.page_pool_size,
            app_bursts_per_hour=APP_BURSTS_PER_HOUR,
            seed=seed + 1,
        )
        config.population.seed = seed + 2
        trace = RBNTraceGenerator(config, ecosystem=ecosystem, lists=lists).generate()
        if len(trace.http) >= workload.records:
            break
        scale *= 2  # a quiet population: same seed, more households
    http = trace.http[: workload.records]
    tls = [record for record in trace.tls if record.ts <= http[-1].ts]
    return http, tls, scale


def _serve_request(record) -> dict:
    """The daemon's view of a trace record: url, page context, type hint."""
    from repro.core.content_type import type_from_mime

    request = {"url": record.url, "page_url": record.referrer or ""}
    # An unmapped MIME string is a 400 for the daemon; the pipeline would
    # fall back to URL inference, and so does a request that omits it.
    if record.content_type and type_from_mime(record.content_type) is not None:
        request["content_type"] = record.content_type
    return request


def _serve_expected(engine, request: dict) -> dict:
    from repro.core.content_type import infer_content_type, type_from_mime
    from repro.filterlist.engine import RequestContext

    mime = request.get("content_type")
    content_type = type_from_mime(mime) if mime else infer_content_type(request["url"], None)
    decision = engine.classify(
        request["url"], RequestContext(content_type=content_type, page_url=request["page_url"])
    )
    return {
        "url": request["url"],
        "content_type": content_type.name.lower(),
        "is_ad": decision.is_ad,
        "is_blacklisted": decision.is_blacklisted,
        "is_whitelisted": decision.is_whitelisted,
        "would_block": decision.would_block,
        "blacklist": decision.blacklist_name,
        "whitelist": decision.whitelist_name,
    }


def _lists_and_engine(workload: Workload, seed: int, ecosystem_lists: dict, out_dir: str, path):
    """The workload's filter lists and the reference engine built from them.

    List-scale workloads add the padding list, write every list as text
    and freeze the engine into the snapshot the program will restore.
    """
    from repro.filterlist.engine import FilterEngine
    from repro.filterlist.lists import FilterList
    from repro.filterlist.snapshot import write_snapshot

    lists = dict(ecosystem_lists)
    if workload.padding_filters:
        text = "[Adblock Plus 2.0]\n! Title: padding\n" + "\n".join(
            padding_rules(workload.padding_filters, seed + 3)
        ) + "\n"
        lists["padding"] = FilterList.from_text(text, "padding")
        os.makedirs(os.path.join(out_dir, "lists"), exist_ok=True)
        for name, filter_list in lists.items():
            with open(path(f"lists/{name}.txt"), "w") as stream:
                stream.write(filter_list.to_text())
    engine = FilterEngine()
    for name, filter_list in lists.items():
        engine.add_filters(filter_list.filters, list_name=name)
    if workload.padding_filters:
        write_snapshot(path("engine.snap"), engine, source=f"perf:{workload.name}:{seed}")
    return lists, engine


def _write_batch_inputs(workload: Workload, http, tls, path) -> None:
    from repro.http.binlog import write_binlog
    from repro.http.log import write_log

    for name, records in (("trace", http), ("trace1", http[:1])):
        if workload.fmt == "bin":
            with open(path(f"{name}.bin"), "wb") as stream:
                write_binlog(records, stream)
        else:
            with open(path(f"{name}.tsv"), "w") as stream:
                write_log(records, stream)
    with open(path("tls.tsv"), "w") as stream:
        stream.write("#ts\tclient\tserver\tserver_port\n")
        for record in tls:
            stream.write(f"{record.ts}\t{record.client}\t{record.server}\t{record.server_port}\n")


def _write_batch_reference(lists: dict, http, out_dir: str) -> None:
    from repro.core.pipeline import AdClassificationPipeline, PipelineConfig
    from repro.robustness.runstate import ClassifySink, classification_row

    oracle = AdClassificationPipeline(
        lists, PipelineConfig(matcher="buckets", use_decision_cache=False)
    )
    with open(os.path.join(out_dir, "expected.tsv"), "w") as stream:
        stream.write(ClassifySink.HEADER)
        for entry in oracle.process(http):
            stream.write(classification_row(entry) + "\n")


def _write_serve_reference(engine, requests: list[dict], seed: int, out_dir: str) -> None:
    # Whole batches are sampled so the same indexes can be checked both
    # as single requests and at their position inside a batch reply.
    batches = len(requests) // SERVE_BATCH
    chosen = random.Random(seed + 4).sample(range(batches), SERVE_SAMPLES // SERVE_BATCH + 1)
    with open(os.path.join(out_dir, "serve_expected.jsonl"), "w") as stream:
        for batch in sorted(chosen):
            for index in range(batch * SERVE_BATCH, (batch + 1) * SERVE_BATCH):
                expected = _serve_expected(engine, requests[index])
                stream.write(json.dumps({"index": index, "expected": expected}) + "\n")


def generate(workload: Workload, seed: int, out_dir: str) -> dict:
    """Write every input file of ``workload``, then its reference outputs.

    Returns the manifest (inputs only: the references are not handed to
    the program under test).
    """
    from repro.filterlist import build_lists
    from repro.filterlist.engine import fingerprint_of_filters
    from repro.web import Ecosystem, EcosystemConfig

    os.makedirs(out_dir, exist_ok=True)
    files: dict[str, str] = {}

    def path(name: str) -> str:
        files[name] = os.path.join(out_dir, name)
        return files[name]

    ecosystem = Ecosystem.generate(
        EcosystemConfig(n_publishers=workload.publishers, seed=seed)
    )
    ecosystem_lists = build_lists(ecosystem.list_spec())
    http, tls, scale = _trace(workload, seed, ecosystem, ecosystem_lists)
    lists, engine = _lists_and_engine(workload, seed, ecosystem_lists, out_dir, path)
    if workload.kind == "batch":
        _write_batch_inputs(workload, http, tls, path)
    else:
        requests = [_serve_request(record) for record in http]
        with open(path("requests.jsonl"), "w") as stream:
            for request in requests:
                stream.write(json.dumps(request, separators=(",", ":")) + "\n")

    manifest = {
        "workload": workload.name,
        "seed": seed,
        "records": len(http),
        "tls_records": len(tls),
        "distinct_urls": len({record.url for record in http}),
        "users": len({(record.client, record.user_agent) for record in http}),
        "scale_used": scale,
        "filters": engine.filter_count,
        "filters_by_list": {name: len(fl.filters) for name, fl in lists.items()},
        "engine_fingerprint": fingerprint_of_filters(
            (name, filter_list.filters) for name, filter_list in lists.items()
        ),
        "sha256": {name: sha256_file(file) for name, file in sorted(files.items())},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as stream:
        json.dump(manifest, stream, indent=1, sort_keys=True)
    print(INPUTS_READY, flush=True)

    if workload.kind == "batch":
        _write_batch_reference(lists, http, out_dir)
    else:
        _write_serve_reference(engine, requests, seed, out_dir)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: inputs.py must run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
