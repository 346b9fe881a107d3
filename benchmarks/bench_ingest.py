"""Ingestion fast path: TSV vs binary framing.

Engineering benchmarks for DESIGN.md §16.  PR 4's parse/classify split
measured TSV parse as the Amdahl term of the worker pool (parse is
serial-equivalent work every worker repays in full); the binary framing
exists to collapse that term, so this bench is the acceptance gate:
the bin parse phase must run **>=3x** faster than TSV on the 100K
RBN-2 workload, and classification over the two encodings must agree
record-for-record.  Writes ``results/bench_ingest.txt``.
"""

from __future__ import annotations

import pathlib
import time

from repro.http.binlog import write_binlog
from repro.http.log import SeekableLogReader, write_log

_SLICE = 100_000
_ROUNDS = 6


def _corpus(rbn2):
    _, trace, _ = rbn2
    records = list(trace.http[:_SLICE])
    index = 0
    while len(records) < _SLICE:  # tile if the trace came up short
        records.append(trace.http[index % len(trace.http)])
        index += 1
    return records


def _best_parse(path: str) -> tuple[float, int]:
    """Best-of-N full-file parse through the sniffing reader."""
    best = float("inf")
    count = 0
    for _ in range(_ROUNDS):
        with SeekableLogReader(path) as reader:
            started = time.perf_counter()
            count = sum(1 for _ in reader)
            best = min(best, time.perf_counter() - started)
    return best, count


def test_ingest_head_to_head(rbn2, tmp_path_factory, results_dir):
    """TSV vs binlog parse phase, interleaved best-of-6, identity-checked.

    Not a pytest-benchmark: the two readers are timed on the same
    records (written once each) so allocator/thermal drift hits both,
    and record-level identity is asserted first — a fast wrong decoder
    must not win.  Acceptance floor: 3x.
    """
    from conftest import write_result

    records = _corpus(rbn2)
    tmp = tmp_path_factory.mktemp("ingest")
    tsv_path = str(tmp / "trace.tsv")
    bin_path = str(tmp / "trace.bin")
    with open(tsv_path, "w") as stream:
        write_log(records, stream)
    with open(bin_path, "wb") as stream:
        write_binlog(records, stream)

    with SeekableLogReader(tsv_path) as reader:
        from_tsv = list(reader)
    with SeekableLogReader(bin_path) as reader:
        from_bin = list(reader)
    assert from_bin == from_tsv == records  # decode identity before speed

    best = {}
    for _ in range(_ROUNDS):  # interleaved: drift hits both formats equally
        for name, path in (("tsv", tsv_path), ("bin", bin_path)):
            with SeekableLogReader(path) as reader:
                started = time.perf_counter()
                count = sum(1 for _ in reader)
                elapsed = time.perf_counter() - started
            assert count == len(records)
            best[name] = min(best.get(name, float("inf")), elapsed)

    sizes = {
        "tsv": pathlib.Path(tsv_path).stat().st_size,
        "bin": pathlib.Path(bin_path).stat().st_size,
    }
    speedup = best["tsv"] / best["bin"]

    lines = [
        "Ingestion fast path: parse-phase head-to-head (DESIGN.md 16)",
        f"corpus: {len(records)} RBN-2 records",
        "",
        f"{'format':<6} {'size_mib':>9} {'parse_s':>8} {'us/rec':>7} {'rec/s':>10} {'vs tsv':>7}",
    ]
    for name in ("tsv", "bin"):
        lines.append(
            f"{name:<6} {sizes[name] / 2**20:>9.1f} {best[name]:>8.3f} "
            f"{best[name] / len(records) * 1e6:>7.2f} "
            f"{len(records) / best[name]:>10.0f} "
            f"{best['tsv'] / best[name]:>6.2f}x"
        )
    lines += [
        "",
        "(parse is the pool's Amdahl term: T(W) = parse + classify/W,",
        " so the bin column is what every added worker stops repaying)",
        "",
        f"bin speedup over TSV parse: {speedup:.2f}x (acceptance floor: 3x)",
    ]
    write_result(results_dir, "bench_ingest.txt", "\n".join(lines) + "\n")
    assert speedup >= 3.0, f"bin parse speedup regressed: {speedup:.2f}x < 3x"
