"""The four pinned workloads and the sizes every run uses.

Names are fixed: later issues claim against ``<metric> on <workload>``;
``BENCHMARK.json`` says why each was chosen.  Sizes are the floors of the
issue that defined the benchmark (100K records per batch command, a
20K-rule padding list), which is what the driver's time cap (92 runs in
3420 s on two cores) leaves room for: see README.md, "Sizes and the time cap".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WORKLOADS", "Workload", "POOL_WORKERS", "SERVE_CONNECTIONS", "SERVE_BATCH"]

#: ``classify --workers`` of the traced pass's pool run; the host has two cores.
POOL_WORKERS = 2
#: Keep-alive connections of the load generator (= nproc of the reference host).
SERVE_CONNECTIONS = 2
#: Records per request in the traced pass's batched serve leg.
SERVE_BATCH = 64


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    kind: str  # "batch": classify CLI over a stored trace; "serve": the daemon
    fmt: str  # on-disk trace format handed to the program: "tsv" or "bin"
    publishers: int
    page_pool_size: int
    scale: float  # RBN-2 population scale, chosen to yield 10-50 % more than `records`; doubled if short
    records: int  # exact trace length after truncation; the long tail needs 120K to overflow the decision cache
    padding_filters: int  # 0: engine from the ecosystem flags; else snapshot with padding


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rbn2_tsv_serial",
            kind="batch",
            fmt="tsv",
            publishers=300,
            page_pool_size=3,
            scale=0.06,
            records=100_000,
            padding_filters=0,
        ),
        Workload(
            name="rbn2_bin",
            kind="batch",
            fmt="bin",
            publishers=300,
            page_pool_size=3,
            scale=0.06,
            records=100_000,
            padding_filters=0,
        ),
        Workload(
            name="longtail_listscale",
            kind="batch",
            fmt="bin",
            publishers=3000,
            page_pool_size=200,
            scale=0.075,
            records=120_000,
            padding_filters=20_000,
        ),
        Workload(
            name="serve_listscale",
            kind="serve",
            fmt="bin",
            publishers=3000,
            page_pool_size=200,
            scale=0.03,
            records=50_000,
            padding_filters=20_000,
        ),
    )
}
