"""Shard-parallel execution of the classification pipeline.

``repro classify --workers N`` (DESIGN.md §10) hash-shards the user
space across a pool of worker processes, each running its own
:class:`~repro.core.pipeline.StreamingClassifier` and filter engine,
and folds the results back into output byte-identical to the serial
path.  See :mod:`repro.parallel.worker` for the replication model and
:mod:`repro.parallel.runner` for the deterministic merge and the
per-shard durable-run extension.
"""

from repro.parallel.runner import (
    ParallelRun,
    RunInterrupted,
    WorkerFailure,
    build_ecosystem_pipeline,
)
from repro.parallel.sharding import OrderedRowEmitter, QuarantineMerger, claims_line, shard_of
from repro.parallel.supervision import ShardSlot, WorkerSupervisor
from repro.parallel.worker import WorkerConfig, run_worker

__all__ = [
    "ParallelRun",
    "RunInterrupted",
    "WorkerFailure",
    "WorkerSupervisor",
    "ShardSlot",
    "build_ecosystem_pipeline",
    "OrderedRowEmitter",
    "QuarantineMerger",
    "claims_line",
    "shard_of",
    "WorkerConfig",
    "run_worker",
]
