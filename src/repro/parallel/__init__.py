"""Shard-parallel execution of the classification pipeline.

``repro classify --workers N`` (DESIGN.md §10) hash-shards the user
space across a pool of forked worker processes, each feeding the whole
stream to its own :class:`~repro.core.pipeline.StreamingClassifier`
over the parent's pipeline, and folds the results back into output
byte-identical to the serial path.  The parent hands rows to the same
sink a serial run writes through, which puts them in index order, and
writes the rejected lines that shard 0 alone reports.  See
:mod:`repro.parallel.worker` for how a shard feeds the classifier and
:mod:`repro.parallel.runner` for the merge and how a durable pool run
checkpoints.  The user-space hash is :func:`repro.http.log.shard_of`,
next to the record schema it keys on.
"""

from repro.http.log import shard_of
from repro.parallel.runner import ParallelRun, RunInterrupted, WorkerFailure
from repro.parallel.supervision import ShardSlot, WorkerSupervisor
from repro.parallel.worker import WorkerConfig, run_worker

__all__ = [
    "ParallelRun",
    "RunInterrupted",
    "WorkerFailure",
    "WorkerSupervisor",
    "ShardSlot",
    "shard_of",
    "WorkerConfig",
    "run_worker",
]
