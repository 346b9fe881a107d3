"""Resilience subsystem: error policies, health accounting, quarantine,
and durable (crash-safe, resumable) runs.

Damaged input is the normal case at a passive vantage point (paper
§3.1, §5): truncated TSV lines, garbled fields, capture loss,
out-of-order timestamps, clock skew.  This package provides the shared
vocabulary the ingestion→classification path uses to degrade gracefully
instead of dying on the first bad byte — see DESIGN.md §7.

On top of that, the *run itself* is made durable (DESIGN.md §8):
:mod:`repro.robustness.atomic` (torn-write-free file replacement),
:mod:`repro.robustness.checkpoint` (checksummed generational
checkpoints with fallback), :mod:`repro.robustness.crash` (crash
injection for the equivalence tests) and
:mod:`repro.robustness.runstate` (run manifest + the checkpoint/resume
driver; imported directly to avoid import cycles with the pipeline).
"""

from repro.robustness.health import PipelineHealth
from repro.robustness.policy import ErrorPolicy, LogParseError, RunInterrupted
from repro.robustness.quarantine import QuarantineWriter, read_quarantine
from repro.robustness.atomic import atomic_writer, fsync_dir, replace_atomic
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.robustness.crash import (
    CHAOS_ENV,
    CRASH_EXIT_CODE,
    ChaosSpecError,
    CrashInjector,
    CrashMode,
    FaultAction,
    InjectedCrash,
    ServeFault,
    ServeFaultInjector,
    ServeFaultMode,
    WorkerFault,
    WorkerFaultInjector,
    WorkerFaultMode,
    parse_chaos,
    parse_serve_chaos,
)
from repro.robustness.retry import DEFAULT_RETRY_POLICY, RetryExhausted, RetryPolicy

__all__ = [
    "ErrorPolicy",
    "LogParseError",
    "RunInterrupted",
    "PipelineHealth",
    "QuarantineWriter",
    "read_quarantine",
    "atomic_writer",
    "fsync_dir",
    "replace_atomic",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "CHECKPOINT_VERSION",
    "CrashInjector",
    "CrashMode",
    "InjectedCrash",
    "CRASH_EXIT_CODE",
    "CHAOS_ENV",
    "ChaosSpecError",
    "FaultAction",
    "WorkerFault",
    "WorkerFaultInjector",
    "WorkerFaultMode",
    "parse_chaos",
    "ServeFault",
    "ServeFaultInjector",
    "ServeFaultMode",
    "parse_serve_chaos",
    "RetryPolicy",
    "RetryExhausted",
    "DEFAULT_RETRY_POLICY",
]
