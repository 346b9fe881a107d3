"""`repro serve` — the long-lived classification daemon (DESIGN.md §13).

The batch CLI and this service share one engine core: a
:class:`~repro.filterlist.engine.FilterEngine` wrapped in the
:class:`~repro.filterlist.cache.CachingEngine` decision memo, loaded
once and classified against over HTTP.  The serving layers are:

* :mod:`repro.serve.http11` — a dependency-free asyncio HTTP/1.1
  transport (aiohttp is not a hard dependency of this repo; the daemon
  must run on a bare python toolchain);
* :mod:`repro.serve.admission` — inline answers while a worker slot is
  free, else the bounded admission queue with explicit backpressure
  (429 + ``Retry-After``) and per-request deadlines (503);
* :mod:`repro.serve.reload` — hot filter-list reload with atomic
  engine swap, keyed by the engine fingerprint so the decision cache
  invalidates exactly when the list actually changed;
* :mod:`repro.serve.metrics` — the ``/metrics`` JSON built from
  :class:`~repro.robustness.health.PipelineHealth` and
  :class:`~repro.filterlist.cache.CacheStats`;
* :mod:`repro.serve.app` — routing, request handling, signal-driven
  graceful drain.
"""

from repro.serve.admission import AdmissionQueue, DeadlineExceeded, Shed, Ticket
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.metrics import ServeMetrics
from repro.serve.reload import EngineHolder, EngineSource, ReloadManager

__all__ = [
    "AdmissionQueue",
    "DeadlineExceeded",
    "EngineHolder",
    "EngineSource",
    "ReloadManager",
    "ServeApp",
    "ServeConfig",
    "ServeMetrics",
    "Shed",
    "Ticket",
]
