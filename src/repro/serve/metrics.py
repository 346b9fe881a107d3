"""Serving metrics: one JSON document, no text scraping.

``/metrics`` is assembled from the same machine-readable substrates the
batch CLI reports through — :meth:`PipelineHealth.summary_dict` and
:class:`CacheStats` — plus the daemon's own admission/reload counters.
The serve chaos tests hold the accounting invariant against this
structure::

    requests == accepted + shed_queue_full + shed_draining
    accepted == served + internal_errors + timed_out
               (+ in_flight, zero at quiescence)

``client_errors`` (400s for bodies the handler rejected) is an
informational *subset* of ``served`` — the request was answered — and
``inline`` (requests answered on the caller's stack without a queue
hop) an informational subset of ``accepted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.filterlist.cache import CacheStats
from repro.robustness.health import PipelineHealth

__all__ = ["ServeMetrics"]


@dataclass(slots=True)
class ServeMetrics:
    """Counters for one daemon process (all transient by nature)."""

    accepted: int = 0
    inline: int = 0
    served: int = 0
    client_errors: int = 0
    internal_errors: int = 0
    timed_out: int = 0
    shed_queue_full: int = 0
    shed_draining: int = 0
    reloads_attempted: int = 0
    reloads_succeeded: int = 0
    reloads_failed: int = 0
    reloads_noop: int = 0
    health: PipelineHealth = field(default_factory=PipelineHealth)

    # -- admission bookkeeping (single-owner, via Ticket.claim) ------------

    def book_inline(self) -> None:
        self.accepted += 1
        self.inline += 1

    def book_served(self) -> None:
        self.served += 1

    def book_internal_error(self) -> None:
        self.internal_errors += 1

    def book_timeout(self) -> None:
        self.timed_out += 1

    # -- derived -----------------------------------------------------------

    @property
    def requests(self) -> int:
        return self.accepted + self.shed

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_draining

    @property
    def answered(self) -> int:
        # client_errors are a subset of served, not a separate bucket.
        return self.served + self.internal_errors + self.timed_out

    @property
    def in_flight(self) -> int:
        return self.accepted - self.answered

    def snapshot(
        self,
        *,
        queue_depth: int,
        queued: int,
        draining: bool,
        cache: CacheStats | None,
        cache_entries: int | None = None,
        engine: dict | None = None,
        reload_state: str = "idle",
        generation: int = 0,
    ) -> dict:
        """The ``/metrics`` document (deterministic key order)."""
        data: dict = {
            "serve": {
                "requests": self.requests,
                "accepted": self.accepted,
                "inline": self.inline,
                "served": self.served,
                "client_errors": self.client_errors,
                "internal_errors": self.internal_errors,
                "timed_out": self.timed_out,
                "shed": self.shed,
                "shed_queue_full": self.shed_queue_full,
                "shed_draining": self.shed_draining,
                "in_flight": self.in_flight,
                "queued": queued,
                "queue_depth": queue_depth,
                "draining": draining,
            },
            "reload": {
                "attempted": self.reloads_attempted,
                "succeeded": self.reloads_succeeded,
                "failed": self.reloads_failed,
                "noop": self.reloads_noop,
                "state": reload_state,
                "generation": generation,
            },
            "health": self.health.summary_dict(transient=False),
        }
        if engine is not None:
            data["engine"] = engine
        if cache is not None:
            data["cache"] = {
                "lookups": cache.lookups,
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate,
                "entries": cache_entries if cache_entries is not None else 0,
            }
        return data
