"""Pipeline health accounting for degraded runs.

A single :class:`PipelineHealth` object is threaded through the run
loop (:func:`repro.robustness.runstate.run_serial`: the reader and the
:class:`~repro.core.pipeline.StreamingClassifier` both tally into it)
and returned to the CLI, recording what was seen, dropped, repaired and
quarantined per stage, so a degraded run ends with an explicit
accounting instead of silently shrunken output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.exitcodes import EXIT_CLEAN, EXIT_DEGRADED

__all__ = ["PipelineHealth"]


@dataclass
class PipelineHealth:
    """Counters for one ingestion→classification run.

    The ``cache_*`` counters are **transient** (see ``_TRANSIENT_STATE``):
    they describe this process's decision-cache effectiveness, not the
    run's output, so they are excluded from :meth:`export_state` /
    :meth:`merge_state` / :meth:`summary` — a resumed run restarts them
    at zero and cached vs uncached runs stay byte-identical end to end.
    """

    records_seen: int = 0
    records_ok: int = 0
    records_dropped: int = 0
    records_quarantined: int = 0
    records_repaired: int = 0
    records_reordered: int = 0
    users_evicted: int = 0
    peak_users: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    url_cache_hits: int = 0
    url_cache_misses: int = 0
    worker_restarts: int = 0
    shards_degraded: int = 0
    heartbeat_gaps: int = 0
    # stage name -> Counter of error reasons
    stage_errors: dict[str, Counter] = field(default_factory=dict)

    # Fields deliberately absent from the checkpoint wire form: pure
    # process-local observability that must never survive a resume or
    # flow through a shard fold.  ``tests/test_state_wire.py`` holds
    # every other field to the wire form and these out of it.  The
    # supervision counters
    # (DESIGN.md §12) are parent-side: worker restarts and heartbeat
    # gaps describe *this* process's pool run, not the output — a
    # resumed run legitimately restarts them at zero, and a fault-free
    # run keeps them at zero, which is what preserves serial-vs-parallel
    # and fresh-vs-resumed summary byte-identity.
    _TRANSIENT_STATE = (
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "url_cache_hits",
        "url_cache_misses",
        "worker_restarts",
        "shards_degraded",
        "heartbeat_gaps",
    )

    def record_ok(self) -> None:
        self.records_seen += 1
        self.records_ok += 1

    def record_error(self, stage: str, reason: str, *, quarantined: bool = False) -> None:
        self.records_seen += 1
        self.records_dropped += 1
        if quarantined:
            self.records_quarantined += 1
        self.stage_errors.setdefault(stage, Counter())[reason] += 1

    def record_repair(self, stage: str, reason: str) -> None:
        self.records_repaired += 1
        self.stage_errors.setdefault(stage, Counter())[f"repaired:{reason}"] += 1

    def observe_users(self, active_users: int) -> None:
        if active_users > self.peak_users:
            self.peak_users = active_users

    def add_cache_stats(self, hits: int, misses: int, evictions: int) -> None:
        """Fold decision-cache counters (one engine's or one shard's)."""
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_evictions += evictions

    def add_url_cache_stats(self, hits: int, misses: int) -> None:
        """Fold ``split_url`` memo counters (one process's or one shard's).

        Transient like the decision-cache counters: hit rates describe
        this process's parse-path effectiveness, never the output.  The
        fold splits each request URL once without the memo, so these
        count page URLs and engine-side lookups only.
        """
        self.url_cache_hits += hits
        self.url_cache_misses += misses

    def record_worker_restart(self) -> None:
        """One shard worker was respawned by the supervisor (§12)."""
        self.worker_restarts += 1

    def record_heartbeat_gap(self) -> None:
        """One hung worker was detected (no heartbeat within timeout)."""
        self.heartbeat_gaps += 1

    @property
    def degraded(self) -> bool:
        return self.records_dropped > 0 or self.shards_degraded > 0

    def exit_code(self) -> int:
        return EXIT_DEGRADED if self.degraded else EXIT_CLEAN

    def merge(self, other: "PipelineHealth") -> None:
        self.records_seen += other.records_seen
        self.records_ok += other.records_ok
        self.records_dropped += other.records_dropped
        self.records_quarantined += other.records_quarantined
        self.records_repaired += other.records_repaired
        self.records_reordered += other.records_reordered
        self.users_evicted += other.users_evicted
        self.peak_users = max(self.peak_users, other.peak_users)
        for stage, reasons in other.stage_errors.items():
            self.stage_errors.setdefault(stage, Counter()).update(reasons)

    # -- checkpoint wire form (DESIGN.md §8) ---------------------------

    def export_state(self) -> dict:
        """Primitive-only snapshot for the checkpoint payload."""
        return {
            "records_seen": self.records_seen,
            "records_ok": self.records_ok,
            "records_dropped": self.records_dropped,
            "records_quarantined": self.records_quarantined,
            "records_repaired": self.records_repaired,
            "records_reordered": self.records_reordered,
            "users_evicted": self.users_evicted,
            "peak_users": self.peak_users,
            "stage_errors": {stage: dict(reasons) for stage, reasons in self.stage_errors.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "PipelineHealth":
        """Inverse of :meth:`export_state`."""
        health = cls(
            **{key: value for key, value in state.items() if key != "stage_errors"}
        )
        health.stage_errors = {
            stage: Counter(reasons) for stage, reasons in state["stage_errors"].items()
        }
        return health

    def merge_state(self, state: dict) -> None:
        """Fold an exported snapshot into this accounting.

        The shard-parallel fold (DESIGN.md §10): every counter is a sum
        over disjoint record sets, *including* ``peak_users`` — each
        worker holds its shard's users simultaneously, so the pool's
        peak memory is the sum of the per-shard peaks, not their max
        (contrast :meth:`merge`, which combines alternative runs).
        """
        self.records_seen += state["records_seen"]
        self.records_ok += state["records_ok"]
        self.records_dropped += state["records_dropped"]
        self.records_quarantined += state["records_quarantined"]
        self.records_repaired += state["records_repaired"]
        self.records_reordered += state["records_reordered"]
        self.users_evicted += state["users_evicted"]
        self.peak_users += state["peak_users"]
        for stage, reasons in state["stage_errors"].items():
            self.stage_errors.setdefault(stage, Counter()).update(reasons)

    def cache_summary(self) -> str:
        """Cache effectiveness blocks (decision + url-split), or ``""``.

        Kept out of :meth:`summary` on purpose: the health summary is
        byte-compared across execution plans (serial vs shards, cached
        vs uncached, fresh vs resumed), and cache counters legitimately
        differ between all of those.  The CLI prints this block
        *before* the ``-- pipeline health --`` marker so marker-anchored
        comparisons never see it.
        """
        blocks = []
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            rate = 100.0 * self.cache_hits / lookups
            blocks.append(
                "\n".join(
                    [
                        "-- decision cache --",
                        f"lookups:           {lookups}",
                        f"hits:              {self.cache_hits} ({rate:.1f}%)",
                        f"misses:            {self.cache_misses}",
                        f"evictions:         {self.cache_evictions}",
                    ]
                )
            )
        url_lookups = self.url_cache_hits + self.url_cache_misses
        if url_lookups:
            url_rate = 100.0 * self.url_cache_hits / url_lookups
            blocks.append(
                "\n".join(
                    [
                        "-- url-split cache --",
                        # The fold splits each request URL once, outside the memo.
                        "serves:            page URLs and engine-side lookups",
                        f"lookups:           {url_lookups}",
                        f"hits:              {self.url_cache_hits} ({url_rate:.1f}%)",
                        f"misses:            {self.url_cache_misses}",
                    ]
                )
            )
        return "\n".join(blocks)

    def summary_dict(self, *, transient: bool = True) -> dict:
        """Machine-readable counterpart of :meth:`summary` (+ cache block).

        The durable counters mirror :meth:`export_state`; ``stage_errors``
        reasons are ordered ``(-count, reason)`` like the text summary so
        JSON output is deterministic across execution plans.  With
        ``transient=True`` the process-local observability counters
        (decision cache, supervision) ride along under their own keys —
        ``repro serve``'s ``/metrics`` and ``--health-format=json`` both
        consume this instead of scraping the text block.
        """
        data: dict = {
            "records_seen": self.records_seen,
            "records_ok": self.records_ok,
            "records_dropped": self.records_dropped,
            "records_quarantined": self.records_quarantined,
            "records_repaired": self.records_repaired,
            "records_reordered": self.records_reordered,
            "users_evicted": self.users_evicted,
            "peak_users": self.peak_users,
            "degraded": self.degraded,
            "stage_errors": {
                stage: {
                    reason: count
                    for reason, count in sorted(
                        self.stage_errors[stage].items(), key=lambda kv: (-kv[1], kv[0])
                    )
                }
                for stage in sorted(self.stage_errors)
            },
        }
        if transient:
            lookups = self.cache_hits + self.cache_misses
            url_lookups = self.url_cache_hits + self.url_cache_misses
            data["cache"] = {
                "lookups": lookups,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "hit_rate": self.cache_hits / lookups if lookups else 0.0,
                "url_split_lookups": url_lookups,
                "url_split_hits": self.url_cache_hits,
                "url_split_misses": self.url_cache_misses,
                "url_split_hit_rate": self.url_cache_hits / url_lookups if url_lookups else 0.0,
            }
            data["supervision"] = {
                "worker_restarts": self.worker_restarts,
                "heartbeat_gaps": self.heartbeat_gaps,
                "shards_degraded": self.shards_degraded,
            }
        return data

    def summary(self) -> str:
        lines = [
            "-- pipeline health --",
            f"records seen:      {self.records_seen}",
            f"parsed ok:         {self.records_ok}",
            f"dropped:           {self.records_dropped}"
            + (f" (quarantined: {self.records_quarantined})" if self.records_quarantined else ""),
        ]
        if self.records_repaired:
            lines.append(f"repaired:          {self.records_repaired}")
        if self.records_reordered:
            lines.append(f"out-of-order:      {self.records_reordered}")
        if self.users_evicted:
            lines.append(f"users evicted:     {self.users_evicted}")
        if self.peak_users:
            lines.append(f"peak users held:   {self.peak_users}")
        # Supervision counters (transient, parent-side): zero — and
        # therefore absent — in any fault-free run, so serial/parallel/
        # resumed summaries stay byte-identical unless faults actually
        # happened, in which case honesty wins over comparability.
        if self.worker_restarts:
            lines.append(f"worker restarts:   {self.worker_restarts}")
        if self.heartbeat_gaps:
            lines.append(f"heartbeat gaps:    {self.heartbeat_gaps}")
        if self.shards_degraded:
            lines.append(f"shards degraded:   {self.shards_degraded} (output incomplete)")
        for stage in sorted(self.stage_errors):
            # Not Counter.most_common(): its ties break by insertion
            # order, which differs between a serial run and a shard
            # fold.  Sorting by (-count, reason) keeps the summary
            # byte-identical across execution plans (DESIGN.md §10).
            reasons = sorted(self.stage_errors[stage].items(), key=lambda kv: (-kv[1], kv[0]))
            for reason, count in reasons:
                lines.append(f"  {stage}/{reason}: {count}")
        return "\n".join(lines)
