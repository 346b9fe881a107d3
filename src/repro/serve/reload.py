"""Hot filter-list reload: build off-thread, swap atomically, fall back.

Filter lists churn continuously under publisher counter-blocking
pressure (the arms-race literature in PAPERS.md), so an always-on
classifier must pick up new list contents *without* dropping in-flight
work — and without trusting the new list blindly:

* the replacement engine is built *and compiled* on a worker thread
  (``asyncio.to_thread``) from the same sources the daemon started
  with, inside a :class:`~repro.robustness.retry.RetryPolicy` budget,
  so the event loop never stalls on a multi-second list parse — nor,
  on the first request after a swap, on the engine's compile;
* lint gating (``FilterList.from_text(lint=...)``, DESIGN.md §9.4)
  applies on reload exactly as on startup — a list that fails to parse
  or lint leaves the **last good engine** serving;
* the swap is a single reference assignment keyed by the PR 5 engine
  fingerprint: an *identical* fingerprint keeps the warm decision
  cache (reload was a no-op), a *changed* fingerprint installs a fresh
  :class:`CachingEngine` — which is precisely "the decision cache
  invalidates exactly when the list actually changed";
* requests that grabbed the old engine reference finish against it;
  per-request consistency is free because the swap never mutates an
  engine in place (``CachingEngine`` refuses that anyway, via the
  fingerprint guard).
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Callable

from repro.filterlist.actrie import ACTrieEngine
from repro.filterlist.cache import CacheStats, CachingEngine
from repro.filterlist.engine import FilterEngine
from repro.filterlist.lists import FilterList
from repro.filterlist.snapshot import load_snapshot
from repro.robustness.retry import RetryExhausted, RetryPolicy

__all__ = ["EngineHolder", "EngineSource", "ReloadManager", "ReloadOutcome"]

DEFAULT_RELOAD_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.2, multiplier=2.0, max_delay_s=2.0
)


class EngineSource:
    """Where engines come from: list files, ecosystem, or a snapshot.

    File mode re-reads ``--lists`` paths on every (re)build, which is
    what makes ``SIGHUP`` / ``POST /-/reload`` pick up on-disk changes.
    Ecosystem mode rebuilds deterministically from the generation seed —
    its fingerprint never changes, so reloads are honest no-ops.
    Snapshot mode deserializes a ``repro compile-lists`` artifact in
    milliseconds; a reload re-reads the snapshot file, so replacing the
    artifact on disk and sending ``SIGHUP`` is the zero-parse hot-reload
    path (DESIGN.md §15).  Snapshot bytes are checksummed, not linted —
    lint gating happened at compile time.
    """

    def __init__(
        self,
        *,
        list_paths: list[str] | None = None,
        publishers: int = 300,
        eco_seed: int = 20151028,
        lint: str = "refuse",
        snapshot_path: str | None = None,
    ) -> None:
        if lint not in ("off", "refuse", "quarantine"):
            raise ValueError(f"unknown lint policy {lint!r}")
        if snapshot_path and list_paths:
            raise ValueError("snapshot_path and list_paths are mutually exclusive")
        self.list_paths = list(list_paths or [])
        self.publishers = publishers
        self.eco_seed = eco_seed
        self.lint = lint
        self.snapshot_path = snapshot_path

    def build(self) -> ACTrieEngine:
        """Parse/lint the sources into a fresh, compiled engine (blocking).

        Snapshot mode raises :class:`~repro.filterlist.snapshot.SnapshotError`
        (a ``ValueError`` subclass it is not — the retry policy treats it
        as terminal) when the artifact fails validation; the reload
        manager keeps the last good engine serving in that case.
        """
        if self.snapshot_path:
            return load_snapshot(self.snapshot_path).engine
        engine = ACTrieEngine()
        for name, filter_list in self.load_lists().items():
            engine.add_filters(filter_list.filters, list_name=name)
        engine.compile()
        return engine

    def load_lists(self) -> dict[str, FilterList]:
        if not self.list_paths:
            from repro.filterlist import build_lists
            from repro.web import Ecosystem, EcosystemConfig

            ecosystem = Ecosystem.generate(
                EcosystemConfig(n_publishers=self.publishers, seed=self.eco_seed)
            )
            return build_lists(ecosystem.list_spec())
        lists: dict[str, FilterList] = {}
        for path in self.list_paths:
            name = os.path.splitext(os.path.basename(path))[0]
            with open(path, encoding="utf-8", errors="replace") as stream:
                text = stream.read()
            lists[name] = FilterList.from_text(text, name=name, lint=self.lint)
        return lists

    def describe(self) -> dict:
        if self.snapshot_path:
            return {"mode": "snapshot", "path": self.snapshot_path}
        if self.list_paths:
            return {"mode": "files", "lists": list(self.list_paths), "lint": self.lint}
        return {
            "mode": "ecosystem",
            "publishers": self.publishers,
            "eco_seed": self.eco_seed,
        }


class EngineHolder:
    """The atomically-swappable current engine (+ its decision cache).

    ``classify`` callers must grab :attr:`engine` once per request and
    use that reference throughout — the holder may be pointed at a new
    engine between requests, never during one.
    """

    def __init__(
        self,
        engine: FilterEngine,
        *,
        cache_size: int | None,
    ) -> None:
        self._cache_size = cache_size
        self._generation = 1
        self._retired_stats = CacheStats()
        self._lock = threading.Lock()
        self._engine: CachingEngine | FilterEngine = self._wrap(engine)

    def _wrap(self, engine: FilterEngine) -> CachingEngine | FilterEngine:
        if self._cache_size is None:
            return engine
        return CachingEngine(engine, maxsize=self._cache_size)

    @property
    def engine(self) -> CachingEngine | FilterEngine:
        return self._engine

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def fingerprint(self) -> str:
        return self._engine.fingerprint

    @property
    def cache(self) -> CachingEngine | None:
        engine = self._engine
        return engine if isinstance(engine, CachingEngine) else None

    def cache_stats(self) -> CacheStats | None:
        """Cumulative stats across every engine this holder ever served."""
        caching = self.cache
        if caching is None:
            return None
        total = CacheStats(
            hits=self._retired_stats.hits,
            misses=self._retired_stats.misses,
            evictions=self._retired_stats.evictions,
        )
        total.merge(caching.stats)
        return total

    def adopt(self, engine: FilterEngine) -> str:
        """Swap in a freshly-built engine; returns ``"swapped"``/``"noop"``.

        An identical fingerprint proves the list contents did not
        change, so the warm decision cache (and the old engine) stay —
        invalidating it would throw away a ~90% hit rate for nothing.
        A changed fingerprint installs the new engine behind a *fresh*
        cache, the only state change that can never serve a stale
        decision (tests/test_serve_reload.py holds this by property).
        """
        with self._lock:
            if engine.fingerprint == self._engine.fingerprint:
                return "noop"
            caching = self.cache
            if caching is not None:
                self._retired_stats.merge(caching.stats)
            self._engine = self._wrap(engine)
            self._generation += 1
            return "swapped"

    def engine_info(self) -> dict:
        engine = self._engine
        return {
            "fingerprint": engine.fingerprint,
            "filter_count": engine.filter_count,
            "lists": engine.list_names,
            "generation": self._generation,
        }


class ReloadOutcome:
    """Result of one reload request (JSON-ready)."""

    def __init__(self, status: str, holder: EngineHolder, error: str | None = None):
        self.status = status  # "swapped" | "noop" | "failed"
        self.error = error
        self.fingerprint = holder.fingerprint
        self.generation = holder.generation

    def to_dict(self) -> dict:
        data = {
            "status": self.status,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
        }
        if self.error is not None:
            data["error"] = self.error
        return data


class ReloadManager:
    """Single-flight reload driver with retry and last-good fallback.

    Concurrent reload triggers (SIGHUP storms, ``POST /-/reload`` from
    several operators, the chaos harness's reload-storm fault) serialize
    on an asyncio lock; each attempt rebuilds from source inside the
    retry budget *off-thread* and reports one of three outcomes.  A
    failure never touches the serving engine: the last good engine
    keeps answering, which is the fallback the arms-race reality
    demands (a broken upstream list push must not take the daemon down).
    """

    def __init__(
        self,
        source: EngineSource,
        holder: EngineHolder,
        *,
        retry: RetryPolicy = DEFAULT_RELOAD_RETRY,
        log: Callable[[str], None] = lambda message: None,
    ) -> None:
        self.source = source
        self.holder = holder
        self.retry = retry
        self.log = log
        self.in_progress = False
        self._lock = asyncio.Lock()

    async def reload(self) -> ReloadOutcome:
        async with self._lock:
            self.in_progress = True
            try:
                engine = await asyncio.to_thread(self._build_with_retry)
            except RetryExhausted as exc:
                self.log(f"reload failed, keeping last good engine: {exc}")
                return ReloadOutcome("failed", self.holder, error=str(exc))
            finally:
                self.in_progress = False
            status = self.holder.adopt(engine)
            self.log(
                f"reload {status}: engine {self.holder.fingerprint[:12]}… "
                f"generation {self.holder.generation}"
            )
            return ReloadOutcome(status, self.holder)

    def _build_with_retry(self) -> ACTrieEngine:
        return self.retry.run(
            self.source.build,
            retry_on=(OSError, ValueError),
            on_retry=lambda attempt, exc: self.log(
                f"reload attempt {attempt + 1} failed: {exc!r}; retrying"
            ),
        )
