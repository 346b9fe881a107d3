"""Routing, request handling, and signal-driven lifecycle for the daemon.

:class:`ServeApp` wires the serving layers together::

    HttpServer ── _route ──► /healthz /readyz /metrics  (always on)
                       └───► POST /classify ─► AdmissionQueue ─► engine
                       └───► POST /-/reload ─► ReloadManager ─► EngineHolder

(``_route`` answers synchronously wherever it can — health, metrics,
routing errors, and a classify the admission queue runs inline — and
returns a coroutine only for a reload or a classify that must queue)
and owns the graceful-drain sequence (DESIGN.md §13.4):

1. a shutdown signal flips the admission queue to draining — new
   classify requests are shed with 503, health endpoints stay up;
2. the listening socket closes; responses start carrying
   ``Connection: close`` so keep-alive clients migrate off;
3. the queue drains: every already-accepted request is answered (or,
   past the drain deadline, resolved as timed out — never dropped);
4. open connections get a short grace to flush, then the loop exits
   with code 0 (SIGTERM) or 130 (SIGINT).

The serve chaos faults (slow-handler, reload-storm, malformed-body)
are injected here, at the same seams real trouble enters: handler
latency, operator reload storms, and hostile request bodies.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.core.content_type import type_from_mime, type_from_path
from repro.exitcodes import EXIT_CLEAN as EXIT_OK
from repro.exitcodes import EXIT_INTERRUPTED
from repro.filterlist.cache import DEFAULT_CACHE_SIZE
from repro.filterlist.engine import RequestContext
from repro.filterlist.options import ContentType
from repro.http.url import split_url_uncached
from repro.robustness.crash import ServeFaultInjector
from repro.serve.admission import (
    DEFAULT_CONCURRENCY,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_TIMEOUT_S,
    QUEUED,
    AdmissionQueue,
    DeadlineExceeded,
    Shed,
)
from repro.serve.http11 import HttpServer, Request, Response
from repro.serve.metrics import ServeMetrics
from repro.serve.reload import (
    EngineHolder,
    EngineSource,
    ReloadManager,
    ReloadOutcome,
)

__all__ = ["ServeApp", "ServeConfig"]

# Readiness: the queue is "high water" above this fraction of its depth.
DEFAULT_READY_HIGH_WATER = 0.8

# Grace for open connections to flush after the queue drains.
CONNECTION_GRACE_S = 1.0


@dataclass(slots=True)
class ServeConfig:
    """Tunables for one daemon process (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    timeout_s: float = DEFAULT_TIMEOUT_S
    concurrency: int = DEFAULT_CONCURRENCY
    drain_timeout_s: float = 10.0
    cache_size: int | None = DEFAULT_CACHE_SIZE
    ready_high_water: float = DEFAULT_READY_HIGH_WATER
    chaos: str | None = None

    def high_water_mark(self) -> int:
        return max(1, int(self.queue_depth * self.ready_high_water))


# One encoder for every reply: ``json.dumps`` with non-default
# separators would build a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _json_response(status: int, data: dict, **headers: str) -> Response:
    body = _ENCODER.encode(data).encode() + b"\n"
    return Response(status=status, body=body, headers=headers)


def _parse_content_type(value: str | None, path: str) -> ContentType:
    """ABP type name, MIME string, or (absent) inference from the URL path."""
    if value:
        member = ContentType.__members__.get(value.upper().replace("-", "_"))
        if member is not None:
            return member
        if "/" in value:  # looks like a MIME type; those map leniently
            from_mime = type_from_mime(value)
            if from_mime is not None:
                return from_mime
        raise ValueError(f"unknown content type {value!r}")
    return type_from_path(path) or ContentType.OTHER


class _BadBody(Exception):
    """A classify body the handler rejected; answered 400, counted served."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ServeApp:
    """The daemon: one engine holder, one admission queue, one listener."""

    def __init__(
        self,
        holder: EngineHolder,
        source: EngineSource,
        config: ServeConfig,
        *,
        log: Callable[[str], None] = lambda message: None,
    ) -> None:
        self.holder = holder
        self.source = source
        self.config = config
        self.log = log
        self.metrics = ServeMetrics()
        self.manager = ReloadManager(source, holder, log=log)
        self.admission = AdmissionQueue(
            self._classify_payload,
            self.metrics,
            depth=config.queue_depth,
            timeout_s=config.timeout_s,
            concurrency=config.concurrency,
        )
        self.server = HttpServer(self._route, host=config.host, port=config.port)
        self.injector = ServeFaultInjector.from_spec(config.chaos)
        self.draining = False
        self._exit_code = EXIT_OK
        self._shutdown = asyncio.Event()
        self._background: set[asyncio.Task[Any]] = set()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    async def start(self) -> int:
        """Start workers and the listener; returns the bound port."""
        self.admission.start()
        return await self.server.start()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, self.begin_shutdown, EXIT_OK)
        loop.add_signal_handler(signal.SIGINT, self.begin_shutdown, EXIT_INTERRUPTED)
        loop.add_signal_handler(signal.SIGHUP, self._spawn_reload, "SIGHUP")

    def begin_shutdown(self, exit_code: int) -> None:
        """Signal-safe shutdown trigger; idempotent (first signal wins)."""
        if not self._shutdown.is_set():
            self._exit_code = exit_code
            self._shutdown.set()

    def _spawn_reload(self, origin: str) -> None:
        task = asyncio.ensure_future(self._reload(origin))
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def serve_forever(self) -> int:
        """Run until a shutdown signal, then drain; returns the exit code."""
        await self.start()
        self.install_signal_handlers()
        self.log(
            f"serving on http://{self.config.host}:{self.port} — engine "
            f"{self.holder.fingerprint[:12]}… "
            f"({self.holder.engine.filter_count} filters), "
            f"queue depth {self.config.queue_depth}"
        )
        await self._shutdown.wait()
        await self.drain()
        return self._exit_code

    async def drain(self) -> None:
        """The four-step graceful drain (module docstring)."""
        self.draining = True
        self.log("drain: refusing new work, finishing accepted requests")
        await self.server.stop_accepting()
        await self.admission.drain(self.config.drain_timeout_s)
        await self.server.wait_connections(grace_s=CONNECTION_GRACE_S)
        for task in tuple(self._background):
            task.cancel()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        self.log(
            f"drain complete: {self.metrics.served} served, "
            f"{self.metrics.timed_out} timed out, {self.metrics.shed} shed"
        )

    # -- routing -----------------------------------------------------------

    def _route(self, request: Request) -> Response | Awaitable[Response]:
        if request.path == "/classify":
            if request.method != "POST":
                return _json_response(405, {"error": "method not allowed"})
            return self._classify(request)
        if request.path == "/healthz":
            if request.method != "GET":
                return _json_response(405, {"error": "method not allowed"})
            return _json_response(200, {"status": "ok"})
        if request.path == "/readyz":
            if request.method != "GET":
                return _json_response(405, {"error": "method not allowed"})
            return self._readyz()
        if request.path == "/metrics":
            if request.method != "GET":
                return _json_response(405, {"error": "method not allowed"})
            return _json_response(200, self._metrics_document())
        if request.path == "/-/reload":
            if request.method != "POST":
                return _json_response(405, {"error": "method not allowed"})
            return self._reload_response()
        return _json_response(404, {"error": f"no route {request.path}"})

    async def _reload_response(self) -> Response:
        outcome = await self._reload("http")
        status = 200 if outcome.status in ("swapped", "noop") else 503
        return _json_response(status, outcome.to_dict())

    def _readyz(self) -> Response:
        reasons: list[str] = []
        if self.draining:
            reasons.append("draining")
        if self.manager.in_progress:
            reasons.append("reloading")
        if self.admission.queued >= self.config.high_water_mark():
            reasons.append("queue above high water")
        if reasons:
            return _json_response(503, {"ready": False, "reasons": reasons})
        return _json_response(200, {"ready": True})

    def _metrics_document(self) -> dict:
        cache = self.holder.cache
        return self.metrics.snapshot(
            queue_depth=self.admission.depth,
            queued=self.admission.queued,
            draining=self.draining,
            cache=self.holder.cache_stats(),
            cache_entries=len(cache.cache) if cache is not None else None,
            engine=self.holder.engine_info(),
            reload_state="loading" if self.manager.in_progress else "idle",
            generation=self.holder.generation,
        )

    # -- /classify ---------------------------------------------------------

    def _classify(self, request: Request) -> Response | Awaitable[Response]:
        body = request.body
        delay_s = 0.0
        if self.injector is not None:
            actions = self.injector.observe()
            if actions.reload:
                self._spawn_reload("chaos")
            if actions.mangle_body:
                body = self.injector.mangle(body)
            delay_s = actions.delay_s
        try:
            outcome = self.admission.try_inline(body, delay_s)
        except Exception as exc:  # handler bugs must answer 500, not kill the connection
            return self._internal_error(exc)
        if outcome is QUEUED:
            return self._classify_queued(body, delay_s)
        return self._classify_response(*outcome)

    async def _classify_queued(self, body: bytes, delay_s: float) -> Response:
        try:
            status, result = await self.admission.submit(body, delay_s)
        except Shed as shed:
            http_status = 503 if shed.reason == "draining" else 429
            return _json_response(
                http_status,
                {"error": shed.reason},
                **{"Retry-After": f"{shed.retry_after_s:.1f}"},
            )
        except DeadlineExceeded:
            return _json_response(503, {"error": "deadline exceeded"})
        except Exception as exc:  # handler bugs must answer 500, not kill the connection
            return self._internal_error(exc)
        return self._classify_response(status, result)

    def _classify_response(self, status: int, result: dict) -> Response:
        if status != 200:
            self.metrics.client_errors += 1
        return _json_response(status, result)

    def _internal_error(self, exc: Exception) -> Response:
        self.log(f"classify failed: {exc!r}")
        return _json_response(500, {"error": "internal error"})

    def _classify_payload(self, body: bytes) -> tuple[int, dict]:
        """Admission handler, inline and in the workers: parse, classify, shape.

        Client mistakes come back as ``(400, body)`` rather than an
        exception — the request *was* answered, so admission books it
        served and :meth:`_classify_response` adds it to the
        ``client_errors`` subset.
        """
        try:
            return 200, self._classify_body(body)
        except _BadBody as bad:
            return 400, {"error": bad.reason}

    def _classify_body(self, body: bytes) -> dict:
        try:
            document = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.metrics.health.record_error("serve", "malformed json body")
            raise _BadBody(f"malformed JSON body: {exc}") from None
        if not isinstance(document, dict):
            self.metrics.health.record_error("serve", "body not an object")
            raise _BadBody("body must be a JSON object")

        engine = self.holder.engine  # one grab: consistent across the batch
        batch = document.get("records")
        if batch is not None:
            if not isinstance(batch, list):
                self.metrics.health.record_error("serve", "records not a list")
                raise _BadBody('"records" must be a list')
            results = [self._classify_record(engine, record) for record in batch]
            return self._envelope(engine, results=results)
        return self._envelope(engine, result=self._classify_record(engine, document))

    def _envelope(self, engine: Any, **payload: Any) -> dict:
        return {
            "engine": engine.fingerprint[:12],
            "generation": self.holder.generation,
            **payload,
        }

    def _classify_record(self, engine: Any, record: Any) -> dict:
        if not isinstance(record, dict):
            self.metrics.health.record_error("serve", "record not an object")
            raise _BadBody("each record must be a JSON object")
        url = record.get("url")
        if not isinstance(url, str) or not url:
            self.metrics.health.record_error("serve", "missing url")
            raise _BadBody('each record needs a non-empty "url"')
        raw_type = record.get("content_type")
        if raw_type is not None and not isinstance(raw_type, str):
            self.metrics.health.record_error("serve", "bad content_type")
            raise _BadBody('"content_type" must be a string')
        # Split once, unmemoised: request URLs are mostly one-off, and the
        # engine takes the host instead of splitting the URL again.
        parts = split_url_uncached(url)
        try:
            content_type = _parse_content_type(raw_type, parts.path)
        except ValueError as exc:
            self.metrics.health.record_error("serve", "bad content_type")
            raise _BadBody(str(exc)) from None
        page_url = record.get("page_url", "")
        if not isinstance(page_url, str):
            self.metrics.health.record_error("serve", "bad page_url")
            raise _BadBody('"page_url" must be a string')
        context = RequestContext(content_type=content_type, page_url=page_url)
        classification = engine.classify(url, context, request_host=parts.host)
        self.metrics.health.record_ok()
        return {
            "url": url,
            "content_type": content_type.name.lower() if content_type.name else "other",
            "is_ad": classification.is_ad,
            "is_blacklisted": classification.is_blacklisted,
            "is_whitelisted": classification.is_whitelisted,
            "would_block": classification.would_block,
            "blacklist": classification.blacklist_name,
            "whitelist": classification.whitelist_name,
            "blacklist_lists": list(classification.blacklist_lists),
        }

    # -- reload ------------------------------------------------------------

    async def _reload(self, origin: str) -> ReloadOutcome:
        self.metrics.reloads_attempted += 1
        self.log(f"reload requested ({origin})")
        outcome = await self.manager.reload()
        if outcome.status == "swapped":
            self.metrics.reloads_succeeded += 1
        elif outcome.status == "noop":
            self.metrics.reloads_noop += 1
        else:
            self.metrics.reloads_failed += 1
        return outcome
