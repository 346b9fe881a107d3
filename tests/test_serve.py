"""The classification daemon: backpressure, drain, reload, chaos.

Everything here drives a real :class:`ServeApp` over real sockets (the
stdlib transport in ``repro.serve.http11``) inside ``asyncio.run`` —
no mocked HTTP.  The acceptance properties:

* exact accounting under chaos load — every request is exactly one of
  served / shed / timed out, and the counters sum to the request total;
* a reload mid-load serves classifications byte-identical to a fresh
  engine built from the new list;
* graceful drain answers every accepted request.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.filterlist.engine import FilterEngine, RequestContext
from repro.filterlist.lists import FilterList
from repro.filterlist.options import ContentType
from repro.serve import EngineHolder, EngineSource, ServeApp, ServeConfig
from repro.serve.app import CONNECTION_GRACE_S
from repro.serve.http11 import MAX_HEADERS, MAX_LINE

# Debug-mode loops: a slow callback, an asyncio-logged error or an
# un-awaited coroutine fails the test (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("asyncio_debug")

LIST_V1 = """! serve test list v1
||ads.example.com^
/banner/*
@@||good.example.com^
"""

LIST_V2 = LIST_V1 + "||tracker.example.net^\n"

URLS = [
    "http://ads.example.com/spot.gif",
    "http://tracker.example.net/pixel.js",
    "http://good.example.com/banner/ad.png",
    "http://plain.example.org/article.html",
    "http://cdn.example.org/banner/wide.jpg",
]


# ---------------------------------------------------------------------------
# A tiny dependency-free async HTTP client


async def exchange(
    port: int, *chunks: bytes, pause_s: float = 0.0, half_close: bool = False
) -> bytes:
    """Write ``chunks`` (pausing between them), then read until the daemon closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            if pause_s:
                await asyncio.sleep(pause_s)
        if half_close:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def split_responses(raw: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Every response in ``raw``, in order, framed by ``Content-Length``."""
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append((int(lines[0].split()[1]), headers, rest[:length]))
        raw = rest[length:]
    return responses


async def http(
    port: int, method: str, path: str, body: bytes | None = None
) -> tuple[int, dict[str, str], bytes]:
    payload = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    [response] = split_responses(await exchange(port, head.encode() + payload))
    return response


async def classify(port: int, record: dict) -> tuple[int, dict]:
    status, _, body = await http(port, "POST", "/classify", json.dumps(record).encode())
    return status, json.loads(body)


def classify_request(url: str, *, close: bool = False, eol: bytes = b"\r\n") -> bytes:
    """A raw ``POST /classify`` for ``url``, lines ending in ``eol``."""
    body = json.dumps({"url": url}).encode()
    lines = [b"POST /classify HTTP/1.1", b"Host: t", b"Content-Length: %d" % len(body)]
    if close:
        lines.append(b"Connection: close")
    return eol.join(lines) + eol + eol + body


# ---------------------------------------------------------------------------
# App harness


def write_list(tmp_path, text: str) -> str:
    path = tmp_path / "serve-list.txt"
    path.write_text(text)
    return str(path)


def make_app(tmp_path, *, text: str = LIST_V1, **config_kwargs) -> ServeApp:
    source = EngineSource(list_paths=[write_list(tmp_path, text)])
    holder = EngineHolder(source.build(), cache_size=4096)
    config = ServeConfig(port=0, **config_kwargs)
    return ServeApp(holder, source, config)


async def start(app: ServeApp) -> int:
    return await app.start()


async def stop(app: ServeApp) -> None:
    app.begin_shutdown(0)
    await app.drain()


def check_accounting(app: ServeApp) -> None:
    """The exact-accounting invariant, at quiescence."""
    metrics = app.metrics
    assert metrics.in_flight == 0
    assert metrics.requests == metrics.accepted + metrics.shed
    assert (
        metrics.accepted
        == metrics.served + metrics.internal_errors + metrics.timed_out
    )
    assert metrics.client_errors <= metrics.served


def expected_result(text: str, url: str) -> dict:
    """What a fresh engine built from ``text`` says about ``url``."""
    engine = FilterEngine()
    lst = FilterList.from_text(text, name="serve-list", lint="refuse")
    engine.add_filters(lst.filters, list_name="serve-list")
    from repro.core.content_type import infer_content_type

    content_type = infer_content_type(url, None)
    c = engine.classify(url, RequestContext(content_type=content_type, page_url=""))
    return {
        "url": url,
        "content_type": content_type.name.lower(),
        "is_ad": c.is_ad,
        "is_blacklisted": c.is_blacklisted,
        "is_whitelisted": c.is_whitelisted,
        "would_block": c.would_block,
        "blacklist": c.blacklist_name,
        "whitelist": c.whitelist_name,
        "blacklist_lists": list(c.blacklist_lists),
    }


# ---------------------------------------------------------------------------


class TestClassifyEndpoint:
    def test_single_and_batch_roundtrip(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, doc = await classify(
                port, {"url": "http://ads.example.com/spot.gif"}
            )
            assert status == 200
            assert doc["result"] == expected_result(
                LIST_V1, "http://ads.example.com/spot.gif"
            )
            status, doc = await classify(port, {"records": [{"url": u} for u in URLS]})
            assert status == 200
            assert doc["results"] == [expected_result(LIST_V1, u) for u in URLS]
            await stop(app)
            assert app.metrics.served == 2
            check_accounting(app)

        asyncio.run(scenario())

    def test_explicit_content_type_and_page_url(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            # ABP type name and MIME string are both accepted.
            for spelling in ("script", "application/javascript"):
                status, doc = await classify(
                    port,
                    {
                        "url": "http://ads.example.com/t",
                        "content_type": spelling,
                        "page_url": "http://pub.example.org/",
                    },
                )
                assert status == 200
                assert doc["result"]["content_type"] == "script"
                assert doc["result"]["is_blacklisted"]
            await stop(app)

        asyncio.run(scenario())

    def test_client_errors_are_400_and_counted(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            bad_bodies = [
                b"not json at all",
                b"[1,2,3]",
                json.dumps({"no_url": True}).encode(),
                json.dumps({"url": ""}).encode(),
                json.dumps({"records": {"url": "x"}}).encode(),
                json.dumps({"url": "http://x/", "content_type": "no-such-type"}).encode(),
            ]
            for body in bad_bodies:
                status, _, _ = await http(port, "POST", "/classify", body)
                assert status == 400
            await stop(app)
            assert app.metrics.client_errors == len(bad_bodies)
            # Client errors were *answered*: they count as served.
            assert app.metrics.served == len(bad_bodies)
            assert app.metrics.health.records_dropped == len(bad_bodies)
            check_accounting(app)

        asyncio.run(scenario())

    def test_routing_404_and_405(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, _, _ = await http(port, "GET", "/nope")
            assert status == 404
            status, _, _ = await http(port, "GET", "/classify")
            assert status == 405
            status, _, _ = await http(port, "POST", "/healthz")
            assert status == 405
            await stop(app)

        asyncio.run(scenario())


class TestTransportRobustness:
    def test_malformed_request_line_is_400(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(port, b"GARBAGE\r\n\r\n")
            assert [status for status, _, _ in split_responses(raw)] == [400]
            await stop(app)

        asyncio.run(scenario())

    def test_oversized_header_is_431(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            huge = b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 9000 + b"\r\n\r\n"
            raw = await exchange(port, huge)
            assert [status for status, _, _ in split_responses(raw)] == [431]
            await stop(app)

        asyncio.run(scenario())

    def test_oversized_body_is_413(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            head = b"POST /classify HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"
            raw = await exchange(port, head)
            assert [status for status, _, _ in split_responses(raw)] == [413]
            await stop(app)

        asyncio.run(scenario())

    def test_request_in_one_byte_writes(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            request = classify_request(URLS[0], close=True)
            raw = await exchange(
                port, *(request[i : i + 1] for i in range(len(request))), pause_s=0.001
            )
            [(status, _, body)] = split_responses(raw)
            assert status == 200
            assert json.loads(body)["result"] == expected_result(LIST_V1, URLS[0])
            await stop(app)

        asyncio.run(scenario())

    def test_body_split_across_writes(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            request = classify_request(URLS[1], close=True)
            cut = request.index(b"{") + 5
            raw = await exchange(port, request[:cut], request[cut:], pause_s=0.05)
            [(status, _, body)] = split_responses(raw)
            assert status == 200
            assert json.loads(body)["result"] == expected_result(LIST_V1, URLS[1])
            await stop(app)

        asyncio.run(scenario())

    def test_pipelined_requests_answered_in_order(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(
                port,
                classify_request(URLS[0])
                + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                + classify_request(URLS[4], close=True),
            )
            responses = split_responses(raw)
            assert [status for status, _, _ in responses] == [200, 200, 200]
            assert [headers["connection"] for _, headers, _ in responses] == [
                "keep-alive",
                "keep-alive",
                "close",
            ]
            assert json.loads(responses[0][2])["result"]["url"] == URLS[0]
            assert json.loads(responses[1][2]) == {"status": "ok"}
            assert json.loads(responses[2][2])["result"]["url"] == URLS[4]
            await stop(app)
            assert app.metrics.served == 2
            check_accounting(app)

        asyncio.run(scenario())

    def test_pipelined_request_after_close_gets_no_answer(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(
                port, classify_request(URLS[0], close=True) + classify_request(URLS[1])
            )
            [(status, headers, _)] = split_responses(raw)
            assert status == 200 and headers["connection"] == "close"
            await stop(app)
            assert app.metrics.requests == 1

        asyncio.run(scenario())

    def test_bare_newline_heads(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(
                port,
                classify_request(URLS[0], eol=b"\n")
                + classify_request(URLS[2], close=True, eol=b"\n"),
            )
            responses = split_responses(raw)
            assert [status for status, _, _ in responses] == [200, 200]
            assert json.loads(responses[1][2])["result"] == expected_result(LIST_V1, URLS[2])
            await stop(app)

        asyncio.run(scenario())

    def test_truncated_body_then_eof_is_400(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(
                port,
                b'POST /classify HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"url"',
                half_close=True,
            )
            assert [status for status, _, _ in split_responses(raw)] == [400]
            await stop(app)
            assert app.metrics.requests == 0  # never reached admission

        asyncio.run(scenario())

    def test_header_count_cap(self, tmp_path):
        def request_with(count: int) -> bytes:
            extra = b"".join(b"X-Field-%d: v\r\n" % i for i in range(count - 1))
            return b"GET /healthz HTTP/1.1\r\n" + extra + b"Connection: close\r\n\r\n"

        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(port, request_with(MAX_HEADERS))
            assert [status for status, _, _ in split_responses(raw)] == [200]
            raw = await exchange(port, request_with(MAX_HEADERS + 1))
            assert [status for status, _, _ in split_responses(raw)] == [431]
            await stop(app)

        asyncio.run(scenario())

    def test_oversized_unterminated_line_is_431(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            # No line ending ever arrives: the cap alone must end the wait.
            raw = await exchange(port, b"GET /" + b"a" * (MAX_LINE + 16))
            assert [status for status, _, _ in split_responses(raw)] == [431]
            raw = await exchange(port, b"GET / HTTP/1.1\r\nX-Big: " + b"a" * (MAX_LINE + 16))
            assert [status for status, _, _ in split_responses(raw)] == [431]
            await stop(app)

        asyncio.run(scenario())

    def test_transfer_encoding_is_501_once(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(
                port,
                b"POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b'e\r\n{"url":"http:"}\r\n0\r\n\r\n',
            )
            [(status, headers, _)] = split_responses(raw)
            assert status == 501 and headers["connection"] == "close"
            await stop(app)
            assert app.metrics.requests == 0
            assert app.metrics.health.records_dropped == 0

        asyncio.run(scenario())

    def test_conflicting_content_length_is_400(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            raw = await exchange(
                port,
                b"POST /classify HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 12\r\n\r\n{}GET / HTTP/1.1\r\n\r\n",
            )
            assert [status for status, _, _ in split_responses(raw)] == [400]
            await stop(app)
            assert app.metrics.requests == 0

        asyncio.run(scenario())

    def test_connection_close_spellings_close(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            # Each exchange reads until the daemon closes: one that kept
            # the connection open would time out instead.
            for head in (
                b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n",
                b"GET /healthz HTTP/1.1\r\nconnection: CLOSE\r\n\r\n",
                b"GET /healthz HTTP/1.0\r\n\r\n",
            ):
                raw = await exchange(port, head)
                [(status, headers, _)] = split_responses(raw)
                assert status == 200 and headers["connection"] == "close"
            # HTTP/1.0 that asks for keep-alive gets it.
            raw = await exchange(
                port,
                b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            assert [status for status, _, _ in split_responses(raw)] == [200, 200]
            await stop(app)

        asyncio.run(scenario())

    def test_idle_keepalive_connection_times_out(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            app.server.idle_timeout_s = 0.2
            port = await start(app)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"Connection: keep-alive" in head
            loop = asyncio.get_running_loop()
            started = loop.time()
            # The body, then EOF once the connection has idled out.
            assert await asyncio.wait_for(reader.read(), timeout=5) == b'{"status":"ok"}\n'
            assert loop.time() - started < 2.0
            writer.close()
            await stop(app)

        asyncio.run(scenario())

    def test_drain_closes_keepalive_and_cuts_idle_connections(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            idle_reader, idle_writer = await asyncio.open_connection("127.0.0.1", port)
            request = b"GET /healthz HTTP/1.1\r\n\r\n"
            writer.write(request)
            assert b"Connection: keep-alive" in await reader.readuntil(b"\r\n\r\n")
            await reader.readuntil(b"\n")  # the body
            loop = asyncio.get_running_loop()
            started = loop.time()
            app.begin_shutdown(0)
            drain = asyncio.ensure_future(app.drain())
            await asyncio.sleep(0.1)
            writer.write(request)
            raw = await asyncio.wait_for(reader.read(), timeout=5)
            [(status, headers, _)] = split_responses(raw)
            assert status == 200 and headers["connection"] == "close"
            # The idle connection is cut at the grace, not at its idle timeout.
            await asyncio.wait_for(drain, timeout=5)
            assert loop.time() - started < CONNECTION_GRACE_S + 1.0
            assert await asyncio.wait_for(idle_reader.read(), timeout=5) == b""
            writer.close()
            idle_writer.close()

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_full_sheds_429_with_retry_after(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=1,
                concurrency=1,
                timeout_s=5.0,
                chaos="slow-handler:delay=0.15:for=1000000",
            )
            port = await start(app)
            results = await asyncio.gather(
                *(classify(port, {"url": u}) for u in URLS + URLS)
            )
            statuses = sorted(status for status, _ in results)
            assert 429 in statuses, statuses
            assert all(status in (200, 429) for status in statuses)
            await stop(app)
            assert app.metrics.shed_queue_full >= 1
            check_accounting(app)

        asyncio.run(scenario())

    def test_retry_after_header_present_on_shed(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=1,
                concurrency=1,
                chaos="slow-handler:delay=0.3:for=1000000",
            )
            port = await start(app)

            async def one(url):
                return await http(
                    port, "POST", "/classify", json.dumps({"url": url}).encode()
                )

            results = await asyncio.gather(*(one(u) for u in URLS * 3))
            shed = [r for r in results if r[0] == 429]
            assert shed, [r[0] for r in results]
            for _, headers, body in shed:
                assert float(headers["retry-after"]) > 0
                assert json.loads(body)["error"] == "queue full"
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_deadline_times_out_with_503(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=8,
                concurrency=1,
                timeout_s=0.1,
                chaos="slow-handler:delay=0.5:for=1000000",
            )
            port = await start(app)
            status, doc = await classify(port, {"url": URLS[0]})
            assert status == 503
            assert doc["error"] == "deadline exceeded"
            # Let the worker finish its sleep so we reach quiescence.
            await asyncio.sleep(0.6)
            await stop(app)
            assert app.metrics.timed_out == 1
            check_accounting(app)

        asyncio.run(scenario())


class TestHealthEndpoints:
    def test_healthz_readyz_metrics(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            status, _, _ = await http(port, "GET", "/healthz")
            assert status == 200
            status, _, body = await http(port, "GET", "/readyz")
            assert status == 200 and json.loads(body) == {"ready": True}
            await classify(port, {"url": URLS[0]})
            status, _, body = await http(port, "GET", "/metrics")
            assert status == 200
            doc = json.loads(body)
            assert doc["serve"]["served"] == 1
            assert doc["serve"]["inline"] == 1  # a free worker slot: no queue hop
            assert doc["engine"]["generation"] == 1
            assert doc["cache"]["lookups"] == 1
            assert doc["health"]["records_ok"] == 1
            # /metrics reuses the same document the CLI emits with
            # --health-format=json (satellite: one health substrate).
            assert set(doc["health"]) <= set(
                app.metrics.health.summary_dict(transient=True)
            )
            await stop(app)

        asyncio.run(scenario())

    def test_readyz_not_ready_while_draining(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            app.draining = True
            app.admission.draining = True
            status, _, body = await http(port, "GET", "/readyz")
            assert status == 503
            assert "draining" in json.loads(body)["reasons"]
            # Classifies are shed with 503 while draining.
            status, headers, _ = await http(
                port, "POST", "/classify", json.dumps({"url": URLS[0]}).encode()
            )
            assert status == 503
            assert "retry-after" in headers
            assert app.metrics.shed_draining == 1
            app.draining = False
            app.admission.draining = False
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_readyz_not_ready_above_high_water(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path, queue_depth=10, ready_high_water=0.0)
            port = await start(app)
            status, _, body = await http(port, "GET", "/readyz")
            # high_water_mark floors at 1, queue is empty: still ready.
            assert status == 200
            app.config.queue_depth = 10
            await stop(app)

        asyncio.run(scenario())


class TestGracefulDrain:
    def test_drain_answers_every_accepted_request(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=64,
                concurrency=2,
                timeout_s=10.0,
                drain_timeout_s=10.0,
                chaos="slow-handler:delay=0.05:for=1000000",
            )
            port = await start(app)
            tasks = [
                asyncio.ensure_future(classify(port, {"url": URLS[i % len(URLS)]}))
                for i in range(10)
            ]
            while app.metrics.requests < 10:
                await asyncio.sleep(0.01)
            app.begin_shutdown(0)
            await app.drain()
            results = await asyncio.gather(*tasks)
            assert [status for status, _ in results] == [200] * 10
            assert app.metrics.served == 10
            assert app.metrics.timed_out == 0
            check_accounting(app)
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await http(port, "GET", "/healthz")

        asyncio.run(scenario())

    def test_drain_deadline_resolves_stragglers_as_timeouts(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=64,
                concurrency=1,
                timeout_s=30.0,
                drain_timeout_s=0.05,
                chaos="slow-handler:delay=0.4:for=1000000",
            )
            port = await start(app)
            tasks = [
                asyncio.ensure_future(classify(port, {"url": URLS[i % len(URLS)]}))
                for i in range(4)
            ]
            while app.metrics.requests < 4:
                await asyncio.sleep(0.01)
            app.begin_shutdown(0)
            await app.drain()
            results = await asyncio.gather(*tasks)
            statuses = sorted(status for status, _ in results)
            # Every accepted request was *answered* — some 200 (already in
            # service), the queued rest 503 — none dropped on the floor.
            assert all(status in (200, 503) for status in statuses), statuses
            assert 503 in statuses
            check_accounting(app)
            assert app.metrics.served + app.metrics.timed_out == 4

        asyncio.run(scenario())

    def test_shutdown_exit_codes(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            await start(app)
            app.begin_shutdown(130)
            app.begin_shutdown(0)  # second signal does not override
            await app.drain()
            return app._exit_code

        assert asyncio.run(scenario()) == 130


class TestHotReload:
    def test_reload_swaps_on_changed_list(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            url = "http://tracker.example.net/pixel.js"
            status, before = await classify(port, {"url": url})
            assert not before["result"]["is_ad"]
            (tmp_path / "serve-list.txt").write_text(LIST_V2)
            status, _, body = await http(port, "POST", "/-/reload")
            outcome = json.loads(body)
            assert outcome["status"] in ("swapped", "noop")
            status, after = await classify(port, {"url": url})
            assert after["result"] == expected_result(LIST_V2, url)
            assert after["generation"] > before["generation"]
            await stop(app)
            assert app.metrics.reloads_succeeded >= 1

        asyncio.run(scenario())

    def test_reload_noop_preserves_warm_cache(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            url = URLS[0]
            await classify(port, {"url": url})
            await classify(port, {"url": url})
            cache = app.holder.cache
            assert cache is not None and cache.stats.hits == 1
            status, _, body = await http(port, "POST", "/-/reload")
            assert json.loads(body)["status"] == "noop"
            await classify(port, {"url": url})
            assert cache.stats.hits == 2  # same cache object, still warm
            await stop(app)
            assert app.metrics.reloads_noop == 1

        asyncio.run(scenario())

    def test_reload_failure_keeps_last_good_engine(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)
            fingerprint = app.holder.fingerprint
            # A catastrophically-backtracking rule: lint=refuse rejects it.
            (tmp_path / "serve-list.txt").write_text("/(a+)+x/$script\n")
            status, _, body = await http(port, "POST", "/-/reload")
            assert status == 503
            outcome = json.loads(body)
            assert outcome["status"] == "failed" and "error" in outcome
            assert app.holder.fingerprint == fingerprint
            # Still serving, off the last good engine.
            status, doc = await classify(port, {"url": URLS[0]})
            assert status == 200
            assert doc["result"] == expected_result(LIST_V1, URLS[0])
            await stop(app)
            assert app.metrics.reloads_failed == 1

        asyncio.run(scenario())

    def test_reload_under_load_matches_fresh_engine(self, tmp_path):
        """Acceptance: reload mid-load, classifications afterwards are
        byte-identical to a fresh engine built from the new list."""

        async def scenario():
            app = make_app(tmp_path, queue_depth=256, concurrency=4)
            port = await start(app)

            stop_flag = asyncio.Event()
            failures: list[tuple[int, dict]] = []

            async def pound():
                i = 0
                while not stop_flag.is_set():
                    status, doc = await classify(port, {"url": URLS[i % len(URLS)]})
                    if status != 200:
                        failures.append((status, doc))
                    i += 1

            pounders = [asyncio.ensure_future(pound()) for _ in range(4)]
            await asyncio.sleep(0.05)
            (tmp_path / "serve-list.txt").write_text(LIST_V2)
            status, _, body = await http(port, "POST", "/-/reload")
            outcome = json.loads(body)
            assert outcome["status"] == "swapped", outcome
            await asyncio.sleep(0.05)
            stop_flag.set()
            await asyncio.gather(*pounders)
            assert not failures, failures[:3]
            # Post-reload answers match a fresh engine on the new list.
            for url in URLS:
                _, doc = await classify(port, {"url": url})
                assert doc["result"] == expected_result(LIST_V2, url)
                assert doc["generation"] == 2
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())


class TestServeChaos:
    def test_malformed_body_chaos_accounts_exactly(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path, chaos="malformed-body:every=3:for=1000000")
            port = await start(app)
            statuses = []
            for i in range(12):
                status, _ = await classify(port, {"url": URLS[i % len(URLS)]})
                statuses.append(status)
            await stop(app)
            # Every third admitted request had its body mangled -> 400.
            assert statuses.count(400) == 4
            assert statuses.count(200) == 8
            assert app.metrics.client_errors == 4
            check_accounting(app)

        asyncio.run(scenario())

    def test_reload_storm_chaos_is_survivable(self, tmp_path):
        async def scenario():
            app = make_app(
                tmp_path, queue_depth=128, chaos="reload-storm:every=2:for=1000000"
            )
            port = await start(app)
            for i in range(10):
                status, _ = await classify(port, {"url": URLS[i % len(URLS)]})
                assert status == 200
            # Storm scheduled reloads; let them all land, then verify the
            # daemon still answers and the accounting held together.
            await asyncio.sleep(0.1)
            status, _, body = await http(port, "GET", "/metrics")
            doc = json.loads(body)
            assert doc["reload"]["attempted"] >= 1
            status, _ = await classify(port, {"url": URLS[0]})
            assert status == 200
            await stop(app)
            check_accounting(app)

        asyncio.run(scenario())

    def test_chaos_under_load_accounting_sums_exactly(self, tmp_path):
        """Acceptance: slow-handler chaos + flood; after quiescence the
        shed/served/timed-out counters sum to the request total."""

        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=4,
                concurrency=2,
                timeout_s=0.25,
                chaos="slow-handler:every=2:delay=0.12:for=1000000",
            )
            port = await start(app)
            results = await asyncio.gather(
                *(classify(port, {"url": URLS[i % len(URLS)]}) for i in range(30))
            )
            statuses = [status for status, _ in results]
            assert all(status in (200, 429, 503) for status in statuses), statuses
            # Quiescence: workers may still be sleeping on claimed tickets.
            await asyncio.sleep(0.3)
            await stop(app)
            metrics = app.metrics
            assert metrics.requests == 30
            assert statuses.count(429) == metrics.shed_queue_full
            assert statuses.count(503) == metrics.timed_out + metrics.shed_draining
            check_accounting(app)

        asyncio.run(scenario())

    def test_inline_and_queued_paths_account_exactly(self, tmp_path):
        """Every other request is delayed, so it must queue; the rest run
        inline whenever the one worker is free.  Both paths book into the
        same identities."""

        async def scenario():
            app = make_app(
                tmp_path,
                queue_depth=8,
                concurrency=1,
                timeout_s=0.5,
                chaos="slow-handler:every=2:delay=0.02:for=1000000",
            )
            port = await start(app)
            results = await asyncio.gather(
                *(classify(port, {"url": URLS[i % len(URLS)]}) for i in range(50))
            )
            statuses = [status for status, _ in results]
            assert all(status in (200, 429, 503) for status in statuses), statuses
            await asyncio.sleep(0.3)
            await stop(app)
            metrics = app.metrics
            assert metrics.requests == 50
            assert 0 < metrics.inline < metrics.accepted
            assert statuses.count(200) == metrics.served
            check_accounting(app)

        asyncio.run(scenario())

    def test_inline_handler_exception_is_500_and_booked(self, tmp_path):
        async def scenario():
            app = make_app(tmp_path)
            port = await start(app)

            def broken(body: bytes) -> dict:
                raise RuntimeError("handler bug")

            app._classify_body = broken  # type: ignore[method-assign]
            status, doc = await classify(port, {"url": URLS[0]})
            assert status == 500 and doc == {"error": "internal error"}
            await stop(app)
            assert app.metrics.inline == 1
            assert app.metrics.internal_errors == 1
            check_accounting(app)

        asyncio.run(scenario())
