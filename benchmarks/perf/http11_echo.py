"""The serve transport alone: ``HttpServer`` with a constant handler.

Started as a subprocess by the traced pass so that the load generator
and the server each have a core, as they do against the real daemon.
Prints the bound port, serves until SIGTERM.
"""

from __future__ import annotations

import asyncio
import signal

from repro.serve.http11 import HttpServer, Request, Response

_REPLY = Response(status=200, body=b'{"ok":true}\n')


async def _handler(request: Request) -> Response:
    return _REPLY


async def main() -> None:
    server = HttpServer(_handler, port=0)
    port = await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(port, flush=True)
    await stop.wait()
    await server.close(grace_s=1.0)


if __name__ == "__main__":
    asyncio.run(main())
