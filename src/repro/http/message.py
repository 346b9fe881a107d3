"""HTTP message and transaction models.

These dataclasses are the lingua franca between the substrates: the
browser emulator and trace generator *produce* transactions, the
Bro-like analyzer *reconstructs* them from wire bytes, and the
classification pipeline *consumes* them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.http.url import SplitUrl, absolute_url, split_url

__all__ = ["Headers", "HttpRequest", "HttpResponse", "HttpTransaction"]


class Headers:
    """Case-insensitive, order-preserving HTTP header collection."""

    __slots__ = ("_items",)

    def __init__(self, items: list[tuple[str, str]] | dict[str, str] | None = None):
        if items is None:
            self._items: list[tuple[str, str]] = []
        elif isinstance(items, dict):
            self._items = list(items.items())
        else:
            self._items = list(items)

    def get(self, name: str, default: str | None = None) -> str | None:
        """Return the first value for ``name`` (case-insensitive)."""
        lower = name.lower()
        for key, value in self._items:
            if key.lower() == lower:
                return value
        return default

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with a single value."""
        lower = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lower]
        self._items.append((name, value))

    def add(self, name: str, value: str) -> None:
        self._items.append((name, value))

    def remove(self, name: str) -> None:
        lower = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lower]

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def copy(self) -> "Headers":
        return Headers(self._items)


@dataclass(slots=True)
class HttpRequest:
    """An HTTP request as visible in header traces."""

    method: str
    uri: str
    headers: Headers = field(default_factory=Headers)
    version: str = "HTTP/1.1"

    @property
    def host(self) -> str:
        return (self.headers.get("Host") or "").lower()

    @property
    def referer(self) -> str | None:
        return self.headers.get("Referer")

    @property
    def user_agent(self) -> str | None:
        return self.headers.get("User-Agent")

    @property
    def url(self) -> str:
        """Absolute URL reassembled from Host + request target."""
        return absolute_url(self.host, self.uri)

    def split(self) -> SplitUrl:
        return split_url(self.url)


@dataclass(slots=True)
class HttpResponse:
    """An HTTP response as visible in header traces."""

    status: int
    reason: str = ""
    headers: Headers = field(default_factory=Headers)
    version: str = "HTTP/1.1"
    body_length: int = 0

    @property
    def content_type(self) -> str | None:
        value = self.headers.get("Content-Type")
        if value is None:
            return None
        semi = value.find(";")
        if semi >= 0:
            value = value[:semi]
        return value.strip().lower() or None

    @property
    def content_length(self) -> int | None:
        value = self.headers.get("Content-Length")
        if value is None or not value.strip().isdigit():
            return None
        return int(value.strip())

    @property
    def location(self) -> str | None:
        return self.headers.get("Location")

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308) and self.location is not None


@dataclass(slots=True)
class HttpTransaction:
    """A request/response pair on one TCP flow, with timing.

    Attributes:
        client: anonymized client IP.
        server: server IP.
        ts_request: timestamp of the first request packet (epoch s).
        ts_response: timestamp of the first response packet.
        tcp_handshake_ms: SYN-ACK minus SYN time of the carrying flow —
            the paper's proxy for network RTT (§8.2).
        flow_id: identifier of the TCP flow (persistent connections
            carry several transactions on one flow).
    """

    client: str
    server: str
    request: HttpRequest
    response: HttpResponse | None
    ts_request: float
    ts_response: float | None = None
    tcp_handshake_ms: float = 0.0
    flow_id: int = 0

    @property
    def http_handshake_ms(self) -> float | None:
        """First response packet minus first request packet, in ms."""
        if self.ts_response is None:
            return None
        return max(0.0, (self.ts_response - self.ts_request) * 1000.0)

    @property
    def url(self) -> str:
        return self.request.url
