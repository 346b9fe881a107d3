"""URL parsing and manipulation helpers.

The classification pipeline works almost exclusively on URLs reassembled
from HTTP header fields (``Host`` + request URI, ``Referer``,
``Location``).  This module centralizes the small amount of URL surgery
the rest of the code base needs so that every component agrees on what
a hostname, a registrable domain or a query string is.

The implementation intentionally avoids :mod:`urllib.parse` for the hot
paths: the trace pipeline parses tens of millions of URLs and the
stdlib parser does far more (quoting, params, fragments caching) than
we need.  The semantics are a strict subset of RFC 3986 adequate for
HTTP(S) URLs observed on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "SplitUrl",
    "URL_CACHE_SIZE",
    "split_url",
    "split_url_uncached",
    "join_url",
    "hostname_of",
    "registrable_domain",
    "is_subdomain_of",
    "is_third_party",
    "path_extension",
    "parse_query",
    "format_query",
    "embedded_urls",
]

# Multi-label public suffixes we recognize in addition to plain TLDs.
# A full public-suffix list is overkill for the synthetic ecosystem; these
# cover the suffixes the trace generator and real-world filter samples use.
_MULTI_LABEL_SUFFIXES = frozenset(
    {
        "co.uk",
        "org.uk",
        "ac.uk",
        "gov.uk",
        "com.au",
        "net.au",
        "org.au",
        "co.jp",
        "ne.jp",
        "or.jp",
        "com.br",
        "com.cn",
        "com.tr",
        "co.in",
        "co.kr",
        "com.mx",
        "co.nz",
    }
)


@dataclass(frozen=True, slots=True)
class SplitUrl:
    """A URL decomposed into the pieces the pipeline cares about.

    Attributes:
        scheme: ``http`` or ``https`` (lower-cased); empty for
            scheme-relative input.
        host: lower-cased hostname, without port.
        port: explicit port or ``None``.
        path: the path component, always beginning with ``/`` for
            non-empty paths.
        query: the raw query string without the leading ``?`` (empty
            string when absent).
    """

    scheme: str
    host: str
    port: int | None
    path: str
    query: str

    @property
    def netloc(self) -> str:
        """Host with explicit port when one was present."""
        if self.port is None:
            return self.host
        return f"{self.host}:{self.port}"

    @property
    def origin(self) -> str:
        """``scheme://host[:port]`` for this URL."""
        return f"{self.scheme}://{self.netloc}"

    @property
    def path_and_query(self) -> str:
        if self.query:
            return f"{self.path}?{self.query}"
        return self.path

    def geturl(self) -> str:
        return join_url(self)


#: Bound on the ``split_url`` memo.  Tuned by a size sweep over the RBN-2
#: classify stream (``http.url.cache_hit_rate`` in ``benchmarks/perf``
#: reads the result today): page URLs and
#: referrers repeat heavily while request URLs are near-unique, so the
#: hit rate climbs until the working set of repeated URLs fits and is
#: flat beyond 32Ki entries; 64Ki buys <1pt over 32Ki at twice the
#: retained memory, and an unbounded memo would grow with trace length.
URL_CACHE_SIZE = 32768


@lru_cache(maxsize=URL_CACHE_SIZE)
def split_url(url: str) -> SplitUrl:
    """Split ``url`` into :class:`SplitUrl` components.

    Accepts absolute (``http://…``), scheme-relative (``//host/…``) and
    wire-format request targets when prefixed with a host by the caller.
    Fragments are dropped; they never appear on the wire.

    Results are memoized: traffic is massively repetitive (the same ad
    and CDN URLs recur across users and pageviews) and the pipeline
    historically re-split each URL at several layers.  :class:`SplitUrl`
    is frozen, so sharing one instance across callers is safe.
    """
    scheme = ""
    rest = url
    colon = url.find(":")
    if colon > 0 and url.startswith("//", colon + 1):
        scheme = url[:colon].lower()
        rest = url[colon + 3 :]
    elif url.startswith("//"):
        rest = url[2:]

    frag = rest.find("#")
    if frag >= 0:
        rest = rest[:frag]

    slash = rest.find("/")
    if slash < 0:
        netloc, path_query = rest, ""
    else:
        netloc, path_query = rest[:slash], rest[slash:]

    host, port = netloc, None
    pcolon = netloc.rfind(":")
    if pcolon >= 0 and netloc[pcolon + 1 :].isdigit():
        host = netloc[:pcolon]
        port = int(netloc[pcolon + 1 :])

    qmark = path_query.find("?")
    if qmark < 0:
        path, query = path_query, ""
    else:
        path, query = path_query[:qmark], path_query[qmark + 1 :]

    return SplitUrl(scheme=scheme, host=host.lower(), port=port, path=path, query=query)


#: :func:`split_url` without the memo, for a caller that splits each URL
#: once and keeps the parts: memoising a stream of one-off URLs (the
#: daemon's request URLs) only retains them.
split_url_uncached = split_url.__wrapped__


def join_url(parts: SplitUrl) -> str:
    """Inverse of :func:`split_url`."""
    prefix = f"{parts.scheme}://" if parts.scheme else "//"
    return f"{prefix}{parts.netloc}{parts.path_and_query}"


def hostname_of(url: str) -> str:
    """Return the lower-cased hostname of ``url`` (no port)."""
    return split_url(url).host


@lru_cache(maxsize=65536)
def registrable_domain(host: str) -> str:
    """Return the registrable ("pay-level") domain of ``host``.

    ``ads.tracker.example.com`` -> ``example.com``;
    ``static.news.co.uk`` -> ``news.co.uk``.  IP-address hosts are
    returned unchanged.
    """
    host = host.lower().rstrip(".")
    if not host or host.replace(".", "").isdigit():
        return host
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    last_two = ".".join(labels[-2:])
    if last_two in _MULTI_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    return last_two


def is_subdomain_of(host: str, domain: str) -> bool:
    """True if ``host`` equals ``domain`` or is a subdomain of it."""
    host = host.lower().rstrip(".")
    domain = domain.lower().rstrip(".")
    if host == domain:
        return True
    return host.endswith("." + domain)


def is_third_party(request_host: str, page_host: str) -> bool:
    """ABP third-party semantics: registrable domains differ."""
    return registrable_domain(request_host) != registrable_domain(page_host)


def path_extension(path: str) -> str:
    """Return the lower-case file extension of a URL path, without dot.

    Query strings must already be stripped.  Returns ``""`` when the
    last path segment has no extension.
    """
    slash = path.rfind("/")
    segment = path[slash + 1 :]
    dot = segment.rfind(".")
    if dot <= 0:
        return ""
    ext = segment[dot + 1 :]
    if not ext or not ext.isalnum():
        return ""
    return ext.lower()


def parse_query(query: str) -> list[tuple[str, str]]:
    """Parse a query string into ordered (key, value) pairs.

    Empty components are skipped; a component without ``=`` becomes a
    pair with an empty value, mirroring how browsers serialize forms.
    """
    pairs: list[tuple[str, str]] = []
    if not query:
        return pairs
    for component in query.split("&"):
        if not component:
            continue
        eq = component.find("=")
        if eq < 0:
            pairs.append((component, ""))
        else:
            pairs.append((component[:eq], component[eq + 1 :]))
    return pairs


def format_query(pairs: list[tuple[str, str]]) -> str:
    """Inverse of :func:`parse_query`."""
    parts = []
    for key, value in pairs:
        if value == "" and "=" not in key:
            parts.append(key)
        else:
            parts.append(f"{key}={value}")
    return "&".join(parts)


def embedded_urls(url: str) -> list[str]:
    """Extract URLs embedded inside ``url``'s query string.

    Redirectors and click-trackers carry the target URL in a query
    parameter (``?redirect=http%3A%2F%2F…`` or in the clear).  The
    referrer map uses these to repair chains broken by redirects.
    Both percent-encoded and literal ``http(s)://`` payloads are found.
    """
    found: list[str] = []
    parts = split_url(url)
    if not parts.query:
        return found
    for _key, value in parse_query(parts.query):
        candidate = value
        if "%3A%2F%2F" in candidate or "%3a%2f%2f" in candidate:
            candidate = (
                candidate.replace("%3A", ":")
                .replace("%3a", ":")
                .replace("%2F", "/")
                .replace("%2f", "/")
            )
        if candidate.startswith("http://") or candidate.startswith("https://"):
            found.append(candidate)
    return found
