"""Referrer-map reconstruction of page structure (§3.1, "Referrer Map").

Approximates, from headers alone, which page each request belongs to —
the context Adblock Plus reads off the DOM.  Built per user from the
chain of ``Referer`` values, in the spirit of StreamStructure [38] and
ReSurf [56], with the paper's two chain-repair extensions:

* ``Location`` response headers: the request following a redirection
  carries no referer; the redirect target is pre-registered so the
  follow-up attaches to the right page.
* URLs embedded in query strings (redirectors, click trackers) are
  inserted into the map as well.

The map answers two questions per request: *which page triggered it*
(for ``$domain=`` / third-party semantics) and *is it a page root*
(document vs subdocument typing).

That context is seconds long — a page's embedded requests, redirects
and iframes — so the map forgets on a clock: each table keeps a current
and a previous generation, and :meth:`ReferrerMap.advance` moves current
to previous and drops previous.  Driven one epoch per half horizon
(``StreamingClassifier``, DESIGN.md §5), an entry stays resolvable for
at least half a horizon after its last use and is gone after a whole
one.  A map that is never advanced remembers everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.http.url import embedded_urls_in_query, split_url

__all__ = ["Attribution", "ReferrerMap"]


class _Generations:
    """One table in two generations; a key lives in at most one."""

    __slots__ = ("current", "previous")

    def __init__(self, current: dict[str, str], previous: dict[str, str]) -> None:
        self.current = current
        self.previous = previous

    def get(self, key: str) -> str | None:
        """Look ``key`` up; a hit in the previous generation moves to
        the current one."""
        value = self.current.get(key)
        if value is None and self.previous:
            value = self.previous.pop(key, None)
            if value is not None:
                self.current[key] = value
        return value

    def peek(self, key: str) -> str | None:
        """:meth:`get` without the promotion."""
        value = self.current.get(key)
        return self.previous.get(key) if value is None else value

    def pop(self, key: str) -> str | None:
        value = self.current.pop(key, None)
        if value is None and self.previous:
            value = self.previous.pop(key, None)
        return value

    def put(self, key: str, value: str) -> None:
        self.current[key] = value
        if self.previous:
            self.previous.pop(key, None)

    def rotate(self, steps: int) -> None:
        """Age by ``steps`` (≥ 1) generations."""
        self.previous = self.current if steps == 1 else {}
        self.current = {}

    def export_state(self) -> list:
        return [list(self.current.items()), list(self.previous.items())]

    @classmethod
    def from_state(cls, state: list) -> "_Generations":
        current, previous = state
        return cls(dict(current), dict(previous))


@dataclass(frozen=True, slots=True)
class Attribution:
    """Where one request was placed in the page structure."""

    page_url: str
    is_page_root: bool
    via: str  # "referer" | "location" | "embedded" | "root"


class ReferrerMap:
    """Streaming page-attribution state for ONE user's requests.

    Feed requests in timestamp order via :meth:`observe`; age the map
    with :meth:`advance`.  ``epoch`` is the clock reading the map starts
    at, so that a map made mid-run is not aged by the clock's past.
    """

    def __init__(self, *, track_embedded: bool = True, epoch: int = 0) -> None:
        self._page_root = _Generations({}, {})
        self._pending_redirects = _Generations({}, {})
        self._embedded = _Generations({}, {})
        self._track_embedded = track_embedded
        self._epoch = epoch

    def advance(self, epoch: int) -> None:
        """Move the map's clock to ``epoch``: one step turns the current
        generation into the previous one, two or more forget both, and
        an epoch at or below the map's own changes nothing."""
        steps = epoch - self._epoch
        if steps <= 0:
            return
        self._epoch = epoch
        for table in (self._page_root, self._pending_redirects, self._embedded):
            table.rotate(steps)

    def is_empty(self) -> bool:
        """Whether the map remembers nothing: never used, or advanced
        two epochs past its last use."""
        return not any(
            table.current or table.previous
            for table in (self._page_root, self._pending_redirects, self._embedded)
        )

    def observe(
        self,
        url: str,
        referer: str | None,
        *,
        looks_like_document: bool,
        location: str | None = None,
        query: str | None = None,
    ) -> Attribution:
        """Attribute one request and update the map.

        Args:
            url: the request's absolute URL.
            referer: the Referer header, if any.
            looks_like_document: whether the *response* looks like an
                HTML document (candidate page root).
            location: the Location header of a redirect response.
            query: ``url``'s query string, when the caller has split it.
        """
        attribution = self._attribute(url, referer, looks_like_document)
        self._page_root.put(url, attribution.page_url)

        if location is not None:
            # The follow-up request to `location` will have no referer;
            # keep it attached to this request's page (§3.1).
            self._pending_redirects.put(location, attribution.page_url)
        if self._track_embedded:
            if query is None:
                query = split_url(url).query
            for embedded in embedded_urls_in_query(query):
                self._embedded.put(embedded, attribution.page_url)
        return attribution

    def page_of(self, url: str) -> str | None:
        """Current attribution of a URL, if it is remembered."""
        return self._page_root.peek(url)

    # -- checkpoint wire form (DESIGN.md §8) ---------------------------

    def export_state(self) -> dict:
        """Primitive-only snapshot: the epoch and, per table, the current
        and the previous generation's items."""
        return {
            "epoch": self._epoch,
            "page_root": self._page_root.export_state(),
            "pending_redirects": self._pending_redirects.export_state(),
            "embedded": self._embedded.export_state(),
        }

    @classmethod
    def from_state(cls, state: dict, *, track_embedded: bool = True) -> "ReferrerMap":
        """Inverse of :meth:`export_state` (``track_embedded`` comes from
        the pipeline config, which the run manifest pins)."""
        instance = cls(track_embedded=track_embedded, epoch=state["epoch"])
        instance._page_root = _Generations.from_state(state["page_root"])
        instance._pending_redirects = _Generations.from_state(state["pending_redirects"])
        instance._embedded = _Generations.from_state(state["embedded"])
        return instance

    # ------------------------------------------------------------------

    def _attribute(self, url: str, referer: str | None, looks_like_document: bool) -> Attribution:
        if referer:
            root = self._page_root.get(referer)
            if root is None:
                root = referer
            # An HTML response with a referer is an embedded
            # subdocument (iframe/widget); it stays inside the
            # referring page.  Link-click navigations are folded into
            # the previous page's root — a same-registrable-domain
            # approximation that preserves the matching context.
            return Attribution(page_url=root, is_page_root=False, via="referer")

        redirect_root = self._pending_redirects.pop(url)
        if redirect_root is not None:
            return Attribution(page_url=redirect_root, is_page_root=False, via="location")

        embedded_root = self._embedded.get(url)
        if embedded_root is not None:
            return Attribution(page_url=embedded_root, is_page_root=False, via="embedded")

        # No chain information: a direct navigation starts a new page.
        return Attribution(page_url=url, is_page_root=looks_like_document, via="root")
