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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.http.url import embedded_urls_in_query, split_url

__all__ = ["Attribution", "ReferrerMap"]

_MAX_ENTRIES = 100_000  # per-user safety cap for multi-day traces


@dataclass(frozen=True, slots=True)
class Attribution:
    """Where one request was placed in the page structure."""

    page_url: str
    is_page_root: bool
    via: str  # "referer" | "location" | "embedded" | "root"


class ReferrerMap:
    """Streaming page-attribution state for ONE user's requests.

    Feed requests in timestamp order via :meth:`observe`.
    """

    def __init__(self, *, track_embedded: bool = True) -> None:
        self._page_root: dict[str, str] = {}
        self._pending_redirects: dict[str, str] = {}
        self._embedded: dict[str, str] = {}
        self._track_embedded = track_embedded

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
        self._remember(url, attribution.page_url)

        if location is not None:
            # The follow-up request to `location` will have no referer;
            # keep it attached to this request's page (§3.1).
            self._pending_redirects[location] = attribution.page_url
        if self._track_embedded:
            if query is None:
                query = split_url(url).query
            for embedded in embedded_urls_in_query(query):
                self._embedded[embedded] = attribution.page_url
        self._prune()
        return attribution

    def page_of(self, url: str) -> str | None:
        """Current attribution of a URL, if it has been seen."""
        return self._page_root.get(url)

    # -- checkpoint wire form (DESIGN.md §8) ---------------------------

    def export_state(self) -> dict:
        """Primitive-only snapshot; insertion order is part of the state
        (pruning drops the oldest half, so order changes behaviour)."""
        return {
            "page_root": list(self._page_root.items()),
            "pending_redirects": list(self._pending_redirects.items()),
            "embedded": list(self._embedded.items()),
        }

    @classmethod
    def from_state(cls, state: dict, *, track_embedded: bool = True) -> "ReferrerMap":
        """Inverse of :meth:`export_state` (``track_embedded`` comes from
        the pipeline config, which the run manifest pins)."""
        instance = cls(track_embedded=track_embedded)
        instance._page_root = dict(state["page_root"])
        instance._pending_redirects = dict(state["pending_redirects"])
        instance._embedded = dict(state["embedded"])
        return instance

    # ------------------------------------------------------------------

    def _attribute(self, url: str, referer: str | None, looks_like_document: bool) -> Attribution:
        if referer:
            root = self._page_root.get(referer, referer)
            # An HTML response with a referer is an embedded
            # subdocument (iframe/widget); it stays inside the
            # referring page.  Link-click navigations are folded into
            # the previous page's root — a same-registrable-domain
            # approximation that preserves the matching context.
            return Attribution(page_url=root, is_page_root=False, via="referer")

        redirect_root = self._pending_redirects.pop(url, None)
        if redirect_root is not None:
            return Attribution(page_url=redirect_root, is_page_root=False, via="location")

        embedded_root = self._embedded.get(url)
        if embedded_root is not None:
            return Attribution(page_url=embedded_root, is_page_root=False, via="embedded")

        # No chain information: a direct navigation starts a new page.
        return Attribution(page_url=url, is_page_root=looks_like_document, via="root")

    def _remember(self, url: str, root: str) -> None:
        self._page_root[url] = root

    def _prune(self) -> None:
        if len(self._page_root) > _MAX_ENTRIES:
            # Drop the oldest half (dicts preserve insertion order).
            keep = list(self._page_root.items())[_MAX_ENTRIES // 2 :]
            self._page_root = dict(keep)
        if len(self._embedded) > _MAX_ENTRIES:
            keep = list(self._embedded.items())[_MAX_ENTRIES // 2 :]
            self._embedded = dict(keep)
        if len(self._pending_redirects) > _MAX_ENTRIES:
            self._pending_redirects.clear()
