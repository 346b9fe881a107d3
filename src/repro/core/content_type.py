"""Content-type inference from header traces (§3.1, "Content Type").

Adblock Plus knows each request's type from the DOM (an ``<img>`` tag
is an image); a passive observer must infer it.  Following the paper:

1. map the URL's file extension — ``.png .gif .jpg .svg .ico`` ->
   image, ``.css`` -> stylesheet, ``.js`` -> script, ``.mp4 .avi`` ->
   media;
2. as a rule of thumb, fall back to the ``Content-Type`` response
   header when the extension yields nothing — tolerant of
   format-level mismatches (jpeg vs png) since only general categories
   matter, but vulnerable to the ``text/html``-for-JavaScript
   mislabels that cause the paper's false positives (§4.2);
3. redirect fix-up: a redirecting URL inherits the type of the request
   that follows the ``Location`` (handled by the pipeline, which sees
   both ends of the chain).
"""

from __future__ import annotations

from repro.filterlist.options import ContentType
from repro.http.url import path_extension, split_url

__all__ = [
    "infer_content_type",
    "resolve_content_type",
    "type_from_extension",
    "type_from_mime",
    "type_from_path",
    "mime_class",
]

_EXTENSION_TYPES: dict[str, ContentType] = {
    "png": ContentType.IMAGE,
    "gif": ContentType.IMAGE,
    "jpg": ContentType.IMAGE,
    "jpeg": ContentType.IMAGE,
    "svg": ContentType.IMAGE,
    "ico": ContentType.IMAGE,
    "css": ContentType.STYLESHEET,
    "js": ContentType.SCRIPT,
    "mp4": ContentType.MEDIA,
    "avi": ContentType.MEDIA,
    # Pragmatic additions in the same spirit (common in traces).
    "webm": ContentType.MEDIA,
    "flv": ContentType.MEDIA,
    "ts": ContentType.MEDIA,
    "woff": ContentType.FONT,
    "woff2": ContentType.FONT,
    "ttf": ContentType.FONT,
    "swf": ContentType.OBJECT,
}


def type_from_extension(url: str) -> ContentType | None:
    """Infer the ABP content type from the URL path extension."""
    return type_from_path(split_url(url).path)


def type_from_path(path: str) -> ContentType | None:
    """Infer the ABP content type from the extension of an already-split path."""
    return _EXTENSION_TYPES.get(path_extension(path))


def type_from_mime(mime: str | None, *, is_page_root: bool = False) -> ContentType | None:
    """Infer the ABP content type from a Content-Type header value."""
    if not mime:
        return None
    mime = mime.lower().split(";")[0].strip()
    if mime.startswith("image/"):
        return ContentType.IMAGE
    if mime in ("text/css",):
        return ContentType.STYLESHEET
    if mime.endswith("javascript") or mime in ("text/js", "application/ecmascript"):
        return ContentType.SCRIPT
    if mime.startswith("video/") or mime.startswith("audio/"):
        return ContentType.MEDIA
    if mime in ("application/x-shockwave-flash", "application/futuresplash"):
        return ContentType.OBJECT
    if mime.startswith("font/") or mime in ("application/font-woff", "application/x-font-ttf"):
        return ContentType.FONT
    if mime in ("text/html", "application/xhtml+xml"):
        return ContentType.DOCUMENT if is_page_root else ContentType.SUBDOCUMENT
    if mime in ("application/json", "text/json"):
        return ContentType.XMLHTTPREQUEST
    if mime in ("text/plain", "application/xml", "text/xml"):
        return ContentType.OTHER
    return ContentType.OTHER


def mime_class(mime: str | None) -> str:
    """Coarse MIME class for Fig 6's four-way grouping."""
    if not mime:
        return "other"
    mime = mime.lower().split(";")[0].strip()
    if mime.startswith("image/"):
        return "image"
    if mime.startswith("text/"):
        return "text"
    if mime.startswith("video/") or mime.startswith("audio/"):
        return "video"
    if mime.startswith("application/"):
        return "app"
    return "other"


def infer_content_type(
    url: str,
    mime: str | None,
    *,
    is_page_root: bool = False,
    extension_first: bool = True,
) -> ContentType:
    """Full inference: extension first, header fallback, OTHER default.

    ``extension_first=False`` flips the priority — kept for the
    ablation benchmark on inference order (DESIGN.md §5).
    """
    return resolve_content_type(
        type_from_extension(url),
        type_from_mime(mime),
        is_page_root=is_page_root,
        extension_first=extension_first,
    )


def resolve_content_type(
    from_extension: ContentType | None,
    from_mime: ContentType | None,
    *,
    is_page_root: bool,
    extension_first: bool,
) -> ContentType:
    """:func:`infer_content_type` from its two readings, for a caller
    that has them already: ``type_from_path`` of the URL's path, and
    ``type_from_mime`` of the header as read for a non-root request."""
    from_header = from_mime
    if is_page_root and from_mime is ContentType.SUBDOCUMENT:
        from_header = ContentType.DOCUMENT  # what type_from_mime(is_page_root=True) says
    if extension_first:
        inferred = from_extension or from_header
    else:
        inferred = from_header or from_extension
    if inferred is None:
        return ContentType.DOCUMENT if is_page_root else ContentType.OTHER
    return inferred
