"""§7.1-§7.2 analyses: Fig 5 time series, Table 4, Fig 6 size PDFs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.content_type import mime_class
from repro.core.pipeline import ClassifiedRequest
from repro.filterlist.lists import ACCEPTABLE_ADS, EASYLIST, EASYPRIVACY

__all__ = [
    "TimeSeries",
    "ad_timeseries",
    "ContentTypeRow",
    "content_type_table",
    "SizeDistribution",
    "object_size_distributions",
    "traffic_summary",
    "TrafficAccumulator",
]


@dataclass(slots=True)
class TimeSeries:
    """Fig 5: hourly request counts by classification bucket."""

    bin_seconds: float
    start_ts: float
    # Bucket name -> list of per-bin counts.
    requests: dict[str, list[int]] = field(default_factory=dict)
    bytes: dict[str, list[int]] = field(default_factory=dict)

    @property
    def n_bins(self) -> int:
        if not self.requests:
            return 0
        return len(next(iter(self.requests.values())))

    def share(self, bucket: str, of: tuple[str, ...] | None = None, *, by_bytes: bool = False) -> list[float]:
        """Per-bin share of a bucket among all buckets (Fig 5b)."""
        source = self.bytes if by_bytes else self.requests
        series = source.get(bucket, [])
        totals = [0] * self.n_bins
        for counts in source.values():
            for index, value in enumerate(counts):
                totals[index] += value
        return [
            value / total if total else 0.0 for value, total in zip(series, totals)
        ]


_BUCKETS = ("non_ads", EASYLIST, EASYPRIVACY, "non_intrusive")


def _bucket_of(entry: ClassifiedRequest) -> str:
    classification = entry.classification
    if not classification.is_ad:
        return "non_ads"
    if classification.whitelist_name == ACCEPTABLE_ADS:
        return "non_intrusive"
    blacklist = classification.blacklist_name or ""
    if blacklist.startswith(EASYLIST):
        return EASYLIST
    if blacklist == EASYPRIVACY:
        return EASYPRIVACY
    return "non_intrusive"


def ad_timeseries(
    entries: list[ClassifiedRequest], *, bin_seconds: float = 3600.0
) -> TimeSeries:
    """Fig 5a/5b: per-hour ad and non-ad request/byte counts."""
    if not entries:
        return TimeSeries(bin_seconds=bin_seconds, start_ts=0.0)
    start = min(entry.record.ts for entry in entries)
    end = max(entry.record.ts for entry in entries)
    n_bins = int((end - start) // bin_seconds) + 1
    series = TimeSeries(bin_seconds=bin_seconds, start_ts=start)
    for bucket in _BUCKETS:
        series.requests[bucket] = [0] * n_bins
        series.bytes[bucket] = [0] * n_bins
    for entry in entries:
        index = int((entry.record.ts - start) // bin_seconds)
        bucket = _bucket_of(entry)
        series.requests[bucket][index] += 1
        series.bytes[bucket][index] += entry.bytes
    return series


@dataclass(frozen=True, slots=True)
class ContentTypeRow:
    """One row of Table 4."""

    content_type: str
    ad_request_share: float
    ad_byte_share: float
    nonad_request_share: float
    nonad_byte_share: float


def content_type_table(entries: list[ClassifiedRequest], *, top: int = 10) -> list[ContentTypeRow]:
    """Table 4: ad vs non-ad traffic split by declared Content-Type."""
    accumulator = TrafficAccumulator()
    for entry in entries:
        accumulator.add(entry)
    return accumulator.content_type_rows(top=top)


@dataclass(slots=True)
class SizeDistribution:
    """Fig 6: log-size samples per MIME class, ad vs non-ad."""

    # (ad? , mime class) -> log10 sizes
    samples: dict[tuple[bool, str], list[float]] = field(default_factory=dict)

    def density(
        self, is_ad: bool, mime_klass: str, *, bins: int = 60
    ) -> tuple[np.ndarray, np.ndarray]:
        """Histogram-based density of log10(object size)."""
        values = np.asarray(self.samples.get((is_ad, mime_klass), []), dtype=float)
        if values.size == 0:
            return np.zeros(bins), np.linspace(0, 8, bins + 1)
        histogram, edges = np.histogram(values, bins=bins, range=(0, 8), density=True)
        return histogram, edges

    def mode_bytes(self, is_ad: bool, mime_klass: str) -> float | None:
        """Location (bytes) of the density peak — e.g. the 43-byte
        tracking-pixel spike for ad images."""
        histogram, edges = self.density(is_ad, mime_klass)
        if not histogram.any():
            return None
        peak = int(np.argmax(histogram))
        return float(10 ** ((edges[peak] + edges[peak + 1]) / 2))

    def median_bytes(self, is_ad: bool, mime_klass: str) -> float | None:
        values = self.samples.get((is_ad, mime_klass))
        if not values:
            return None
        return float(10 ** np.median(values))


_FIG6_CLASSES = ("image", "text", "video", "app")


def object_size_distributions(entries: list[ClassifiedRequest]) -> SizeDistribution:
    """Fig 6a/6b input: log sizes keyed by (ad?, MIME class)."""
    distribution = SizeDistribution()
    for entry in entries:
        size = entry.record.content_length
        if not size or size <= 0:
            continue
        klass = mime_class(entry.record.content_type)
        if klass not in _FIG6_CLASSES:
            continue
        key = (entry.is_ad, klass)
        distribution.samples.setdefault(key, []).append(float(np.log10(size)))
    return distribution


@dataclass(frozen=True, slots=True)
class TrafficSummary:
    """§7.1's headline numbers."""

    total_requests: int
    total_bytes: int
    ad_requests: int
    ad_bytes: int
    easylist_share_of_ads: float
    easyprivacy_share_of_ads: float
    non_intrusive_share_of_ads: float

    @property
    def ad_request_share(self) -> float:
        return self.ad_requests / self.total_requests if self.total_requests else 0.0

    @property
    def ad_byte_share(self) -> float:
        return self.ad_bytes / self.total_bytes if self.total_bytes else 0.0


@dataclass(slots=True)
class TrafficAccumulator:
    """Incremental fold of the §7.1 summary and Table 4 counters.

    ``traffic_summary``/``content_type_table`` fold a complete entries
    list through this; durable `repro report` runs instead :meth:`add`
    one entry at a time and checkpoint :meth:`export_state` mid-stream
    (DESIGN.md §8).  Every field is a sum, so the fold does not depend
    on the order entries arrive in: Table 4 breaks equal ad-request
    counts by MIME name, never by dict insertion order.
    """

    total_requests: int = 0
    total_bytes: int = 0
    ad_requests: int = 0
    ad_bytes: int = 0
    by_list: dict[str, int] = field(default_factory=dict)
    ad_requests_by_mime: dict[str, int] = field(default_factory=dict)
    ad_bytes_by_mime: dict[str, int] = field(default_factory=dict)
    nonad_requests_by_mime: dict[str, int] = field(default_factory=dict)
    nonad_bytes_by_mime: dict[str, int] = field(default_factory=dict)

    def add(self, entry: ClassifiedRequest) -> None:
        size = entry.bytes
        mime = entry.record.content_type or "-"
        self.total_requests += 1
        self.total_bytes += size
        if entry.is_ad:
            self.ad_requests += 1
            self.ad_bytes += size
            bucket = _bucket_of(entry)
            self.by_list[bucket] = self.by_list.get(bucket, 0) + 1
            self.ad_requests_by_mime[mime] = self.ad_requests_by_mime.get(mime, 0) + 1
            self.ad_bytes_by_mime[mime] = self.ad_bytes_by_mime.get(mime, 0) + size
        else:
            self.nonad_requests_by_mime[mime] = self.nonad_requests_by_mime.get(mime, 0) + 1
            self.nonad_bytes_by_mime[mime] = self.nonad_bytes_by_mime.get(mime, 0) + size

    def summary(self) -> TrafficSummary:
        denominator = self.ad_requests or 1
        return TrafficSummary(
            total_requests=self.total_requests,
            total_bytes=self.total_bytes,
            ad_requests=self.ad_requests,
            ad_bytes=self.ad_bytes,
            easylist_share_of_ads=self.by_list.get(EASYLIST, 0) / denominator,
            easyprivacy_share_of_ads=self.by_list.get(EASYPRIVACY, 0) / denominator,
            non_intrusive_share_of_ads=self.by_list.get("non_intrusive", 0) / denominator,
        )

    def content_type_rows(self, *, top: int = 10) -> list[ContentTypeRow]:
        total_ad_requests = self.ad_requests or 1
        total_ad_bytes = sum(self.ad_bytes_by_mime.values()) or 1
        total_nonad_requests = sum(self.nonad_requests_by_mime.values()) or 1
        total_nonad_bytes = sum(self.nonad_bytes_by_mime.values()) or 1
        mimes = sorted(
            self.ad_requests_by_mime, key=lambda mime: (-self.ad_requests_by_mime[mime], mime)
        )[:top]
        return [
            ContentTypeRow(
                content_type=mime,
                ad_request_share=self.ad_requests_by_mime[mime] / total_ad_requests,
                ad_byte_share=self.ad_bytes_by_mime.get(mime, 0) / total_ad_bytes,
                nonad_request_share=self.nonad_requests_by_mime.get(mime, 0) / total_nonad_requests,
                nonad_byte_share=self.nonad_bytes_by_mime.get(mime, 0) / total_nonad_bytes,
            )
            for mime in mimes
        ]

    # -- checkpoint wire form (DESIGN.md §8) ---------------------------

    def export_state(self) -> dict:
        return {
            "total_requests": self.total_requests,
            "total_bytes": self.total_bytes,
            "ad_requests": self.ad_requests,
            "ad_bytes": self.ad_bytes,
            "by_list": dict(self.by_list),
            "ad_requests_by_mime": dict(self.ad_requests_by_mime),
            "ad_bytes_by_mime": dict(self.ad_bytes_by_mime),
            "nonad_requests_by_mime": dict(self.nonad_requests_by_mime),
            "nonad_bytes_by_mime": dict(self.nonad_bytes_by_mime),
        }

    @classmethod
    def from_state(cls, state: dict) -> "TrafficAccumulator":
        return cls(**state)

    def merge_state(self, state: dict) -> None:
        """Fold a shard's exported counters into this accumulator.

        Every field is a sum over disjoint entry sets, so shards merge
        in any order (DESIGN.md §10).
        """
        self.total_requests += state["total_requests"]
        self.total_bytes += state["total_bytes"]
        self.ad_requests += state["ad_requests"]
        self.ad_bytes += state["ad_bytes"]
        for target, shard in (
            (self.by_list, state["by_list"]),
            (self.ad_requests_by_mime, state["ad_requests_by_mime"]),
            (self.ad_bytes_by_mime, state["ad_bytes_by_mime"]),
            (self.nonad_requests_by_mime, state["nonad_requests_by_mime"]),
            (self.nonad_bytes_by_mime, state["nonad_bytes_by_mime"]),
        ):
            for name, value in shard.items():
                target[name] = target.get(name, 0) + value


def traffic_summary(entries: list[ClassifiedRequest]) -> TrafficSummary:
    """§7.1: ad shares of requests/bytes and the per-list breakdown."""
    accumulator = TrafficAccumulator()
    for entry in entries:
        accumulator.add(entry)
    return accumulator.summary()
