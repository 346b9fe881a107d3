"""HTTP header records: the ``http.log`` rows the pipeline consumes.

The paper's step 1, Bro turning packets into ``http.log`` rows, lies
outside this system: :func:`repro.trace.records.render_visit` writes the
rows directly from the browser emulator's visits, for ``repro trace``
and ``repro crawl`` alike.  Public surface of :mod:`repro.http`:

* :class:`repro.http.log.HttpLogRecord` — the Bro ``http.log`` analogue
  the classification pipeline consumes, with its TSV and binary
  (:mod:`repro.http.binlog`) encodings.
* :mod:`repro.http.url` — URL splitting and registrable domains.
* :func:`repro.http.useragent.parse_user_agent` — device/browser
  annotation used by the ad-blocker usage study.
"""

from repro.http.log import (
    HttpLogRecord,
    read_log,
    records_from_text,
    records_to_text,
    write_log,
)
from repro.http.url import (
    SplitUrl,
    embedded_urls,
    hostname_of,
    is_third_party,
    join_url,
    parse_query,
    path_extension,
    registrable_domain,
    split_url,
)
from repro.http.useragent import BrowserFamily, DeviceClass, UserAgentInfo, parse_user_agent

__all__ = [
    "HttpLogRecord",
    "read_log",
    "write_log",
    "records_from_text",
    "records_to_text",
    "SplitUrl",
    "split_url",
    "join_url",
    "hostname_of",
    "registrable_domain",
    "is_third_party",
    "path_extension",
    "parse_query",
    "embedded_urls",
    "BrowserFamily",
    "DeviceClass",
    "UserAgentInfo",
    "parse_user_agent",
]
