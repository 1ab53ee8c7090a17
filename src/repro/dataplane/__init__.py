"""The packed binary data plane (mmap-able artifacts, zero third-party deps).

The packed formats share one verified container (:mod:`.format`):

- :mod:`.events` — token-event segments backing the §5 feature cache
- :mod:`.requests` — columnar HAR request tables for §4 replay
- ``kind=graph`` — artifact-graph run-cache entries (:mod:`repro.graph.store`)
- ``kind=snapshot`` — the serving snapshot every shard of the sharded
  daemon mmaps read-only (:mod:`repro.serve.snapshot`)

``python -m repro.dataplane inspect <file>`` prints any artifact's header
and a kind-specific summary.
"""

from .format import (
    FORMAT_VERSION,
    KIND_EVENTS,
    KIND_NAMES,
    KIND_REQUESTS,
    KIND_SNAPSHOT,
    MAGIC,
    DataPlaneError,
    MappedArtifact,
    inspect_header,
    write_artifact,
)
from .events import EventSegmentReader, PackedEventCache, write_event_segment
from .requests import RequestTable, write_request_table

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "KIND_EVENTS",
    "KIND_REQUESTS",
    "KIND_SNAPSHOT",
    "KIND_NAMES",
    "DataPlaneError",
    "MappedArtifact",
    "inspect_header",
    "write_artifact",
    "EventSegmentReader",
    "PackedEventCache",
    "write_event_segment",
    "RequestTable",
    "write_request_table",
]
