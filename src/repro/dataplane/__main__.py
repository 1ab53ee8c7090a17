"""``python -m repro.dataplane`` — inspect packed artifacts.

::

    python -m repro.dataplane inspect <file> [--json]

Prints the verified header (kind, version, payload size, sha256) plus a
kind-specific summary: script/event counts for event segments, slot/row
counts for request tables, line counts for serving snapshots.
"""

from __future__ import annotations

import argparse
import json
import sys

from .events import EventSegmentReader
from .format import DataPlaneError, inspect_header
from .requests import RequestTable


def _summarize(path: str) -> dict:
    info = inspect_header(path)
    kind = info["kind"]
    if kind == "events":
        with_reader = EventSegmentReader(path)
        try:
            info.update(
                extractor_version=with_reader.extractor_version,
                scripts=with_reader.script_count,
                events=with_reader.event_count,
            )
        finally:
            with_reader.close()
    elif kind == "requests":
        with RequestTable(path) as table:
            info.update(slots=table.slot_count, rows=table.row_count)
    elif kind == "snapshot":
        from ..serve.snapshot import SnapshotReader

        with SnapshotReader(path) as reader:
            info.update(
                seed=reader.seed,
                network_lines=len(reader.network_lines()),
                element_lines=len(reader.element_lines()),
                detector_bytes=int(reader.meta.get("detector_bytes", 0)),
            )
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dataplane",
        description="Inspect packed data-plane artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    inspect = commands.add_parser("inspect", help="print an artifact's header")
    inspect.add_argument("file", nargs="+", help="artifact path(s)")
    inspect.add_argument(
        "--json", action="store_true", help="emit one JSON object per file"
    )
    options = parser.parse_args(argv)

    status = 0
    for path in options.file:
        try:
            info = _summarize(path)
        except (DataPlaneError, OSError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        if options.json:
            print(json.dumps(info, sort_keys=True))
        else:
            print(f"{info['path']}:")
            for key in sorted(k for k in info if k != "path"):
                print(f"  {key}: {info[key]}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
