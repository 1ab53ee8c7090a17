"""The serve workloads' query streams, drawn from the world the daemon serves.

Run as a child of ``run.py`` in its scrubbed environment::

    python3 perfbench/stream.py --workload serve-bulk --seed 3 --seconds 2 --scale 0.2 --out DIR

It writes two files of ready-to-send wire frames, one per line:
``warm.ndjson`` (the warm-up stream) and ``measured.ndjson``. For
``serve-bulk`` a line is a 64-query ``batch`` frame with a 70/20/10
url/script/page mix; for ``serve-lone`` it is a single ``url`` query.

The traffic is the reproduction's own model of the web at the daemon's
scale: the pages of :meth:`SyntheticWorld.live_snapshot`, the same
snapshots the §4.3 live crawl visits. A ``url`` query is one subresource
request of a page (its URL, resource type and page URL), in page order;
a ``script`` query is one script source of a page; a ``page`` query is a
whole page. Script sources exist only for the crawled top ``n_sites``
(the world leaves the tail's benign sources empty), so script and page
queries come from those sites, and ``url`` queries from any live site.
Sites are visited in an order drawn from ``--seed``; each site serves one
role (urls, scripts or page) in one stream, and the warm-up stream and
the measured stream use disjoint sites, so warming up never warms a
cache the measurement relies on. Queries are built with
:mod:`repro.serve.protocol`, the daemon's own wire format.
"""

from __future__ import annotations

import argparse
import os
from collections import deque
from typing import Dict, List

import numpy as np
from repro.experiments.context import ExperimentContext
from repro.serve.protocol import batch_query, encode, page_query, script_query, url_query

#: Queries per ``batch`` frame on ``serve-bulk``.
FRAME = 64

#: Query mix of ``serve-bulk``: (url, script, page).
MIX = (0.7, 0.2, 0.1)

#: Stream sizes are a ceiling on throughput times ``--seconds``, so a
#: faster daemon does not run out of fresh queries. ``serve-bulk`` is
#: also bounded by the crawled top sites: its stream ends when they do.
CEILING_QPS = {"serve-bulk": 3000, "serve-lone": 8000}

#: Sites set aside for the warm-up stream, taken first from the order.
WARM_SITES = 400


class Sites:
    """Live pages in a seeded site order; each site is taken once."""

    def __init__(self, world, ranks) -> None:
        self.world = world
        self.ranks = [int(rank) for rank in ranks]
        self.taken = set()
        self.cursor = {}

    def take(self, role: str, full: bool):
        """The next untaken page for ``role``; ``full`` asks for a site
        with script sources. Raises ``StopIteration`` when none is left."""
        index = self.cursor.get(role, 0)
        while index < len(self.ranks):
            rank = self.ranks[index]
            index += 1
            if rank in self.taken or (full and rank > self.world.config.n_sites):
                continue
            self.taken.add(rank)
            snapshot = self.world.live_snapshot(rank)
            if snapshot is not None:
                self.cursor[role] = index
                return snapshot
        self.cursor[role] = index
        raise StopIteration


class Traffic:
    """Queries of one stream, drawn from its own sites."""

    def __init__(self, sites: Sites, rng) -> None:
        self.sites = sites
        self.rng = rng
        self.urls: deque = deque()
        self.scripts: deque = deque()

    def url(self) -> Dict:
        while not self.urls:
            page = self.sites.take("url", full=False)
            self.urls.extend(
                url_query(sub.url, page.url, sub.resource_type) for sub in page.subresources
            )
        return self.urls.popleft()

    def script(self) -> Dict:
        while not self.scripts:
            page = self.sites.take("script", full=True)
            self.scripts.extend(
                script_query(script.source) for script in page.scripts if script.source
            )
        return self.scripts.popleft()

    def page(self) -> Dict:
        return page_query(self.sites.take("page", full=True))

    def mixed(self) -> Dict:
        roll = self.rng.random()
        if roll < MIX[0]:
            return self.url()
        if roll < MIX[0] + MIX[1]:
            return self.script()
        return self.page()


def frames(traffic: Traffic, workload: str, queries: int) -> List[bytes]:
    """Wire lines carrying up to ``queries`` queries of ``workload``;
    fewer if the stream's sites run out."""
    lines = []
    try:
        if workload == "serve-lone":
            for _ in range(queries):
                lines.append(encode(traffic.url()))
        else:
            for _ in range(max(queries // FRAME, 1)):
                lines.append(encode(batch_query([traffic.mixed() for _ in range(FRAME)])))
    except StopIteration:
        pass
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CEILING_QPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    world = ExperimentContext.create(scale=args.scale).world
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(world.config.live_top) + 1
    # The warm-up takes its sites from the front of the order, counting
    # top sites apart so that it has script sources too.
    top = order <= world.config.n_sites
    warm_sites = np.concatenate([order[top][: WARM_SITES // 4], order[~top][: WARM_SITES]])
    warm_set = set(warm_sites.tolist())
    measured_sites = [rank for rank in order.tolist() if rank not in warm_set]
    measured = int(CEILING_QPS[args.workload] * args.seconds)
    warm = FRAME * 4 if args.workload == "serve-bulk" else 200
    streams = {
        "warm.ndjson": frames(Traffic(Sites(world, warm_sites), rng), args.workload, warm),
        "measured.ndjson": frames(
            Traffic(Sites(world, measured_sites), rng), args.workload, measured
        ),
    }
    for name, lines in streams.items():
        with open(os.path.join(args.out, name), "wb") as handle:
            handle.writelines(lines)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
