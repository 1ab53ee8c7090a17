"""§4.3 — anti-adblock detection on the live Web.

Crawls the synthetic live web (top ``live_top`` ranks, April 2017) with
the *most recent* versions of the filter lists, mirroring the paper's
Alexa top-100K crawl: count sites triggering HTTP and HTML rules per list,
measure the third-party share of the matches, and extract the matched
anti-adblock scripts for the §5 live classification test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..filterlist.history import FilterListHistory
from ..obs.config import repro_workers
from ..obs.metrics import get_metrics
from ..obs.trace import emit_event
from ..obs.trace import span as trace_span
from ..resilience import ResiliencePolicy, default_resilience
from ..resilience.canonical import Interner
from .pool import map_shards, split_shards
from .rulestats import get_rule_stats
from ..filterlist.matcher import NetworkMatcher
from ..filterlist.parser import FilterList
from ..filterlist.rules import ElementRule
from ..synthesis.world import SyntheticWorld
from ..web.adblocker import Adblocker
from ..web.dom import parse_html
from ..web.page import PageSnapshot
from ..web.url import is_third_party, resource_type_from_url

logger = logging.getLogger("repro.analysis.livecrawl")


@dataclass
class LiveCrawlResult:
    """§4.3's headline numbers."""

    crawled: int = 0
    reachable: int = 0
    http_matches: Dict[str, int] = field(default_factory=dict)
    html_matches: Dict[str, int] = field(default_factory=dict)
    third_party_matches: Dict[str, int] = field(default_factory=dict)
    #: list name -> matched site domains
    detected_domains: Dict[str, List[str]] = field(default_factory=dict)
    #: unique anti-adblock script sources from detected sites (for §5)
    matched_scripts: List[str] = field(default_factory=list)

    def third_party_share(self, list_name: str) -> float:
        """Fraction of a list's HTTP matches that were third-party requests."""
        matches = self.http_matches.get(list_name, 0)
        if matches == 0:
            return 0.0
        return self.third_party_matches.get(list_name, 0) / matches


# -- worker-pool plumbing (module level for pickling) ----------------------------


def _make_wave_crawler(state) -> "LiveCrawler":
    """Worker state: one crawler per worker per wave."""
    world, histories = state
    return LiveCrawler(world, histories)


def _live_range_task(crawler: "LiveCrawler", bounds, check_html: bool):
    """Visit one contiguous range of live ranks.

    Returns ``(payloads, rule_stats_delta)``: per-rank match payloads in
    rank order, plus this range's rule-stats delta (``None`` while the
    plane is off) for the parent to merge — workers record into their
    own process-global collector, which dies with them.
    """
    collector = get_rule_stats()
    rule_snapshot = collector.snapshot() if collector is not None else None
    lo, hi = bounds
    ranked = crawler._ranked()
    payloads = [crawler._visit_site(ranked[i], check_html) for i in range(lo, hi)]
    rule_delta = (
        collector.delta_since(rule_snapshot) if collector is not None else None
    )
    return payloads, rule_delta


class LiveCrawler:
    """Runs the live-web measurement over a synthetic world."""

    def __init__(
        self, world: SyntheticWorld, histories: Dict[str, FilterListHistory]
    ) -> None:
        self.world = world
        self.histories = histories
        self._ranked_cache: Optional[List] = None
        self._matchers = {
            name: NetworkMatcher(history.latest().filter_list.network_rules)
            for name, history in histories.items()
            if history.latest() is not None
        }
        self._adblockers = {
            name: self._element_adblocker(history)
            for name, history in histories.items()
            if history.latest() is not None
        }
        collector = get_rule_stats()
        if collector is not None:
            for name, matcher in self._matchers.items():
                matcher.rule_stats = collector.scope(name)
            for name, adblocker in self._adblockers.items():
                adblocker.rule_stats = collector.scope(name)

    @staticmethod
    def _element_adblocker(history: FilterListHistory) -> Adblocker:
        element_only = FilterList(name=history.name)
        element_only.rules = [
            parsed
            for parsed in history.latest().filter_list.rules
            if isinstance(parsed.rule, ElementRule)
        ]
        return Adblocker([element_only])

    # -- per-site matching -------------------------------------------------------

    def _http_match(
        self, name: str, snapshot: PageSnapshot
    ) -> Optional[Tuple[str, bool]]:
        matcher = self._matchers[name]
        page_domain = snapshot.domain
        for resource in snapshot.subresources:
            url = resource.url
            third_party = is_third_party(url, page_domain)
            result = matcher.match(
                url,
                page_domain=page_domain,
                resource_type=resource.resource_type
                or resource_type_from_url(url, default="script"),
                third_party=third_party,
            )
            if result.blocked:
                return url, third_party
        return None

    def _html_match(
        self, name: str, snapshot: PageSnapshot, document=None
    ) -> bool:
        if not snapshot.html:
            return False
        if document is None:
            document = parse_html(snapshot.html)
        triggered = self._adblockers[name].hide_elements(document, snapshot.url)
        return bool(triggered)

    def _ranked(self) -> List:
        """The live rank list, computed once per crawler."""
        if self._ranked_cache is None:
            self._ranked_cache = list(self.world.live_domains())
        return self._ranked_cache

    # -- crawl ----------------------------------------------------------------------

    #: Emit an INFO heartbeat every this many sites.
    PROGRESS_EVERY = 2000

    #: Ranks visited per parallel wave (bounds in-flight payload memory
    #: and sets the progress/fan-out granularity).
    WAVE_SIZE = 512

    def crawl(
        self,
        check_html: bool = True,
        resilience: Optional[ResiliencePolicy] = None,
        workers: Optional[int] = None,
        wave_size: Optional[int] = None,
    ) -> LiveCrawlResult:
        """Visit every live domain and match against the latest list versions.

        With ``REPRO_CRAWL_JOURNAL`` set, each visited rank's match
        summary checkpoints to the ``live`` journal and an interrupted
        crawl resumes from it, reproducing the uninterrupted result.

        ``workers`` (default: ``REPRO_WORKERS``) > 1 visits ranks in
        parallel waves, one fork pool per wave. Parallel accumulation
        replays payloads in rank order, so the result is byte-identical
        to the serial crawl's. Journaled crawls stay serial (the journal
        is an ordered per-rank checkpoint stream).
        """
        resilience = resilience or default_resilience()
        journal = resilience.journal("live", self._fingerprint(check_html))
        state = journal.load() if journal is not None else None
        workers = repro_workers() if workers is None else max(int(workers), 1)
        with trace_span("live_crawl", lists=len(self.histories)) as span:
            if workers > 1 and journal is None:
                result = self._crawl_parallel(check_html, span, workers, wave_size)
            else:
                result = self._crawl(check_html, span, state=state, journal=journal)
        if journal is not None:
            journal.mark_complete()
            journal.close()
            emit_event("journal_complete", scope="live", path=str(journal.path))
        metrics = get_metrics()
        metrics.count("live.crawled", result.crawled)
        metrics.count("live.reachable", result.reachable)
        metrics.count("live.matched_scripts", len(result.matched_scripts))
        for name, count in result.http_matches.items():
            metrics.count(f"live.http_matches.{name}", count)
        return result

    def _fingerprint(self, check_html: bool) -> Dict[str, object]:
        return {
            "lists": sorted(self.histories),
            "check_html": check_html,
            "live_top": self.world.config.live_top,
        }

    def _empty_result(self) -> LiveCrawlResult:
        result = LiveCrawlResult()
        for name in self.histories:
            result.http_matches[name] = 0
            result.html_matches[name] = 0
            result.third_party_matches[name] = 0
            result.detected_domains[name] = []
        return result

    @staticmethod
    def _finalize(result: LiveCrawlResult, span) -> LiveCrawlResult:
        # Intern the accumulated strings so every construction path
        # (serial, journal-resumed, parallel waves) pickles
        # byte-identically.
        interner = Interner()
        for name, domains in result.detected_domains.items():
            result.detected_domains[name] = [interner.string(d) for d in domains]
        result.matched_scripts = [
            interner.string(s) for s in result.matched_scripts
        ]
        span.set(crawled=result.crawled, reachable=result.reachable)
        return result

    def _crawl(
        self, check_html: bool, span, state=None, journal=None
    ) -> LiveCrawlResult:
        result = self._empty_result()
        seen_scripts = set()
        resumed = 0
        for ranked in self.world.live_domains():
            result.crawled += 1
            if result.crawled % self.PROGRESS_EVERY == 0:
                logger.info(
                    "live crawl progress: %d sites, %d reachable",
                    result.crawled,
                    result.reachable,
                )
            key = (str(ranked.rank),)
            if state is not None and key in state:
                payload = state.take(key)
                resumed += 1
            else:
                payload = self._visit_site(ranked, check_html)
                if journal is not None:
                    journal.append(key, payload)
            self._accumulate(result, payload, seen_scripts)
        if resumed:
            get_metrics().count("crawl.resumed_slots", resumed)
            emit_event("crawl_resume", scope="live", slots=resumed)
            logger.info("resumed live crawl: %d journaled ranks", resumed)
        return self._finalize(result, span)

    def _crawl_parallel(
        self, check_html: bool, span, workers: int, wave_size: Optional[int]
    ) -> LiveCrawlResult:
        """Visit ranks in parallel waves, accumulating in rank order.

        Each wave fans one contiguous rank range out across ``workers``
        through a fresh fork pool whose workers each build one
        :class:`LiveCrawler` (matchers, adblockers) for the wave.
        """
        ranked = self._ranked()
        total = len(ranked)
        wave = max(int(wave_size) if wave_size else self.WAVE_SIZE, 1)
        result = self._empty_result()
        seen_scripts = set()
        collector = get_rule_stats()
        span.set(workers=workers, waves=-(-total // wave) if total else 0)
        for lo in range(0, total, wave):
            hi = min(lo + wave, total)
            shards = split_shards([[i] for i in range(lo, hi)], workers)
            bounds = []
            at = lo
            for shard in shards:
                bounds.append((at, at + len(shard)))
                at += len(shard)
            outputs = map_shards(
                bounds,
                _live_range_task,
                state=(self.world, self.histories),
                make_worker_state=_make_wave_crawler,
                extra=(check_html,),
            )
            for payloads, rule_delta in outputs:
                if rule_delta and collector is not None:
                    collector.merge_payload(rule_delta)
                for payload in payloads:
                    result.crawled += 1
                    self._accumulate(result, payload, seen_scripts)
            if hi % self.PROGRESS_EVERY < wave and hi >= self.PROGRESS_EVERY:
                logger.info(
                    "live crawl progress: %d sites, %d reachable",
                    result.crawled,
                    result.reachable,
                )
        return self._finalize(result, span)

    def _visit_site(self, ranked, check_html: bool) -> Optional[Dict]:
        """One rank's full match summary (the journal's unit of work)."""
        snapshot = self.world.live_snapshot(ranked.rank)
        if snapshot is None:
            return None
        payload: Dict = {"domain": snapshot.domain, "lists": {}, "scripts": []}
        site_detected = False
        document = (
            parse_html(snapshot.html) if check_html and snapshot.html else None
        )
        for name in self.histories:
            if name not in self._matchers:
                continue  # history has no revisions yet
            entry: Dict = {}
            matched = self._http_match(name, snapshot)
            if matched is not None:
                entry["http"] = True
                entry["third"] = matched[1]
                site_detected = True
            if check_html and self._html_match(name, snapshot, document):
                entry["html"] = True
            if entry:
                payload["lists"][name] = entry
        if site_detected:
            payload["scripts"] = [
                script.source
                for script in snapshot.anti_adblock_scripts()
                if script.source
            ]
        return payload

    @staticmethod
    def _accumulate(result: LiveCrawlResult, payload: Optional[Dict], seen_scripts) -> None:
        if payload is None:
            return
        result.reachable += 1
        domain = payload["domain"]
        for name, entry in payload["lists"].items():
            if entry.get("http"):
                result.http_matches[name] += 1
                result.detected_domains[name].append(domain)
                if entry.get("third"):
                    result.third_party_matches[name] += 1
            if entry.get("html"):
                result.html_matches[name] += 1
        for source in payload["scripts"]:
            if source not in seen_scripts:
                seen_scripts.add(source)
                result.matched_scripts.append(source)
