"""Epoch-swap hot reload: track list churn without dropping queries.

A deployed blocker has to follow filter-list revisions ("A Longitudinal
Analysis of Online Ad-Blocking Blacklists" measures exactly that churn)
while answering queries continuously. The serve daemon does it the way
the §4 replay engine walks revisions: the next matcher is derived from
the current one in O(delta) via
:meth:`~repro.filterlist.matcher.NetworkMatcher.apply_delta`, never by
re-tokenising the full rule set.

Concurrency model — the classic epoch swap:

1. every query batch *acquires* the current :class:`ServeEpoch`
   (an in-flight counter) and releases it when its answers are out;
2. a reload builds the next epoch off to the side (queries keep
   flowing), then swaps the ``current`` pointer — new batches land on
   the new epoch immediately;
3. the old epoch is *drained*: the reloader waits for its in-flight
   count to reach zero, then retires it.

No query is ever cancelled or answered against a torn-down matcher, so
``serve.dropped`` stays 0 by construction; queries in flight during a
swap are answered by whichever epoch they acquired.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from ..core.online import OnlineAdblocker
from ..filterlist.matcher import NetworkMatcher
from ..filterlist.rules import ElementRule, NetworkRule, RuleParseError, parse_rule
from ..web.adblocker import Adblocker


def partition_rule_lines(lines: Sequence[str]):
    """Parse raw lines into (network_rules, element_rules, skipped).

    Blank lines, comments (``!``), headers (``[...]``), and unparseable
    lines are skipped and counted — the same tolerance real adblockers
    (and :func:`~repro.synthesis.listgen.apply_list_patch`) apply.
    """
    network: List[NetworkRule] = []
    element: List[ElementRule] = []
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("!") or line.startswith("["):
            skipped += 1
            continue
        try:
            rule = parse_rule(line)
        except RuleParseError:
            skipped += 1
            continue
        if isinstance(rule, ElementRule):
            element.append(rule)
        else:
            network.append(rule)
    return network, element, skipped


class ServeEpoch:
    """One immutable serving generation: an adblocker plus an in-flight gate."""

    def __init__(self, index: int, online: OnlineAdblocker) -> None:
        self.index = index
        self.online = online
        self._lock = threading.Lock()
        self._inflight = 0
        self._draining = False
        #: Set once the epoch is draining and its last query released.
        self.drained = threading.Event()

    @property
    def inflight(self) -> int:
        """Queries currently holding this epoch."""
        return self._inflight

    def acquire(self) -> bool:
        """Enter the epoch; ``False`` once it has begun draining."""
        with self._lock:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Leave the epoch; fires ``drained`` for the last leaver."""
        with self._lock:
            self._inflight -= 1
            if self._draining and self._inflight <= 0:
                self.drained.set()

    def begin_drain(self) -> None:
        """Stop admitting queries; ``drained`` fires at in-flight zero."""
        with self._lock:
            self._draining = True
            if self._inflight <= 0:
                self.drained.set()


class EpochChain:
    """The current epoch, swapped forward one rule delta per reload.

    The chain owns the detector and the shared verdict cache: both
    survive every swap (a reload changes *rules*, not the model), so a
    vendor script scanned in epoch N is still cached in epoch N+5.
    """

    def __init__(
        self,
        detector,
        network_rules: Sequence[NetworkRule],
        element_rules: Sequence[ElementRule],
        verdict_cache: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.detector = detector
        self.verdict_cache: Dict[str, bool] = (
            verdict_cache if verdict_cache is not None else {}
        )
        matcher = NetworkMatcher(network_rules)
        self._current = ServeEpoch(
            0, self._make_online(list(network_rules), list(element_rules), matcher)
        )
        self._reload_lock = threading.Lock()
        #: Epochs fully drained and retired.
        self.retired = 0

    def _make_online(self, network, element, matcher) -> OnlineAdblocker:
        blocker = Adblocker.from_parts(network, element, matcher)
        return OnlineAdblocker(
            self.detector, adblocker=blocker, verdict_cache=self.verdict_cache
        )

    @property
    def current(self) -> ServeEpoch:
        return self._current

    def acquire(self) -> ServeEpoch:
        """The current epoch, acquired — retrying across a concurrent swap."""
        while True:
            epoch = self._current
            if epoch.acquire():
                return epoch

    def reload(
        self,
        added_lines: Sequence[str],
        removed_lines: Sequence[str],
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Swap in a new epoch with ``added``/``removed`` raw rule lines.

        O(delta): the new matcher is derived with ``apply_delta`` and the
        element-rule list is edited by raw line, so reload cost scales
        with the revision diff, not the subscription size. With ``wait``
        the call returns only after the old epoch drained (the CI smoke
        gate); the swap itself is immediate either way. The summary's
        ``drained`` field reports whether the old epoch actually reached
        in-flight zero — ``False`` on a drain timeout (an epoch still
        held by an in-flight batch), in which case it is not counted as
        retired.
        """
        added_net, added_elem, skipped_a = partition_rule_lines(added_lines)
        removed_net, removed_elem, skipped_r = partition_rule_lines(removed_lines)
        with self._reload_lock:
            old = self._current
            blocker = old.online.adblocker
            matcher = blocker.matcher.apply_delta(added_net, removed_net)
            removed_net_raw = {rule.raw for rule in removed_net}
            removed_elem_raw = {rule.raw for rule in removed_elem}
            network = [
                rule
                for rule in blocker._network_rules
                if rule.raw not in removed_net_raw
            ] + added_net
            element = [
                rule
                for rule in blocker._element_rules
                if rule.raw not in removed_elem_raw
            ] + added_elem
            new = ServeEpoch(
                old.index + 1, self._make_online(network, element, matcher)
            )
            self._current = new
            old.begin_drain()
        drained = old.drained.wait(timeout) if wait else old.drained.is_set()
        if drained:
            self.retired += 1
        return {
            "epoch": new.index,
            "added": len(added_net) + len(added_elem),
            "removed": len(removed_net) + len(removed_elem),
            "skipped": skipped_a + skipped_r,
            "drained": drained,
        }
