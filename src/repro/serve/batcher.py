"""Query engine and request batcher: the serve daemon's data path.

Two execution paths, both answering byte-identically to the offline
:class:`~repro.core.online.OnlineAdblocker`:

- **naive** — one query per call, exactly the offline code path (the
  loadgen benchmark's baseline);
- **batched** — a *prewarm* pass collects the batch's unique uncached
  script sources and scores them with ONE ``detector.predict`` call, so
  the per-call vectorise/kernel overhead is paid once per batch instead
  of once per script; ``visit``/``scan_scripts`` then run against a warm
  verdict cache. This is where the ≥3× loadgen speedup comes from.

Parallelism across cores is the shard plane's job
(:mod:`repro.serve.shard`): each shard process runs one engine inline.

The :class:`RequestBatcher` is the admission queue between protocol
handler threads and the engine: handlers block on a per-query slot, a
single collector thread lingers up to ``REPRO_SERVE_WAIT_MS`` to fill
batches of ``REPRO_SERVE_BATCH``, and every query's queue-to-answer
latency lands in the ``serve.latency_ns`` histogram. A batch whose
engine call raises is answered with one error frame per query (counted
in ``serve.engine_errors``); the collector thread keeps serving.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.online import OnlineAdblocker, source_digest
from ..obs.config import serve_batch_size, serve_wait_ms
from ..obs.hist import ns_buckets
from ..obs.metrics import get_metrics
from . import protocol
from .reload import EpochChain

logger = logging.getLogger("repro.serve")


# -- answering ---------------------------------------------------------------------


def answer_query(online: OnlineAdblocker, query: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one decoded query against one epoch's adblocker."""
    op = query.get("op")
    try:
        if op == "url":
            url = query.get("url")
            if not isinstance(url, str) or not url:
                return protocol.error_response("url: missing 'url'", op)
            page_url = query.get("page_url", "") or ""
            resource_type = query.get("resource_type", "other") or "other"
            if not isinstance(page_url, str):
                return protocol.error_response("url: 'page_url' must be a string", op)
            if not isinstance(resource_type, str):
                return protocol.error_response(
                    "url: 'resource_type' must be a string", op
                )
            blocked = online.adblocker.should_block(
                url, page_url=page_url, resource_type=resource_type
            )
            return protocol.ok_response(op, blocked=bool(blocked))
        if op == "script":
            source = query.get("source")
            if not isinstance(source, str):
                return protocol.error_response("script: missing 'source'", op)
            from ..web.page import Script

            flagged = bool(online.scan_scripts([Script(source=source)]))
            return protocol.ok_response(op, flagged=flagged)
        if op == "page":
            snapshot = protocol.snapshot_from_wire(query.get("page"))
            result = online.visit(snapshot)
            return protocol.ok_response(
                op, result=protocol.visit_result_to_wire(result)
            )
        return protocol.error_response(f"not a query op: {op!r}", op)
    except protocol.ProtocolError as exc:
        return protocol.error_response(str(exc), op)


def _query_sources(query: Dict[str, Any]):
    """Script sources a query may need verdicts for (prewarm candidates)."""
    op = query.get("op")
    if op == "script":
        source = query.get("source")
        if isinstance(source, str) and source:
            yield source
    elif op == "page":
        page = query.get("page")
        if isinstance(page, dict):
            for item in page.get("scripts", []):
                source = item.get("source") if isinstance(item, dict) else None
                if isinstance(source, str) and source:
                    yield source


def prewarm_verdicts(online: OnlineAdblocker, queries: Sequence[Dict[str, Any]]) -> int:
    """Score the batch's unique uncached script sources in ONE predict call.

    Deduplicates by the same digest :meth:`OnlineAdblocker._verdict`
    uses, so the subsequent per-query path is all cache hits. Scoring a
    page script that rule-filtering would have blocked anyway only adds
    a cache entry — responses are unchanged, which is what the parity
    tests pin.
    """
    pending: List[Tuple[str, str]] = []
    seen = set()
    cache = online._verdict_cache
    for query in queries:
        for source in _query_sources(query):
            digest = source_digest(source)
            if digest in cache or digest in seen:
                continue
            seen.add(digest)
            pending.append((digest, source))
    if not pending:
        return 0
    predictions = online.detector.predict([source for _, source in pending])
    for (digest, _), flag in zip(pending, predictions):
        cache[digest] = bool(flag)
    return len(pending)


# -- the engine ------------------------------------------------------------------


class ServeEngine:
    """Answers query batches against the chain's current epoch.

    ``batched=False`` per call disables the prewarm pass — that is the
    benchmark's one-query-per-call baseline, not a mode the daemon
    serves in.
    """

    def __init__(self, chain: EpochChain) -> None:
        self.chain = chain

    def answer_batch(
        self, queries: Sequence[Dict[str, Any]], batched: bool = True
    ) -> List[Dict[str, Any]]:
        """Answer a batch against the current epoch."""
        metrics = get_metrics()
        epoch = self.chain.acquire()
        try:
            if batched:
                prewarmed = prewarm_verdicts(epoch.online, queries)
                if prewarmed:
                    metrics.count("serve.prewarmed", prewarmed)
            answers = [answer_query(epoch.online, query) for query in queries]
            # The daemon is long-lived: the per-visit rule log would grow
            # without bound, and no serve response reads it.
            epoch.online.adblocker.log.clear()
        finally:
            epoch.release()
        metrics.count("serve.queries", len(queries))
        metrics.count("serve.batches")
        return answers


# -- the batcher -----------------------------------------------------------------


class _Slot:
    """One waiting query: the handler thread blocks on ``event``."""

    __slots__ = ("event", "answer", "enqueued_ns")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.answer: Optional[Dict[str, Any]] = None
        self.enqueued_ns = time.perf_counter_ns()


class RequestBatcher:
    """Admission queue + collector loop between handlers and the engine."""

    def __init__(
        self,
        engine: ServeEngine,
        batch_size: Optional[int] = None,
        wait_ms: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.batch_size = batch_size if batch_size is not None else serve_batch_size()
        self.wait_s = (wait_ms if wait_ms is not None else serve_wait_ms()) / 1000.0
        self._queue: deque = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    # -- handler side --------------------------------------------------------

    def ask(self, query: Dict[str, Any], timeout: Optional[float] = None) -> Dict[str, Any]:
        """Enqueue one query and block until its batch answers."""
        slot = _Slot()
        with self._cv:
            if self._closed:
                return protocol.error_response("daemon is shutting down", query.get("op"))
            self._queue.append((query, slot))
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            self._cv.notify_all()
        if not slot.event.wait(timeout):
            return protocol.error_response("query timed out in queue", query.get("op"))
        return slot.answer

    def ask_many(
        self, queries: Sequence[Dict[str, Any]], timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Enqueue a whole ``batch`` frame at once; answers stay in order.

        All queries land in the queue under one lock acquisition, so the
        collector sees the full frame immediately — no linger needed to
        fill the batch. This is the server side of the protocol-level
        batched path.
        """
        slots = [_Slot() for _ in queries]
        with self._cv:
            if self._closed:
                return [
                    protocol.error_response("daemon is shutting down", q.get("op"))
                    for q in queries
                ]
            for query, slot in zip(queries, slots):
                self._queue.append((query, slot))
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            self._cv.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        answers: List[Dict[str, Any]] = []
        for query, slot in zip(queries, slots):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not slot.event.wait(remaining):
                answers.append(
                    protocol.error_response("query timed out in queue", query.get("op"))
                )
            else:
                answers.append(slot.answer)
        return answers

    # -- collector side ------------------------------------------------------

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="serve-batcher", daemon=True
            )
            self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the collector after flushing everything already queued."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _collect(self) -> List[Tuple[Dict[str, Any], _Slot]]:
        """Block for the first query, then linger to fill the batch."""
        with self._cv:
            while not self._queue and not self._closed:
                self._cv.wait(0.1)
            if not self._queue:
                return []
            deadline = time.monotonic() + self.wait_s
            while len(self._queue) < self.batch_size and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
            count = min(len(self._queue), self.batch_size)
            batch = [self._queue.popleft() for _ in range(count)]
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            return batch

    @staticmethod
    def _deliver(entries: List[Tuple[Dict[str, Any], _Slot]], answers: List[Dict[str, Any]]) -> None:
        metrics = get_metrics()
        now = time.perf_counter_ns()
        for (_, slot), answer in zip(entries, answers):
            slot.answer = answer
            metrics.hist("serve.latency_ns", now - slot.enqueued_ns, ns_buckets())
            slot.event.set()

    def _loop(self) -> None:
        metrics = get_metrics()
        while True:
            batch = self._collect()
            if not batch:
                if self._closed:
                    return
                continue
            metrics.hist("serve.batch_size", len(batch))
            queries = [query for query, _ in batch]
            try:
                answers = self.engine.answer_batch(queries)
            except Exception as exc:
                # This thread is the daemon's only collector: if it died,
                # every later query on every connection would time out.
                logger.exception("serve engine failed on a %d-query batch", len(batch))
                metrics.count("serve.engine_errors")
                message = f"engine error: {type(exc).__name__}: {exc}"
                answers = [
                    protocol.error_response(message, query.get("op"))
                    for query in queries
                ]
            self._deliver(batch, answers)
