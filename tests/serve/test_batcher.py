"""The RequestBatcher's collector loop: delivery, flushing, and survival.

The collector is a single thread between every connection and the
engine. Two properties are pinned here besides ordering and the close
flush: a query the engine cannot handle is answered with an error frame,
and a batch whose engine call raises is answered with per-query error
frames while the collector keeps serving. If that thread died, every
later query on every connection would wait out the dispatch timeout.
"""

import threading
import time

from repro.obs.metrics import get_metrics
from repro.serve.batcher import RequestBatcher, ServeEngine


def _answers(queries):
    return [{"ok": True, "op": q.get("op")} for q in queries]


class FakeEngine:
    """Inline engine double: counts batches, optionally slow or failing."""

    def __init__(self, delay=0.0, poison=None):
        self.delay = delay
        self.poison = poison
        self.batches = 0

    def answer_batch(self, queries, batched=True):
        self.batches += 1
        if self.delay:
            time.sleep(self.delay)
        if any(q.get("url") == self.poison for q in queries):
            raise TypeError("poisoned batch")
        return _answers(queries)


def _queries(count):
    return [{"op": "url", "url": f"https://x.example/{i}"} for i in range(count)]


class TestDelivery:
    def test_burst_spanning_batches_answers_in_order(self):
        engine = FakeEngine()
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        try:
            answers = batcher.ask_many(_queries(10), timeout=5.0)
        finally:
            batcher.close()
        assert [a["ok"] for a in answers] == [True] * 10
        assert engine.batches == 3  # 4 + 4 + 2

    def test_close_flushes_queued_queries(self):
        engine = FakeEngine(delay=0.05)
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        result = {}

        def client():
            result["answers"] = batcher.ask_many(_queries(6), timeout=5.0)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        time.sleep(0.02)  # the first batch is in the engine, the rest queued
        batcher.close()
        thread.join(5.0)
        assert [a["ok"] for a in result["answers"]] == [True] * 6


class TestCollectorSurvival:
    def test_raising_batch_answers_error_frames_and_keeps_serving(self):
        engine = FakeEngine(poison="https://poison.example/")
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        try:
            bad = batcher.ask({"op": "url", "url": "https://poison.example/"}, timeout=2.0)
            t0 = time.monotonic()
            good = batcher.ask(_queries(1)[0], timeout=2.0)
            elapsed = time.monotonic() - t0
            alive = batcher._thread.is_alive()
        finally:
            batcher.close()
        assert bad["ok"] is False
        assert "engine error" in bad["error"]
        assert get_metrics().counter("serve.engine_errors") == 1
        assert alive
        assert good["ok"] is True
        assert elapsed < 1.0

    def test_malformed_page_url_then_good_query(self, serve_state):
        """The live bug: an int ``page_url`` used to raise inside the
        engine, kill the collector, and time out every later query."""
        batcher = RequestBatcher(
            ServeEngine(serve_state.build_chain()), batch_size=4, wait_ms=1.0
        )
        batcher.start()
        try:
            bad = batcher.ask(
                {"op": "url", "url": "http://x.com/a", "page_url": 5}, timeout=2.0
            )
            t0 = time.monotonic()
            good = batcher.ask(
                {"op": "url", "url": "http://x.com/a", "page_url": "http://x.com/"},
                timeout=2.0,
            )
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert bad["ok"] is False
        assert "page_url" in bad["error"]
        assert good["ok"] is True
        assert elapsed < 1.0
