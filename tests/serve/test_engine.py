"""Engine parity: every serving path answers byte-identically to the
offline :class:`~repro.core.online.OnlineAdblocker`."""

import json

from repro.core.online import OnlineAdblocker, source_digest
from repro.filterlist.parser import parse_filter_list
from repro.obs.metrics import get_metrics
from repro.serve.batcher import ServeEngine, answer_query, prewarm_verdicts
from repro.serve.loadgen import generate_queries

QUERY_COUNT = 48


def offline_reference(serve_state) -> OnlineAdblocker:
    """The offline construction: a plain adblocker over the same lines."""
    document = parse_filter_list(
        "\n".join(serve_state.network_lines + serve_state.element_lines),
        name="serve-subscription",
    )
    return OnlineAdblocker(serve_state.detector, [document])


def expected_answers(serve_state, queries):
    offline = offline_reference(serve_state)
    return [answer_query(offline, query) for query in queries]


def canonical(answers):
    return [json.dumps(a, sort_keys=True) for a in answers]


class TestParity:
    def test_naive_path_matches_offline(self, serve_state):
        queries = generate_queries(11, QUERY_COUNT)
        engine = ServeEngine(serve_state.build_chain())
        answers = []
        for query in queries:
            answers.extend(engine.answer_batch([query], batched=False))
        assert canonical(answers) == canonical(expected_answers(serve_state, queries))

    def test_batched_path_matches_offline(self, serve_state):
        queries = generate_queries(12, QUERY_COUNT)
        engine = ServeEngine(serve_state.build_chain())
        answers = engine.answer_batch(queries, batched=True)
        assert canonical(answers) == canonical(expected_answers(serve_state, queries))

    def test_answers_after_reload_match_fresh_offline(self, serve_state):
        engine = ServeEngine(serve_state.build_chain())
        added = ["||hotfix-tracker.example/ad.js"]
        engine.chain.reload(added, [])
        probe = {"op": "url", "url": "https://hotfix-tracker.example/ad.js",
                 "page_url": "", "resource_type": "script"}
        (answer,) = engine.answer_batch([probe])
        assert answer == {"ok": True, "op": "url", "blocked": True}


class TestPrewarm:
    def test_prewarm_fills_the_verdict_cache_once(self, serve_state):
        chain = serve_state.build_chain()
        queries = generate_queries(14, QUERY_COUNT)
        sources = {
            q["source"] for q in queries if q["op"] == "script"
        }
        warmed = prewarm_verdicts(chain.current.online, queries)
        assert warmed >= len(sources)  # page scripts add a few more
        for source in sources:
            assert source_digest(source) in chain.verdict_cache
        assert prewarm_verdicts(chain.current.online, queries) == 0

    def test_bad_queries_answer_error_frames(self, serve_state):
        engine = ServeEngine(serve_state.build_chain())
        answers = engine.answer_batch(
            [
                {"op": "url"},  # missing the url field
                {"op": "script"},  # missing the source field
                {"op": "page", "page": {"html": "<html></html>"}},  # no url
                {"op": "reload"},  # not a query op
                {"op": "url", "url": "http://x.com/a", "page_url": 5},
                {"op": "url", "url": "http://x.com/a", "resource_type": ["script"]},
            ]
        )
        assert [a["ok"] for a in answers] == [False] * 6
        assert "page_url" in answers[4]["error"]
        assert "resource_type" in answers[5]["error"]


class TestAccounting:
    def test_engine_counts_queries_and_batches(self, serve_state):
        engine = ServeEngine(serve_state.build_chain())
        engine.answer_batch(generate_queries(15, 16))
        metrics = get_metrics()
        assert metrics.counter("serve.queries") == 16
        assert metrics.counter("serve.batches") == 1
        assert metrics.counter("serve.prewarmed") > 0
