"""Benchmarks for the §5 feature-extraction engine.

Quantifies the two tentpole wins of the content-addressed event store:

- **parse-once vs per-set**: deriving all three feature sets from one
  cached token-event stream versus re-parsing the corpus per set (the
  pre-engine behavior, still reachable via ``features_from_source``);
- **cold vs warm cache**: extraction against an empty on-disk cache
  versus a populated one (``REPRO_FEATURE_CACHE`` between CLI runs).

and the JS front end under it: ``tokenize`` and ``extract_events`` over
the §5 corpus, timed against the per-character reference tokenizer
(``tests/jsast/reference_tokenizer.py``) in the same process.

Results land in the ``--benchmark-json`` artifact CI uploads, alongside
the store's own hit/miss counters in ``extra_info``.
"""

import statistics
import time

import numpy as np
import pytest

import repro.jsast.parser as js_parser
from repro.core.features import FEATURE_SETS, features_from_source
from repro.core.featstore import FeatureStore, extract_events
from repro.jsast.tokenizer import TokenizeError, tokenize
from repro.synthesis.scripts import generate_anti_adblock, generate_benign
from tests.jsast.reference_tokenizer import reference_tokenize

#: Interleaved rounds per side of a speedup comparison; the medians are compared.
ROUNDS = 5


@pytest.fixture(scope="module")
def script_corpus():
    """A mixed corpus, sized so per-script parse cost dominates."""
    rng = np.random.default_rng(42)
    corpus = []
    for index in range(60):
        if index % 3 == 0:
            corpus.append(generate_anti_adblock(rng, pack_probability=0.3))
        else:
            corpus.append(generate_benign(rng))
    return corpus


def test_bench_per_set_reparse(benchmark, script_corpus):
    """Pre-engine behavior: one full parse per (script, feature set)."""

    def extract_each_set():
        out = {}
        for feature_set in FEATURE_SETS:
            out[feature_set] = [
                features_from_source(source, feature_set=feature_set)
                for source in script_corpus
            ]
        return out

    result = benchmark(extract_each_set)
    assert all(any(result[fs]) for fs in FEATURE_SETS)


def test_bench_parse_once_all_sets(benchmark, script_corpus):
    """Engine behavior: one parse, every feature set by kind-filtering."""

    def extract_shared():
        store = FeatureStore()
        return store.features_by_set(script_corpus, feature_sets=FEATURE_SETS)

    result = benchmark(extract_shared)
    assert all(any(result[fs]) for fs in FEATURE_SETS)


def test_bench_cold_disk_cache(benchmark, script_corpus, tmp_path_factory):
    """Extraction with an empty on-disk cache (parse + write entries)."""
    counter = iter(range(10_000))

    def cold_run():
        directory = tmp_path_factory.mktemp(f"cold{next(counter)}")
        store = FeatureStore(cache_dir=directory)
        features = store.features_for_corpus(script_corpus)
        return store, features

    store, features = benchmark(cold_run)
    assert store.stats.disk_writes > 0
    assert any(features)
    benchmark.extra_info["store_stats"] = store.stats.as_dict()


def test_bench_warm_disk_cache(benchmark, script_corpus, tmp_path):
    """Extraction against a populated cache (reads only, no parsing)."""
    FeatureStore(cache_dir=tmp_path).features_for_corpus(script_corpus)

    def warm_run():
        store = FeatureStore(cache_dir=tmp_path)
        features = store.features_for_corpus(script_corpus)
        return store, features

    store, features = benchmark(warm_run)
    assert store.stats.extracted == 0
    assert store.stats.disk_hits > 0
    assert any(features)
    benchmark.extra_info["store_stats"] = store.stats.as_dict()


# -- the JS front end against the reference tokenizer -----------------------------


@pytest.fixture(scope="module")
def corpus_sources(ctx):
    """The §5 training corpus at the session's ``REPRO_SCALE``."""
    return list(ctx.corpus.sources())


def _tokenize_all(tokenizer, sources):
    count = 0
    for source in sources:
        try:
            count += len(tokenizer(source))
        except TokenizeError:
            pass
    return count


def _extract_all(sources):
    return [extract_events(source) for source in sources]


def _extract_all_with_reference(sources, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(js_parser, "tokenize", reference_tokenize)
        return _extract_all(sources)


def _interleaved_medians(fast, slow, *args):
    """Median seconds of ``fast(*args)`` and ``slow(*args)``, alternating
    rounds so drift on a shared host hits both sides alike."""
    fast_times, slow_times = [], []
    for _ in range(ROUNDS):
        for fn, times in ((fast, fast_times), (slow, slow_times)):
            started = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - started)
    return statistics.median(fast_times), statistics.median(slow_times)


def test_bench_tokenize_corpus(benchmark, corpus_sources):
    """The master-regex scanner over the whole corpus."""
    tokens = benchmark.pedantic(
        _tokenize_all, args=(tokenize, corpus_sources), rounds=ROUNDS, iterations=1
    )
    assert tokens > len(corpus_sources)
    benchmark.extra_info["scripts"] = len(corpus_sources)
    benchmark.extra_info["tokens"] = tokens


def test_bench_extract_events_corpus(benchmark, corpus_sources):
    """Parse + unpack + event walk, one script at a time, no cache."""
    entries = benchmark.pedantic(
        _extract_all, args=(corpus_sources,), rounds=ROUNDS, iterations=1
    )
    assert any(entry.events for entry in entries)


def test_tokenize_speedup_over_reference(corpus_sources, monkeypatch):
    """The acceptance bar: ≥ 2× over the per-character scanner, same tokens."""
    assert _tokenize_all(tokenize, corpus_sources) == _tokenize_all(
        reference_tokenize, corpus_sources
    )
    assert _extract_all(corpus_sources) == _extract_all_with_reference(
        corpus_sources, monkeypatch
    )
    fast, slow = _interleaved_medians(
        lambda: _tokenize_all(tokenize, corpus_sources),
        lambda: _tokenize_all(reference_tokenize, corpus_sources),
    )
    fast_extract, slow_extract = _interleaved_medians(
        lambda: _extract_all(corpus_sources),
        lambda: _extract_all_with_reference(corpus_sources, monkeypatch),
    )
    print(
        f"\n{len(corpus_sources)} scripts, median of {ROUNDS}: "
        f"tokenize {slow:.3f}s -> {fast:.3f}s ({slow / fast:.2f}x); "
        f"extract_events {slow_extract:.3f}s -> {fast_extract:.3f}s "
        f"({slow_extract / fast_extract:.2f}x, tokenizer swapped only)"
    )
    assert slow / fast >= 2.0, f"expected >=2x on tokenize, got {slow / fast:.2f}x"
