"""The traced run's per-layer ledger: self time and counts per public call.

The benchmark reaches every layer from outside. :func:`install` replaces
public functions and methods of ``repro`` with timing wrappers, in every
loaded ``repro`` module that holds a reference to them, so calls bound by
``from x import f`` are timed too. Each wrapper records its call count
and its *self* time: its duration minus the time of wrapped calls nested
inside it. Counters live per thread, so the daemon's handler and batcher
threads never contend and no update is lost; :meth:`Ledger.snapshot`
sums them.

:func:`layer_metrics` turns a snapshot (or the difference of two) into
the ``per_layer`` metrics named in ``BENCHMARK.json``. Every metric is
reported on every workload; a layer a workload does not reach reads 0.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from statistics import median
from typing import Callable, Dict, List, Optional

#: The 14 experiment drivers, in ``python -m repro all`` order.
DRIVERS = (
    "fig1", "table1", "fig2", "sec33", "fig3", "fig5", "fig6",
    "fig7", "sec43", "table2", "table3", "sec5live", "stability", "rulereport",
)

#: (metric, unit) of every per-layer metric, in ``BENCHMARK.json`` order.
PER_LAYER = (
    [(f"experiments.{name}.s", "s") for name in DRIVERS]
    + [
        ("core.svm.fit.calls", "count"),
        ("core.svm.fit.rows", "count"),
        ("core.svm.fit.s", "s"),
        ("core.adaboost.fit.s", "s"),
        ("core.vectorize.s", "s"),
        ("jsast.tokenize.calls", "count"),
        ("jsast.tokenize.bytes", "bytes"),
        ("jsast.tokenize.s", "s"),
        ("jsast.parse.calls", "count"),
        ("jsast.parse.s", "s"),
        ("jsast.unpack.calls", "count"),
        ("jsast.unpack.s", "s"),
        ("core.features.calls", "count"),
        ("core.features.s", "s"),
        ("core.detector.predict.calls", "count"),
        ("core.detector.predict.rows", "count"),
        ("core.detector.predict.s", "s"),
        ("filterlist.match.calls", "count"),
        ("filterlist.match.s", "s"),
        ("filterlist.match.blocked_ratio", "ratio"),
        ("filterlist.build.calls", "count"),
        ("filterlist.build.s", "s"),
        ("web.parse_html.calls", "count"),
        ("web.parse_html.s", "s"),
        ("wayback.crawl.records", "count"),
        ("wayback.crawl.s", "s"),
        ("analysis.coverage.s", "s"),
        ("analysis.live.s", "s"),
        ("graph.misses", "count"),
        ("graph.stores", "count"),
        ("serve.answer.url.calls", "count"),
        ("serve.answer.url.s", "s"),
        ("serve.answer.script.calls", "count"),
        ("serve.answer.script.s", "s"),
        ("serve.answer.page.calls", "count"),
        ("serve.answer.page.s", "s"),
        ("serve.prewarm.calls", "count"),
        ("serve.prewarm.s", "s"),
        ("serve.engine.batch_rows", "rows/call"),
        ("serve.dispatch_ms.p50", "ms"),
        ("serve.protocol.decode.s", "s"),
        ("serve.protocol.encode.s", "s"),
        ("serve.daemon_cpu_s", "s"),
        ("obs.trace_overhead_pct", "%"),
        ("rtt_tail_ms", "ms"),
    ]
)


class _ThreadBook:
    """One thread's counters and its stack of open wrapped calls."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.ns: Dict[str, int] = defaultdict(int)
        self.amount: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[int]] = defaultdict(list)
        #: Nested time of each open call, innermost last.
        self.stack: List[int] = []


class Ledger:
    """Per-thread call books, summed on demand."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._books: List[_ThreadBook] = []
        self._books_lock = threading.Lock()

    def _book(self) -> _ThreadBook:
        book = getattr(self._local, "book", None)
        if book is None:
            book = _ThreadBook()
            self._local.book = book
            with self._books_lock:
                self._books.append(book)
        return book

    def wrap(
        self,
        fn: Callable,
        name,
        observe: Optional[Callable] = None,
        sample: bool = False,
    ) -> Callable:
        """``fn`` timed under ``name`` (a string, or a function of the
        call's arguments); ``observe(book, name, args, kwargs, result)``
        adds amounts such as rows or bytes; ``sample`` keeps every
        duration for quantiles."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            book = self._book()
            label = name if isinstance(name, str) else name(args, kwargs)
            book.stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                nested = book.stack.pop()
                book.ns[label] += elapsed - nested
                book.calls[label] += 1
                if book.stack:
                    book.stack[-1] += elapsed
                if sample:
                    book.samples[label].append(elapsed)
            if observe is not None:
                observe(book, label, args, kwargs, result)
            return result

        return timed

    def snapshot(self) -> Dict[str, dict]:
        """Totals over every thread so far (copies; safe to keep)."""
        calls: Dict[str, int] = defaultdict(int)
        ns: Dict[str, int] = defaultdict(int)
        amount: Dict[str, float] = defaultdict(float)
        samples: Dict[str, List[int]] = defaultdict(list)
        with self._books_lock:
            books = list(self._books)
        for book in books:
            for key, value in list(book.calls.items()):
                calls[key] += value
            for key, value in list(book.ns.items()):
                ns[key] += value
            for key, value in list(book.amount.items()):
                amount[key] += value
            for key, value in list(book.samples.items()):
                samples[key].extend(value)
        return {
            "calls": dict(calls),
            "ns": dict(ns),
            "amount": dict(amount),
            "samples": {key: sorted(value) for key, value in samples.items()},
        }


def difference(after: Dict[str, dict], before: Dict[str, dict]) -> Dict[str, dict]:
    """What happened between two snapshots (samples: the new ones)."""
    out: Dict[str, dict] = {}
    for part in ("calls", "ns", "amount"):
        out[part] = {
            key: value - before[part].get(key, 0)
            for key, value in after[part].items()
        }
    samples = {}
    for key, values in after["samples"].items():
        fresh = Counter(values) - Counter(before["samples"].get(key, []))
        samples[key] = sorted(fresh.elements())
    out["samples"] = samples
    return out


# -- installing the wrappers -----------------------------------------------------


def _import_all(package: str) -> None:
    """Import every module of ``package`` so every name binding exists."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _replace_function(original: Callable, wrapper: Callable) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _add(key: str, amount_of: Callable) -> Callable:
    def observe(book, label, args, kwargs, result) -> None:
        book.amount[key] += amount_of(args, kwargs, result)

    return observe


def _rows(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _blocked(args, kwargs, result) -> int:
    return 1 if getattr(result, "blocked", False) else 0


def _answer_label(args, kwargs) -> str:
    query = args[1] if len(args) > 1 else kwargs.get("query", {})
    op = query.get("op") if isinstance(query, dict) else None
    return f"serve.answer.{op if op in ('url', 'script', 'page') else 'other'}"


def install(ledger: Ledger) -> None:
    """Wrap the public calls the ledger attributes time to."""
    _import_all("repro")
    wrap = ledger.wrap

    def method(cls, attr: str, name, **options) -> None:
        setattr(cls, attr, wrap(getattr(cls, attr), name, **options))

    def function(module: str, attr: str, name, **options) -> None:
        original = getattr(importlib.import_module(module), attr)
        _replace_function(original, wrap(original, name, **options))

    for driver in DRIVERS:
        function(f"repro.experiments.{driver}", "run", f"experiments.{driver}")

    from repro.analysis.coverage import CoverageAnalyzer
    from repro.analysis.livecrawl import LiveCrawler
    from repro.core.adaboost import AdaBoostClassifier
    from repro.core.pipeline import AntiAdblockDetector
    from repro.core.svm import SVC
    from repro.core.vectorize import Vectorizer
    from repro.filterlist.matcher import NetworkMatcher
    from repro.serve.batcher import ServeEngine
    from repro.serve.daemon import ServeDaemon
    from repro.wayback.crawler import WaybackCrawler

    method(SVC, "fit", "core.svm.fit", observe=_add("core.svm.fit.rows", _rows))
    method(AdaBoostClassifier, "fit", "core.adaboost.fit")
    for attr in ("fit", "fit_transform"):
        method(Vectorizer, attr, "core.vectorize")
    method(
        AntiAdblockDetector,
        "predict",
        "core.detector.predict",
        observe=_add("core.detector.predict.rows", _rows),
    )
    for attr in ("match", "match_profile", "first_match"):
        method(
            NetworkMatcher,
            attr,
            "filterlist.match",
            observe=_add("filterlist.match.blocked", _blocked),
        )
    for attr in ("apply_delta", "add_rule", "copy"):
        method(NetworkMatcher, attr, "filterlist.build")
    method(
        WaybackCrawler,
        "crawl",
        "wayback.crawl",
        observe=_add(
            "wayback.crawl.records",
            lambda args, kwargs, result: len(getattr(result, "records", ())),
        ),
    )
    method(CoverageAnalyzer, "analyze", "analysis.coverage")
    method(LiveCrawler, "crawl", "analysis.live")
    method(
        ServeEngine,
        "answer_batch",
        "serve.engine",
        observe=_add("serve.engine.rows", _rows),
    )
    method(ServeDaemon, "dispatch", "serve.dispatch", sample=True)

    function(
        "repro.jsast.tokenizer",
        "tokenize",
        "jsast.tokenize",
        observe=_add(
            "jsast.tokenize.bytes",
            lambda args, kwargs, result: len(args[0].encode("utf-8", "replace"))
            if args and isinstance(args[0], str)
            else 0,
        ),
    )
    function("repro.jsast.parser", "parse", "jsast.parse")
    # ``unpack_source`` is ``parse`` + ``unpack_program``; the feature
    # paths call ``unpack_program`` directly, so that is the timed call.
    function("repro.jsast.unpack", "unpack_program", "jsast.unpack")
    # One script's parse + unpack + extraction: ``features_from_source``
    # for callers outside the feature store, ``extract_events`` inside it.
    function("repro.core.features", "features_from_source", "core.features")
    function("repro.core.featstore", "extract_events", "core.features")
    function("repro.web.dom", "parse_html", "web.parse_html")
    function("repro.serve.batcher", "answer_query", _answer_label)
    function("repro.serve.batcher", "prewarm_verdicts", "serve.prewarm")
    function("repro.serve.protocol", "decode_line", "serve.protocol.decode")
    function("repro.serve.protocol", "encode", "serve.protocol.encode")


# -- the per-layer metrics -------------------------------------------------------


def layer_metrics(
    book: Dict[str, dict],
    counters: Dict[str, float],
    daemon_cpu_s: float,
    overhead_pct: float,
    rtt_tail_ms: float,
) -> Dict[str, float]:
    """Every ``per_layer`` metric from one ledger snapshot.

    ``counters`` are the program's own ``graph.*`` registry counters over
    the same span; ``daemon_cpu_s`` is read from ``/proc`` by the caller.
    The untraced tail round trip rides along here rather than among the
    end-to-end metrics, because it does not repeat within their bounds.
    """
    calls, ns, amount = book["calls"], book["ns"], book["amount"]

    def seconds(name: str) -> float:
        return ns.get(name, 0) / 1e9

    values: Dict[str, float] = {}
    for driver in DRIVERS:
        values[f"experiments.{driver}.s"] = seconds(f"experiments.{driver}")
    for name in (
        "core.svm.fit", "jsast.tokenize", "jsast.parse", "jsast.unpack",
        "core.features", "core.detector.predict", "filterlist.match",
        "filterlist.build", "web.parse_html",
    ):
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.s"] = seconds(name)
    values["core.svm.fit.rows"] = amount.get("core.svm.fit.rows", 0)
    values["core.adaboost.fit.s"] = seconds("core.adaboost.fit")
    values["core.vectorize.s"] = seconds("core.vectorize")
    values["jsast.tokenize.bytes"] = amount.get("jsast.tokenize.bytes", 0)
    values["core.detector.predict.rows"] = amount.get("core.detector.predict.rows", 0)
    matches = calls.get("filterlist.match", 0)
    values["filterlist.match.blocked_ratio"] = (
        amount.get("filterlist.match.blocked", 0) / matches if matches else 0.0
    )
    values["wayback.crawl.records"] = amount.get("wayback.crawl.records", 0)
    values["wayback.crawl.s"] = seconds("wayback.crawl")
    values["analysis.coverage.s"] = seconds("analysis.coverage")
    values["analysis.live.s"] = seconds("analysis.live")
    values["graph.misses"] = counters.get("graph.misses", 0)
    values["graph.stores"] = counters.get("graph.stores", 0)
    for op in ("url", "script", "page"):
        values[f"serve.answer.{op}.calls"] = calls.get(f"serve.answer.{op}", 0)
        values[f"serve.answer.{op}.s"] = seconds(f"serve.answer.{op}")
    values["serve.prewarm.calls"] = calls.get("serve.prewarm", 0)
    values["serve.prewarm.s"] = seconds("serve.prewarm")
    batches = calls.get("serve.engine", 0)
    values["serve.engine.batch_rows"] = (
        amount.get("serve.engine.rows", 0) / batches if batches else 0.0
    )
    dispatch = book["samples"].get("serve.dispatch", [])
    values["serve.dispatch_ms.p50"] = median(dispatch) / 1e6 if dispatch else 0.0
    values["serve.protocol.decode.s"] = seconds("serve.protocol.decode")
    values["serve.protocol.encode.s"] = seconds("serve.protocol.encode")
    values["serve.daemon_cpu_s"] = daemon_cpu_s
    values["obs.trace_overhead_pct"] = overhead_pct
    values["rtt_tail_ms"] = rtt_tail_ms
    return {name: values[name] for name, _ in PER_LAYER}
