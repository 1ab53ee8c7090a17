"""One validation point for the ``REPRO_*`` environment knobs.

Before this module, ``REPRO_SCALE`` was parsed in ``experiments.context``
and ``REPRO_WORKERS``/``REPRO_MATCHER_CACHE`` in ``analysis.perf``, each
silently falling back to its default on garbage input — a typo like
``REPRO_WORKERS=fuor`` quietly ran serial. Every knob — scale, workers,
the matcher/history/feature caches, the serve daemon's
port/batch/linger/shards surface, and the resilience layer's retry/
journal/fault-injection settings — now resolves here: invalid or out-of-range
values still fall back to the documented
defaults (so behaviour is unchanged), but a warning is logged **once per
(variable, raw value)** so the operator learns about the typo, and the
resolved values are recorded in the run manifest via
:func:`config_snapshot`.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

logger = logging.getLogger("repro.obs.config")

#: Documented defaults (kept in sync with docs/ARCHITECTURE.md's knob table).
DEFAULT_SCALE = 0.08
DEFAULT_WORKERS = 1
DEFAULT_MATCHER_CACHE = 512
DEFAULT_HISTORY_CACHE = 65536
DEFAULT_MAX_RETRIES = 3
DEFAULT_RETRY_BASE_MS = 50.0
DEFAULT_DATA_PLANE = False
DEFAULT_RULE_STATS = False
DEFAULT_SERVE_PORT = 7675
DEFAULT_SERVE_BATCH = 64
DEFAULT_SERVE_WAIT_MS = 2.0
DEFAULT_SERVE_SHARDS = 0

#: The knobs this module owns, in manifest order.
KNOBS = (
    "REPRO_SCALE",
    "REPRO_WORKERS",
    "REPRO_MATCHER_CACHE",
    "REPRO_HISTORY_CACHE",
    "REPRO_FEATURE_CACHE",
    "REPRO_RUN_CACHE",
    "REPRO_LIST_PATCH",
    "REPRO_DATA_PLANE",
    "REPRO_RULE_STATS",
    "REPRO_RULE_STATS_DIR",
    "REPRO_SERVE_PORT",
    "REPRO_SERVE_BATCH",
    "REPRO_SERVE_WAIT_MS",
    "REPRO_SERVE_SHARDS",
    "REPRO_MAX_RETRIES",
    "REPRO_RETRY_BASE_MS",
    "REPRO_CRAWL_JOURNAL",
    "REPRO_FAULT_SEED",
)

#: Raw strings accepted as boolean knob values.
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")

#: (variable, raw value) pairs already warned about in this process.
_WARNED: Set[Tuple[str, str]] = set()


def _warn_once(var: str, raw: str, fallback) -> None:
    key = (var, raw)
    if key in _WARNED:
        return
    _WARNED.add(key)
    logger.warning("invalid %s=%r; using %r", var, raw, fallback)


def _resolve_float(var: str, raw: Optional[str], default: float, minimum: float) -> float:
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn_once(var, raw, default)
        return default
    if value < minimum or value != value:  # NaN guard
        _warn_once(var, raw, default)
        return default
    return value


def _resolve_int(var: str, raw: Optional[str], default: int, minimum: int, clamp: bool = False) -> int:
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn_once(var, raw, default)
        return default
    if value < minimum:
        fallback = minimum if clamp else default
        _warn_once(var, raw, fallback)
        return fallback
    return value


def repro_scale(environ: Optional[Mapping[str, str]] = None) -> float:
    """Experiment scale from ``REPRO_SCALE`` (default 0.08, must be > 0)."""
    environ = os.environ if environ is None else environ
    return _resolve_float(
        "REPRO_SCALE", environ.get("REPRO_SCALE"), DEFAULT_SCALE, minimum=1e-9
    )


def repro_workers(environ: Optional[Mapping[str, str]] = None) -> int:
    """§4 replay worker count from ``REPRO_WORKERS`` (default 1 = serial)."""
    environ = os.environ if environ is None else environ
    return _resolve_int(
        "REPRO_WORKERS", environ.get("REPRO_WORKERS"), DEFAULT_WORKERS, minimum=1
    )


def matcher_cache_size(environ: Optional[Mapping[str, str]] = None) -> int:
    """Matcher/adblocker LRU capacity from ``REPRO_MATCHER_CACHE`` (≥ 2)."""
    environ = os.environ if environ is None else environ
    return _resolve_int(
        "REPRO_MATCHER_CACHE",
        environ.get("REPRO_MATCHER_CACHE"),
        DEFAULT_MATCHER_CACHE,
        minimum=2,
        clamp=True,
    )


def history_cache_size(environ: Optional[Mapping[str, str]] = None) -> int:
    """§3 parsed-rule cache capacity from ``REPRO_HISTORY_CACHE`` (≥ 2).

    Bounds the process-global content-addressed cache mapping each
    distinct rule line to its parsed rule, Figure 1 type, and targeted
    domains (``repro.filterlist.parser``). Values below the minimum are
    clamped rather than rejected, matching ``REPRO_MATCHER_CACHE``.
    """
    environ = os.environ if environ is None else environ
    return _resolve_int(
        "REPRO_HISTORY_CACHE",
        environ.get("REPRO_HISTORY_CACHE"),
        DEFAULT_HISTORY_CACHE,
        minimum=2,
        clamp=True,
    )


def feature_cache_dir(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """§5 feature-cache directory from ``REPRO_FEATURE_CACHE``.

    Unset or empty disables the on-disk cache (``None``). The directory
    need not exist (the store creates it), but a path that exists and is
    *not* a directory is rejected with a one-time warning.
    """
    environ = os.environ if environ is None else environ
    return _resolve_dir("REPRO_FEATURE_CACHE", environ.get("REPRO_FEATURE_CACHE"))


def run_cache_dir(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """Artifact-graph run-cache directory from ``REPRO_RUN_CACHE``.

    Unset or empty disables run-cache persistence (``None``): the
    artifact graph (:mod:`repro.graph`) still computes node keys but
    every node is computed in-process. When set, every campaign stage
    and experiment artifact persists under this directory keyed by
    ``(inputs-digest, code-version)``, so a fresh process warm-starts
    from whatever an earlier run already computed. The directory need
    not exist (the graph creates it), but a path that exists and is
    *not* a directory is rejected with a one-time warning.
    """
    environ = os.environ if environ is None else environ
    return _resolve_dir("REPRO_RUN_CACHE", environ.get("REPRO_RUN_CACHE"))


def list_patch_file(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """Filter-list patch file from ``REPRO_LIST_PATCH``.

    Unset or empty means no patch (``None``). When set, the file's
    non-comment lines are appended to the Anti-Adblock Killer history as
    one extra delta revision after list generation — the "one-line list
    change" workload: every downstream artifact (coverage, live, corpus,
    tables) sees the edit, while the archive/crawl stages keep their
    run-cache keys. A path that does not point at a readable file is
    rejected with a one-time warning.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_LIST_PATCH")
    if not raw:
        return None
    if not os.path.isfile(raw):
        _warn_once("REPRO_LIST_PATCH", raw, None)
        return None
    return raw


def _resolve_dir(var: str, raw: Optional[str]) -> Optional[str]:
    if not raw:
        return None
    if os.path.exists(raw) and not os.path.isdir(raw):
        _warn_once(var, raw, None)
        return None
    return raw


def _resolve_bool(var: str, raw: Optional[str], default: bool) -> bool:
    if raw is None or raw == "":
        return default
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    _warn_once(var, raw, default)
    return default


def data_plane_enabled(environ: Optional[Mapping[str, str]] = None) -> bool:
    """Binary data-plane toggle from ``REPRO_DATA_PLANE`` (default off).

    When on, the hot stores persist packed mmap-able artifacts
    (:mod:`repro.dataplane`) instead of JSON: the §5 feature cache writes
    packed token-event segments and :class:`~repro.wayback.store.DataRepository`
    writes the columnar request table alongside the HAR files. Artifacts
    produced through either path are digest-identical; the knob only
    changes the interchange format.
    """
    environ = os.environ if environ is None else environ
    return _resolve_bool(
        "REPRO_DATA_PLANE", environ.get("REPRO_DATA_PLANE"), DEFAULT_DATA_PLANE
    )


def rule_stats_enabled(environ: Optional[Mapping[str, str]] = None) -> bool:
    """Rule-level stats toggle from ``REPRO_RULE_STATS`` (default off).

    When on, the matcher/adblocker layers report per-rule hit counts,
    candidate-check counts, and match-latency histograms into the
    process-global :class:`~repro.analysis.rulestats.RuleStatsCollector`
    (the "filter the filters" plane). Experiment artifacts are
    digest-identical either way; the knob only adds telemetry.
    """
    environ = os.environ if environ is None else environ
    return _resolve_bool(
        "REPRO_RULE_STATS", environ.get("REPRO_RULE_STATS"), DEFAULT_RULE_STATS
    )


def rule_stats_dir(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """Rule-stats accumulator directory from ``REPRO_RULE_STATS_DIR``.

    Unset or empty keeps stats in-process only (``None``). When set (and
    ``REPRO_RULE_STATS=1``), each run folds its collected payload into a
    content-addressed JSON accumulator under this directory, so stats
    aggregate across the full §4 replay at scale — multiple invocations,
    one report. The directory need not exist, but a path that exists and
    is *not* a directory is rejected with a one-time warning.
    """
    environ = os.environ if environ is None else environ
    return _resolve_dir("REPRO_RULE_STATS_DIR", environ.get("REPRO_RULE_STATS_DIR"))


def serve_port(environ: Optional[Mapping[str, str]] = None) -> int:
    """Serve-daemon TCP port from ``REPRO_SERVE_PORT`` (default 7675).

    0 is valid and means "an ephemeral port chosen by the OS" (the
    daemon prints the bound port at startup) — useful for tests and for
    running several daemons on one host. Values above 65535 warn once
    and fall back to the default.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_SERVE_PORT")
    value = _resolve_int("REPRO_SERVE_PORT", raw, DEFAULT_SERVE_PORT, minimum=0)
    if value > 65535:
        _warn_once("REPRO_SERVE_PORT", raw, DEFAULT_SERVE_PORT)
        return DEFAULT_SERVE_PORT
    return value


def serve_batch_size(environ: Optional[Mapping[str, str]] = None) -> int:
    """Serve-daemon max batch size from ``REPRO_SERVE_BATCH`` (≥ 1).

    The batcher dispatches a batch as soon as this many queries are
    pending (or the linger window closes, whichever comes first). 1
    degenerates to the naive one-query-per-call path.
    """
    environ = os.environ if environ is None else environ
    return _resolve_int(
        "REPRO_SERVE_BATCH",
        environ.get("REPRO_SERVE_BATCH"),
        DEFAULT_SERVE_BATCH,
        minimum=1,
        clamp=True,
    )


def serve_wait_ms(environ: Optional[Mapping[str, str]] = None) -> float:
    """Serve-daemon batch linger from ``REPRO_SERVE_WAIT_MS`` (≥ 0).

    How long the batcher waits for more queries before dispatching a
    partial batch. 0 disables the linger entirely: every dispatch takes
    whatever is queued at that instant.
    """
    environ = os.environ if environ is None else environ
    return _resolve_float(
        "REPRO_SERVE_WAIT_MS",
        environ.get("REPRO_SERVE_WAIT_MS"),
        DEFAULT_SERVE_WAIT_MS,
        minimum=0.0,
    )


def serve_shards(environ: Optional[Mapping[str, str]] = None) -> int:
    """Serve-daemon shard count from ``REPRO_SERVE_SHARDS`` (≥ 0).

    0 (the default) and 1 both serve from a single process; ≥ 2 boots a
    :class:`~repro.serve.shard.ShardSupervisor` forking that many full
    daemon processes, all accepting on one port (``SO_REUSEPORT`` where
    available) from one mmap'd snapshot container. Each shard is
    GIL-bound, so shards ≈ cores is the useful ceiling.
    """
    environ = os.environ if environ is None else environ
    return _resolve_int(
        "REPRO_SERVE_SHARDS",
        environ.get("REPRO_SERVE_SHARDS"),
        DEFAULT_SERVE_SHARDS,
        minimum=0,
    )


def max_retries(environ: Optional[Mapping[str, str]] = None) -> int:
    """Crawl retry allowance from ``REPRO_MAX_RETRIES`` (default 3, ≥ 0).

    0 disables retrying entirely: any transient fault degrades its slot
    on first occurrence (the circuit breaker still applies).
    """
    environ = os.environ if environ is None else environ
    return _resolve_int(
        "REPRO_MAX_RETRIES",
        environ.get("REPRO_MAX_RETRIES"),
        DEFAULT_MAX_RETRIES,
        minimum=0,
    )


def retry_base_ms(environ: Optional[Mapping[str, str]] = None) -> float:
    """First-retry backoff delay from ``REPRO_RETRY_BASE_MS`` (default 50, ≥ 0)."""
    environ = os.environ if environ is None else environ
    return _resolve_float(
        "REPRO_RETRY_BASE_MS",
        environ.get("REPRO_RETRY_BASE_MS"),
        DEFAULT_RETRY_BASE_MS,
        minimum=0.0,
    )


def crawl_journal_dir(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """Checkpoint-journal directory from ``REPRO_CRAWL_JOURNAL``.

    Unset or empty disables journaling (``None``). The directory holds
    one append-only JSONL journal per ingest scope (``wayback.jsonl``,
    ``live.jsonl``, ``corpus.jsonl``); it need not exist, but a path
    that exists and is *not* a directory is rejected with a one-time
    warning.
    """
    environ = os.environ if environ is None else environ
    return _resolve_dir("REPRO_CRAWL_JOURNAL", environ.get("REPRO_CRAWL_JOURNAL"))


def fault_seed(environ: Optional[Mapping[str, str]] = None) -> Optional[int]:
    """Fault-injection seed from ``REPRO_FAULT_SEED`` (unset = disabled).

    Any integer enables the deterministic fault-injection dev mode with
    that schedule seed; an invalid value warns once and leaves injection
    disabled (never silently faulting a real run).
    """
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_FAULT_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        _warn_once("REPRO_FAULT_SEED", raw, None)
        return None


@dataclass(frozen=True)
class ConfigSnapshot:
    """The resolved run configuration, as recorded in the manifest."""

    scale: float
    workers: int
    matcher_cache: int
    #: §3 parsed-rule cache capacity (``REPRO_HISTORY_CACHE``).
    history_cache: int = DEFAULT_HISTORY_CACHE
    feature_cache: Optional[str] = None
    #: Artifact-graph run-cache directory (``REPRO_RUN_CACHE``).
    run_cache: Optional[str] = None
    #: Filter-list patch file (``REPRO_LIST_PATCH``).
    list_patch: Optional[str] = None
    #: Packed binary interchange for the hot stores (``REPRO_DATA_PLANE``).
    data_plane: bool = DEFAULT_DATA_PLANE
    #: Per-rule hit/cost accounting (``REPRO_RULE_STATS``).
    rule_stats: bool = DEFAULT_RULE_STATS
    #: Cross-run rule-stats accumulator directory (``REPRO_RULE_STATS_DIR``).
    rule_stats_dir: Optional[str] = None
    #: Serve-daemon TCP port (``REPRO_SERVE_PORT``; 0 = ephemeral).
    serve_port: int = DEFAULT_SERVE_PORT
    #: Serve-daemon max batch size (``REPRO_SERVE_BATCH``).
    serve_batch: int = DEFAULT_SERVE_BATCH
    #: Serve-daemon batch linger in milliseconds (``REPRO_SERVE_WAIT_MS``).
    serve_wait_ms: float = DEFAULT_SERVE_WAIT_MS
    #: Serve-daemon shard processes (``REPRO_SERVE_SHARDS``; 0/1 = single).
    serve_shards: int = DEFAULT_SERVE_SHARDS
    max_retries: int = DEFAULT_MAX_RETRIES
    retry_base_ms: float = DEFAULT_RETRY_BASE_MS
    #: Checkpoint-journal directory (holds wayback/live/corpus journals),
    #: so two runs are comparable from ``run.json`` alone.
    crawl_journal: Optional[str] = None
    #: Fault-injection schedule seed (``None`` = injection disabled).
    fault_seed: Optional[int] = None
    #: Raw environment strings actually present (pre-validation), so a
    #: manifest shows both what the operator set and what the run used.
    raw_env: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale,
            "workers": self.workers,
            "matcher_cache": self.matcher_cache,
            "history_cache": self.history_cache,
            "feature_cache": self.feature_cache,
            "run_cache": self.run_cache,
            "list_patch": self.list_patch,
            "data_plane": self.data_plane,
            "rule_stats": self.rule_stats,
            "rule_stats_dir": self.rule_stats_dir,
            "serve_port": self.serve_port,
            "serve_batch": self.serve_batch,
            "serve_wait_ms": self.serve_wait_ms,
            "serve_shards": self.serve_shards,
            "max_retries": self.max_retries,
            "retry_base_ms": self.retry_base_ms,
            "crawl_journal": self.crawl_journal,
            "fault_seed": self.fault_seed,
            "raw_env": dict(self.raw_env),
        }


def config_snapshot(environ: Optional[Mapping[str, str]] = None) -> ConfigSnapshot:
    """Resolve every knob (warning once on invalid values) in one shot."""
    environ = os.environ if environ is None else environ
    return ConfigSnapshot(
        scale=repro_scale(environ),
        workers=repro_workers(environ),
        matcher_cache=matcher_cache_size(environ),
        history_cache=history_cache_size(environ),
        feature_cache=feature_cache_dir(environ),
        run_cache=run_cache_dir(environ),
        list_patch=list_patch_file(environ),
        data_plane=data_plane_enabled(environ),
        rule_stats=rule_stats_enabled(environ),
        rule_stats_dir=rule_stats_dir(environ),
        serve_port=serve_port(environ),
        serve_batch=serve_batch_size(environ),
        serve_wait_ms=serve_wait_ms(environ),
        serve_shards=serve_shards(environ),
        max_retries=max_retries(environ),
        retry_base_ms=retry_base_ms(environ),
        crawl_journal=crawl_journal_dir(environ),
        fault_seed=fault_seed(environ),
        raw_env={var: environ[var] for var in KNOBS if var in environ},
    )
