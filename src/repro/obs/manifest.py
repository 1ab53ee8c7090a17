"""Machine-readable run manifests: a JSONL event log plus ``run.json``.

A manifest makes a measurement run auditable after the fact: which code
(git SHA), which configuration (seed, resolved ``REPRO_*`` knobs), which
stages ran for how long, what every experiment produced (SHA-256 of the
rendered artifact), and what the unified metrics registry accumulated.
Two outputs:

- **events** (``<out>.jsonl``) — an append-only JSONL log written while
  the run progresses: one object per stage/span/artifact event, each
  stamped with a monotonic sequence number and wall-clock time. Useful
  for tailing long campaigns and for post-hoc timeline reconstruction.
- **``run.json``** — the final manifest, written once at the end.

The schema is versioned and checked by :func:`validate_manifest` — a
hand-rolled structural validator so CI can gate on manifest integrity
without a jsonschema dependency. Current writes use
``repro.run-manifest/2``, which adds a ``metrics.histograms`` section
(serialized :class:`~repro.obs.hist.Histogram` objects) and optional
top-level ``rules`` (rule-stats summary) and ``graph`` (artifact-graph
per-node outcome) sections; v1 manifests from older runs still validate
under the v1 rules. Validate from the command
line with ``python -m repro.obs validate run.json``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

SCHEMA_V1 = "repro.run-manifest/1"
SCHEMA_V2 = "repro.run-manifest/2"
#: The schema new manifests are written with.
SCHEMA = SCHEMA_V2
#: Every schema :func:`validate_manifest` accepts.
KNOWN_SCHEMAS = frozenset({SCHEMA_V1, SCHEMA_V2})


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def artifact_digest(text: str) -> str:
    """SHA-256 hex digest of a rendered experiment artifact."""
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()


class RunManifest:
    """Accumulates one run's provenance and writes it to disk."""

    def __init__(self, path, events_path=None) -> None:
        self.path = Path(path)
        self.events_path = (
            Path(events_path)
            if events_path is not None
            else self.path.with_suffix(".jsonl")
        )
        self.created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self.stages: List[Dict[str, Any]] = []
        self.artifacts: Dict[str, Dict[str, Any]] = {}
        self._seq = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Truncate any stale event log from a previous run at this path.
        self.events_path.write_text("")
        self.event("run_start", manifest=str(self.path))

    # -- the JSONL event log ------------------------------------------------

    def event(self, kind: str, /, **payload: Any) -> None:
        """Append one event line (monotonic ``seq``, wall-clock ``ts``)."""
        record = {"seq": self._seq, "ts": time.time(), "event": kind}
        record.update(payload)
        self._seq += 1
        with self.events_path.open("a") as handle:
            handle.write(json.dumps(record, default=str) + "\n")

    def sink(self, payload: Dict[str, Any]) -> None:
        """Tracer-sink adapter: log a span payload carrying its own kind.

        :class:`repro.obs.trace.Tracer` emits single-dict events whose
        ``event`` key names the kind; unpack it into :meth:`event`.
        """
        payload = dict(payload)
        kind = payload.pop("event", "span")
        self.event(kind, **payload)

    # -- accumulating -------------------------------------------------------

    def record_stage(
        self, name: str, wall_s: float, cpu_s: Optional[float] = None, **attrs: Any
    ) -> None:
        """Record one named pipeline stage's duration (and log the event)."""
        entry: Dict[str, Any] = {"name": name, "wall_s": wall_s}
        if cpu_s is not None:
            entry["cpu_s"] = cpu_s
        if attrs:
            entry["attributes"] = attrs
        self.stages.append(entry)
        self.event("stage", **entry)

    def record_artifact(
        self, experiment: str, rendered: str, wall_s: Optional[float] = None
    ) -> None:
        """Record one experiment's rendered-artifact digest."""
        entry: Dict[str, Any] = {
            "sha256": artifact_digest(rendered),
            "bytes": len(rendered.encode("utf-8", "replace")),
        }
        if wall_s is not None:
            entry["wall_s"] = wall_s
        self.artifacts[experiment] = entry
        self.event("artifact", experiment=experiment, **entry)

    # -- finalizing ---------------------------------------------------------

    def finalize(
        self,
        *,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
        experiments: Optional[List[str]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Write ``run.json`` and return the manifest dict."""
        # Normalize the metrics block to the v2 shape so callers built
        # against v1 (no histograms section) still write valid manifests.
        metrics = dict(metrics) if metrics else {}
        for bucket in ("counters", "gauges", "histograms"):
            metrics.setdefault(bucket, {})
        manifest: Dict[str, Any] = {
            "schema": SCHEMA,
            "created": self.created,
            "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "git_sha": git_sha(),
            "seed": seed,
            "config": config or {},
            "experiments": experiments or [],
            "stages": self.stages,
            "artifacts": self.artifacts,
            "metrics": metrics,
            "spans": spans or [],
            "events_path": self.events_path.name,
        }
        if extra:
            manifest.update(extra)
        self.event("run_end", stages=len(self.stages), artifacts=len(self.artifacts))
        self.path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
        return manifest


# -- schema validation ----------------------------------------------------------

#: top-level key -> required python type(s)
_TOP_LEVEL = {
    "schema": str,
    "created": str,
    "finished": str,
    "config": dict,
    "experiments": list,
    "stages": list,
    "artifacts": dict,
    "metrics": dict,
    "spans": list,
}


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Structural check of a ``run.json`` dict; returns error strings."""
    errors: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    for key, expected in _TOP_LEVEL.items():
        if key not in manifest:
            errors.append(f"missing key: {key}")
        elif not isinstance(manifest[key], expected):
            errors.append(f"{key}: expected {expected.__name__}")
    if errors:
        return errors
    schema = manifest["schema"]
    if schema not in KNOWN_SCHEMAS:
        errors.append(
            f"schema: expected one of {sorted(KNOWN_SCHEMAS)}, got {schema!r}"
        )
        return errors
    for index, stage in enumerate(manifest["stages"]):
        if not isinstance(stage, dict) or "name" not in stage:
            errors.append(f"stages[{index}]: missing name")
            continue
        if not isinstance(stage.get("wall_s"), (int, float)):
            errors.append(f"stages[{index}] ({stage['name']}): missing wall_s")
    for name, artifact in manifest["artifacts"].items():
        if not isinstance(artifact, dict):
            errors.append(f"artifacts[{name}]: not an object")
            continue
        sha = artifact.get("sha256")
        if not (isinstance(sha, str) and len(sha) == 64):
            errors.append(f"artifacts[{name}]: bad sha256")
        if not isinstance(artifact.get("bytes"), int):
            errors.append(f"artifacts[{name}]: bad bytes")
    metrics = manifest["metrics"]
    for bucket in ("counters", "gauges"):
        if not isinstance(metrics.get(bucket), dict):
            errors.append(f"metrics.{bucket}: expected dict")
    if schema == SCHEMA_V2:
        histograms = metrics.get("histograms")
        if not isinstance(histograms, dict):
            errors.append("metrics.histograms: expected dict (v2)")
        else:
            for name, hist in histograms.items():
                errors.extend(_validate_histogram(hist, f"metrics.histograms[{name}]"))
        if "rules" in manifest:
            errors.extend(_validate_rules_section(manifest["rules"]))
        if "graph" in manifest:
            errors.extend(_validate_graph_section(manifest["graph"]))
        if "serve" in manifest:
            errors.extend(_validate_serve_section(manifest["serve"]))
    config = manifest["config"]
    for knob, kind in (
        ("scale", (int, float)),
        ("workers", int),
        ("matcher_cache", int),
        ("history_cache", int),
        ("feature_cache", (str, type(None))),
        ("rule_stats", bool),
        ("rule_stats_dir", (str, type(None))),
        ("serve_port", int),
        ("serve_batch", int),
        ("serve_wait_ms", (int, float)),
        ("serve_shards", int),
        ("max_retries", int),
        ("retry_base_ms", (int, float)),
        ("crawl_journal", (str, type(None))),
        ("fault_seed", (int, type(None))),
        ("run_cache", (str, type(None))),
        ("list_patch", (str, type(None))),
    ):
        if knob in config and not isinstance(config[knob], kind):
            errors.append(f"config.{knob}: wrong type")
    for index, span in enumerate(manifest["spans"]):
        errors.extend(_validate_span(span, f"spans[{index}]"))
    return errors


def _validate_histogram(hist: Any, where: str) -> List[str]:
    """Structural check of one serialized histogram (v2 metrics section)."""
    if not isinstance(hist, dict):
        return [f"{where}: not an object"]
    errors: List[str] = []
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    if not (isinstance(bounds, list) and bounds):
        errors.append(f"{where}: missing bounds")
    if not isinstance(counts, list):
        errors.append(f"{where}: missing counts")
    elif isinstance(bounds, list) and len(counts) != len(bounds) + 1:
        errors.append(f"{where}: counts length != bounds length + 1")
    elif not all(isinstance(count, int) and count >= 0 for count in counts):
        errors.append(f"{where}: non-integer bucket count")
    if not isinstance(hist.get("total"), int):
        errors.append(f"{where}: missing integer total")
    if not isinstance(hist.get("sum"), (int, float)):
        errors.append(f"{where}: missing numeric sum")
    return errors


def _validate_rules_section(rules: Any) -> List[str]:
    """Structural check of the optional v2 ``rules`` summary section."""
    if not isinstance(rules, dict):
        return ["rules: not an object"]
    errors: List[str] = []
    totals = rules.get("totals")
    if not isinstance(totals, dict):
        errors.append("rules.totals: expected dict")
    else:
        for key, value in totals.items():
            if not isinstance(value, int):
                errors.append(f"rules.totals.{key}: expected int")
    lists = rules.get("lists", {})
    if not isinstance(lists, dict):
        errors.append("rules.lists: expected dict")
    else:
        for name, entry in lists.items():
            if not isinstance(entry, dict):
                errors.append(f"rules.lists[{name}]: not an object")
    return errors


#: Per-node outcomes the manifest's ``graph`` section may report.
_GRAPH_OUTCOMES = frozenset({"hit", "miss", "stored", "computed", "volatile", "error"})


def _validate_graph_section(graph: Any) -> List[str]:
    """Structural check of the optional v2 ``graph`` summary section."""
    if not isinstance(graph, dict):
        return ["graph: not an object"]
    errors: List[str] = []
    if not isinstance(graph.get("cache_dir"), (str, type(None))):
        errors.append("graph.cache_dir: expected str or null")
    nodes = graph.get("nodes")
    if not isinstance(nodes, dict):
        return errors + ["graph.nodes: expected dict"]
    for name, row in nodes.items():
        where = f"graph.nodes[{name}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        key = row.get("key")
        if not (isinstance(key, str) and len(key) == 64):
            errors.append(f"{where}: bad key")
        if row.get("outcome") not in _GRAPH_OUTCOMES:
            errors.append(f"{where}: bad outcome {row.get('outcome')!r}")
        if not isinstance(row.get("bytes"), int):
            errors.append(f"{where}: bad bytes")
    return errors


#: Counter fields the v2 ``serve`` section must carry as non-negative ints.
_SERVE_COUNTERS = ("queries", "batches", "reloads", "dropped")


def _validate_serve_section(serve: Any) -> List[str]:
    """Structural check of the optional v2 ``serve`` summary section.

    Written by the serve daemon on shutdown (:mod:`repro.serve`): the
    port it listened on, the epoch it finished at, and the query/batch/
    reload/dropped counters a smoke test gates on. Older daemons also
    wrote a ``workers`` count; it is still accepted when present.
    """
    if not isinstance(serve, dict):
        return ["serve: not an object"]
    errors: List[str] = []
    if not isinstance(serve.get("port"), int):
        errors.append("serve.port: expected int")
    if not isinstance(serve.get("epoch"), int):
        errors.append("serve.epoch: expected int")
    if "workers" in serve and not isinstance(serve.get("workers"), int):
        errors.append("serve.workers: expected int")
    for field in _SERVE_COUNTERS:
        value = serve.get(field)
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
            errors.append(f"serve.{field}: expected non-negative int")
    # A sharded deployment's section also carries the shard count and
    # the supervisor's respawn counter; both optional (absent when the
    # daemon ran single-process), both non-negative ints when present.
    for field in ("shards", "shard_restarts"):
        if field in serve:
            value = serve.get(field)
            if not (
                isinstance(value, int) and not isinstance(value, bool) and value >= 0
            ):
                errors.append(f"serve.{field}: expected non-negative int")
    return errors


def _validate_span(span: Any, where: str) -> List[str]:
    errors: List[str] = []
    if not isinstance(span, dict):
        return [f"{where}: not an object"]
    if not isinstance(span.get("name"), str):
        errors.append(f"{where}: missing name")
    if span.get("status") not in ("ok", "error", "open"):
        errors.append(f"{where}: bad status")
    for child_index, child in enumerate(span.get("children", ())):
        errors.extend(_validate_span(child, f"{where}.children[{child_index}]"))
    return errors


#: Every event kind a ``<run>.jsonl`` log may legally contain: the
#: manifest's own lifecycle events, the tracer-sink span events, and the
#: resilience layer's crawl events (retries, circuit openings, journal
#: resume/completion, injected faults).
KNOWN_EVENT_KINDS = frozenset(
    {
        "run_start",
        "run_end",
        "stage",
        "artifact",
        "span",
        "span_start",
        "span_end",
        "crawl_retry",
        "crawl_gave_up",
        "crawl_circuit_open",
        "crawl_resume",
        "crawl_fault",
        "journal_complete",
    }
)


def validate_events(lines: List[str]) -> List[str]:
    """Structural check of a JSONL event log; returns error strings.

    Every line must be a JSON object carrying a monotonically increasing
    integer ``seq``, a numeric ``ts``, and an ``event`` kind from
    :data:`KNOWN_EVENT_KINDS` — so downstream tooling can rely on the
    event vocabulary the way it relies on the ``run.json`` schema.
    """
    errors: List[str] = []
    last_seq = -1
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {line_no}: not JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {line_no}: not an object")
            continue
        seq = record.get("seq")
        if not isinstance(seq, int):
            errors.append(f"line {line_no}: missing integer seq")
        elif seq <= last_seq:
            errors.append(f"line {line_no}: seq {seq} not increasing")
        else:
            last_seq = seq
        if not isinstance(record.get("ts"), (int, float)):
            errors.append(f"line {line_no}: missing numeric ts")
        kind = record.get("event")
        if not isinstance(kind, str):
            errors.append(f"line {line_no}: missing event kind")
        elif kind not in KNOWN_EVENT_KINDS:
            errors.append(f"line {line_no}: unknown event kind {kind!r}")
    return errors


def load_and_validate(path) -> List[str]:
    """Validate a manifest (``run.json``) or event log (``*.jsonl``) file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        return [f"unreadable manifest: {exc}"]
    if path.suffix == ".jsonl":
        return validate_events(text.splitlines())
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"unreadable manifest: {exc}"]
    return validate_manifest(manifest)
