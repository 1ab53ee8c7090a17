"""The benchmark: three workloads, end-to-end metrics, a traced ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 2 --trace 0

Workloads (``BENCHMARK.json`` lists the gated ones and why each was chosen):

- ``campaign`` — the offline reproduction at ``REPRO_SCALE=0.05``: set-up
  synthesises the inputs and runs the Wayback crawl, then the measured
  phase runs all 14 experiment drivers cold, in a fresh run cache. Its
  inputs are the reproduction's own pinned world, the same for every
  seed, so its artifact digests can be compared across runs.
- ``serve-lone`` — ``python -m repro serve``, cold-built at
  ``REPRO_SCALE=0.2``, with one connection sending one ``url`` query per
  round trip.
- ``serve-bulk`` — the same daemon with two connections in a closed loop
  of 64-query ``batch`` frames (70/20/10 url/script/page). It is not
  gated; ``README.md`` says why.

Every process is launched with a pinned, scrubbed environment (printed
at the start). ``--trace 0`` prints every end-to-end metric; ``--trace
1`` makes an untraced and a traced run of the same seed and prints the
per-layer ledger of :mod:`ledger`, with the tracing overhead. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Each run checks its answers: no failed
operation, serve answers equal to in-process answers on a fixed sample
(:mod:`parity`), and campaign artifact digests equal to the committed
``artifacts.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from ledger import DRIVERS, PER_LAYER, difference, layer_metrics  # noqa: E402

WORKLOADS = ("campaign", "serve-bulk", "serve-lone")
CAMPAIGN_SCALE = "0.05"
SERVE_SCALE = "0.2"
#: Cold set-ups (and, on serve, measured windows) per untraced run;
#: the reported figures are their medians. A campaign set-up sample
#: costs about 5 s and its pass about 35 s, so it takes fewer.
SETUP_SAMPLES = {"campaign": 3, "serve-bulk": 5, "serve-lone": 5}
#: The campaign's expected artifact digests at ``CAMPAIGN_SCALE``.
ARTIFACTS = os.path.join(HERE, "artifacts.json")
#: Everything a run does must end within this many seconds.
RUN_BUDGET_S = 170.0
#: Environment every launched process gets, whatever the caller had.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Connections per serve workload, and queries per frame (``stream.FRAME``).
CONNECTIONS = {"serve-bulk": 2, "serve-lone": 1}
FRAME_QUERIES = {"serve-bulk": 64, "serve-lone": 1}
#: Parity sample: every ``PARITY_STRIDE``-th frame, at most this many
#: per measured window.
PARITY_STRIDE = 7
PARITY_FRAMES = {"serve-bulk": 4, "serve-lone": 100}
#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "qps": "1/s",
    "rtt_p50_ms": "ms",
}
LAYER_UNITS = dict(PER_LAYER)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def say(message: str) -> None:
    print(f"# {message}", flush=True)


def tail(samples: List[float]):
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least ten samples beyond it, else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = int(n * (1 - pct / 100.0))
        if beyond >= 10:
            return pct, ordered[n - beyond - 1], beyond
    return 100.0, ordered[-1], 0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class Run:
    """One invocation: its work directory, environment and children."""

    def __init__(self, workload: str) -> None:
        self.work = os.path.join(
            ROOT, ".perfbench_work", f"{workload}-{os.getpid()}-{time.time_ns()}"
        )
        os.makedirs(os.path.join(self.work, "tmp"))
        self.children: List[subprocess.Popen] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PYTHON"))
        }
        dropped = sorted(set(os.environ) - set(self.env))
        self.env.update(PINNED_ENV)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["TMPDIR"] = os.path.join(self.work, "tmp")
        pinned = " ".join(f"{key}={self.env[key]}" for key in sorted(PINNED_ENV))
        say(f"env: {pinned} PYTHONPATH=src TMPDIR=<work>/tmp; dropped: {dropped or 'none'}")
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._done = threading.Event()
        self._watchdog.start()

    def _watch(self) -> None:
        if not self._done.wait(max(self.deadline - time.monotonic(), 0)):
            for child in self.children:
                if child.poll() is None:
                    child.kill()

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def spawn(self, args: List[str], label: str, extra_env: Dict[str, str], **kwargs):
        self.remaining()
        env = dict(self.env, **extra_env)
        say(f"launch {label}: " + " ".join(f"{k}={v}" for k, v in sorted(extra_env.items())))
        with open(self.path(f"{label}.log"), "w", encoding="utf-8") as log:
            child = subprocess.Popen(
                [sys.executable, *args],
                env=env,
                cwd=self.work,
                stdout=kwargs.pop("stdout", log),
                stderr=log,
                **kwargs,
            )
        self.children.append(child)
        return child

    def wait(self, child: subprocess.Popen, label: str) -> None:
        try:
            code = child.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{label} did not finish in time") from None
        if code != 0:
            raise BenchError(f"{label} exited with {code}; see {label}.log:\n" + self.log_tail(label))

    def log_tail(self, label: str) -> str:
        try:
            with open(self.path(f"{label}.log"), encoding="utf-8", errors="replace") as handle:
                return "".join(handle.readlines()[-15:])
        except OSError:
            return ""

    def close(self) -> None:
        for child in self.children:
            if child.poll() is None:
                child.kill()
            child.wait()
        self._done.set()
        self._watchdog.join()
        shutil.rmtree(self.work, ignore_errors=True)


# -- campaign ------------------------------------------------------------------------


def campaign_child(run: Run, label: str, *flags: str) -> dict:
    """Launch one campaign process; returns its report and ``setup_s``."""
    result = run.path(f"{label}.json")
    started = time.perf_counter()
    child = run.spawn(
        [os.path.join(HERE, "campaign.py"), result, *flags],
        label,
        {"REPRO_SCALE": CAMPAIGN_SCALE, "REPRO_RUN_CACHE": run.path(f"{label}-cache")},
        stdout=subprocess.PIPE,
        text=True,
    )
    line = child.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        child.wait()
        raise BenchError(f"{label} died during set-up:\n" + run.log_tail(label))
    cpu0 = time.process_time()
    run.wait(child, label)
    child.stdout.close()
    if "--setup-only" in flags:
        return {"setup_s": setup_s}
    with open(result, encoding="utf-8") as handle:
        report = json.load(handle)
    report["setup_s"] = setup_s
    report["cpu_s"] += time.process_time() - cpu0
    return report


def check_artifacts(report: dict) -> bool:
    """Compare the artifact digests with the committed ``artifacts.json``.

    The campaign's inputs are the pinned reproduction world, so the 14
    rendered artifacts are fixed; a change that means to alter one
    updates ``artifacts.json`` with it.
    """
    digests = {d["name"]: d.get("sha256") for d in report["drivers"]}
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    for name, digest in digests.items():
        say(f"artifact {name}: {digest}")
    say(f"artifact set digest: {combined}")
    with open(ARTIFACTS, encoding="utf-8") as handle:
        expected = json.load(handle)
    if expected != digests:
        changed = sorted(
            name for name in set(digests) | set(expected) if digests.get(name) != expected.get(name)
        )
        say(f"artifact digests differ from perfbench/artifacts.json: {changed}")
        return False
    say("artifact digests equal perfbench/artifacts.json")
    return True


def run_campaign(run: Run, trace: bool):
    if trace:
        base = campaign_child(run, "base")
        traced = campaign_child(run, "traced", "--trace")
        same = [d.get("sha256") for d in base["drivers"]] == [
            d.get("sha256") for d in traced["drivers"]
        ]
        if not same:
            say("traced artifacts differ from untraced artifacts")
        overhead = (traced["wall_s"] / base["wall_s"] - 1) * 100
        metrics = layer_metrics(
            traced["ledger"], traced["counters"], 0.0, overhead, base["wall_s"] * 1000
        )
        failed = sum("error" in d for d in traced["drivers"] + base["drivers"])
        correct = same and failed == 0 and check_artifacts(traced)
        return correct, len(DRIVERS), failed, metrics

    # The set-up-only samples bracket the measured pass, so that their
    # median spans the run rather than its first minute.
    samples = SETUP_SAMPLES["campaign"]
    before = (samples - 1) // 2
    setups = [
        campaign_child(run, f"setup{i}", "--setup-only")["setup_s"] for i in range(before)
    ]
    report = campaign_child(run, "full")
    setups.append(report["setup_s"])
    setups += [
        campaign_child(run, f"setup{i}", "--setup-only")["setup_s"]
        for i in range(before, samples - 1)
    ]
    say("set-up samples (s): " + " ".join(f"{value:.3f}" for value in setups))
    for d in report["drivers"]:
        say(f"driver {d['name']}: {d['wall_s']:.3f} s{' FAILED ' + d['error'] if 'error' in d else ''}")
    failed = sum("error" in d for d in report["drivers"])
    # A researcher's request is the whole pass, so its round trip is the
    # measured phase: one sample, which is both the median and the tail.
    say(f"rtt_tail_ms = {report['wall_s'] * 1000:.6g} ms: p100 of 1 round trip (the pass)")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": report["wall_s"],
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "qps": (len(DRIVERS) - failed) / report["wall_s"],
        "rtt_p50_ms": report["wall_s"] * 1000,
    }
    say(f"graph counters: {report['counters']}")
    correct = failed == 0 and check_artifacts(report)
    return correct, len(DRIVERS), failed, metrics


# -- serve ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process, booted cold in its own run cache."""

    READY_QUERY = b'{"op":"url","url":"https://bench.invalid/ready.js"}\n'

    def __init__(self, run: Run, label: str, traced: bool) -> None:
        self.run = run
        self.label = label
        self.cache = run.path(f"{label}-cache")
        self.ledger_prefix = run.path(f"{label}-ledger")
        self.marks = 0
        ready = run.path(f"{label}-ready.json")
        serve_args = ["--port", "0", "--ready-file", ready]
        if traced:
            args = [os.path.join(HERE, "serve_traced.py"), self.ledger_prefix, *serve_args]
        else:
            args = ["-m", "repro", "serve", *serve_args]
        started = time.perf_counter()
        self.child = run.spawn(
            args, label, {"REPRO_SCALE": SERVE_SCALE, "REPRO_RUN_CACHE": self.cache}
        )
        self.host, self.port = self._await_ready(ready)
        with self.connect() as sock:
            sock.sendall(self.READY_QUERY)
            reply = sock.makefile("rb").readline()
        if not json.loads(reply or b"{}").get("ok"):
            raise BenchError(f"{label}: readiness query failed: {reply!r}")
        self.setup_s = time.perf_counter() - started

    def _await_ready(self, path: str):
        while True:
            if self.child.poll() is not None:
                raise BenchError(f"{self.label} exited during boot:\n" + self.run.log_tail(self.label))
            self.run.remaining()
            try:
                with open(path, encoding="utf-8") as handle:
                    address = json.load(handle)
                return address["host"], address["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)

    def connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def mark(self) -> dict:
        """Have the traced daemon write its ledger; returns it."""
        self.marks += 1
        path = f"{self.ledger_prefix}.{self.marks}.json"
        self.child.send_signal(signal.SIGUSR1)
        while not os.path.exists(path):
            self.run.remaining()
            time.sleep(0.002)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        """SIGINT, as an operator would; the daemon drains and exits."""
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGINT)
        self.run.wait(self.child, self.label)


def drive(daemon: Daemon, lines: List[bytes], deadline_ns: int, out: dict) -> None:
    """A closed loop on one connection until the deadline; no frame is
    sent after it. Round trips are kept exactly, in nanoseconds."""
    rtts, replies = out["rtts"], out["replies"]
    with daemon.connect() as sock:
        reader = sock.makefile("rb")
        for line in lines:
            if time.perf_counter_ns() >= deadline_ns:
                break
            out["sent"] += 1
            started = time.perf_counter_ns()
            sock.sendall(line)
            reply = reader.readline()
            finished = time.perf_counter_ns()
            if not reply:
                break
            rtts.append(finished - started)
            replies.append(reply)
        else:
            out["exhausted"] = True


def exchange(daemon: Daemon, workload: str, lines: List[bytes], seconds: float):
    """Run the closed loop(s); returns per-connection outcomes and wall."""
    connections = CONNECTIONS[workload]
    outs = [
        {"rtts": [], "replies": [], "sent": 0, "exhausted": False, "lines": lines[c::connections]}
        for c in range(connections)
    ]
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    threads = [
        threading.Thread(target=drive, args=(daemon, out["lines"], deadline, out))
        for out in outs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(daemon.run.remaining())
        if thread.is_alive():
            raise BenchError("a client connection did not finish in time")
    return outs, (time.perf_counter_ns() - started) / 1e9


def answers_of(reply: bytes) -> List[dict]:
    message = json.loads(reply)
    if message.get("op") == "batch":
        return message.get("answers", []) if message.get("ok") else []
    return [message]


def score(workload: str, outs: List[dict]):
    """(queries sent, answered ok, failed, parity sample) of a closed loop."""
    per_frame = FRAME_QUERIES[workload]
    sent = answered = 0
    sample = []
    connections = len(outs)
    for c, out in enumerate(outs):
        sent += out["sent"] * per_frame
        for k, reply in enumerate(out["replies"]):
            answers = answers_of(reply)
            answered += sum(1 for answer in answers if answer.get("ok"))
            index = c + k * connections
            if index % PARITY_STRIDE == 0 and index // PARITY_STRIDE < PARITY_FRAMES[workload]:
                frame = json.loads(out["lines"][k])
                queries = frame["queries"] if frame.get("op") == "batch" else [frame]
                sample.extend(zip(queries, answers))
    return sent, answered, sent - answered, sample


def parity(run: Run, cache: str, sample) -> bool:
    """Offline answers for the sample, from the state in a daemon's run cache."""
    label = "parity"
    with open(run.path(f"{label}-sample.json"), "w", encoding="utf-8") as handle:
        json.dump(sample, handle)
    child = run.spawn(
        [os.path.join(HERE, "parity.py"), run.path(f"{label}-sample.json"), run.path(f"{label}.json")],
        label,
        {"REPRO_SCALE": SERVE_SCALE, "REPRO_RUN_CACHE": cache},
    )
    run.wait(child, label)
    with open(run.path(f"{label}.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    say(f"parity: {result['checked']} answers checked, {result['mismatched']} differ")
    for example in result["mismatches"]:
        say(f"parity mismatch: {json.dumps(example)[:400]}")
    return result["checked"] > 0 and result["mismatched"] == 0


def measure_daemon(run: Run, workload: str, streams, seconds: float, label: str, traced: bool):
    """Boot one daemon cold, warm it up, measure one window, and stop it."""
    daemon = Daemon(run, label, traced)
    exchange(daemon, workload, streams["warm"], 60.0)
    before = daemon.mark() if traced else None
    cpu0, daemon_cpu0 = time.process_time(), proc_cpu_s(daemon.child.pid)
    outs, wall = exchange(daemon, workload, streams["measured"], seconds)
    daemon_cpu = proc_cpu_s(daemon.child.pid) - daemon_cpu0
    cpu = time.process_time() - cpu0 + daemon_cpu
    after = daemon.mark() if traced else None
    peak = proc_peak_rss_mb(daemon.child.pid)
    daemon.stop()
    sent, answered, failed, sample = score(workload, outs)
    if any(out["exhausted"] for out in outs):
        say(f"{label}: the measured stream ran out before --seconds elapsed")
    rtts = [rtt / 1e6 for out in outs for rtt in out["rtts"]]
    say(
        f"{label}: set-up {daemon.setup_s:.3f} s, {answered / wall:.1f} q/s, "
        f"rtt p50 {statistics.median(rtts):.3f} ms, {failed} failed"
    )
    result = {
        "cache": daemon.cache,
        "setup_s": daemon.setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "daemon_cpu_s": daemon_cpu,
        "peak_rss_mb": peak,
        "sent": sent,
        "answered": answered,
        "failed": failed,
        "rtts_ms": rtts,
        "sample": sample,
    }
    if traced:
        result["ledger"] = difference(after, before)
        result["counters"] = {
            name: after["counters"][name] - before["counters"][name]
            for name in after["counters"]
        }
    return result


def load_streams(run: Run, workload: str, seed: int, seconds: float) -> dict:
    child = run.spawn(
        [
            os.path.join(HERE, "stream.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--scale", SERVE_SCALE, "--out", run.work,
        ],
        "stream",
        {},
    )
    run.wait(child, "stream")
    streams = {}
    for name in ("warm", "measured"):
        with open(run.path(f"{name}.ndjson"), "rb") as handle:
            data = handle.read()
        streams[name] = data.splitlines(keepends=True)
        say(f"{name} stream: {len(streams[name])} frames, sha256 {hashlib.sha256(data).hexdigest()}")
    return streams


def run_serve(run: Run, workload: str, seed: int, seconds: float, trace: bool):
    """Cold daemons measured one after another on the same stream.

    Untraced, each of the ``SETUP_SAMPLES`` daemons gives one set-up
    time and one measured window, and the metrics are their medians; the
    tail needs the pooled round trips. Traced, an untraced daemon on each
    side of the traced one gives the overhead.
    """
    streams = load_streams(run, workload, seed, seconds)
    if trace:
        labels = ("base0", "traced", "base1")
    else:
        labels = tuple(f"daemon{i}" for i in range(SETUP_SAMPLES[workload]))
    daemons = [
        measure_daemon(run, workload, streams, seconds, label, traced=label == "traced")
        for label in labels
    ]
    sample = [pair for daemon in daemons for pair in daemon["sample"]]
    attempted = sum(daemon["sent"] for daemon in daemons)
    failed = sum(daemon["failed"] for daemon in daemons)
    correct = parity(run, daemons[-1]["cache"], sample) and failed == 0

    untraced = [daemons[0], daemons[2]] if trace else daemons
    rtts = [rtt for daemon in untraced for rtt in daemon["rtts_ms"]]
    pct, tail_ms, beyond = tail(rtts)
    say(f"rtt_tail_ms = {tail_ms:.6g} ms: p{pct:g} of {len(rtts)} pooled round trips ({beyond} beyond)")
    if trace:
        traced = daemons[1]
        per_query = [daemon["wall_s"] / daemon["answered"] for daemon in daemons]
        overhead = (per_query[1] / statistics.mean([per_query[0], per_query[2]]) - 1) * 100
        metrics = layer_metrics(
            traced["ledger"], traced["counters"], traced["daemon_cpu_s"], overhead, tail_ms
        )
        return correct, attempted, failed, metrics

    def median_of(value):
        return statistics.median(value(daemon) for daemon in daemons)

    metrics = {
        "setup_s": median_of(lambda d: d["setup_s"]),
        "wall_s": median_of(lambda d: d["wall_s"]),
        "cpu_s": median_of(lambda d: d["cpu_s"]),
        "peak_rss_mb": median_of(lambda d: d["peak_rss_mb"]),
        "qps": median_of(lambda d: d["answered"] / d["wall_s"]),
        "rtt_p50_ms": median_of(lambda d: statistics.median(d["rtts_ms"])),
    }
    return correct, attempted, failed, metrics


# -- entry point -----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    # A terminated benchmark still stops and reaps everything it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload)
    try:
        say(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        if args.workload == "campaign":
            correct, attempted, failed, metrics = run_campaign(run, bool(args.trace))
        else:
            correct, attempted, failed, metrics = run_serve(
                run, args.workload, args.seed, args.seconds, bool(args.trace)
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    say(f"ops={attempted} failed_ops={failed} correct={correct}")
    for name, value in metrics.items():
        say(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
