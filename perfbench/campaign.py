"""The campaign workload's process: set up, then run the 14 drivers cold.

Run as a child of ``run.py``, in its scrubbed environment with
``REPRO_SCALE`` and a fresh, empty ``REPRO_RUN_CACHE``::

    python3 perfbench/campaign.py RESULT.json [--setup-only] [--trace]

Set-up synthesises the campaign's inputs (world, list histories, the
Wayback archive and its crawl, the §5 script corpus) and then prints
``ready``; ``run.py`` times set-up from launch to that line. The
measured phase resolves every driver's rendered artifact through the
artifact graph in ``python -m repro all`` order, exactly as the CLI
does, and writes per-driver wall time and artifact digest, the phase's
wall and CPU time, peak RSS and the ``graph.*`` counters to
``RESULT.json``. With ``--trace`` the :mod:`ledger` wrappers are
installed first and the ledger covers set-up and the measured phase.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import DRIVERS, Ledger, install  # noqa: E402


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv) -> int:
    result_path = argv[0]
    ledger = None
    if "--trace" in argv:
        ledger = Ledger()
        install(ledger)

    from repro.experiments.context import shared_context
    from repro.obs.metrics import get_metrics

    ctx = shared_context()
    # Each property builds (and persists) its stage on first access.
    ctx.lists
    ctx.crawl
    ctx.corpus
    modules = {name: importlib.import_module(f"repro.experiments.{name}") for name in DRIVERS}
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    graph = ctx.graph
    drivers = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for name, module in modules.items():
        graph.register_experiment(name, module)
        started = time.perf_counter()
        entry = {"name": name}
        try:
            rendered = graph.resolve(
                f"exp:{name}", lambda module=module: module.render(module.run(ctx))
            )
            entry["sha256"] = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        except Exception:  # a failed driver is counted, and the run goes on
            traceback.print_exc()
            entry["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
        entry["wall_s"] = time.perf_counter() - started
        drivers.append(entry)
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0

    metrics = get_metrics()
    report = {
        "drivers": drivers,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": {
            name: metrics.counter(name) for name in ("graph.misses", "graph.stores")
        },
        "ledger": ledger.snapshot() if ledger is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
