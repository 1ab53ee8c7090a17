"""The traced serve daemon: ledger wrappers, then the normal serve CLI.

Run as a child of ``run.py`` in place of ``python -m repro serve``::

    python3 perfbench/serve_traced.py LEDGER_PREFIX [serve options ...]

It installs the :mod:`ledger` wrappers and then calls
:func:`repro.serve.cli.main` with the remaining arguments, so the daemon
is the one the untraced runs measure. Each ``SIGUSR1`` writes the
ledger so far, with the program's ``graph.*`` counters, to
``LEDGER_PREFIX.<n>.json`` (``n`` counts from 1); ``run.py`` marks the
start and the end of the measured phase this way and takes the
difference. ``SIGINT`` stops the daemon as usual.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import Ledger, install  # noqa: E402


def main(argv) -> int:
    prefix, serve_args = argv[0], argv[1:]
    ledger = Ledger()
    install(ledger)
    from repro.obs.metrics import get_metrics
    from repro.serve.cli import main as serve_main

    marks = itertools.count(1)

    def dump(signum, frame) -> None:
        metrics = get_metrics()
        path = f"{prefix}.{next(marks)}.json"
        snapshot = ledger.snapshot()
        snapshot["counters"] = {
            name: metrics.counter(name) for name in ("graph.misses", "graph.stores")
        }
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, dump)
    return serve_main(serve_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
