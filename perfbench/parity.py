"""Serve/offline parity: the daemon's answers against in-process answers.

Run as a child of ``run.py`` after the daemon has stopped, with
``REPRO_RUN_CACHE`` pointing at that daemon's run cache::

    python3 perfbench/parity.py SAMPLE.json RESULT.json

``SAMPLE.json`` holds ``[query, answer]`` pairs the daemon returned
during the measured phase. The serving state is resolved through the
same artifact graph the daemon used (warm, so nothing is retrained), an
:class:`~repro.core.online.OnlineAdblocker` is built from it, and every
query is answered with :func:`repro.serve.batcher.answer_query`.
``RESULT.json`` gets the number checked and the mismatches.
"""

from __future__ import annotations

import json
import sys


def _normal(value):
    return json.loads(json.dumps(value, sort_keys=True))


def main(sample_path: str, result_path: str) -> int:
    from repro.serve.batcher import answer_query
    from repro.serve.daemon import resolve_serve_state

    with open(sample_path, encoding="utf-8") as handle:
        sample = json.load(handle)
    online = resolve_serve_state().build_chain().current.online
    mismatches = []
    for query, answer in sample:
        expected = _normal(answer_query(online, query))
        if expected != _normal(answer):
            mismatches.append({"query": query, "served": answer, "offline": expected})
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"checked": len(sample), "mismatches": mismatches[:5],
                   "mismatched": len(mismatches)}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
