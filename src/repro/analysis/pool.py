"""Fork-first process-pool plumbing shared by the parallel engines.

The §4 replay (``analysis.coverage``), the §3 history folds
(``analysis.histfold``), the §4.3 live crawl (``analysis.livecrawl``),
and the §5 feature-extraction engine (``core.featstore``) all shard an
ordered workload across a ``ProcessPoolExecutor`` and merge the shard
results deterministically. This module owns the pieces they share:

- :func:`split_shards` — split ordered groups into contiguous,
  size-balanced shards whose concatenation preserves the serial
  iteration order (the precondition for byte-identical merges);
- :func:`map_shards` — one pool per call, preferring the ``fork`` start
  method. On fork platforms the shards (and any shared state) are
  published as module globals *before* the pool is created, so workers
  inherit them for free and tasks carry only a shard index; elsewhere
  the executor initializer seeds each worker once and tasks carry the
  pickled shards.

Workers build their per-process state exactly once (an analyzer over the
filter-list histories for the replay; nothing for feature extraction),
then run ``task(worker_state, shard, *extra)`` per shard.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence


def fork_context():
    """The ``fork`` multiprocessing context, or ``None`` if unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


def split_shards(groups: Sequence[list], shard_count: int) -> List[list]:
    """Split ordered groups into ≤ ``shard_count`` contiguous, size-balanced
    shards (flattened). Contiguity keeps the merged insertion order equal
    to the serial iteration order.

    The target size adapts to what remains unassigned, and a shard closes
    *before* absorbing a group that would overshoot the adaptive target
    by more than the shard currently undershoots it — so one large final
    group lands in its own shard instead of bloating the last one.
    """
    total = sum(len(group) for group in groups)
    if total == 0 or shard_count <= 1:
        return [[item for group in groups for item in group]] if total else []
    shards: List[list] = []
    current: list = []
    remaining = total
    for group in groups:
        shards_left = shard_count - len(shards)
        if current and shards_left > 1:
            target = remaining / shards_left
            overshoot = len(current) + len(group) - target
            undershoot = target - len(current)
            if overshoot > undershoot:
                shards.append(current)
                remaining -= len(current)
                current = []
        current.extend(group)
    if current:
        shards.append(current)
    return shards


# -- worker-process state --------------------------------------------------------

#: Published by the parent before forking: the task callable, the shared
#: state, the worker-state factory, and the shard list.
_FORK_TASK: Optional[Callable] = None
_FORK_STATE: Any = None
_FORK_MAKE: Optional[Callable] = None
_FORK_SHARDS: Optional[List[list]] = None

#: Built once per worker process (by either initializer).
_WORKER_STATE: Any = None


def _init_fork_worker() -> None:
    global _WORKER_STATE
    _WORKER_STATE = _FORK_MAKE(_FORK_STATE) if _FORK_MAKE is not None else _FORK_STATE


def _run_fork_shard(index: int, *extra):
    return _FORK_TASK(_WORKER_STATE, _FORK_SHARDS[index], *extra)


def _init_pickle_worker(task, make, state) -> None:
    global _FORK_TASK, _WORKER_STATE
    _FORK_TASK = task
    _WORKER_STATE = make(state) if make is not None else state


def _run_pickle_shard(shard, *extra):
    return _FORK_TASK(_WORKER_STATE, shard, *extra)


def map_shards(
    shards: List[list],
    task: Callable,
    state: Any = None,
    make_worker_state: Optional[Callable] = None,
    extra: tuple = (),
) -> List[Any]:
    """Run ``task(worker_state, shard, *extra)`` for each shard in a pool.

    ``task`` and ``make_worker_state`` must be module-level (picklable)
    callables. ``make_worker_state(state)`` runs once per worker process;
    when omitted, workers see ``state`` itself. Results come back in
    shard order, so a contiguous sharding merges deterministically.
    """
    global _FORK_TASK, _FORK_STATE, _FORK_MAKE, _FORK_SHARDS
    count = len(shards)
    repeated = [[value] * count for value in extra]
    context = fork_context()
    if context is not None:
        _FORK_TASK, _FORK_STATE = task, state
        _FORK_MAKE, _FORK_SHARDS = make_worker_state, shards
        try:
            with ProcessPoolExecutor(
                max_workers=count,
                mp_context=context,
                initializer=_init_fork_worker,
            ) as pool:
                return list(pool.map(_run_fork_shard, range(count), *repeated))
        finally:
            _FORK_TASK = _FORK_STATE = _FORK_MAKE = _FORK_SHARDS = None
    with ProcessPoolExecutor(  # pragma: no cover - non-fork platforms
        max_workers=count,
        initializer=_init_pickle_worker,
        initargs=(task, make_worker_state, state),
    ) as pool:
        return list(pool.map(_run_pickle_shard, shards, *repeated))
