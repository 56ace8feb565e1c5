"""Persistent worker pool for parallel episode replay.

The original fan-out created a fresh :class:`ProcessPoolExecutor` per
``run()`` and pickled ``(config, allocator, episode)`` for every
episode — process startup plus repeated payload shipping often cost
more than the episodes themselves.  This module keeps one module-wide
pool alive across runs (spawn once) and ships each worker a *chunk*
``(config, allocator, [episode seeds])`` — the heavyweight objects
cross the process boundary once per worker, the episodes as plain
ints.  Workers rebuild their simulator only when the config changes,
so consecutive runs reuse warm caches.

:func:`parallel_decision` centralizes the "would a pool even pay for
itself?" call: single-episode runs and single-core boxes always take
the serial path, and the perf harness records that decision honestly
(``parallel_fallback`` in ``BENCH_simulator.json``) instead of
reporting a meaningless sub-1.0 speedup.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pickle import PicklingError, dumps as _pickle_dumps
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.metrics import EpisodeResult
    from repro.simulation.simulator import SimulationConfig, TraceSimulator


@dataclass(frozen=True)
class ParallelDecision:
    """Whether episode fan-out should use worker processes, and why."""

    use_parallel: bool
    reason: str
    #: Pool size: no more than the episodes or the box's cores.
    workers: int = 1


def parallel_decision(
    num_episodes: int, max_workers: Optional[int]
) -> ParallelDecision:
    """Decide whether a pool can pay for itself.

    Serial when the caller asked for it (``None``/0/1 workers), when
    there is only one episode to replay, or when the box has a single
    CPU core (worker processes would just time-slice the same core
    while paying pickling and startup on top).  A parallel pool never
    has more workers than episodes or cores, for the same reason.
    """
    if max_workers is None or max_workers <= 1:
        return ParallelDecision(False, "serial replay requested (max_workers <= 1)")
    if num_episodes <= 1:
        return ParallelDecision(False, "a single episode cannot be split")
    cores = os.cpu_count() or 1
    if cores < 2:
        return ParallelDecision(
            False,
            f"{cores} CPU core: worker processes cannot overlap and "
            "would only add startup and pickling cost",
        )
    workers = min(max_workers, num_episodes, cores)
    return ParallelDecision(
        True,
        f"{workers} workers over {num_episodes} episodes on {cores} cores",
        workers,
    )


_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0

#: Errors that mean "the pool itself is unusable" — the caller falls
#: back to serial replay.  Genuine episode errors propagate.
POOL_ERRORS = (
    ImportError,
    NotImplementedError,
    OSError,
    PicklingError,
    BrokenProcessPool,
)


def get_pool(max_workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)created only when the size changes."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != max_workers:
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=max_workers)
        _POOL_WORKERS = max_workers
    return _POOL


def shutdown_pool() -> None:
    """Dispose of the shared pool (atexit, or after a pool failure)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def _chunks(episodes: List[int], num_chunks: int) -> List[List[int]]:
    """Contiguous near-equal chunks, one per worker."""
    size, extra = divmod(len(episodes), num_chunks)
    out: List[List[int]] = []
    start = 0
    for i in range(num_chunks):
        end = start + size + (1 if i < extra else 0)
        if end > start:
            out.append(episodes[start:end])
        start = end
    return out


#: Per-process simulator reused across the chunks a worker handles.
_WORKER_SIMULATOR: Optional["TraceSimulator"] = None


def _chunk_task(
    payload: Tuple["SimulationConfig", object, List[int]]
) -> List["EpisodeResult"]:
    """Worker-process entry point: replay one chunk of episodes."""
    global _WORKER_SIMULATOR
    from repro.simulation.simulator import TraceSimulator

    config, allocator, episodes = payload
    if _WORKER_SIMULATOR is None or _WORKER_SIMULATOR.config != config:
        _WORKER_SIMULATOR = TraceSimulator(config)
    return [
        _WORKER_SIMULATOR.run_episode(allocator, episode) for episode in episodes
    ]


def run_episodes(
    config: "SimulationConfig",
    allocator: object,
    episodes: Sequence[int],
    max_workers: int,
) -> Optional[List["EpisodeResult"]]:
    """Replay episodes on the shared pool; ``None`` means fall back.

    Results come back in episode order, identical to the serial path.
    """
    episode_list = [int(e) for e in episodes]
    try:
        # Pre-flight: the payload must cross the process boundary.
        # Unpicklable objects raise PicklingError, AttributeError
        # (local objects), or TypeError depending on the cause;
        # confining the catch to this explicit dumps() keeps the
        # pool.map clause below from masking episode errors.
        _pickle_dumps((config, allocator))
    except (PicklingError, AttributeError, TypeError):
        return None
    workers = min(max_workers, len(episode_list))
    payloads = [
        (config, allocator, chunk) for chunk in _chunks(episode_list, workers)
    ]
    try:
        pool = get_pool(workers)
        nested = list(pool.map(_chunk_task, payloads))
    except POOL_ERRORS:
        # A broken pool must not poison later runs.
        shutdown_pool()
        return None
    return [result for chunk in nested for result in chunk]
