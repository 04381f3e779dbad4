"""The warm process pool behind every campaign.

Spawning a ``ProcessPoolExecutor`` per campaign call re-pays worker
startup and the heavy analysis imports on every figure; instead one warm
pool is kept for the life of the process, keyed by its worker count,
and torn down at exit.  This logic lived in
``analysis/experiments.py`` as a pair of main-thread-confined module
globals; the campaign engine needs more from it — the runner must be
able to *discard* a pool whose worker died (``BrokenProcessPool``
poisons the whole executor) and rebuild it mid-run, possibly while the
service's batch path is using the pool from another thread — so the
globals became :class:`WorkerPool`, a class whose every mutating method
runs under its own ``RLock`` (the synchronization pattern staticcheck
R007 recognises, same as :class:`repro.util.lru.LRUCache`).

Workers are initialised once with :func:`_warm_init`, which pre-imports
the analysis chain, so the first shard dispatched to a fresh worker
doesn't pay import latency inside its timeout budget.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

__all__ = ["WorkerPool", "worker_pool", "discard_worker_pool",
           "shutdown_worker_pool"]


def _warm_init() -> None:
    """Worker initializer: pay the heavy imports once per worker instead
    of once per shard."""
    from ..analysis import schedulability  # noqa: F401  (pulls in the chain)


class WorkerPool:
    """Lock-synchronized owner of one warm ``ProcessPoolExecutor``.

    All state transitions (lazy build, resize rebuild, discard
    after worker death, final shutdown) happen under ``self._lock``, so
    the campaign CLI, the service's batch path, and the atexit hook can
    share the singleton without racing.  The executor itself is
    thread-safe for ``submit``; only the *replacement* of the executor
    needs the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers: Optional[int] = None

    def get(self, workers: int) -> ProcessPoolExecutor:
        """The warm pool for ``workers``, built or rebuilt on demand.

        A different worker count retires the old pool first.
        """
        with self._lock:
            if self._pool is None or self._workers != workers:
                self.shutdown()
                self._pool = ProcessPoolExecutor(max_workers=workers,
                                                 initializer=_warm_init)
                self._workers = workers
            return self._pool

    def discard(self) -> None:
        """Drop the current pool without waiting (idempotent).

        Used after ``BrokenProcessPool``: the executor is already
        unusable, so there is nothing to drain — the next :meth:`get`
        builds a fresh one and the runner resubmits the lost shards.
        """
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                self._workers = None

    def shutdown(self) -> None:
        """Tear down the warm pool, waiting for workers (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                self._workers = None


#: Process-wide singleton: one warm pool shared by the CLI campaign
#: commands, the benchmarks, and the service's batch-analyze path.
_POOL = WorkerPool()


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """The shared warm pool (see :class:`WorkerPool`)."""
    return _POOL.get(workers)


def discard_worker_pool() -> None:
    """Drop the shared pool after a worker death (see
    :meth:`WorkerPool.discard`)."""
    _POOL.discard()


def shutdown_worker_pool() -> None:
    """Tear down the shared warm pool (idempotent; re-created on use)."""
    _POOL.shutdown()


atexit.register(shutdown_worker_pool)
