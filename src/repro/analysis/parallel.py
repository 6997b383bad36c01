"""Process-based parallel execution for Monte-Carlo sweeps.

The experiment sweeps of Figs. 6-8 repeat an embarrassingly parallel
unit -- *build one seeded market, run the two-stage algorithm, report a
handful of floats* -- hundreds of times.  This module runs those units
across worker processes while preserving the serial path's exact
results:

* **Seed stability.**  Tasks carry their full rng derivation
  ``[seed, value_index, repetition]`` (see
  :func:`repro.analysis.experiments._rng_for`), so a repetition computes
  the identical market no matter which worker runs it or how many
  workers exist.
* **Deterministic ordering.**  :func:`parallel_map` returns results in
  *submission* order, not completion order, so downstream aggregation
  (``summarize`` over the repetition list) sees the same sequence as a
  serial run.
* **Clean failure.**  A worker that *raises* surfaces immediately as
  :class:`~repro.errors.ParallelExecutionError` in the parent with the
  worker-side error attached; pending work is cancelled rather than
  left to hang.
* **Worker-death resilience.**  A worker that *dies* (OOM kill, signal,
  hard crash) breaks the whole :class:`ProcessPoolExecutor`; rather than
  failing a multi-hour sweep for one lost worker, :func:`parallel_map`
  discards the broken pool and resubmits only the tasks whose results
  were lost, under a bounded per-task retry budget with exponential
  backoff (``analysis.retry`` events record each resubmission).
  ``retries=0`` restores the historical strict mode: any worker death
  fails the sweep.  Retrying is safe precisely because tasks are
  deterministic pure functions of their arguments (seed stability
  above).
* **Persistent workers.**  The pool is module-owned and reused across
  calls (same worker count -> same processes, verified by the pool
  tests' pid assertions), so a harness that sweeps repeatedly -- as
  ``BENCH_sweep`` does -- pays the fork + import tax once rather than
  per call.  A broken pool is discarded and rebuilt;
  :func:`shutdown_pools` (also registered via ``atexit``) tears the
  cached pool down explicitly.

Work reaches a worker only as a pickled ``(fn, item)`` task, so worker
functions and their arguments must be picklable (module-level
functions and plain dataclasses), which is why
:mod:`repro.analysis.experiments` factors its per-repetition work into
module-level task functions shared by the serial and parallel paths.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ParallelExecutionError, SpectrumMatchingError
from repro.obs.recorder import resolve_recorder

__all__ = ["resolve_jobs", "parallel_map", "shutdown_pools"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: The cached executor and the worker count it was built with.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _acquire_pool(worker_count: int) -> ProcessPoolExecutor:
    """Return a pool with ``worker_count`` workers, reusing if possible.

    Workers are forked lazily by the executor, so acquiring a large pool
    for a small task list does not spawn idle processes.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != worker_count:
        shutdown_pools()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=worker_count)
        _POOL_WORKERS = worker_count
    return _POOL


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a pool that broke."""
    global _POOL, _POOL_WORKERS
    if pool is _POOL:
        _POOL, _POOL_WORKERS = None, 0
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken pools may misbehave
        pass


def shutdown_pools() -> None:
    """Tear down the cached persistent pool (idempotent).

    Registered with :mod:`atexit`; also callable from tests and
    long-running services that want to reclaim the workers.
    """
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial (run in the calling process);
    ``0`` means "use every core" (``os.cpu_count()``); any other
    positive integer is taken literally.  Negative counts are rejected.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise SpectrumMatchingError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: Optional[int] = None,
    retries: int = 2,
    retry_backoff_s: float = 0.05,
) -> List[_R]:
    """Apply ``fn`` to every item, optionally across worker processes.

    With ``resolve_jobs(jobs) == 1`` this is a plain in-process loop --
    byte-identical behaviour to the historical serial sweeps, ambient
    recorder included.  Otherwise items are submitted to the cached
    process pool (see :func:`shutdown_pools`) and the results are
    collected in submission order.

    A worker *exception* fails the sweep immediately (the task itself is
    broken; re-running it would raise again).  A worker *death* breaks
    the pool and loses the results of every in-flight task; the broken
    pool is discarded and those tasks -- and only those -- are
    resubmitted to a fresh pool, each up to ``retries`` times with
    exponential backoff (``retry_backoff_s`` doubling per attempt).
    ``retries=0`` disables resubmission: any worker death fails the
    sweep (strict mode).

    Raises
    ------
    ParallelExecutionError
        If any worker raises, or a task is lost to worker death more
        than ``retries`` times.  The original exception is chained as
        ``__cause__``; remaining futures are cancelled first so the
        call never hangs.
    """
    if retries < 0:
        raise SpectrumMatchingError(f"retries must be >= 0, got {retries}")
    worker_count = resolve_jobs(jobs)
    rec = resolve_recorder(None)
    # Progress heartbeats feed the live run registry / watch console;
    # content is deterministic (completed counts in submission order).
    report = rec.events.enabled or rec.runs.enabled
    total = len(items)
    if worker_count == 1 or total <= 1:
        results = []
        for index, item in enumerate(items):
            results.append(fn(item))
            if report:
                rec.emit("analysis.progress", completed=index + 1, total=total)
        return results

    done: Dict[int, _R] = {}
    attempts = [0] * total
    pending = list(range(total))
    while pending:
        lost: List[int] = []
        pool_error: Optional[BaseException] = None
        pool = _acquire_pool(worker_count)
        pool_broken = False
        try:
            try:
                futures = {
                    index: pool.submit(fn, items[index]) for index in pending
                }
            except BrokenExecutor as exc:
                # Pool died mid-submission: this round is lost.
                pool_error, futures = exc, {}
                pool_broken = True
                lost.extend(pending)
            for index, future in futures.items():
                try:
                    done[index] = future.result()
                    if report:
                        rec.emit(
                            "analysis.progress",
                            completed=len(done),
                            total=total,
                        )
                except BrokenExecutor as exc:
                    pool_error = exc
                    pool_broken = True
                    lost.append(index)
                except BaseException as exc:
                    for pending_future in futures.values():
                        pending_future.cancel()
                    raise ParallelExecutionError(
                        f"parallel sweep worker failed: {exc!r}"
                    ) from exc
        finally:
            if pool_broken:
                _discard_pool(pool)
        if not lost:
            break
        # Worker death: the pool was discarded, but the completed
        # results are intact.  Resubmit only the lost tasks.
        for index in lost:
            attempts[index] += 1
        exhausted = [index for index in lost if attempts[index] > retries]
        if exhausted:
            raise ParallelExecutionError(
                f"parallel sweep lost task(s) {exhausted} to worker death "
                f"after {retries} retr{'y' if retries == 1 else 'ies'}: "
                f"{pool_error!r}"
            ) from pool_error
        delay = retry_backoff_s * (
            2.0 ** (max(attempts[index] for index in lost) - 1)
        )
        if rec.enabled:
            rec.emit(
                "analysis.retry",
                tasks=sorted(lost),
                attempts=[attempts[index] for index in sorted(lost)],
                backoff_s=delay,
                reason=repr(pool_error),
            )
        if rec.metrics.enabled:
            rec.metrics.counter("analysis.retries").inc(len(lost))
        if delay > 0:
            time.sleep(delay)
        pending = sorted(lost)
    return [done[index] for index in range(total)]
