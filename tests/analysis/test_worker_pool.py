"""Persistent worker pool: reuse across tasks and calls, rebuild, shutdown."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.analysis.parallel as parallel_mod
from repro.analysis.parallel import parallel_map, shutdown_pools
from repro.errors import ParallelExecutionError

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    """Each test starts and ends with no cached pool."""
    shutdown_pools()
    yield
    shutdown_pools()


# Worker functions must live at module level to be picklable.
def _pid(_x: int) -> int:
    return os.getpid()


def _double(x: int) -> int:
    return 2 * x


def _raise_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("poison task")
    return x


def _die_once(arg) -> int:
    """SIGKILL this worker the first time it sees the poison value."""
    x, sentinel = arg
    if x == 2 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), 9)
    return x


def _die_always(x: int) -> int:
    if x == 2:
        os.kill(os.getpid(), 9)
    return x


def _row_sum(arg) -> float:
    index, matrix = arg
    return float(matrix[index].sum())


def _zero_row_then_sum(arg) -> float:
    index, matrix = arg
    matrix[index] = 0.0
    return float(matrix.sum())


def _row_sum_die_once(arg) -> float:
    index, matrix, sentinel = arg
    if index == 2 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), 9)
    return float(matrix[index].sum())


class TestPersistentPool:
    def test_workers_are_reused_across_tasks(self):
        # 16 tasks on 2 workers: without reuse this would need 16
        # processes; the pid set proves each worker served many tasks.
        pids = set(parallel_map(_pid, list(range(16)), jobs=2))
        assert 1 <= len(pids) <= 2

    def test_workers_are_reused_across_calls(self):
        first = set(parallel_map(_pid, list(range(8)), jobs=2))
        second = set(parallel_map(_pid, list(range(8)), jobs=2))
        # Same cached executor -> same worker processes, no re-fork
        # between parallel_map calls.
        assert first & second
        assert parallel_mod._POOL is not None

    def test_worker_count_change_rebuilds_pool(self):
        parallel_map(_pid, [0, 1], jobs=2)
        pool_two = parallel_mod._POOL
        parallel_map(_pid, [0, 1, 2], jobs=3)
        assert parallel_mod._POOL is not pool_two
        assert parallel_mod._POOL_WORKERS == 3

    def test_shutdown_pools_is_idempotent(self):
        parallel_map(_pid, [0, 1], jobs=2)
        assert parallel_mod._POOL is not None
        shutdown_pools()
        assert parallel_mod._POOL is None
        shutdown_pools()

    def test_serial_path_builds_no_pool(self):
        # jobs=1, and any single-item list, run in the calling process.
        assert parallel_map(_pid, [0, 1, 2], jobs=1) == [os.getpid()] * 3
        assert parallel_map(_pid, [0], jobs=2) == [os.getpid()]
        assert parallel_mod._POOL is None

    def test_next_call_after_shutdown_builds_a_fresh_pool(self):
        parallel_map(_pid, [0, 1], jobs=2)
        old_pool = parallel_mod._POOL
        shutdown_pools()
        assert parallel_map(_pid, [0, 1], jobs=2)
        assert parallel_mod._POOL is not None
        assert parallel_mod._POOL is not old_pool

    def test_worker_exception_keeps_the_pool(self):
        # A raising task is the task's fault, not the pool's: the cached
        # workers survive and serve the next call.
        parallel_map(_pid, [0, 1], jobs=2)
        pool = parallel_mod._POOL
        with pytest.raises(ParallelExecutionError, match="poison"):
            parallel_map(_raise_on_two, [0, 1, 2, 3], jobs=2)
        assert parallel_mod._POOL is pool
        assert parallel_map(_pid, [0, 1], jobs=2)
        assert parallel_mod._POOL is pool

    def test_worker_death_replaces_the_cached_pool(self, tmp_path):
        parallel_map(_pid, [0, 1], jobs=2)
        broken = parallel_mod._POOL
        sentinel = str(tmp_path / "died")
        results = parallel_map(
            _die_once, [(x, sentinel) for x in range(5)], jobs=2,
            retry_backoff_s=0.0,
        )
        assert results == list(range(5))
        assert os.path.exists(sentinel)
        rebuilt = parallel_mod._POOL
        assert rebuilt is not None and rebuilt is not broken
        # The rebuilt pool is cached like the first one.
        first = set(parallel_map(_pid, list(range(8)), jobs=2))
        second = set(parallel_map(_pid, list(range(8)), jobs=2))
        assert parallel_mod._POOL is rebuilt
        assert first & second

    def test_exhausted_retries_drop_the_broken_pool(self):
        with pytest.raises(ParallelExecutionError, match="worker death"):
            parallel_map(
                _die_always, [0, 1, 2, 3], jobs=2, retries=1,
                retry_backoff_s=0.0,
            )
        # No broken executor is left cached for the next sweep.
        assert parallel_mod._POOL is None
        assert parallel_map(_double, [1, 2, 3], jobs=2) == [2, 4, 6]

    def test_interpreter_exits_with_a_cached_pool(self):
        # The atexit hook shuts the cached pool down, so a script that
        # sweeps and returns neither hangs nor fails at exit.
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.analysis.parallel import parallel_map\n"
            "print(parallel_map(abs, [-1, -2, -3], jobs=2))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[1, 2, 3]"


class TestArrayTasks:
    """NumPy inputs reach the workers inside the pickled task."""

    MATRIX = np.arange(20, dtype=np.float64).reshape(5, 4)

    def test_serial_equals_parallel(self):
        items = [(index, self.MATRIX) for index in range(5)]
        serial = parallel_map(_row_sum, items, jobs=1)
        spread = parallel_map(_row_sum, items, jobs=2)
        assert serial == spread == [float(row.sum()) for row in self.MATRIX]

    def test_each_task_gets_its_own_copy(self):
        # Every task unpickles a private copy: a worker's writes reach
        # neither the caller's array nor any other task's input.
        matrix = self.MATRIX.copy()
        items = [(index, matrix) for index in range(5)]
        results = parallel_map(_zero_row_then_sum, items, jobs=2)
        total = float(self.MATRIX.sum())
        assert results == [total - float(row.sum()) for row in self.MATRIX]
        np.testing.assert_array_equal(matrix, self.MATRIX)

    def test_large_array_round_trips(self):
        # ~2 MiB per task rides the pipe intact.
        big = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)
        items = [(index, big) for index in (0, 255, 511)]
        assert parallel_map(_row_sum, items, jobs=2) == [
            float(big[index].sum()) for index in (0, 255, 511)
        ]

    def test_sigkilled_worker_recovers_with_array_tasks(self, tmp_path):
        # A persistent worker dying mid-sweep must not lose the sweep:
        # the lost tasks, arrays included, are resubmitted to a fresh
        # pool.
        sentinel = str(tmp_path / "died")
        items = [(index, self.MATRIX, sentinel) for index in range(5)]
        results = parallel_map(
            _row_sum_die_once, items, jobs=2, retry_backoff_s=0.0
        )
        assert results == [float(row.sum()) for row in self.MATRIX]
        assert os.path.exists(sentinel)
