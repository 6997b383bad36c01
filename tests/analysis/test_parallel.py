"""The parallel sweep runner: determinism, merging, and failure modes."""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments import (
    SweepAxis,
    optimal_comparison_series,
    stage_breakdown_series,
)
from repro.analysis.parallel import parallel_map, resolve_jobs, shutdown_pools
from repro.cli import main
from repro.errors import ParallelExecutionError, SpectrumMatchingError
from repro.obs import ListEventSink, MetricsRegistry, Recorder, use_recorder
from repro.trace.reader import load_events


# Worker functions must live at module level to be picklable.
def _square(x: int) -> int:
    return x * x


def _explode(x: int) -> int:
    if x == 3:
        raise ValueError(f"worker saw the poison value {x}")
    return x


def _die_hard(x: int) -> int:
    """Kill the worker process outright on the poison value."""
    if x == 3:
        os._exit(1)
    return x * x


def _die_once(arg) -> int:
    """Kill the worker the first time it sees the poison value.

    A sentinel file (passed in to keep the function picklable) records
    that the death already happened, so the retry succeeds -- modelling
    a transient OOM kill.
    """
    x, sentinel = arg
    if x == 3 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os._exit(1)
    return x * x


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_explicit_count_is_literal(self):
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(SpectrumMatchingError):
            resolve_jobs(-2)


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_results_in_submission_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_worker_exception_surfaces_as_clean_error(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            parallel_map(_explode, [1, 2, 3, 4], jobs=2)
        assert "poison value 3" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_serial_path_raises_unwrapped(self):
        # Serial execution keeps the historical behaviour: the original
        # exception propagates, nothing is wrapped.
        with pytest.raises(ValueError):
            parallel_map(_explode, [3], jobs=1)


class TestWorkerDeathRetries:
    """Tasks lost to worker death are resubmitted, bounded and observable."""

    def test_transient_death_is_retried_to_success(self, tmp_path):
        sentinel = str(tmp_path / "died")
        sink, metrics = ListEventSink(), MetricsRegistry()
        items = [(x, sentinel) for x in range(1, 6)]
        with use_recorder(Recorder(events=sink, metrics=metrics)):
            results = parallel_map(
                _die_once, items, jobs=2, retry_backoff_s=0.0
            )
        assert results == [x * x for x in range(1, 6)]
        retries = [e for e in sink.events if e["event"] == "analysis.retry"]
        # The poison task (index 2) is always among the lost; the dying
        # worker may take other in-flight tasks down with it.
        assert retries and 2 in retries[0]["tasks"]
        assert all(a == 1 for a in retries[0]["attempts"])
        assert metrics.snapshot()["counters"]["analysis.retries"] >= 1

    def test_persistent_death_exhausts_budget(self):
        with pytest.raises(ParallelExecutionError, match="worker death"):
            parallel_map(
                _die_hard, [1, 2, 3, 4], jobs=2, retries=1, retry_backoff_s=0.0
            )

    def test_retries_zero_is_strict(self):
        with pytest.raises(ParallelExecutionError, match="0 retries"):
            parallel_map(_die_hard, [1, 2, 3, 4], jobs=2, retries=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(SpectrumMatchingError):
            parallel_map(_square, [1, 2], jobs=2, retries=-1)

    def test_application_exception_is_never_retried(self):
        # A raising task is deterministic; resubmitting it would just
        # raise again.  It must fail fast, not burn the retry budget.
        with pytest.raises(ParallelExecutionError, match="poison value 3"):
            parallel_map(_explode, [1, 2, 3, 4], jobs=2, retries=5)


class TestSweepDeterminism:
    """Sweeps return identical rows for every worker count."""

    _KW = dict(num_channels=3, repetitions=3, seed=11)

    def test_stage_breakdown_serial_equals_parallel(self):
        serial = stage_breakdown_series(SweepAxis.BUYERS, [30, 45], **self._KW)
        parallel = stage_breakdown_series(
            SweepAxis.BUYERS, [30, 45], jobs=2, **self._KW
        )
        assert serial == parallel

    def test_worker_count_independence(self):
        two = stage_breakdown_series(SweepAxis.BUYERS, [30, 45], jobs=2, **self._KW)
        three = stage_breakdown_series(SweepAxis.BUYERS, [30, 45], jobs=3, **self._KW)
        assert two == three

    def test_optimal_comparison_serial_equals_parallel(self):
        kwargs = dict(num_buyers=6, num_channels=3, repetitions=4, seed=2)
        serial = optimal_comparison_series(SweepAxis.SIMILARITY, [0.0, 1.0], **kwargs)
        parallel = optimal_comparison_series(
            SweepAxis.SIMILARITY, [0.0, 1.0], jobs=2, **kwargs
        )
        assert serial == parallel
        assert serial[0].measured_srcc == parallel[0].measured_srcc

    def test_crash_in_worker_is_a_clean_error(self):
        # num_channels=0 makes every repetition's market construction
        # raise inside the worker; the sweep must fail fast with the
        # library's error type instead of hanging or dying opaquely.
        with pytest.raises(ParallelExecutionError):
            stage_breakdown_series(
                SweepAxis.BUYERS, [10], num_channels=0, repetitions=2, seed=0, jobs=2
            )


class TestWorkerIsolation:
    def test_workers_leave_the_parent_trace_alone(self, tmp_path):
        # Workers start with a copy of the parent's recorder, whose sink
        # holds the trace file; their events must stay in the worker.
        shutdown_pools()  # fork the workers under this run's recorder
        trace = tmp_path / "fig.jsonl"
        assert main([
            "fig6", "--panel", "a", "--repetitions", "3", "--jobs", "2",
            "--trace-out", str(trace),
        ]) == 0
        events = load_events(str(trace))
        assert [event["event"] for event in events].count("manifest") == 1
        assert {event["event"] for event in events} == {
            "manifest", "figure.start", "analysis.progress", "span",
            "figure.row",
        }


class TestMetricsMerging:
    def test_parallel_sweep_reports_same_counters_as_serial(self):
        def run(jobs):
            registry = MetricsRegistry()
            with use_recorder(Recorder(metrics=registry)):
                stage_breakdown_series(
                    SweepAxis.BUYERS, [30], num_channels=3, repetitions=2,
                    seed=11, jobs=jobs,
                )
            return registry.snapshot()

        serial, parallel = run(None), run(2)
        assert serial["counters"] == parallel["counters"]
        serial_timers = {
            name: stats["count"] for name, stats in serial["timers"].items()
        }
        parallel_timers = {
            name: stats["count"] for name, stats in parallel["timers"].items()
        }
        assert serial_timers == parallel_timers

    def test_registry_merge_accumulates(self):
        source = MetricsRegistry()
        source.counter("a.count").inc(3)
        source.gauge("a.level").set(1.5)
        with source.timer("a.time_s"):
            pass
        source.histogram("a.dist").observe(0.25)
        target = MetricsRegistry()
        target.counter("a.count").inc(1)
        target.merge(source.snapshot())
        target.merge(source.snapshot())
        snapshot = target.snapshot()
        assert snapshot["counters"]["a.count"] == 7
        assert snapshot["gauges"]["a.level"] == 1.5
        assert snapshot["timers"]["a.time_s"]["count"] == 2
        assert snapshot["histograms"]["a.dist"]["count"] == 2
        assert sum(snapshot["histograms"]["a.dist"]["bucket_counts"]) == 2
