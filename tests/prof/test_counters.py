"""Deterministic kernel cost counters: reset, snapshot, flush, drift.

The counters are machine-independent operation counts accumulated in
the hot kernels' module-level ``COST_COUNTERS`` dicts.  Two same-seed
runs must produce identical snapshots (the property the perf gate's
attribution diff is built on), and flushing into a metrics registry
must be a no-op when the registry is disabled -- the profiling-off
byte-identity guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.core.deferred_acceptance import deferred_acceptance
from repro.obs import MetricsRegistry
from repro.prof import (
    flush_cost_counters,
    reset_cost_counters,
    snapshot_cost_counters,
)
from repro.workloads.scenarios import paper_simulation_market


def _market():
    return paper_simulation_market(30, 4, np.random.default_rng([9, 30]))


def _run_stage1():
    reset_cost_counters()
    deferred_acceptance(_market(), record_trace=False)
    return snapshot_cost_counters()


class TestLifecycle:
    def test_reset_zeroes_every_counter(self):
        _run_stage1()
        reset_cost_counters()
        assert all(v == 0 for v in snapshot_cost_counters().values())

    def test_snapshot_names_follow_convention(self):
        for name in snapshot_cost_counters():
            component, noun = name.split(".", 1)
            assert component == "soa"
            assert noun.endswith("_ops")

    def test_kernel_run_accumulates_counts(self):
        snapshot = _run_stage1()
        assert sum(snapshot.values()) > 0


class TestDeterminism:
    def test_same_seed_runs_have_zero_drift(self):
        first = _run_stage1()
        second = _run_stage1()
        assert first == second

    def test_different_market_changes_counts(self):
        first = _run_stage1()
        reset_cost_counters()
        deferred_acceptance(
            paper_simulation_market(60, 5, np.random.default_rng([10, 60])),
            record_trace=False,
        )
        assert snapshot_cost_counters() != first


class TestFlush:
    def test_flush_emits_only_nonzero_counters(self):
        _run_stage1()
        registry = MetricsRegistry()
        flushed = flush_cost_counters(registry)
        counters = registry.snapshot()["counters"]
        for name, value in flushed.items():
            if value:
                assert counters[name] == value
            else:
                assert name not in counters

    def test_flush_without_registry_still_snapshots(self):
        _run_stage1()
        assert sum(flush_cost_counters(None).values()) > 0

    def test_disabled_registry_is_untouched(self):
        # The byte-identity guarantee: a run without profiling never
        # sees cost counters in its metrics snapshot.
        _run_stage1()

        class Disabled:
            enabled = False

            def counter(self, name):  # pragma: no cover - must not run
                raise AssertionError("flushed into a disabled registry")

        flush_cost_counters(Disabled())
