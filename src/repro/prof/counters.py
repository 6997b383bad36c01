"""Deterministic kernel cost counters: profiling's machine-independent half.

The batched Stage-I kernel (:mod:`repro.core.soa`) accumulates
operation counts -- select iterations, popcount words, reduceat rows,
pool-cache deltas -- into a module-level ``COST_COUNTERS`` dict as plain
integer adds, a cost small enough to leave on unconditionally.  This
module is the single consumer: it resets the providers before a
profiled region, snapshots them after, and (only then) emits the counts
through the metrics registry.

Because two same-seed runs execute the identical operation sequence,
their snapshots must be *equal* -- any drift is an algorithmic change,
never hardware noise.  That property is what ``repro profile diff`` and
the perf gate's attribution diff are built on.

Counter naming follows ``component.noun_ops`` (e.g.
``soa.popcount_word_ops``, ``soa.reduceat_row_ops``).
"""

from __future__ import annotations

import importlib
from typing import Dict, List

__all__ = [
    "reset_cost_counters",
    "snapshot_cost_counters",
    "flush_cost_counters",
]

#: (module, attribute) pairs exposing a ``Dict[str, int]`` of counters.
#: Imported lazily so merely importing :mod:`repro.prof` never drags the
#: numpy-backed kernels in.
_PROVIDERS = (("repro.core.soa", "COST_COUNTERS"),)


def _provider_dicts() -> List[Dict[str, int]]:
    return [
        getattr(importlib.import_module(module_name), attribute)
        for module_name, attribute in _PROVIDERS
    ]


def reset_cost_counters() -> None:
    """Zero every kernel cost counter (call before a profiled region)."""
    for counters in _provider_dicts():
        for name in counters:
            counters[name] = 0


def snapshot_cost_counters() -> Dict[str, int]:
    """All kernel cost counters as one sorted ``{name: count}`` dict."""
    merged: Dict[str, int] = {}
    for counters in _provider_dicts():
        merged.update(counters)
    return dict(sorted(merged.items()))


def flush_cost_counters(metrics=None) -> Dict[str, int]:
    """Snapshot the cost counters, emitting them through ``metrics``.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or the
    null registry, or ``None``).  Zero-valued counters are not emitted,
    so a run that never touched a kernel leaves the registry untouched.
    Returns the full snapshot either way.
    """
    snapshot = snapshot_cost_counters()
    if metrics is not None and getattr(metrics, "enabled", False):
        for name, value in snapshot.items():
            if value:
                metrics.counter(name).inc(value)
    return snapshot
