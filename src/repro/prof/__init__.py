"""Profiling & performance attribution, layered on the recorder stack.

Null by default: nothing here runs unless a run's
:class:`~repro.run.spec.ProfileSpec` is enabled (``--profile-out DIR``),
and a run with profiling disabled is byte-identical -- trace and
metrics -- to one executed before this package existed.

Three layers:

* :mod:`repro.prof.counters` -- deterministic kernel cost counters
  (machine-independent operation counts; equal across same-seed runs);
* :mod:`repro.prof.collector` -- the stdlib cProfile + tracemalloc
  harness producing per-span attributed wall/CPU/alloc tables;
* :mod:`repro.prof.report` -- the ``profile.json`` /
  ``profile.collapsed`` / ``profile.speedscope.json`` artifacts and
  their diff/top renderers (behind ``repro profile``).
"""

from repro.prof.attribution import alloc_table, function_table
from repro.prof.collector import Profiler
from repro.prof.counters import (
    flush_cost_counters,
    reset_cost_counters,
    snapshot_cost_counters,
)
from repro.prof.report import (
    PROFILE_COLLAPSED,
    PROFILE_JSON,
    PROFILE_SCHEMA_VERSION,
    PROFILE_SPEEDSCOPE,
    diff_profiles,
    format_diff,
    format_top,
    load_profile,
    write_profile,
)

__all__ = [
    "PROFILE_COLLAPSED",
    "PROFILE_JSON",
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_SPEEDSCOPE",
    "Profiler",
    "alloc_table",
    "diff_profiles",
    "flush_cost_counters",
    "format_diff",
    "format_top",
    "function_table",
    "load_profile",
    "reset_cost_counters",
    "snapshot_cost_counters",
    "write_profile",
]
