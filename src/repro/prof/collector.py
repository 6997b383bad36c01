"""The stdlib profiler harness: cProfile + tracemalloc behind a spec.

:class:`Profiler` is the run-scoped driver the Session layer and CLI
install when ``ProfileSpec.enabled`` (i.e. ``--profile-out DIR`` was
passed).  It is a context manager around the profiled region:

* on entry it zeroes the deterministic kernel cost counters and starts
  the drivers the spec asks for (``cprofile`` for wall/CPU function
  attribution, ``memory`` for tracemalloc allocation sites);
* on exit it stops the drivers, snapshots the cost counters (emitting
  them through the recorder's metrics registry, where one is live),
  and assembles the attribution payload from the recorder's span
  records plus the driver outputs;
* :meth:`write` persists the three artifacts -- ``profile.json``,
  ``profile.collapsed``, ``profile.speedscope.json`` -- atomically
  into the spec's output directory.

With the spec disabled none of this runs: no counter is flushed, no
driver starts, and the run is byte-identical to an unprofiled one.
"""

from __future__ import annotations

import cProfile
import platform
import pstats
from typing import Any, Dict, List, Optional

from repro.obs.spans import span_table
from repro.prof.attribution import alloc_table, function_table
from repro.prof.counters import flush_cost_counters, reset_cost_counters
from repro.prof.report import PROFILE_SCHEMA_VERSION, write_profile

__all__ = ["Profiler"]


class Profiler:
    """One profiled region: start drivers, collect, write artifacts."""

    def __init__(self, spec, recorder, meta: Optional[Dict[str, Any]] = None):
        self.spec = spec
        self.recorder = recorder
        self.meta = dict(meta or {})
        self.payload: Optional[Dict[str, Any]] = None
        self._span_events: List[Dict[str, Any]] = []
        self._cprofile: Optional[cProfile.Profile] = None
        self._started_tracemalloc = False

    # ------------------------------------------------------------------
    def start(self) -> "Profiler":
        reset_cost_counters()
        if self.spec.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        if self.spec.cprofile:
            self._cprofile = cProfile.Profile()
            self._cprofile.enable()
        return self

    def stop(self) -> Dict[str, Any]:
        """Stop the drivers and assemble the attribution payload."""
        functions: List[Dict[str, Any]] = []
        if self._cprofile is not None:
            self._cprofile.disable()
            stats = pstats.Stats(self._cprofile)
            functions = function_table(stats.stats, top=self.spec.top)
            self._cprofile = None
        allocs: List[Dict[str, Any]] = []
        if self.spec.memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                allocs = alloc_table(
                    tracemalloc.take_snapshot(), top=self.spec.top
                )
                if self._started_tracemalloc:
                    tracemalloc.stop()
                    self._started_tracemalloc = False
        counters = flush_cost_counters(self.recorder.metrics)
        self._span_events = [
            record.to_event() for record in self.recorder.spans.records
        ]
        self.payload = {
            "schema": PROFILE_SCHEMA_VERSION,
            "meta": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                **self.meta,
            },
            "spans": span_table(self._span_events),
            "functions": functions,
            "allocs": allocs,
            "counters": counters,
        }
        return self.payload

    def write(self) -> Dict[str, str]:
        """Persist the artifacts into ``spec.profile_out``; return paths."""
        if self.payload is None:
            raise RuntimeError("Profiler.write() before stop()")
        return write_profile(
            self.spec.profile_out, self.payload, self._span_events
        )

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
        if exc_type is None and self.spec.profile_out is not None:
            self.write()
