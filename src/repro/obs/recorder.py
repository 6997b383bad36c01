"""The :class:`Recorder` facade and the ambient current-recorder slot.

A recorder bundles the three observability backends -- an event sink, a
metrics registry and a span tracer -- behind one object that the
instrumented layers (``core``, ``distributed``, ``dynamic``, ``analysis``)
accept as an optional parameter.  :data:`NULL_RECORDER` is the all-null
bundle: its ``enabled`` flag is ``False`` and every operation is a no-op,
so instrumentation guarded by ``if recorder.enabled`` is free by default.

Instrumented entry points take ``recorder=None`` and resolve it through
:func:`resolve_recorder`, which falls back to the *ambient* recorder --
a :mod:`contextvars` slot installed with :func:`use_recorder`.  The CLI
and benchmark harness install a live recorder once, and every nested call
(``run_two_stage`` inside ``run_figure`` inside a CLI command) picks it
up without threading the object through every signature.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional

from repro.obs.events import EventSink, NullEventSink
from repro.obs.live import NULL_RUN_REGISTRY, RunRegistry
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.spans import NullSpanTracer, SpanRecord, SpanTracer

__all__ = [
    "Recorder",
    "NULL_RECORDER",
    "get_recorder",
    "use_recorder",
    "resolve_recorder",
]


class Recorder:
    """Bundle of event sink + metrics registry + span tracer + run registry.

    Parameters
    ----------
    events / metrics / spans / runs:
        Backends; any omitted backend defaults to its null implementation.
        When both the tracer and the sink are live, finished spans are
        mirrored into the event stream as ``span`` events.  When ``runs``
        is a live :class:`~repro.obs.live.RunRegistry`, every event that
        passes through :meth:`emit` also feeds the registry, which is how
        instrumented entry points appear on the telemetry server's
        ``/runs`` endpoint with no extra plumbing.
    """

    def __init__(
        self,
        events: Optional[EventSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
        runs: Optional[RunRegistry] = None,
    ) -> None:
        self.events = events if events is not None else NullEventSink()
        self.metrics = metrics if metrics is not None else NullMetrics()
        self.spans = spans if spans is not None else NullSpanTracer()
        self.runs = runs if runs is not None else NULL_RUN_REGISTRY
        if self.spans.enabled and self.events.enabled:
            previous = self.spans.on_finish

            def _mirror(record: SpanRecord, _previous=previous) -> None:
                if _previous is not None:
                    _previous(record)
                self.events.emit(record.to_event())

            self.spans.on_finish = _mirror
        #: Cached master switch consulted on hot paths.
        self.enabled = bool(
            self.events.enabled
            or self.metrics.enabled
            or self.spans.enabled
            or self.runs.enabled
        )

    def emit(self, event_type: str, **fields: Any) -> None:
        """Emit one event dict (no-op when sink and run registry are null)."""
        if self.events.enabled or self.runs.enabled:
            self.forward({"event": event_type, **fields})

    def forward(self, event: Dict[str, Any]) -> None:
        """Route one pre-built event dict to the sink and run registry.

        Used by hot paths (the simulator's per-slot loop) that build the
        dict themselves; callers should gate on ``events.enabled or
        runs.enabled`` to keep the disabled path allocation-free.
        """
        if self.events.enabled:
            self.events.emit(event)
        if self.runs.enabled:
            self.runs.observe(event)

    def span(self, name: str):
        """Open a span context manager on the bundled tracer."""
        return self.spans.span(name)

    def close(self) -> None:
        """Close the event sink (metrics/spans stay readable)."""
        self.events.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: The default, always-off recorder.  Shared and stateless.
NULL_RECORDER = Recorder()

_CURRENT: ContextVar[Recorder] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def get_recorder() -> Recorder:
    """The ambient recorder (:data:`NULL_RECORDER` unless installed)."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for the ``with`` body."""
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)


def resolve_recorder(recorder: Optional[Recorder]) -> Recorder:
    """An explicit recorder if given, else the ambient one.

    The single resolution point used by every instrumented signature's
    ``recorder=None`` default; one :class:`~contextvars.ContextVar` read
    per *entry point* call (never per round or per slot).
    """
    return recorder if recorder is not None else _CURRENT.get()
