"""Canonical parameterisations of the paper's figures.

One :class:`FigureSpec` per panel, with exactly the sweep ranges and fixed
parameters printed in the paper's captions:

* Fig. 6(a): ``M = 4``, N = 6..10 -- optimal vs proposed welfare.
* Fig. 6(b): ``N = 8``, M = 2..6.
* Fig. 6(c): ``M = 5, N = 8``, similarity 0..1.
* Fig. 7/8(a): ``M = 10``, N = 200..320.
* Fig. 7/8(b): ``N = 500``, M = 4..16.
* Fig. 7/8(c): ``M = 8, N = 300``, similarity 0..1.

(The paper plots Figs. 7 and 8 from the same runs -- welfare and rounds
respectively -- so they share one panel table and differ only in the
``series`` they plot.)

The benchmark modules and the CLI both resolve panels through
:func:`figure_spec` and print its ``series``, so the numbers printed by
``pytest benchmarks`` and ``spectrum-matching fig7 --panel b`` can never
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentRow,
    SweepAxis,
    optimal_comparison_series,
    stage_breakdown_series,
)
from repro.errors import SpectrumMatchingError
from repro.obs.recorder import Recorder, resolve_recorder

__all__ = ["FigureSpec", "figure_spec", "run_figure", "FIGURE_SPECS"]


@dataclass(frozen=True)
class FigureSpec:
    """One figure panel's experiment description.

    Attributes
    ----------
    figure:
        ``6``, ``7`` or ``8`` (7 and 8 share panels).
    panel:
        ``"a"``, ``"b"`` or ``"c"``.
    axis / values:
        Sweep axis and x-values.
    num_buyers / num_channels:
        The fixed dimensions (``None`` for the swept one).
    kind:
        ``"optimal_comparison"`` (Fig. 6) or ``"stage_breakdown"``
        (Figs. 7/8).
    default_repetitions:
        Repetitions used when the caller does not override.
    series:
        The series the figure plots, in column order; each names a
        series of the panel's rows.
    """

    figure: int
    panel: str
    axis: SweepAxis
    values: Tuple[float, ...]
    num_buyers: Optional[int]
    num_channels: Optional[int]
    kind: str
    default_repetitions: int
    series: Tuple[str, ...]


_SIMILARITY_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: Each experiment's panels: ``(axis, values, num_buyers, num_channels)``.
_PANELS = {
    "optimal_comparison": {
        "a": (SweepAxis.BUYERS, (6, 7, 8, 9, 10), None, 4),
        "b": (SweepAxis.SELLERS, (2, 3, 4, 5, 6), 8, None),
        "c": (SweepAxis.SIMILARITY, _SIMILARITY_VALUES, 8, 5),
    },
    "stage_breakdown": {
        "a": (SweepAxis.BUYERS, (200, 220, 240, 260, 280, 300, 320), None, 10),
        "b": (SweepAxis.SELLERS, (4, 6, 8, 10, 12, 14, 16), 500, None),
        "c": (SweepAxis.SIMILARITY, _SIMILARITY_VALUES, 300, 8),
    },
}

#: Each figure's experiment, default repetitions and plotted series.
_FIGURES = {
    6: ("optimal_comparison", 100,
        ("welfare_proposed", "welfare_optimal", "welfare_ratio")),
    7: ("stage_breakdown", 10,
        ("welfare_stage1", "welfare_phase1", "welfare_phase2")),
    8: ("stage_breakdown", 10,
        ("rounds_stage1", "rounds_phase1", "rounds_phase2")),
}

FIGURE_SPECS: Dict[Tuple[int, str], FigureSpec] = {
    (figure, panel): FigureSpec(
        figure, panel, axis, values, buyers, channels, kind, reps, series
    )
    for figure, (kind, reps, series) in _FIGURES.items()
    for panel, (axis, values, buyers, channels) in _PANELS[kind].items()
}

_SWEEPS = {
    "optimal_comparison": optimal_comparison_series,
    "stage_breakdown": stage_breakdown_series,
}


def figure_spec(figure: int, panel: str) -> FigureSpec:
    """Look up a panel's spec (raises for unknown panels)."""
    try:
        return FIGURE_SPECS[(figure, panel)]
    except KeyError:
        raise SpectrumMatchingError(
            f"no spec for figure {figure} panel {panel!r}"
        ) from None


def run_figure(
    spec: FigureSpec,
    repetitions: Optional[int] = None,
    seed: int = 0,
    values: Optional[Sequence[float]] = None,
    recorder: Optional[Recorder] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentRow]:
    """Execute a panel's experiment and return its rows.

    ``repetitions`` and ``values`` allow scaled-down runs (used by the
    test suite and quick CLI invocations) without changing the canonical
    spec.  ``recorder`` (``None`` resolves to the ambient recorder) frames
    the sweep with a ``figure`` span, announces it with a ``figure.start``
    event and emits one ``figure.row`` event per x-axis point with the
    aggregated series means.  ``jobs`` fans repetitions out over worker
    processes (``None``/1 serial, 0 = all cores) with results identical
    to the serial run; see :mod:`repro.analysis.parallel`.
    """
    reps = spec.default_repetitions if repetitions is None else repetitions
    xs = tuple(spec.values if values is None else values)
    rec = resolve_recorder(recorder)
    if rec.enabled:
        rec.emit(
            "figure.start",
            figure=spec.figure,
            panel=spec.panel,
            axis=spec.axis.value,
            values=list(xs),
            repetitions=reps,
            seed=seed,
        )
    with rec.span(f"figure.fig{spec.figure}{spec.panel}"):
        sweep = _SWEEPS.get(spec.kind)
        if sweep is None:
            raise SpectrumMatchingError(
                f"unknown experiment kind {spec.kind!r}"
            )
        rows = sweep(
            spec.axis,
            xs,
            num_buyers=spec.num_buyers,
            num_channels=spec.num_channels,
            repetitions=reps,
            seed=seed,
            jobs=jobs,
        )
    if rec.enabled:
        rec.metrics.counter("figure.markets").inc(len(rows) * reps)
        for row in rows:
            rec.emit(
                "figure.row",
                figure=spec.figure,
                panel=spec.panel,
                x=row.x,
                series={
                    name: stats.mean for name, stats in row.series.items()
                },
                measured_srcc=row.measured_srcc,
            )
    return rows
