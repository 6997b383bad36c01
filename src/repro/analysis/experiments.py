"""Experiment harness reproducing the paper's evaluation sweeps.

Two experiment families cover every panel of Figs. 6-8:

* :func:`optimal_comparison_series` (Fig. 6 a/b/c) -- proposed two-stage
  algorithm vs the exact optimal matching on small markets, sweeping the
  number of buyers, the number of sellers, or the price similarity.
* :func:`stage_breakdown_series` (Figs. 7 and 8 a/b/c) -- cumulative
  welfare and per-stage round counts of the two-stage algorithm on large
  markets, over the same three sweep axes.

:func:`solver_grid_series` runs any set of registered solvers over the
same axes.  The three are one sweep path (:func:`_sweep`) with three
measurements: each (sweep value, repetition) pair becomes one task that
builds its market and applies the sweep's measurement, and each sweep
value's samples are summarised into one :class:`ExperimentRow`.

Every sweep is deterministic in its ``seed``: every (sweep value,
repetition) pair derives an independent :class:`numpy.random.Generator`
from ``[seed, value_index, repetition]``, so adding repetitions never
perturbs earlier ones.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.parallel import parallel_map, resolve_jobs
from repro.analysis.stats import SeriesStats, summarize
from repro.core.market import SpectrumMarket
from repro.engine.registry import get_solver
from repro.errors import SpectrumMatchingError
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, resolve_recorder, use_recorder
from repro.workloads.scenarios import paper_simulation_market
from repro.workloads.similarity import average_pairwise_srcc
from repro.workloads.utilities import permutation_level_for_similarity

__all__ = [
    "SweepAxis",
    "ExperimentRow",
    "optimal_comparison_series",
    "stage_breakdown_series",
    "solver_grid_series",
]

#: Registry name of the default exact benchmark solver for Fig. 6.
DEFAULT_OPTIMAL_SOLVER = "branch_and_bound"


class SweepAxis(str, enum.Enum):
    """The three x-axes used across Figs. 6-8."""

    BUYERS = "buyers"  # panels (a): sweep N
    SELLERS = "sellers"  # panels (b): sweep M
    SIMILARITY = "similarity"  # panels (c): sweep price similarity


@dataclass(frozen=True)
class ExperimentRow:
    """One x-axis point of a figure.

    Attributes
    ----------
    x:
        The sweep value (N, M, or nominal target similarity).
    series:
        Named aggregated measurements (e.g. ``"welfare_proposed"``).
    measured_srcc:
        Mean measured average-pairwise SRCC of the generated utility
        matrices (populated on similarity sweeps; the paper's x-axis is
        the *achieved* similarity, so reports show both).
    """

    x: float
    series: Dict[str, SeriesStats]
    measured_srcc: Optional[float] = None


def _market_params(
    axis: SweepAxis,
    value: float,
    num_buyers: Optional[int],
    num_channels: Optional[int],
) -> tuple:
    """Resolve (N, M, permutation_level) for a sweep point."""
    if axis is SweepAxis.BUYERS:
        if num_channels is None:
            raise SpectrumMatchingError("buyer sweep needs a fixed num_channels")
        return int(value), num_channels, None
    if axis is SweepAxis.SELLERS:
        if num_buyers is None:
            raise SpectrumMatchingError("seller sweep needs a fixed num_buyers")
        return num_buyers, int(value), None
    if axis is SweepAxis.SIMILARITY:
        if num_buyers is None or num_channels is None:
            raise SpectrumMatchingError(
                "similarity sweep needs fixed num_buyers and num_channels"
            )
        level = permutation_level_for_similarity(float(value), num_channels)
        return num_buyers, num_channels, level
    raise SpectrumMatchingError(f"unknown sweep axis {axis!r}")


def _rng_for(
    axis: SweepAxis, seed: int, value_index: int, repetition: int
) -> np.random.Generator:
    """Derive the generator for one (sweep value, repetition) market.

    Similarity sweeps use *common random numbers*: the generator depends
    only on the repetition, so every similarity level is evaluated on the
    identical deployment and the identical sorted utility base (the
    m-permutation is the only difference).  Without this, the between-
    deployment variance (driven by random channel ranges) dwarfs the
    similarity effect and the Fig. 6(c)/7(c) trends drown in noise.
    """
    if axis is SweepAxis.SIMILARITY:
        return np.random.default_rng([seed, repetition])
    return np.random.default_rng([seed, value_index, repetition])


@dataclass(frozen=True)
class _RepetitionTask:
    """One (sweep value, repetition) unit of work, fully self-describing.

    Instances are plain picklable dataclasses so the identical task can
    run in the calling process (serial sweeps) or a worker process
    (``jobs > 1``) -- the rng derivation travels with the task, which is
    what makes results independent of the worker count.  ``measure`` is
    a module-level function (or a ``functools.partial`` of one) mapping
    the task's market to its named values in column order.
    """

    measure: Callable[[SpectrumMarket], Dict[str, float]]
    axis: SweepAxis
    seed: int
    value_index: int
    repetition: int
    num_buyers: int
    num_channels: int
    permutation_level: Optional[int]


# ----------------------------------------------------------------------
# Measurements: every solve goes through the engine registry by name
# ----------------------------------------------------------------------
def _optimal_comparison(solver: str, market) -> Dict[str, float]:
    """Fig. 6: the proposed welfare, ``solver``'s optimum and their ratio."""
    proposed = get_solver("two_stage").solve(market).social_welfare
    optimal = get_solver(solver).solve(market).social_welfare
    return {
        "welfare_proposed": proposed,
        "welfare_optimal": optimal,
        "welfare_ratio": proposed / optimal if optimal > 0 else 1.0,
    }


_STAGE_SERIES = (
    "welfare_stage1",
    "welfare_phase1",
    "welfare_phase2",
    "rounds_stage1",
    "rounds_phase1",
    "rounds_phase2",
)


def _stage_breakdown(market) -> Dict[str, float]:
    """Figs. 7/8: per-stage welfare and round counts of one two-stage run."""
    metadata = get_solver("two_stage").solve(market).metadata
    return {name: float(metadata[name]) for name in _STAGE_SERIES}


def _solver_grid(
    solvers: Tuple[str, ...],
    configs: Dict[str, Dict[str, object]],
    market,
) -> Dict[str, float]:
    """The welfare of each of ``solvers`` on one market."""
    return {
        f"welfare_{name}": get_solver(name).solve(
            market, config=configs.get(name)
        ).social_welfare
        for name in solvers
    }


# ----------------------------------------------------------------------
# The one sweep path
# ----------------------------------------------------------------------
def _run_repetition(
    task: _RepetitionTask,
) -> Tuple[Dict[str, float], Optional[float]]:
    """Build one repetition's market and measure it: ``(values, srcc)``.

    ``srcc`` is the market's measured similarity on similarity sweeps,
    else ``None``.  Serial sweeps call this in-process, under the ambient
    recorder; workers call it through :func:`_run_in_worker`.
    """
    rng = _rng_for(task.axis, task.seed, task.value_index, task.repetition)
    market = paper_simulation_market(
        task.num_buyers,
        task.num_channels,
        rng,
        permutation_level=task.permutation_level,
    )
    srcc = None
    if task.permutation_level is not None:
        srcc = average_pairwise_srcc(market.utilities)
    return task.measure(market), srcc


def _run_in_worker(collect_metrics: bool, task: _RepetitionTask):
    """One repetition in a worker process: ``(sample, metrics snapshot)``.

    The repetition runs under a private recorder, never the one the
    worker inherited from the parent, whose event sink holds the
    parent's trace file: worker events there would interleave
    non-deterministically (and re-write the parent's buffered lines).
    Only metrics cross the process boundary: with ``collect_metrics``
    (a live ambient metrics registry in the parent), the private
    registry's snapshot is returned for the parent to merge.
    """
    registry = MetricsRegistry() if collect_metrics else None
    with use_recorder(Recorder(metrics=registry)):
        sample = _run_repetition(task)
    return sample, None if registry is None else registry.snapshot()


def _run_tasks(
    tasks: List[_RepetitionTask], jobs: Optional[int]
) -> List[Tuple[Dict[str, float], Optional[float]]]:
    """Run a task list serially or across workers, merging worker metrics.

    The serial path (``resolve_jobs(jobs) == 1``) executes in-process
    under the ambient recorder, byte-identical to the historical sweeps.
    The parallel path asks workers to collect local metric snapshots iff
    the ambient metrics registry is live, then merges them in submission
    order so parallel and serial runs report the same aggregate metrics.
    """
    worker_count = resolve_jobs(jobs)
    if worker_count == 1:
        return [_run_repetition(task) for task in tasks]
    recorder = resolve_recorder(None)
    collect = recorder.metrics.enabled
    results = parallel_map(
        functools.partial(_run_in_worker, collect), tasks, jobs=worker_count
    )
    if collect:
        for _, snapshot in results:
            recorder.metrics.merge(snapshot)
    return [sample for sample, _ in results]


def _sweep(
    measure: Callable[[SpectrumMarket], Dict[str, float]],
    axis: SweepAxis,
    values: Sequence[float],
    num_buyers: Optional[int],
    num_channels: Optional[int],
    repetitions: int,
    seed: int,
    jobs: Optional[int],
) -> List[ExperimentRow]:
    """Measure every (sweep value, repetition) market; one row per value.

    Tasks run in (value, repetition) order.  Each row summarises every
    value ``measure`` names, in its column order, over the value's
    repetitions.
    """
    tasks: List[_RepetitionTask] = []
    xs: List[float] = []
    for value_index, value in enumerate(values):
        n, m, level = _market_params(axis, value, num_buyers, num_channels)
        xs.append(float(value))
        tasks.extend(
            _RepetitionTask(
                measure, axis, seed, value_index, rep, n, m, level
            )
            for rep in range(repetitions)
        )
    samples = _run_tasks(tasks, jobs)
    rows: List[ExperimentRow] = []
    for value_index, x in enumerate(xs):
        chunk = samples[value_index * repetitions : (value_index + 1) * repetitions]
        if not chunk:
            summarize([])  # raises: a point without samples fails loudly
        measured = [values for values, _ in chunk]
        srccs = [srcc for _, srcc in chunk if srcc is not None]
        rows.append(
            ExperimentRow(
                x=x,
                series={
                    name: summarize([values[name] for values in measured])
                    for name in measured[0]
                },
                measured_srcc=float(np.mean(srccs)) if srccs else None,
            )
        )
    return rows


def optimal_comparison_series(
    axis: SweepAxis,
    values: Sequence[float],
    num_buyers: Optional[int] = None,
    num_channels: Optional[int] = None,
    repetitions: int = 50,
    seed: int = 0,
    jobs: Optional[int] = None,
    solver: str = DEFAULT_OPTIMAL_SOLVER,
) -> List[ExperimentRow]:
    """Fig. 6: proposed algorithm vs exact optimal matching.

    Produces, per sweep value, the aggregated series
    ``welfare_proposed``, ``welfare_optimal`` and ``welfare_ratio``
    (proposed / optimal, the paper's ">90 %" headline quantity).

    Parameters
    ----------
    axis / values:
        What to sweep and over which values.
    num_buyers / num_channels:
        The fixed dimension(s); see :class:`SweepAxis`.
    repetitions:
        Monte-Carlo repetitions per point.
    seed:
        Base seed (see module docstring for the derivation scheme).
    jobs:
        Worker processes (``None``/1 serial, 0 = all cores).  Results are
        identical for every worker count; see
        :mod:`repro.analysis.parallel`.
    solver:
        Registry name of the benchmark solver to compare against
        (default ``"branch_and_bound"``; the paper's own method is
        ``"bruteforce"`` -- same answers, slower).
    """
    return _sweep(
        functools.partial(_optimal_comparison, solver),
        axis, values, num_buyers, num_channels, repetitions, seed, jobs,
    )


def stage_breakdown_series(
    axis: SweepAxis,
    values: Sequence[float],
    num_buyers: Optional[int] = None,
    num_channels: Optional[int] = None,
    repetitions: int = 10,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[ExperimentRow]:
    """Figs. 7 and 8: per-stage welfare and running time on large markets.

    Produces, per sweep value, the cumulative-welfare series
    ``welfare_stage1`` / ``welfare_phase1`` / ``welfare_phase2`` (Fig. 7)
    and the per-stage round counts ``rounds_stage1`` / ``rounds_phase1`` /
    ``rounds_phase2`` (Fig. 8) from the *same* runs, since the paper's two
    figures are two views of one experiment.  ``jobs`` selects the worker
    count exactly as in :func:`optimal_comparison_series`.
    """
    return _sweep(
        _stage_breakdown,
        axis, values, num_buyers, num_channels, repetitions, seed, jobs,
    )


def solver_grid_series(
    axis: SweepAxis,
    values: Sequence[float],
    solvers: Sequence[str],
    num_buyers: Optional[int] = None,
    num_channels: Optional[int] = None,
    repetitions: int = 10,
    seed: int = 0,
    jobs: Optional[int] = None,
    solver_configs: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> List[ExperimentRow]:
    """Sweep any set of registered solvers over one axis.

    The generalisation of :func:`optimal_comparison_series`: every
    repetition generates one market (same rng derivation as the other
    sweeps, so grids compose with existing results) and runs *all* of
    ``solvers`` on it, producing a ``welfare_<name>`` series per solver.
    New backends join a grid by registry name alone -- no change here.

    Parameters
    ----------
    solvers:
        Registry names to measure (e.g. ``["two_stage", "greedy",
        "lp_bound"]``).  Unknown names fail fast on the first repetition
        with the registry's actionable error.
    solver_configs:
        Optional per-solver config mappings, keyed by registry name
        (e.g. ``{"college_admission": {"quota": 4}}``).  Values must be
        picklable for parallel runs.
    repetitions / seed / jobs:
        As in :func:`optimal_comparison_series`.
    """
    names = tuple(solvers)
    if not names:
        raise SpectrumMatchingError("solver_grid_series needs at least one solver")
    configs = {name: dict(cfg) for name, cfg in (solver_configs or {}).items()}
    return _sweep(
        functools.partial(_solver_grid, names, configs),
        axis, values, num_buyers, num_channels, repetitions, seed, jobs,
    )
