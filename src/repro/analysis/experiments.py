"""Experiment harness reproducing the paper's evaluation sweeps.

Two experiment families cover every panel of Figs. 6-8:

* :func:`optimal_comparison_series` (Fig. 6 a/b/c) -- proposed two-stage
  algorithm vs the exact optimal matching on small markets, sweeping the
  number of buyers, the number of sellers, or the price similarity.
* :func:`stage_breakdown_series` (Figs. 7 and 8 a/b/c) -- cumulative
  welfare and per-stage round counts of the two-stage algorithm on large
  markets, over the same three sweep axes.

Both functions are deterministic in their ``seed``: every (sweep value,
repetition) pair derives an independent :class:`numpy.random.Generator`
from ``[seed, value_index, repetition]``, so adding repetitions never
perturbs earlier ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.parallel import parallel_map, resolve_jobs
from repro.analysis.stats import SeriesStats, summarize
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
    what makes results independent of the worker count.
    """

    kind: str  # "optimal_comparison" | "stage_breakdown" | "solver_grid"
    axis: SweepAxis
    seed: int
    value_index: int
    repetition: int
    num_buyers: int
    num_channels: int
    permutation_level: Optional[int]
    #: Benchmark solver for ``optimal_comparison`` (a registry name).
    solver: str = DEFAULT_OPTIMAL_SOLVER
    #: Solvers measured by ``solver_grid`` (registry names).
    solvers: Tuple[str, ...] = ()
    #: Optional per-solver config mappings, keyed by registry name.
    solver_configs: Optional[Dict[str, Dict[str, object]]] = field(
        default=None, compare=False
    )
    collect_metrics: bool = False


def _measure(task: _RepetitionTask, market, out: Dict[str, object]) -> None:
    """Run the task's solvers on ``market`` and fill ``out`` with floats.

    Every solve goes through the engine registry -- there is no
    backend-specific dispatch here; the task carries registry *names*.
    """
    if task.kind == "optimal_comparison":
        proposed = get_solver("two_stage").solve(market)
        best_welfare = get_solver(task.solver).solve(market).social_welfare
        out["proposed"] = proposed.social_welfare
        out["optimal"] = best_welfare
        out["ratio"] = (
            proposed.social_welfare / best_welfare if best_welfare > 0 else 1.0
        )
    elif task.kind == "stage_breakdown":
        report = get_solver("two_stage").solve(market)
        for name in (
            "welfare_stage1",
            "welfare_phase1",
            "welfare_phase2",
            "rounds_stage1",
            "rounds_phase1",
            "rounds_phase2",
        ):
            out[name] = float(report.metadata[name])
    elif task.kind == "solver_grid":
        configs = task.solver_configs or {}
        for name in task.solvers:
            report = get_solver(name).solve(market, config=configs.get(name))
            out[f"welfare_{name}"] = report.social_welfare
    else:  # pragma: no cover - guarded by the series functions
        raise SpectrumMatchingError(f"unknown task kind {task.kind!r}")


def _run_repetition(task: _RepetitionTask) -> Dict[str, object]:
    """Execute one repetition and return its measurements as plain floats.

    Shared verbatim by the serial and parallel paths.  When
    ``task.collect_metrics`` is set (parallel sweeps under a live
    ambient recorder), the repetition runs under a local, process-private
    :class:`MetricsRegistry` whose snapshot is returned with the sample
    for the parent to merge -- per-round *events* are not streamed back
    (the parent's sink would interleave workers non-deterministically);
    only metrics cross the process boundary.
    """
    rng = _rng_for(task.axis, task.seed, task.value_index, task.repetition)
    market = paper_simulation_market(
        task.num_buyers,
        task.num_channels,
        rng,
        permutation_level=task.permutation_level,
    )
    out: Dict[str, object] = {}
    if task.permutation_level is not None:
        out["srcc"] = average_pairwise_srcc(market.utilities)
    if task.collect_metrics:
        registry = MetricsRegistry()
        with use_recorder(Recorder(metrics=registry)):
            _measure(task, market, out)
        out["metrics"] = registry.snapshot()
    else:
        _measure(task, market, out)
    return out


def _run_tasks(
    tasks: List[_RepetitionTask], jobs: Optional[int]
) -> List[Dict[str, object]]:
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
    if collect:
        tasks = [
            dataclass_replace(task, collect_metrics=True) for task in tasks
        ]
    results = parallel_map(_run_repetition, tasks, jobs=worker_count)
    if collect:
        for sample in results:
            recorder.metrics.merge(sample.pop("metrics"))
    return results


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
    tasks: List[_RepetitionTask] = []
    params: List[tuple] = []
    for value_index, value in enumerate(values):
        n, m, level = _market_params(axis, value, num_buyers, num_channels)
        params.append((value, level))
        for rep in range(repetitions):
            tasks.append(
                _RepetitionTask(
                    kind="optimal_comparison",
                    axis=axis,
                    seed=seed,
                    value_index=value_index,
                    repetition=rep,
                    num_buyers=n,
                    num_channels=m,
                    permutation_level=level,
                    solver=solver,
                )
            )
    samples = _run_tasks(tasks, jobs)
    rows: List[ExperimentRow] = []
    for value_index, (value, level) in enumerate(params):
        chunk = samples[value_index * repetitions : (value_index + 1) * repetitions]
        srccs = [s["srcc"] for s in chunk if "srcc" in s]
        rows.append(
            ExperimentRow(
                x=float(value),
                series={
                    "welfare_proposed": summarize([s["proposed"] for s in chunk]),
                    "welfare_optimal": summarize([s["optimal"] for s in chunk]),
                    "welfare_ratio": summarize([s["ratio"] for s in chunk]),
                },
                measured_srcc=float(np.mean(srccs)) if srccs else None,
            )
        )
    return rows


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
    _SERIES = (
        "welfare_stage1",
        "welfare_phase1",
        "welfare_phase2",
        "rounds_stage1",
        "rounds_phase1",
        "rounds_phase2",
    )
    tasks: List[_RepetitionTask] = []
    params: List[tuple] = []
    for value_index, value in enumerate(values):
        n, m, level = _market_params(axis, value, num_buyers, num_channels)
        params.append((value, level))
        for rep in range(repetitions):
            tasks.append(
                _RepetitionTask(
                    kind="stage_breakdown",
                    axis=axis,
                    seed=seed,
                    value_index=value_index,
                    repetition=rep,
                    num_buyers=n,
                    num_channels=m,
                    permutation_level=level,
                )
            )
    samples = _run_tasks(tasks, jobs)
    rows: List[ExperimentRow] = []
    for value_index, (value, level) in enumerate(params):
        chunk = samples[value_index * repetitions : (value_index + 1) * repetitions]
        srccs = [s["srcc"] for s in chunk if "srcc" in s]
        rows.append(
            ExperimentRow(
                x=float(value),
                series={
                    name: summarize([s[name] for s in chunk]) for name in _SERIES
                },
                measured_srcc=float(np.mean(srccs)) if srccs else None,
            )
        )
    return rows


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
    configs = (
        {name: dict(cfg) for name, cfg in solver_configs.items()}
        if solver_configs
        else None
    )
    tasks: List[_RepetitionTask] = []
    params: List[tuple] = []
    for value_index, value in enumerate(values):
        n, m, level = _market_params(axis, value, num_buyers, num_channels)
        params.append((value, level))
        for rep in range(repetitions):
            tasks.append(
                _RepetitionTask(
                    kind="solver_grid",
                    axis=axis,
                    seed=seed,
                    value_index=value_index,
                    repetition=rep,
                    num_buyers=n,
                    num_channels=m,
                    permutation_level=level,
                    solvers=names,
                    solver_configs=configs,
                )
            )
    samples = _run_tasks(tasks, jobs)
    rows: List[ExperimentRow] = []
    for value_index, (value, level) in enumerate(params):
        chunk = samples[value_index * repetitions : (value_index + 1) * repetitions]
        srccs = [s["srcc"] for s in chunk if "srcc" in s]
        rows.append(
            ExperimentRow(
                x=float(value),
                series={
                    f"welfare_{name}": summarize(
                        [s[f"welfare_{name}"] for s in chunk]
                    )
                    for name in names
                },
                measured_srcc=float(np.mean(srccs)) if srccs else None,
            )
        )
    return rows
