"""Analysis layer: metrics, replication, statistics and reporting.

The benchmarks (one per paper figure) and the CLI both drive the
experiment functions in :mod:`~repro.analysis.experiments`, which generate
markets with the Section V-A workloads, run the solvers, and aggregate
repeated trials into the exact series the paper plots:

* Fig. 6 -- proposed vs optimal social welfare (small markets);
* Fig. 7 -- cumulative welfare after Stage I / Phase 1 / Phase 2;
* Fig. 8 -- running time (rounds) of each stage/phase.
"""

from repro.analysis.metrics import demand_satisfaction
from repro.analysis.stats import SeriesStats, summarize
from repro.analysis.experiments import (
    ExperimentRow,
    optimal_comparison_series,
    solver_grid_series,
    stage_breakdown_series,
    SweepAxis,
)
from repro.analysis.reporting import format_table, rows_to_csv
from repro.analysis.fairness import (
    fairness_report,
    jain_fairness_index,
    justified_envy_pairs,
)
from repro.analysis.manipulation import (
    find_profitable_misreport,
    manipulability_rate,
)
from repro.analysis.sensing import perturb_interference, run_sensing_study
from repro.analysis.persistence import load_rows, save_rows
from repro.analysis.visualization import (
    render_deployment_map,
    render_interference_summary,
    render_matching_table,
    render_protocol_timeline,
)

__all__ = [
    "demand_satisfaction",
    "SeriesStats",
    "summarize",
    "ExperimentRow",
    "optimal_comparison_series",
    "solver_grid_series",
    "stage_breakdown_series",
    "SweepAxis",
    "format_table",
    "rows_to_csv",
    "fairness_report",
    "jain_fairness_index",
    "justified_envy_pairs",
    "find_profitable_misreport",
    "manipulability_rate",
    "perturb_interference",
    "run_sensing_study",
    "load_rows",
    "save_rows",
    "render_deployment_map",
    "render_interference_summary",
    "render_matching_table",
    "render_protocol_timeline",
]
