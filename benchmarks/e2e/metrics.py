"""Every metric the benchmark computes, with its unit and direction.

End-to-end metrics come from the untraced pass plus the set-up samples;
per-layer metrics from the traced pass, whose units each come with the
wall time of an untraced twin run in the same process.  A metric whose
layer a workload never calls reads 0 (``distributed.slots`` on
``dense-2k``, for example).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.spans import totals_by_trace

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "UNITS",
    "end_to_end_metrics",
    "per_layer_metrics",
    "twin_problems",
    "unit_failed",
]

#: name -> (unit, better) for the whole-run metrics (untraced pass).
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "run_s_p50": ("s/unit", "lower"),
    "run_s_p90": ("s/unit", "lower"),
    "units_per_s": ("units/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "welfare_mean": ("utility", "higher"),
    "nash_violation_rate": ("fraction", "lower"),
    "error_rate": ("fraction", "lower"),
}

#: Per-layer time metrics: metric name -> span name.
_SPAN_TIMES = {
    "market.build_s": "market.build",
    "stage1.cold_s": "stage1",
    "stage1.warm_s": "stage1.warm",
    "stage2.run_s": "stage2",
    "validate.run_s": "validate",
    "distributed.build_s": "distributed.build",
    "distributed.run_s": "distributed.run",
    "distributed.finalize_s": "distributed.finalize",
    "dynamic.generate_s": "dynamic.generate",
    "dynamic.step_warm_s": "dynamic.step_warm",
    "dynamic.step_cold_s": "dynamic.step_cold",
}

#: Per-layer counts, each a unit counter reported by the worker.
_COUNTS = (
    "market.edges",
    "stage1.rounds",
    "stage2.transfer_rounds",
    "stage2.invitation_rounds",
    "distributed.slots",
    "distributed.messages_sent",
    "distributed.messages_delivered",
    "dynamic.rounds_warm",
    "dynamic.rounds_cold",
    "dynamic.churned_warm",
    "dynamic.churned_cold",
)

#: name -> (unit, better) for the per-layer metrics (traced pass).
PER_LAYER: Dict[str, tuple] = {
    **{name: ("s", "lower") for name in _SPAN_TIMES},
    **{name: ("count", "lower") for name in _COUNTS},
    "market.build_us_per_edge": ("us/edge", "lower"),
    "distributed.slot_us": ("us/slot", "lower"),
    "distributed.delivered_per_agent_slot": ("fraction", "higher"),
    "run.unattributed_s": ("s", "lower"),
    "bench.coverage_frac": ("fraction", "higher"),
    "bench.trace_overhead_frac": ("fraction", "lower"),
}

UNITS: Dict[str, str] = {
    name: unit for name, (unit, _) in {**END_TO_END, **PER_LAYER}.items()
}


def unit_failed(unit: dict) -> bool:
    """A unit fails when it raised or one of its checks found a problem."""
    return bool(unit["problems"])


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(
    untraced: dict, setup_samples: Sequence[float], prefix: int
) -> Dict[str, float]:
    """Whole-run metrics of one untraced pass.

    ``run_s_p90`` is reported only with at least 100 timed units, so that
    ten samples lie beyond it; ``welfare_mean`` averages the first
    ``prefix`` units, which every run executes, so it is deterministic;
    ``nash_violation_rate`` is reported where units compute the verdict.
    """
    units = untraced["units"]
    walls = [u["wall_s"] for u in units if not unit_failed(u)]
    metrics: Dict[str, float] = {
        "peak_rss_mb": untraced["peak_rss_mb"],
        "error_rate": sum(map(unit_failed, units)) / len(units),
    }
    if setup_samples:
        metrics["setup_s"] = statistics.median(setup_samples)
    if walls:
        metrics["run_s_p50"] = statistics.median(walls)
        metrics["units_per_s"] = len(walls) / sum(walls)
    if len(walls) >= 100:
        metrics["run_s_p90"] = statistics.quantiles(walls, n=10)[-1]
    nash = [u["nash_stable"] for u in units if u["nash_stable"] is not None]
    if nash:
        metrics["nash_violation_rate"] = nash.count(False) / len(nash)
    welfare = [u["welfare"] for u in units[:prefix] if not unit_failed(u)]
    if welfare:
        metrics["welfare_mean"] = sum(welfare) / len(welfare)
    return metrics


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    Every metric is first computed per traced unit, then reported as the
    median over units.  A unit's layers are the direct children of its
    ``unit`` root span; ``bench.coverage_frac`` divides their summed time
    by the wall time of the unit's untraced twin, ``run.unattributed_s``
    is the difference, and ``bench.trace_overhead_frac`` compares the
    traced unit with its twin.
    """
    spans = traced["spans"]
    per_trace = totals_by_trace(spans)
    roots = {s["id"] for s in spans if s["parent"] is None and s["name"] == "unit"}
    layers = {s["name"] for s in spans if s["parent"] in roots}
    rows = []
    for unit in traced["units"]:
        if unit_failed(unit):
            continue
        times, counts = per_trace.get(unit["k"], {}), unit["counters"]
        layer_sum = sum(times.get(name, 0.0) for name in layers)
        twin = unit["twin_wall_s"]
        row = {name: times.get(span, 0.0) for name, span in _SPAN_TIMES.items()}
        row.update({name: counts.get(name, 0) for name in _COUNTS})
        row["market.build_us_per_edge"] = _ratio(
            times.get("market.build", 0.0), counts.get("market.edges", 0), 1e6
        )
        row["distributed.slot_us"] = _ratio(
            times.get("distributed.run", 0.0), counts.get("distributed.slots", 0), 1e6
        )
        row["distributed.delivered_per_agent_slot"] = _ratio(
            counts.get("distributed.messages_delivered", 0),
            counts.get("distributed.slots", 0) * counts.get("distributed.agents", 0),
        )
        row["run.unattributed_s"] = twin - layer_sum
        row["bench.coverage_frac"] = _ratio(layer_sum, twin)
        row["bench.trace_overhead_frac"] = _ratio(times.get("unit", 0.0) - twin, twin)
        rows.append(row)
    return {name: _median([row[name] for row in rows]) for name in PER_LAYER}


def twin_problems(untraced: dict, traced: dict) -> List[Optional[str]]:
    """Per traced unit: why it differs from its untraced twin, or None."""
    twins = {u["k"]: u for u in untraced["units"]}
    problems: List[Optional[str]] = []
    for unit in traced["units"]:
        twin = twins.get(unit["k"])
        if twin is None:
            problems.append("has no untraced twin")
        elif (unit["welfare"], unit["digest"]) != (twin["welfare"], twin["digest"]):
            problems.append(
                f"welfare/digest {unit['welfare']}/{unit['digest']} differ from "
                f"the untraced twin's {twin['welfare']}/{twin['digest']}"
            )
        else:
            problems.append(None)
    return problems
