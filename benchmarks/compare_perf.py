"""Compare a fresh perf-harness run against the committed baselines.

Usage::

    python benchmarks/compare_perf.py CURRENT_DIR [--baseline-dir DIR]
                                      [--threshold 0.25] [--ratios-only]

Reads every ``BENCH_*.json`` present in both directories and fails
(exit 1) when the current run regresses:

* absolute mode (default): any ``median_s`` more than ``threshold``
  slower than its baseline counterpart fails.  Use this on the machine
  that produced the baseline.
* ``--ratios-only``: only the machine-independent *ratios* are checked
  (kernel ``speedup`` must not shrink by more than ``threshold``; the
  registry dispatch ``overhead`` must stay under its absolute 1.02x
  ceiling; ``identical_matching`` / ``identical_rows`` must still
  hold).  Use this in CI, where the runner's absolute speed differs
  from the machine that committed the baselines.

In both modes the sweep report must show ``parallel_speedup > 1``
whenever the *current* run's ``env.cpu_count`` is greater than one
(:func:`check_parallel_speedup`): with a persistent worker pool the
parallel path pays process start-up once per harness, so it has no
excuse to lose to serial on a multi-core machine.  Single-core runners
skip the rule -- there a speedup above 1 is physically impossible.

Failures *explain themselves*.  A failing kernels report is followed by
an attribution diff of the harness's span tables and deterministic cost
counters: counter drift means the two runs executed different operation
sequences (an algorithmic change), counters flat while wall time moved
means the machine -- not the code -- changed speed.  Every timing
failure line carries the run's ``env.cpu_count`` and sample spread, a
spread above :data:`SPREAD_WARN` of the median draws a warning even
when nothing fails, and the noise-floor guard downgrades a median
regression to a warning when the sample's *minimum* still fits under
the ceiling on a high-spread run (the machine demonstrably can still go
that fast; rerun rather than red-flag).

This script stays stdlib-only and importable without the repro package
on the path: CI runs it as a standalone gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

#: (report file, dotted path) pairs of the absolute timings to guard.
_MEDIAN_PATHS = {
    "BENCH_kernels.json": ("fast.median_s", "reference.median_s"),
    "BENCH_sweep.json": ("serial.median_s", "parallel.median_s"),
    "BENCH_dispatch.json": ("direct.median_s", "dispatch.median_s"),
}

#: Ratio keys that must not shrink, and boolean keys that must hold.
_RATIO_KEYS = {
    "BENCH_kernels.json": "speedup",
    "BENCH_sweep.json": None,
    "BENCH_dispatch.json": None,
}
_INVARIANT_KEYS = {
    "BENCH_kernels.json": "identical_matching",
    "BENCH_sweep.json": "identical_rows",
    "BENCH_dispatch.json": "identical_matching",
}

#: Ratio keys with a hard absolute ceiling (checked even in --ratios-only
#: mode): the engine registry must not add more than 2% dispatch overhead
#: over calling the backend directly.
_MAX_RATIO_KEYS = {"BENCH_dispatch.json": ("overhead", 1.02)}

#: Sides of the kernels report carrying span tables and cost counters.
_ATTRIBUTED_SIDES = ("fast", "reference")

#: Sample spread (``(max - min) / median`` of the timed runs) above
#: which the current run's timings are flagged as noisy.
SPREAD_WARN = 0.15

#: Ratchet on the committed sweep baseline's recorded environment: a
#: regenerated BENCH_sweep.json must come from a machine with at least
#: this many cores.  The current baselines were produced on a
#: single-core container (env.cpu_count == 1, where the
#: ``parallel_speedup > 1`` rule is physically unsatisfiable and skips),
#: so the ratchet starts at 1.  The day a multi-core baseline lands,
#: bump this to 2: from then on any regeneration that silently degrades
#: back to single-core env metadata fails the gate instead of quietly
#: re-disabling the speedup rule.
REQUIRED_BASELINE_CPUS = 1


def check_baseline_env(
    baseline: Dict[str, object],
    required_cpus: int = REQUIRED_BASELINE_CPUS,
) -> Optional[str]:
    """Guard the *baseline* sweep report's environment metadata.

    Returns a failure line when the committed baseline lacks an ``env``
    block, does not record ``cpu_count``, or was produced on fewer than
    ``required_cpus`` cores -- i.e. when a regeneration regressed the
    baseline to an environment where the multi-core
    ``parallel_speedup`` rule cannot engage.  Returns ``None`` when the
    metadata holds.
    """
    env = baseline.get("env")
    if not isinstance(env, dict) or "cpu_count" not in env:
        return (
            "BENCH_sweep.json: baseline has no env.cpu_count record "
            "(regenerate with benchmarks/perf_harness.py)"
        )
    try:
        cpu_count = int(env["cpu_count"])
    except (TypeError, ValueError):
        return (
            f"BENCH_sweep.json: baseline env.cpu_count "
            f"{env['cpu_count']!r} is not an integer"
        )
    if cpu_count < required_cpus:
        return (
            f"BENCH_sweep.json: baseline env.cpu_count {cpu_count} is "
            f"below the required {required_cpus} (baseline regenerated "
            f"on a weaker machine; the parallel_speedup rule would "
            f"silently stop engaging)"
        )
    return None


def check_parallel_speedup(current: Dict[str, object]) -> Optional[str]:
    """Gate the sweep report's ``parallel_speedup`` on multi-core hosts.

    Returns a failure line when the current run was produced on a
    multi-core machine (``env.cpu_count > 1``) yet its parallel sweep
    failed to beat serial (``parallel_speedup <= 1``).  Returns ``None``
    -- rule satisfied or not applicable -- on single-core runners,
    where beating serial is impossible and the rule must skip cleanly.
    Only the *current* run's environment matters; the committed
    baseline may come from a very different machine.
    """
    env = current.get("env")
    cpu_count = 0
    if isinstance(env, dict):
        try:
            cpu_count = int(env.get("cpu_count") or 0)
        except (TypeError, ValueError):
            cpu_count = 0
    if cpu_count <= 1:
        return None
    try:
        speedup = float(current.get("parallel_speedup"))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return (
            f"BENCH_sweep.json: parallel_speedup missing on a "
            f"{cpu_count}-core machine"
        )
    if speedup <= 1.0:
        return (
            f"BENCH_sweep.json: parallel_speedup {speedup:.2f}x <= 1.00x "
            f"on a {cpu_count}-core machine (jobs should win)"
        )
    return None


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _dig(report: Dict[str, object], dotted: str) -> float:
    node: object = report
    for key in dotted.split("."):
        node = node[key]  # type: ignore[index]
    return float(node)  # type: ignore[arg-type]


def _side_block(report: Dict[str, object], dotted: str) -> Dict[str, object]:
    """The dict holding a dotted timing, e.g. ``fast`` of ``fast.median_s``."""
    block = report.get(dotted.split(".")[0])
    return block if isinstance(block, dict) else {}


def sample_spread(block: Dict[str, object]) -> Optional[float]:
    """``(max - min) / median`` of a timed side's samples, if recorded."""
    times = block.get("times_s")
    median = block.get("median_s")
    if not isinstance(times, list) or len(times) < 2 or not median:
        return None
    return (max(times) - min(times)) / float(median)


def _env_cpu_count(report: Dict[str, object]) -> Optional[int]:
    env = report.get("env")
    if isinstance(env, dict):
        try:
            return int(env.get("cpu_count"))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
    return None


def attribution_lines(
    baseline: Dict[str, object], current: Dict[str, object]
) -> List[str]:
    """Explain a kernels-report failure from its spans and counters.

    For each benchmark side, compares the deterministic cost counters
    first -- drift there is an algorithmic difference no amount of
    machine variation can produce -- and falls back to naming the span
    phases whose wall time moved while the counters stayed flat, the
    signature of environment noise.
    """
    lines: List[str] = []
    saw_data = False
    for side in _ATTRIBUTED_SIDES:
        base_side = baseline.get(side)
        cur_side = current.get(side)
        if not isinstance(base_side, dict) or not isinstance(cur_side, dict):
            continue
        base_counters = base_side.get("counters")
        cur_counters = cur_side.get("counters")
        if not isinstance(base_counters, dict) or not isinstance(
            cur_counters, dict
        ):
            continue
        saw_data = True
        drifted: List[str] = []
        for counter in sorted(set(base_counters) | set(cur_counters)):
            base_value = int(base_counters.get(counter, 0))
            cur_value = int(cur_counters.get(counter, 0))
            if base_value != cur_value:
                ratio = (
                    f"{cur_value / base_value:.2f}x" if base_value else "new"
                )
                drifted.append(
                    f"{counter} {base_value} -> {cur_value} ({ratio})"
                )
        moved: List[str] = []
        base_spans = {
            row["name"]: float(row["wall_s"])
            for row in base_side.get("spans", [])
            if isinstance(row, dict)
        }
        cur_spans = {
            row["name"]: float(row["wall_s"])
            for row in cur_side.get("spans", [])
            if isinstance(row, dict)
        }
        for span in sorted(set(base_spans) | set(cur_spans)):
            base_wall = base_spans.get(span, 0.0)
            cur_wall = cur_spans.get(span, 0.0)
            if base_wall > 0.0 and abs(cur_wall / base_wall - 1.0) >= 0.10:
                moved.append(f"{span} {cur_wall / base_wall - 1.0:+.0%}")
        if drifted:
            lines.append(
                f"  attribution[{side}]: counter drift "
                + "; ".join(drifted[:4])
                + " -- algorithmic regression, not machine noise"
            )
        elif moved:
            lines.append(
                f"  attribution[{side}]: "
                + ", ".join(moved[:4])
                + " moved while deterministic counters stayed flat "
                + "-- environment noise, not an algorithmic change"
            )
        else:
            lines.append(
                f"  attribution[{side}]: counters flat and no span moved "
                f">=10% -- nothing to attribute"
            )
    if not saw_data:
        lines.append(
            "  attribution unavailable: baseline or current report "
            "predates span/counter capture (regenerate with "
            "benchmarks/perf_harness.py)"
        )
    return lines


def _check_report(
    name: str,
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float,
    ratios_only: bool,
) -> Tuple[List[str], List[str]]:
    """Return (failure lines, warning lines) for one report pair."""
    failures: List[str] = []
    warnings: List[str] = []
    invariant = _INVARIANT_KEYS.get(name)
    if invariant is not None and not current.get(invariant, False):
        failures.append(f"{name}: invariant {invariant!r} is no longer true")
    ratio_key = _RATIO_KEYS.get(name)
    if ratio_key is not None:
        base_ratio = float(baseline[ratio_key])
        cur_ratio = float(current[ratio_key])
        floor = base_ratio * (1.0 - threshold)
        if cur_ratio < floor:
            failures.append(
                f"{name}: {ratio_key} fell {base_ratio:.2f}x -> "
                f"{cur_ratio:.2f}x (floor {floor:.2f}x)"
            )
    if name == "BENCH_sweep.json":
        parallel_failure = check_parallel_speedup(current)
        if parallel_failure is not None:
            failures.append(parallel_failure)
        env_failure = check_baseline_env(baseline)
        if env_failure is not None:
            failures.append(env_failure)
    max_ratio = _MAX_RATIO_KEYS.get(name)
    if max_ratio is not None:
        key, ceiling = max_ratio
        cur_ratio = float(current[key])
        if cur_ratio > ceiling:
            failures.append(
                f"{name}: {key} {cur_ratio:.3f}x exceeds the "
                f"{ceiling:.2f}x ceiling"
            )
    cpu_count = _env_cpu_count(current)
    cpu_text = "?" if cpu_count is None else str(cpu_count)
    if not ratios_only:
        for dotted in _MEDIAN_PATHS.get(name, ()):
            base_s = _dig(baseline, dotted)
            cur_s = _dig(current, dotted)
            ceiling = base_s * (1.0 + threshold)
            cur_block = _side_block(current, dotted)
            spread = sample_spread(cur_block)
            spread_text = "n/a" if spread is None else f"{spread:.0%}"
            if spread is not None and spread > SPREAD_WARN:
                warnings.append(
                    f"{name}: {dotted.split('.')[0]} sample spread "
                    f"{spread:.0%} of median exceeds {SPREAD_WARN:.0%} -- "
                    f"this run's timings are noisy"
                )
            if cur_s <= ceiling:
                continue
            line = (
                f"{name}: {dotted} regressed {base_s:.4f}s -> {cur_s:.4f}s "
                f"(ceiling {ceiling:.4f}s, "
                f"+{(cur_s / base_s - 1) * 100:.0f}%; "
                f"env.cpu_count={cpu_text}, spread {spread_text})"
            )
            cur_min = cur_block.get("min_s")
            if (
                isinstance(cur_min, (int, float))
                and float(cur_min) <= ceiling
                and spread is not None
                and spread > SPREAD_WARN
            ):
                # Noise-floor guard: the machine demonstrably still
                # reaches the old speed; a regressed *median* on a
                # high-spread sample is scheduler noise until a rerun
                # reproduces it.
                warnings.append(
                    line
                    + f" -- noise-floor guard: min_s {float(cur_min):.4f}s "
                    f"is within the ceiling on a high-spread sample; "
                    f"not failing, rerun to confirm"
                )
            else:
                failures.append(line)
    if failures and name == "BENCH_kernels.json":
        failures.extend(attribution_lines(baseline, current))
    return failures, warnings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current_dir", help="directory with the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default=BASELINE_DIR)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--ratios-only",
        action="store_true",
        help="check machine-independent ratios/invariants only (CI mode)",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    warnings: List[str] = []
    compared = 0
    for name in sorted(_MEDIAN_PATHS):
        base_path = os.path.join(args.baseline_dir, name)
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.exists(base_path) or not os.path.exists(cur_path):
            continue
        compared += 1
        report_failures, report_warnings = _check_report(
            name,
            _load(base_path),
            _load(cur_path),
            args.threshold,
            args.ratios_only,
        )
        failures.extend(report_failures)
        warnings.extend(report_warnings)
    if not compared:
        print("compare_perf: no overlapping BENCH_*.json reports found", file=sys.stderr)
        return 2
    for line in warnings:
        print(f"WARNING {line}")
    if failures:
        for line in failures:
            print(f"REGRESSION {line}")
        return 1
    mode = "ratios-only" if args.ratios_only else f"threshold {args.threshold:.0%}"
    print(f"compare_perf: {compared} report(s) within bounds ({mode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
