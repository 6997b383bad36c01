"""Compare sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py SET_A SET_B [SET_C ...]

A set is a ``results.json`` file or a directory searched recursively for
them (the ``--out`` directories of one or more runs, e.g. one per seed).
For every workload and every end-to-end metric in ``BENCHMARK.json`` the
table gives each set's median and quartiles over its runs, the metric's
bound, and a verdict for each later set against ``SET_A``:

* ``agree`` -- the medians differ by no more than the bound;
* ``worse`` / ``better`` -- they differ by more than the bound, in
  the metric's bad or good direction;
* ``unresolved`` -- a set's spread (quartile distance over median) is
  wider than the bound, and the runs of the two sets overlap.

Deterministic values (welfare, coalition digests, layer counters) are
compared run by run for runs of the same workload and seed.  The command
exits 1 when every run comes from the same code (same source digest) and
any verdict is not ``agree`` or any deterministic value differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> List[dict]:
    """Every results record of one set."""
    files = [path] if path.is_file() else sorted(path.rglob("results.json"))
    if not files:
        raise SystemExit(f"compare: no results.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], other: Sequence[float], better: str, bound: float) -> str:
    """Verdict for ``other`` against ``base`` (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (summary(other)[1] - summary(base)[1]) / abs(summary(base)[1])
    if max(spread(base), spread(other)) > bound:
        if all(sign * o < sign * b for o in other for b in base):
            return "better"
        if all(sign * o > sign * b for o in other for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "agree"


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        r["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and metric in r["metrics"]
    ]


def deterministic_mismatches(sets: List[List[dict]]) -> List[str]:
    """Runs of one workload and seed whose deterministic values differ."""
    seen: Dict[Tuple[str, int, bool], Tuple[int, dict]] = {}
    mismatches = []
    for index, runs in enumerate(sets):
        for run in runs:
            key = (run["workload"], run["seed"], run["smoke"])
            if key not in seen:
                seen[key] = (index, run["deterministic"])
                continue
            first, values = seen[key]
            for name in sorted(set(values) & set(run["deterministic"])):
                if values[name] != run["deterministic"][name]:
                    mismatches.append(
                        f"{key[0]} seed {key[1]}: {name} differs between "
                        f"set {first + 1} and set {index + 1}"
                    )
    return mismatches


def compare(sets: List[List[dict]], bench: dict) -> Tuple[List[str], bool]:
    """Render the table; return its lines and whether every set agrees."""
    workloads = [w["name"] for w in bench["workloads"]]
    lines = []
    agree = True
    header = f"{'workload':<16} {'metric':<12} {'unit':<8} {'bound':>6}"
    for index in range(len(sets)):
        header += f"  {'set ' + str(index + 1) + ' median [q1, q3]':<32}"
    lines.append(header + "  verdicts")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            columns = [_values(runs, workload, metric["name"]) for runs in sets]
            if not all(columns):
                continue
            row = (
                f"{workload:<16} {metric['name']:<12} {metric['unit']:<8} "
                f"{metric['bound']:>6.0%}"
            )
            for values in columns:
                q1, median, q3 = summary(values)
                row += f"  {f'{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}':<32}"
            verdicts = [
                verdict(columns[0], values, metric["better"], metric["bound"])
                for values in columns[1:]
            ]
            agree &= all(v == "agree" for v in verdicts)
            lines.append(row + "  " + " ".join(verdicts))
    mismatches = deterministic_mismatches(sets)
    lines += [f"deterministic: {m}" for m in mismatches] or [
        "deterministic: identical wherever workload and seed match"
    ]
    return lines, agree and not mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path)
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.sets) < 2:
        parser.error("give at least two sets")
    bench = json.loads(args.bench.read_text())
    sets = [load_set(path) for path in args.sets]
    lines, agree = compare(sets, bench)
    print("\n".join(lines))
    codes = {run["code"] for runs in sets for run in runs}
    if len(codes) == 1 and not agree:
        print("compare: sets of the same code disagree beyond a bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
