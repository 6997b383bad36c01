"""End-to-end benchmark: whole runs in fresh interpreters, layer by layer.

From the repository root::

    python3 -m benchmarks.e2e --workload dense-2k --seed 3 --seconds 10 --trace 0
    python3 -m benchmarks.e2e --seed 0 --out DIR      # all workloads, both passes

Each workload runs in its own subprocesses, one at a time, each
single-threaded: an untraced pass that measures the end-to-end metrics for
``--seconds``, four more fresh interpreters that only get ready (the
set-up samples), and a separate traced pass for the per-layer metrics.
``--trace 0`` runs the first two and ``--trace 1`` the first and the last;
by default all three run.

The command prints every metric by name with its unit, writes
``DIR/<workload>/results.json`` (and ``spans.jsonl`` when traced), and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` names for the passes run.
It exits 1 when a unit fails a check, a traced unit differs from its
untraced twin, or a named metric is missing, and 2 when the checkout has
no package to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import metrics as m
from benchmarks.e2e import workloads
from benchmarks.e2e.spans import format_layer_table, layer_table, write_jsonl

__all__ = ["main", "ROOT"]

ROOT = Path(__file__).resolve().parents[2]

#: Fresh interpreters whose spawn-to-ready times give ``setup_s``.
SETUP_SAMPLES = 5

#: Wall-time budget of one workload, all passes included; a run must end
#: within 180 s.
BUDGET_S = 170.0


class PassFailed(Exception):
    """A worker process crashed, never got ready or overran the budget."""


def _child_env() -> Dict[str, str]:
    # The package's SPECTRUM_* switches select kernel paths; the benchmark
    # measures the defaults, whatever the calling shell exports.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECTRUM_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(w, args, mode: str, result: Optional[Path], deadline: float) -> float:
    """Run one worker pass to completion; return its spawn-to-ready time."""
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", w.name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--pass", mode,
    ]
    if result is not None:
        result.unlink(missing_ok=True)
        cmd += ["--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select(
            [proc.stdout], [], [], max(0.0, deadline - time.monotonic())
        )
        line = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise PassFailed(f"{mode} pass of {w.name} never got ready")
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass of {w.name} overran the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass of {w.name} exited with {proc.returncode}")
    return ready_s


def code_hash() -> str:
    """Digest of the code under test and of the benchmark itself."""
    h = hashlib.sha256()
    for base in ("src", "benchmarks/e2e"):
        for path in sorted((ROOT / base).rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _unit_problems(label: str, units: List[dict]) -> List[str]:
    return [
        f"{label} unit {u['k']} (market seed {u['seed']}): " + "; ".join(u["problems"])
        for u in units
        if m.unit_failed(u)
    ]


def required_metrics(bench: dict, trace: Optional[int]) -> List[dict]:
    """The ``BENCHMARK.json`` metrics the passes selected by ``trace`` emit."""
    return (bench["end_to_end"] if trace != 1 else []) + (
        bench["per_layer"] if trace != 0 else []
    )


def run_workload(w: workloads.Workload, args, bench: dict, code: str) -> dict:
    """All passes of one workload; returns its results record."""
    out = Path(args.out) / w.name
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    problems: List[str] = []
    notes: List[str] = []
    setup: List[float] = []
    untraced = traced = None
    try:
        setup.append(_spawn(w, args, "untraced", out / "untraced.json", deadline))
        untraced = json.loads((out / "untraced.json").read_text())
        if args.trace != 1:
            for _ in range(args.setup_samples - 1):
                setup.append(_spawn(w, args, "probe", None, deadline))
        if args.trace != 0:
            _spawn(w, args, "traced", out / "traced.json", deadline)
            traced = json.loads((out / "traced.json").read_text())
    except PassFailed as exc:
        problems.append(str(exc))

    values: Dict[str, float] = {}
    attempted = failed = 0
    deterministic: Dict[str, object] = {}
    if untraced is not None:
        units = untraced["units"]
        values.update(m.end_to_end_metrics(untraced, setup if args.trace != 1 else [], w.prefix))
        attempted += len(units)
        failed += sum(map(m.unit_failed, units))
        problems += _unit_problems("untraced", units)
        deterministic["welfare_mean"] = values.get("welfare_mean")
        deterministic["digests"] = [u["digest"] for u in units[: w.prefix]]
        deterministic["nash_stable"] = [u["nash_stable"] for u in units[: w.prefix]]
        notes += [
            f"unit {u['k']} (market seed {u['seed']}) is not Nash-stable"
            for u in units
            if u["nash_stable"] is False
        ]
    if traced is not None:
        units = traced["units"]
        for unit, twin in zip(units, m.twin_problems(untraced, traced)):
            if twin:
                unit["problems"].append(twin)
        values.update(m.per_layer_metrics(traced))
        attempted += len(units)
        failed += sum(map(m.unit_failed, units))
        problems += _unit_problems("traced", units)
        deterministic["counters"] = [u["counters"] for u in units]
        write_jsonl(traced["spans"], out / "spans.jsonl")

    named = {}
    for metric in required_metrics(bench, args.trace):
        name, unit = metric["name"], metric["unit"]
        if name not in values or m.UNITS.get(name) != unit:
            problems.append(f"metric {name} [{unit}] was not emitted")
        else:
            named[name] = {"value": values[name], "unit": unit}

    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "code": code,
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "problems": problems,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": m.UNITS[k]} for k, v in values.items()},
        "named": named,
        "deterministic": deterministic,
        "setup_samples": setup,
        "layers": layer_table(traced["spans"]) if traced is not None else [],
    }
    (out / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    _report(w, record, untraced, traced)
    return record


def _report(w, record: dict, untraced, traced) -> None:
    print(f"== {w.name}  seed {record['seed']}  {w.buyers} buyers x {w.channels} channels ==")
    values = record["metrics"]
    for title, names in (("end-to-end (untraced)", m.END_TO_END), ("per-layer (traced)", m.PER_LAYER)):
        shown = [name for name in names if name in values]
        if not shown:
            continue
        n = len(untraced["units"]) if title.startswith("end") else len(traced["units"])
        print(f"{title}, {n} units")
        for name in shown:
            print(f"  {name:<38} {values[name]['value']:>14.6g} {values[name]['unit']}")
    if traced is not None:
        print(format_layer_table(record["layers"]))
        coverage = values["bench.coverage_frac"]["value"]
        if not 0.95 <= coverage <= 1.05:
            print(
                f"warning: {w.name} layer spans cover {coverage:.3f} of the "
                "untraced unit time (outside [0.95, 1.05])",
                file=sys.stderr,
            )
    for note in record["notes"]:
        print(f"note: {w.name}: {note}")
    for problem in record["problems"]:
        print(f"FAILED: {w.name}: {problem}")


def main(argv=None) -> int:
    names = [w.name for w in workloads.WORKLOADS]
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: untraced pass and set-up only; 1: untraced and traced passes; "
        "default: all",
    )
    parser.add_argument("--out", default=str(ROOT / ".bench_out"))
    parser.add_argument(
        "--smoke", action="store_true", help="test sizes and one set-up sample"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no package to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES
    code = code_hash()

    records = [
        run_workload(workloads.get(name, smoke=args.smoke), args, bench, code)
        for name in ([args.workload] if args.workload else names)
    ]
    if len(records) == 1:
        named = records[0]["named"]
    else:
        named = {f"{r['workload']}.{k}": v for r in records for k, v in r["named"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": named,
    }))
    return 0 if all(r["correct"] for r in records) else 1
