"""Tests of the end-to-end benchmark at smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One module-scoped fixture runs the whole command once (every workload,
both passes); the other tests reuse its output or call the worker's passes
in this process.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, metrics, workloads, worker
from benchmarks.e2e.run import ROOT
from benchmarks.e2e.spans import SpanRecorder, layer_table, self_times

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = float(BENCH["run_seconds"])


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--seed", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    records = {
        w.name: json.loads((out / w.name / "results.json").read_text())
        for w in workloads.WORKLOADS
        if (out / w.name / "results.json").is_file()
    }
    return proc, records


def test_command_succeeds_and_ends_with_its_result_line(smoke_run):
    proc, _ = smoke_run
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1


def test_every_named_metric_is_emitted_with_its_unit(smoke_run):
    proc, records = smoke_run
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(records) == {w.name for w in workloads.WORKLOADS}
    for name, record in records.items():
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            emitted = line["metrics"][f"{name}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert all(NAME.fullmatch(metric) for metric in record["metrics"])
        assert record["metrics"]["error_rate"]["value"] == 0
        assert ("run_s_p90" in record["metrics"]) == (name == "sweep-400")


def test_benchmark_file_matches_the_metric_catalog():
    for section, catalog in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        names = [m["name"] for m in BENCH[section]]
        assert len(names) == len(set(names))
        for metric in BENCH[section]:
            assert NAME.fullmatch(metric["name"])
            assert (metric["unit"], metric["better"]) == catalog[metric["name"]]
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(NAME.fullmatch(name) for name in metrics.UNITS)


def test_deterministic_values_repeat_across_runs(smoke_run):
    _, records = smoke_run
    for w in workloads.WORKLOADS:
        w = w.smoke()
        untraced = worker.untraced_pass(w, 0, SECONDS)
        traced = worker.traced_pass(w, 0)
        expected = records[w.name]["deterministic"]
        prefix = untraced["units"][: w.prefix]
        assert [u["digest"] for u in prefix] == expected["digests"]
        assert [u["nash_stable"] for u in prefix] == expected["nash_stable"]
        welfare = metrics.end_to_end_metrics(untraced, [], w.prefix)["welfare_mean"]
        assert welfare == expected["welfare_mean"]
        assert [u["counters"] for u in traced["units"]] == expected["counters"]
        assert not any(u["problems"] for u in untraced["units"] + traced["units"])


def test_failing_verdict_raises_error_rate(monkeypatch):
    monkeypatch.setattr(
        "repro.engine.validation.is_individually_rational", lambda market, matching: False
    )
    w = workloads.get("sweep-400", smoke=True)
    untraced = worker.untraced_pass(w, 0, 0.0)
    assert metrics.end_to_end_metrics(untraced, [], w.prefix)["error_rate"] == 1.0
    assert all("individually_rational is False" in u["problems"] for u in untraced["units"])


def test_nash_violations_are_counted_not_failed(monkeypatch):
    monkeypatch.setattr(
        "repro.engine.validation.is_nash_stable", lambda market, matching: False
    )
    w = workloads.get("sweep-400", smoke=True)
    values = metrics.end_to_end_metrics(worker.untraced_pass(w, 0, 0.0), [], w.prefix)
    assert (values["error_rate"], values["nash_violation_rate"]) == (0.0, 1.0)


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "sweep-400",
         "--seed", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_agrees_with_itself_and_flags_a_regression(smoke_run, tmp_path, capsys):
    _, records = smoke_run
    runs = list(records.values())
    slower = json.loads(json.dumps(runs))
    for run in slower:
        run["metrics"]["run_s_p50"]["value"] *= 2
    paths = []
    for label, group in (("a", runs), ("b", runs), ("c", slower)):
        (tmp_path / label).mkdir()
        for run in group:
            path = tmp_path / label / run["workload"] / "results.json"
            path.parent.mkdir()
            path.write_text(json.dumps(run))
        paths.append(str(tmp_path / label))
    assert compare.main(paths[:2]) == 0
    assert compare.main([paths[0], paths[2]]) == 1
    assert "worse" in capsys.readouterr().out


@pytest.mark.parametrize(
    "base, other, better, expected",
    [
        ([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "lower", "agree"),
        ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", "worse"),
        ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "higher", "better"),
        ([1.0, 0.5, 1.5, 1.0], [1.0, 1.1, 0.9, 1.0], "lower", "unresolved"),
        ([1.0, 0.7, 1.3, 1.0], [2.0, 2.1, 2.2, 2.0], "lower", "worse"),
    ],
)
def test_verdicts(base, other, better, expected):
    assert compare.verdict(base, other, better, 0.1) == expected


def test_spans_nest_and_self_time_excludes_children():
    rec = SpanRecorder()
    with rec.span("unit", trace=7):
        with rec.span("layer"):
            pass
    with pytest.raises(ValueError):
        with rec.span("orphan"):
            pass
    root = next(s for s in rec.spans if s["name"] == "unit")
    child = next(s for s in rec.spans if s["name"] == "layer")
    assert (child["trace"], child["parent"], root["parent"]) == (7, root["id"], None)
    own = self_times(rec.spans)
    duration = root["end_s"] - root["start_s"]
    assert own[root["id"]] == pytest.approx(duration - (child["end_s"] - child["start_s"]))
    assert [row["name"] for row in layer_table(rec.spans)] == ["unit", "layer"]
