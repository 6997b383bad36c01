"""One spec, one behaviour: every entry point runs a spec the same way.

For each run command, three paths must agree on the exit code and the
printed result: (a) the flags, (b) ``repro run`` on the spec ``--dry-run``
prints, and (c) ``repro profile run`` on that spec.  (a) and (b) must also
record behaviourally identical traces.  The spec-only cases pin the
places the entry points used to disagree: the slot bound, a misspelt
policy or option, a section the command does not read, a dry run of a
spec ``repro run`` refuses, and the telemetry settings ``Session`` used
to skip.
"""

from __future__ import annotations

import dataclasses
import re
import threading
import time

import pytest

from repro.cli import main
from repro.errors import SpecError
from repro.run.session import Session
from repro.run.spec import (
    RUN_COMMANDS,
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    ParallelSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.trace.diff import diff_traces
from repro.trace.export import parse_openmetrics
from repro.trace.reader import load_events

#: Small flag sets, one per run command (``{run_dir}`` is filled in).
CASES = {
    "fig6": ["fig6", "--panel", "a", "--repetitions", "1"],
    "fig7": ["fig7", "--panel", "a", "--repetitions", "1"],
    "fig8": ["fig8", "--panel", "a", "--repetitions", "1", "--csv"],
    "toy": ["toy"],
    "counterexample": ["counterexample"],
    "distributed": ["distributed", "--buyers", "8", "--sellers", "2",
                    "--seed", "3"],
    "chaos": ["chaos", "--buyers", "8", "--sellers", "3", "--loss", "0.1",
              "--crash", "buyer:2@3-9"],
    "swaps": ["swaps", "--buyers", "8", "--sellers", "3"],
    "dynamic": ["dynamic", "--epochs", "3", "--buyers", "8",
                "--sellers", "3"],
    "report": ["report"],
    "solve": ["solve", "--solver", "greedy", "--buyers", "8",
              "--sellers", "3", "--check-stability"],
    "chaos-durable": ["chaos", "--buyers", "8", "--sellers", "3",
                      "--crash", "buyer:2@3-9", "--checkpoint-dir",
                      "{run_dir}", "--checkpoint-every", "5"],
    "dynamic-durable": ["dynamic", "--epochs", "3", "--buyers", "8",
                        "--sellers", "3", "--strategy", "warm",
                        "--checkpoint-dir", "{run_dir}"],
}

_TIMING = re.compile(r"\d+\.\d+s (wall|cpu)")


def test_every_run_command_has_a_case():
    assert set(RUN_COMMANDS) <= set(CASES)


def _main(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _printed_result(out: str, traces):
    """Stdout minus artefact lines, timings and trace paths."""
    lines = []
    for line in out.splitlines():
        if line.startswith("profile written to"):
            break  # profile run: the span table follows
        if line.startswith("trace written to") or _TIMING.search(line):
            continue
        for trace in traces:
            line = line.replace(trace, "<trace>")
        lines.append(line)
    return lines


@pytest.mark.parametrize("case", sorted(CASES))
def test_flags_spec_and_profile_run_agree(case, tmp_path, capsys):
    # One run directory: a durable run's identity excludes its path, so
    # each path restarts it from scratch, and runtime.* events name it.
    run_dir = str(tmp_path / "run")
    traces = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]

    def flags(trace):
        argv = [arg.format(run_dir=run_dir) for arg in CASES[case]]
        return argv + ["--trace-out", trace]

    code_a, out_a = _main(flags(traces[0]), capsys)
    assert main(flags(traces[1]) + ["--dry-run"]) == 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(capsys.readouterr().out)
    code_b, out_b = _main(["run", str(spec_path)], capsys)
    diff = diff_traces(load_events(traces[0]), load_events(traces[1]))
    assert not diff.diverged, diff
    code_c, out_c = _main(
        ["profile", "run", str(spec_path), "--out", str(tmp_path / "prof"),
         "--no-memory"],
        capsys,
    )

    assert code_a == code_b == code_c
    expected = _printed_result(out_a, traces)
    assert expected
    assert _printed_result(out_b, traces) == expected
    assert _printed_result(out_c, traces) == expected
    assert f"profile written to {tmp_path / 'prof'}" in out_c


# ----------------------------------------------------------------------
# Spec-only cases
# ----------------------------------------------------------------------
def _write(tmp_path, spec: RunSpec, name: str = "spec.json") -> str:
    path = tmp_path / name
    path.write_text(spec.to_json(indent=2))
    return str(path)


def test_chaos_honours_max_slots_everywhere(tmp_path, capsys):
    spec = RunSpec(
        command="chaos",
        market=MarketSpec(buyers=10, sellers=3),
        engine=EngineSpec(name="distributed", options={"policy": "default"}),
        faults=FaultSpec(deadline_slots=5),
    )
    assert main(["run", _write(tmp_path, spec)]) == 0
    assert "status=degraded slots=5" in capsys.readouterr().out
    result = Session(spec).run()
    assert (result.status, result.slots) == ("degraded", 5)


def test_misspelt_policy_fails_the_same_everywhere(tmp_path, capsys):
    chaos = RunSpec(
        command="chaos",
        market=MarketSpec(buyers=8, sellers=3),
        engine=EngineSpec(name="distributed", options={"policy": "default"}),
    )
    bad_inputs = (
        (
            dict(engine=EngineSpec(
                name="distributed", options={"policy": "adaptve"}
            )),
            "'adaptve'",
        ),
        # Bad fault strings are refused before the fault-free twin runs.
        (
            dict(faults=FaultSpec(crashes=("garbage",))),
            "faults.crashes[0]: bad crash spec 'garbage'",
        ),
        (
            dict(faults=FaultSpec(partitions=("buyer:0|rest@x",))),
            "faults.partitions[0]: bad partition spec 'buyer:0|rest@x'",
        ),
        (
            dict(faults=FaultSpec(crashes=("buyer:1@5-10", "buyer:1@7-12"))),
            "faults: agent 'buyer:1' crash windows overlap",
        ),
        # An option the command does not read: the slot bound is
        # faults.deadline_slots, and toy reads no option at all.
        (
            dict(engine=EngineSpec(
                name="distributed", options={"policy": "default",
                                             "max_slots": 5}
            )),
            "engine.options: unknown option(s) 'max_slots' for command "
            "'chaos'; accepted: policy",
        ),
        (
            dict(engine=EngineSpec(
                name="distributed", options={"max_slot": 5}
            )),
            "unknown option(s) 'max_slot' for command 'chaos'",
        ),
        (
            dict(
                command="toy",
                market=MarketSpec(scenario="toy"),
                engine=EngineSpec(options={"polcy": "adaptive"}),
            ),
            "unknown option(s) 'polcy' for command 'toy'; accepted: none",
        ),
    )
    for index, (fields, expected) in enumerate(bad_inputs):
        spec = dataclasses.replace(chaos, **fields)
        with pytest.raises(SpecError) as info:
            Session(spec).run()
        assert expected in str(info.value)
        run_dir = tmp_path / f"run{index}"
        durable = dataclasses.replace(
            spec, durability=DurabilitySpec(checkpoint_dir=str(run_dir))
        )
        for variant, name in ((spec, "plain.json"), (durable, "durable.json")):
            path = _write(tmp_path, variant, name)
            for argv in (["run", path], ["run", path, "--dry-run"]):
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert f"error: {info.value}" in captured.err
                assert captured.out == ""
        assert not run_dir.exists()  # refused before a run directory exists
    # A solve spec is checked against the solver it names: an unknown
    # option or distributed policy fails the dry run as it fails the run.
    for flags, bad in (
        (["--solver", "distributed", "--config", "policy=adaptve"],
         "'adaptve'"),
        (["--solver", "greedy", "--config", "foo=1"], "['foo']"),
    ):
        argv = ["solve", "--buyers", "6", "--sellers", "2", *flags]
        for dry_run in ([], ["--dry-run"]):
            assert main(argv + dry_run) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert bad in captured.err
        name, option = flags[1], flags[3].split("=")
        spec = RunSpec(
            command="solve",
            market=MarketSpec(buyers=6, sellers=2),
            engine=EngineSpec(name=name, options={option[0]: option[1]}),
        )
        with pytest.raises(SpecError, match=re.escape(bad)):
            Session(spec)
        path = _write(tmp_path, spec, f"solve-{name}.json")
        for argv in (["run", path], ["run", path, "--dry-run"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and bad in captured.err
    # Flags that make a spec `repro run` refuses fail their dry run the
    # same way: exit 2, the same error, nothing on stdout, no run directory.
    run_dir = tmp_path / "dd"
    assert main(["dynamic", "--epochs", "2", "--checkpoint-dir",
                 str(run_dir), "--dry-run"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a durable dynamic run needs a single strategy "
        "(--strategy warm|cold)\n"
    )
    assert not run_dir.exists()


def test_figure_repetitions_below_one_fail_the_same_everywhere(
    tmp_path, capsys
):
    # Zero repetitions used to pass the dry run and end the run in a
    # traceback from the sweep's empty sample.
    for flags in (["fig6", "--repetitions", "0"],
                  ["fig8", "--panel", "c", "--repetitions", "-2"]):
        for dry_run in ([], ["--dry-run"]):
            assert main(flags + dry_run) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: engine.options.repetitions: must be >= 1, "
                f"got {flags[-1]}\n"
            )
    for index, (value, expected) in enumerate((
        (0, "engine.options.repetitions: must be >= 1, got 0"),
        (True, "engine.options.repetitions: expected an integer, got True"),
        (1.5, "engine.options.repetitions: expected an integer, got 1.5"),
        ("3", "engine.options.repetitions: expected an integer, got '3'"),
    )):
        spec = RunSpec(
            command="fig7",
            engine=EngineSpec(name="figure", options={"repetitions": value}),
        )
        with pytest.raises(SpecError) as info:
            Session(spec)
        assert str(info.value) == expected
        path = _write(tmp_path, spec, f"fig7-{index}.json")
        for argv in (["run", path], ["run", path, "--dry-run"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {expected}\n"
    for repetitions in (None, 1):
        RunSpec(
            command="fig6",
            engine=EngineSpec(
                name="figure", options={"repetitions": repetitions}
            ),
        ).validate()


def test_unread_section_fails_the_same_everywhere(tmp_path, capsys):
    # A section only some commands read keeps its default elsewhere:
    # faults (distributed, chaos), durability (distributed, chaos,
    # dynamic), parallel (fig6-fig8) and market.workload (dynamic).
    run_dir = tmp_path / "run"
    durability = DurabilitySpec(checkpoint_dir=str(run_dir))
    market = MarketSpec(buyers=8, sellers=3)
    workload = MarketSpec(buyers=8, sellers=3, workload=WorkloadSpec(epochs=2))
    chaos = EngineSpec(name="distributed", options={"policy": "default"})
    bad_inputs = (
        (RunSpec(command="solve", market=market,
                 engine=EngineSpec(name="distributed"),
                 faults=FaultSpec(loss=0.5, crashes=("seller:0@1",),
                                  deadline_slots=3)),
         "faults: command 'solve'"),
        (RunSpec(command="toy", market=MarketSpec(scenario="toy"),
                 faults=FaultSpec(loss=0.5)),
         "faults: command 'toy'"),
        (RunSpec(command="dynamic", market=workload,
                 engine=EngineSpec(name="dynamic"),
                 faults=FaultSpec(loss=0.5, crashes=("buyer:1@2",))),
         "faults: command 'dynamic'"),
        (RunSpec(command="solve", market=market, durability=durability),
         "durability: command 'solve'"),
        (RunSpec(command="fig6", engine=EngineSpec(
                     name="figure", options={"repetitions": 1}),
                 durability=durability),
         "durability: command 'fig6'"),
        (RunSpec(command="chaos", market=workload, engine=chaos),
         "market.workload: command 'chaos'"),
        (RunSpec(command="chaos", market=market, engine=chaos,
                 parallel=ParallelSpec(jobs=2)),
         "parallel: command 'chaos'"),
    )
    for spec, expected in bad_inputs:
        with pytest.raises(SpecError) as info:
            Session(spec)
        assert expected in str(info.value)
        assert "does not read this section" in str(info.value)
        path = _write(tmp_path, spec)
        prof = tmp_path / "prof"
        for argv in (["run", path], ["run", path, "--dry-run"],
                     ["profile", "run", path, "--out", str(prof)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {info.value}\n"
            assert captured.out == ""
        assert not run_dir.exists() and not prof.exists()


def test_session_writes_metrics_and_reports_the_slo_verdict(tmp_path):
    metrics = tmp_path / "toy.om"
    spec = RunSpec(
        command="toy",
        market=MarketSpec(scenario="toy"),
        telemetry=TelemetrySpec(
            metrics_out=str(metrics),
            slo=("rounds_to_convergence<=1",),
            slo_policy="fail",
        ),
    )
    session = Session(spec)
    result = session.run()
    assert result.social_welfare == pytest.approx(30.0)
    snapshot = parse_openmetrics(metrics.read_text(encoding="utf-8"))
    assert snapshot["counters"]["stage1_rounds"] >= 1
    assert session.lifecycle.slo_engine.violation_counts == {
        "rounds_to_convergence<=1": 1
    }
    assert session.lifecycle.slo_exit_code == 1


def test_session_holds_the_telemetry_server(tmp_path):
    spec = RunSpec(
        command="toy",
        market=MarketSpec(scenario="toy"),
        telemetry=TelemetrySpec(serve_metrics="127.0.0.1:0", serve_hold=0.2),
    )
    threads_before = set(threading.enumerate())
    start = time.monotonic()
    Session(spec).run()
    assert time.monotonic() - start >= 0.2
    assert set(threading.enumerate()) == threads_before
