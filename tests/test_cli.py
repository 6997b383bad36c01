"""Tests for the command-line interface."""

from __future__ import annotations

import collections
import json

import pytest

from repro.cli import _spec_from_args, build_parser, main


def _spec(argv):
    return _spec_from_args(build_parser().parse_args(argv))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_defaults(self):
        options = _spec(["fig6"]).engine.options
        assert options["panel"] == "a"
        assert options["repetitions"] is None

    def test_distributed_options(self):
        spec = _spec(["distributed", "--buyers", "12", "--policy", "adaptive"])
        assert spec.market.buyers == 12
        assert spec.engine.options["policy"] == "adaptive"


class TestCommands:
    def test_toy_output(self, capsys):
        assert main(["toy"]) == 0
        out = capsys.readouterr().out
        assert "Stage I welfare: 27" in out
        assert "Final welfare: 30" in out

    def test_counterexample_output(self, capsys):
        assert main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "Nash-stable:      True" in out
        assert "pairwise-stable:  False" in out
        assert "blocking pair" in out

    def test_fig6_table(self, capsys):
        assert main(["fig6", "--panel", "a", "--repetitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "welfare_ratio" in out
        assert "Fig. 6(a)" in out

    def test_fig6_csv(self, capsys):
        assert main(["fig6", "--panel", "a", "--repetitions", "2", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("buyers,measured_srcc")

    def test_distributed_command(self, capsys):
        assert (
            main(
                [
                    "distributed",
                    "--buyers",
                    "8",
                    "--sellers",
                    "3",
                    "--policy",
                    "both",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "default" in out
        assert "adaptive" in out
        assert "matches centralized: True" in out


class TestExtensionCommands:
    def test_swaps_counterexample(self, capsys):
        assert main(["swaps", "--counterexample"]) == 0
        out = capsys.readouterr().out
        assert "23.0000" in out
        assert "27.0000" in out
        assert "pairwise-stable after: True" in out

    def test_swaps_random_market(self, capsys):
        assert main(["swaps", "--buyers", "10", "--sellers", "3"]) == 0
        out = capsys.readouterr().out
        assert "two-stage welfare" in out

    def test_dynamic_command(self, capsys):
        assert main(["dynamic", "--epochs", "4", "--buyers", "15"]) == 0
        out = capsys.readouterr().out
        assert "cold" in out
        assert "warm" in out

    def test_distributed_with_loss(self, capsys):
        assert (
            main(
                [
                    "distributed",
                    "--buyers", "8",
                    "--sellers", "3",
                    "--policy", "default",
                    "--loss", "0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ARQ transport enabled" in out
        assert "matches centralized: True" in out

    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "replication report" in out
        assert "FAIL" not in out
        assert out.count("PASS") == 8


class TestChaosCommand:
    def test_crash_spec_parsing(self):
        from repro.distributed.faults import RestartMode

        spec = _spec(
            ["chaos", "--crash", "buyer:3@10-25/amnesia",
             "--crash", "seller:1@8"]
        )
        first, second = spec.faults.build_schedule().crashes
        assert first.agent_id == "buyer:3"
        assert (first.crash_slot, first.restart_slot) == (10, 25)
        assert first.mode is RestartMode.AMNESIA
        assert second.restart_slot is None
        assert second.mode is RestartMode.CHECKPOINT

    def test_partition_spec_parsing(self):
        spec = _spec(["chaos", "--partition", "buyer:0,buyer:1|rest@5-20"])
        fault = spec.faults.build_schedule().partitions[0]
        assert fault.groups == (frozenset({"buyer:0", "buyer:1"}),)
        assert (fault.start_slot, fault.end_slot) == (5, 20)

    def test_bad_specs_rejected(self, capsys):
        for bad in ["buyer:0", "buyer:0@x", "buyer:0@5-2", "a@3/sleepy"]:
            with pytest.raises(SystemExit):
                build_parser().parse_args(["chaos", "--crash", bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--partition", "a,b"])
        capsys.readouterr()  # swallow argparse usage noise

    def test_crash_recovery_run(self, capsys):
        assert (
            main(
                ["chaos", "--buyers", "10", "--sellers", "3", "--seed", "1",
                 "--loss", "0.2",
                 "--crash", "buyer:0@5-12",
                 "--crash", "buyer:3@6-14",
                 "--crash", "seller:1@7-15"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "status=converged" in out
        assert "crashes=3 restarts=3" in out
        assert "matches fault-free outcome: True" in out

    def test_degraded_partition_run(self, capsys):
        buyers = ",".join(f"buyer:{j}" for j in range(10))
        assert (
            main(
                ["chaos", "--partition", f"{buyers}|rest@4",
                 "--deadline-slots", "150", "--on-timeout", "degrade"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "status=degraded" in out
        assert "partition_drops=" in out

    def test_timeout_raise_reports_failure(self, tmp_path, capsys):
        buyers = ",".join(f"buyer:{j}" for j in range(10))
        assert (
            main(
                ["chaos", "--partition", f"{buyers}|rest@4",
                 "--deadline-slots", "150", "--on-timeout", "raise"]
            )
            == 1
        )
        assert "run aborted" in capsys.readouterr().out
        # The durable run, and its resume, report the abort the same way.
        run_dir = str(tmp_path / "run")
        assert (
            main(
                ["chaos", "--partition", f"{buyers}|rest@4",
                 "--deadline-slots", "150", "--on-timeout", "raise",
                 "--checkpoint-dir", run_dir]
            )
            == 1
        )
        assert "run aborted" in capsys.readouterr().out
        assert main(["resume", run_dir]) == 1
        assert "run aborted" in capsys.readouterr().out

    def test_trace_contains_fault_events(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        assert (
            main(
                ["chaos", "--buyers", "8", "--sellers", "3",
                 "--crash", "buyer:2@3-9", "--trace-out", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        kinds = collections.Counter(
            json.loads(line).get("event") for line in path.read_text().splitlines()
        )
        assert kinds["sim.crash"] == 1
        assert kinds["sim.restart"] == 1
        assert kinds["sim.fault_summary"] == 1


class TestObservabilityFlags:
    def test_every_subcommand_accepts_trace_flags(self):
        for command in ["toy", "counterexample", "fig6", "distributed",
                        "chaos", "swaps", "dynamic", "report"]:
            spec = _spec([command, "--trace-out", "x.jsonl", "--metrics"])
            assert spec.telemetry.trace_out == "x.jsonl"
            assert spec.telemetry.metrics is True

    def test_toy_trace_out_writes_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "toy.jsonl"
        assert main(["toy", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out

        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]  # all valid JSON
        assert events[0]["event"] == "manifest"
        assert "versions" in events[0]

        counts = collections.Counter(e["event"] for e in events)
        # The toy run records the market and every algorithm round.
        assert counts["market.created"] == 1
        assert counts["stage1.round"] >= 1
        assert counts["stage2.transfer_round"] >= 1
        assert counts["two_stage.result"] == 1

    def test_toy_trace_round_counts_match_result(self, tmp_path, capsys):
        from repro.core.two_stage import run_two_stage
        from repro.workloads.scenarios import toy_example_market

        path = tmp_path / "toy.jsonl"
        assert main(["toy", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        counts = collections.Counter(
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        )
        result = run_two_stage(toy_example_market())
        assert counts["stage1.round"] == result.rounds_stage1
        assert counts["stage2.transfer_round"] == result.rounds_phase1
        assert counts["stage2.invitation_round"] == result.rounds_phase2

    def test_metrics_flag_prints_summary(self, capsys):
        assert main(["toy", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "-- observability summary --" in out
        assert "stage1.rounds" in out
        assert "two_stage" in out

    def test_distributed_trace_has_slot_events(self, tmp_path, capsys):
        path = tmp_path / "dist.jsonl"
        assert (
            main(
                ["distributed", "--buyers", "6", "--sellers", "2",
                 "--policy", "default", "--trace-out", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        counts = collections.Counter(e["event"] for e in events)
        assert counts["distributed.run_start"] == 1
        assert counts["sim.slot"] >= 1
        assert counts["sim.done"] == 1
        assert counts["distributed.run_end"] == 1

    def test_output_identical_without_flags(self, capsys):
        assert main(["toy"]) == 0
        plain = capsys.readouterr().out
        assert "observability summary" not in plain
        assert "trace written" not in plain


class TestSolverCommands:
    def test_solvers_list_shows_all_backends(self, capsys):
        assert main(["solvers", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "two_stage", "bruteforce", "branch_and_bound", "greedy",
            "lp_bound", "random", "college_admission", "nash_enumeration",
            "mcafee", "distributed",
        ):
            assert name in out
        assert "[heuristic]" in out
        assert "[bound_only]" in out

    def test_solvers_list_capability_filter(self, capsys):
        assert main(["solvers", "list", "--capability", "exact"]) == 0
        out = capsys.readouterr().out
        assert "bruteforce" in out
        assert "two_stage" not in out

    def test_solve_two_stage_toy(self, capsys):
        assert (
            main(["solve", "--solver", "two_stage", "--scenario", "toy",
                  "--check-stability"])
            == 0
        )
        out = capsys.readouterr().out
        assert "solver: two_stage [heuristic]" in out
        assert "welfare: 30.0000" in out
        assert "nash=True" in out
        assert "welfare_stage1=27.0" in out

    def test_solve_bound_solver(self, capsys):
        assert main(["solve", "--solver", "lp_bound", "--scenario", "toy"]) == 0
        out = capsys.readouterr().out
        assert "bound:  33.0000 (no matching produced)" in out

    def test_solve_typed_config(self, capsys):
        assert (
            main(["solve", "--solver", "college_admission", "--scenario", "toy",
                  "--config", "quota=2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "quota=2" in out

    @pytest.mark.parametrize("bad", ["x={1,2}", "x=b'1'", "x=1j"])
    def test_solve_config_values_must_be_json(self, capsys, bad):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--solver", "greedy", "--config", bad,
                  "--dry-run"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"bad config entry {bad!r}" in captured.err
        assert captured.out == ""

    def test_solve_config_values_keep_their_types(self):
        spec = _spec(["solve", "--solver", "greedy",
                      "--config", "node_budget=100000",
                      "--config", "repair=False",
                      "--config", "pair=(1, 2)",
                      "--config", "mode=fast"])
        assert spec.engine.options == {
            "node_budget": 100000, "repair": False, "pair": (1, 2),
            "mode": "fast",
        }
        assert type(spec.engine.options["pair"]) is tuple

    def test_solve_unknown_solver_fails_actionably(self, capsys):
        assert main(["solve", "--solver", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown solver 'nope'" in err
        assert "two_stage" in err

    def test_solve_unknown_config_key_fails(self, capsys):
        assert main(["solve", "--solver", "greedy", "--scenario", "toy",
                     "--config", "quota=2"]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err


class TestTraceCommands:
    """The offline `repro trace` family, end to end through main()."""

    @pytest.fixture()
    def recorded(self, tmp_path):
        """Two same-seed distributed traces plus a different-seed third."""
        paths = {}
        for name, seed in (("a", 9), ("b", 9), ("c", 10)):
            path = tmp_path / f"{name}.jsonl"
            assert (
                main(
                    [
                        "distributed",
                        "--buyers", "8",
                        "--sellers", "2",
                        "--seed", str(seed),
                        "--trace-out", str(path),
                    ]
                )
                == 0
            )
            paths[name] = str(path)
        return paths

    def test_summarize(self, recorded, capsys):
        assert main(["trace", "summarize", recorded["a"]]) == 0
        out = capsys.readouterr().out
        assert "manifest: schema v1, seed 9" in out
        assert "to convergence" in out
        assert "messages: sent=" in out

    def test_diff_same_seed_is_clean_exit_zero(self, recorded, capsys):
        assert main(["trace", "diff", recorded["a"], recorded["b"]]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_diff_different_seed_diverges_exit_one(self, recorded, capsys):
        assert main(["trace", "diff", recorded["a"], recorded["c"]]) == 1
        out = capsys.readouterr().out
        assert "divergence at canonical event" in out

    def test_export_chrome_is_loadable_json(self, recorded, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert (
            main(
                [
                    "trace", "export", recorded["a"],
                    "--format", "chrome", "--output", str(target),
                ]
            )
            == 0
        )
        document = json.loads(target.read_text())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "i" in phases  # message instants made it across

    def test_export_openmetrics_to_stdout(self, recorded, capsys):
        assert (
            main(["trace", "export", recorded["a"], "--format", "openmetrics"])
            == 0
        )
        out = capsys.readouterr().out
        assert "# EOF" in out
        assert "trace_events_msg_sent_total" in out

    def test_causality_prints_chains(self, recorded, capsys):
        assert (
            main(["trace", "causality", recorded["a"], "--agent", "seller:0"])
            == 0
        )
        out = capsys.readouterr().out
        assert "traced messages" in out
        assert "seller:0" in out
        assert "delivered" in out

    def test_missing_file_is_actionable_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", "summarize", missing]) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_corrupt_trace_reports_line_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "ok"}\n{broken\n')
        assert main(["trace", "summarize", str(bad)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_solve_trace_out_works_for_registry_backends(self, tmp_path, capsys):
        path = tmp_path / "greedy.jsonl"
        assert (
            main(
                [
                    "solve", "--solver", "greedy",
                    "--buyers", "8", "--sellers", "2", "--seed", "1",
                    "--trace-out", str(path),
                ]
            )
            == 0
        )
        assert f"trace: {path}" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "manifest"
        assert any(
            json.loads(line)["event"] == "span"
            and json.loads(line)["name"] == "solve.greedy"
            for line in lines[1:]
        )

    def test_trace_flush_every_output_identical(self, tmp_path):
        outputs = []
        for flush_every, name in ((1, "w.jsonl"), (64, "b.jsonl")):
            path = tmp_path / name
            assert (
                main(
                    [
                        "distributed",
                        "--buyers", "8", "--sellers", "2", "--seed", "3",
                        "--trace-out", str(path),
                        "--trace-flush-every", str(flush_every),
                    ]
                )
                == 0
            )
            outputs.append(str(path))
        # Behaviourally identical (timings and the manifest timestamp
        # legitimately differ): the trace toolkit's own diff must be clean.
        assert main(["trace", "diff", outputs[0], outputs[1]]) == 0


class TestProfileCommands:
    """The `repro profile` family and --profile-out, through main()."""

    @pytest.fixture()
    def profiled(self, tmp_path, capsys):
        """Two same-seed toy profiles captured via --profile-out."""
        paths = {}
        for name in ("a", "b"):
            path = tmp_path / name
            assert main(["toy", "--profile-out", str(path)]) == 0
            paths[name] = str(path)
        out = capsys.readouterr().out
        assert f"profile written to {paths['a']}" in out
        return paths

    def test_top_names_the_dominant_phase(self, profiled, capsys):
        assert main(["profile", "top", profiled["a"]]) == 0
        out = capsys.readouterr().out
        assert "stage1.mwis" in out

    def test_top_rejects_unknown_section(self, profiled, capsys):
        assert (
            main(["profile", "top", profiled["a"], "--section", "spans"])
            == 0
        )
        capsys.readouterr()
        assert main(["profile", "top", str(profiled["a"]) + "-nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_same_seed_exit_zero(self, profiled, capsys):
        assert main(["profile", "diff", profiled["a"], profiled["b"]]) == 0
        assert "counters identical" in capsys.readouterr().out

    def test_diff_missing_path_exit_two(self, profiled, tmp_path, capsys):
        missing = str(tmp_path / "gone")
        assert main(["profile", "diff", profiled["a"], missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_export_collapsed_stacks(self, tmp_path, capsys):
        trace = tmp_path / "toy.jsonl"
        assert main(["toy", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert (
            main(["trace", "export", str(trace), "--format", "collapsed"])
            == 0
        )
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            stack, _, value = line.rpartition(" ")
            assert stack and value.isdigit(), line
        # The trace's span events nest: stacks run from the root down.
        assert any(
            line.startswith("two_stage;stage1;stage1.mwis ")
            for line in out.splitlines()
        )

    def test_metrics_trace_and_profile_print_one_span_table(
        self, tmp_path, capsys
    ):
        trace, profile = str(tmp_path / "t.jsonl"), str(tmp_path / "p")
        assert main(["toy", "--trace-out", trace, "--metrics",
                     "--profile-out", profile]) == 0
        metrics_out = capsys.readouterr().out
        assert main(["trace", "summarize", trace]) == 0
        summary_out = capsys.readouterr().out
        assert main(["profile", "top", profile]) == 0
        top_out = capsys.readouterr().out

        def span_table_text(text):
            lines = text.splitlines()
            start = next(
                i for i, line in enumerate(lines) if line.startswith("span ")
            )
            end = start + 1
            while end < len(lines) and lines[end].endswith("%"):
                end += 1
            return "\n".join(lines[start:end])

        table = span_table_text(top_out)
        assert table == top_out.rstrip("\n")
        assert span_table_text(metrics_out) == table
        assert span_table_text(summary_out) == table
        names = [line.split()[0] for line in table.splitlines()[1:]]
        assert sorted(names) == sorted([
            "market.build", "two_stage", "stage1", "stage1.mwis", "stage2",
            "stage2.transfer", "stage2.invitation",
        ])

    def test_export_speedscope_is_loadable(self, tmp_path, capsys):
        trace = tmp_path / "toy.jsonl"
        assert main(["toy", "--trace-out", str(trace)]) == 0
        target = tmp_path / "prof.speedscope.json"
        assert (
            main(
                [
                    "trace", "export", str(trace),
                    "--format", "speedscope", "--output", str(target),
                ]
            )
            == 0
        )
        document = json.loads(target.read_text())
        assert "speedscope" in document["$schema"]
        assert document["profiles"][0]["type"] == "evented"
