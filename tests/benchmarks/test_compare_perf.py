"""Unit tests for the perf gate's rules and failure attribution.

``benchmarks/compare_perf.py`` must fail a run whose sweep report shows
``parallel_speedup <= 1`` on a multi-core machine, and skip the rule
cleanly on single-core runners where beating serial is impossible.
A failing kernels report must *explain itself*: deterministic counter
drift is named an algorithmic regression, wall-time movement with flat
counters is named environment noise, and every timing failure carries
the environment and sample spread it was judged under.
"""

from __future__ import annotations

import json
import os

from benchmarks.compare_perf import (
    REQUIRED_BASELINE_CPUS,
    SPREAD_WARN,
    attribution_lines,
    check_baseline_env,
    check_parallel_speedup,
    main,
    sample_spread,
)


def _sweep_report(speedup, cpu_count, **overrides):
    report = {
        "benchmark": "sweep",
        "serial": {"median_s": 0.40},
        "parallel": {"median_s": 0.40 / speedup if speedup else 0.40},
        "parallel_speedup": speedup,
        "identical_rows": True,
        "jobs": 2,
        "env": {"python": "3.11.7", "cpu_count": cpu_count, "jobs": 2},
    }
    report.update(overrides)
    return report


class TestCheckParallelSpeedup:
    def test_single_core_skips_cleanly(self):
        assert check_parallel_speedup(_sweep_report(0.67, cpu_count=1)) is None

    def test_multi_core_winning_passes(self):
        assert check_parallel_speedup(_sweep_report(1.62, cpu_count=4)) is None

    def test_multi_core_losing_fails(self):
        failure = check_parallel_speedup(_sweep_report(0.93, cpu_count=4))
        assert failure is not None
        assert "0.93x" in failure and "4-core" in failure

    def test_exactly_one_is_not_a_win(self):
        assert check_parallel_speedup(_sweep_report(1.0, cpu_count=2))

    def test_missing_speedup_fails_on_multi_core(self):
        report = _sweep_report(1.5, cpu_count=8)
        del report["parallel_speedup"]
        failure = check_parallel_speedup(report)
        assert failure is not None and "missing" in failure

    def test_unknown_environment_skips(self):
        # A report with no env block (or a mangled one) cannot prove the
        # machine was multi-core, so the rule must not fire.
        report = _sweep_report(0.5, cpu_count=1)
        del report["env"]
        assert check_parallel_speedup(report) is None
        assert (
            check_parallel_speedup(_sweep_report(0.5, cpu_count="n/a")) is None
        )


class TestGateIntegration:
    """End-to-end through ``compare_perf.main`` on tmp report dirs."""

    def _write(self, directory, report):
        os.makedirs(directory, exist_ok=True)
        with open(
            os.path.join(directory, "BENCH_sweep.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(report, handle)

    def _run(self, tmp_path, baseline, current, *extra):
        base_dir = str(tmp_path / "baseline")
        cur_dir = str(tmp_path / "current")
        self._write(base_dir, baseline)
        self._write(cur_dir, current)
        return main([cur_dir, "--baseline-dir", base_dir, *extra])

    def test_multi_core_regression_fails(self, tmp_path, capsys):
        baseline = _sweep_report(1.5, cpu_count=4)
        current = _sweep_report(0.85, cpu_count=4)
        assert self._run(tmp_path, baseline, current) == 1
        assert "parallel_speedup" in capsys.readouterr().out

    def test_rule_applies_in_ratios_only_mode(self, tmp_path):
        # The rule keys off the *current* machine, so CI's ratios-only
        # mode must enforce it too.
        baseline = _sweep_report(1.5, cpu_count=4)
        current = _sweep_report(0.85, cpu_count=4)
        assert self._run(tmp_path, baseline, current, "--ratios-only") == 1

    def test_single_core_current_passes(self, tmp_path):
        # Baseline from a multi-core box, current run on a single-core
        # runner (CI's cross-machine ratios-only mode): the rule skips,
        # nothing else regressed, gate passes.
        baseline = _sweep_report(1.5, cpu_count=4)
        current = _sweep_report(0.67, cpu_count=1)
        assert self._run(tmp_path, baseline, current, "--ratios-only") == 0

    def test_multi_core_win_passes(self, tmp_path):
        baseline = _sweep_report(1.2, cpu_count=4)
        current = _sweep_report(1.4, cpu_count=4)
        assert self._run(tmp_path, baseline, current) == 0


class TestCheckBaselineEnv:
    """The env-metadata ratchet on the committed sweep baseline."""

    def test_satisfying_baseline_passes(self):
        report = _sweep_report(0.9, cpu_count=REQUIRED_BASELINE_CPUS)
        assert check_baseline_env(report) is None

    def test_below_ratchet_fails(self):
        report = _sweep_report(1.6, cpu_count=1)
        failure = check_baseline_env(report, required_cpus=2)
        assert failure is not None
        assert "cpu_count 1" in failure and "required 2" in failure

    def test_missing_env_block_fails(self):
        report = _sweep_report(1.6, cpu_count=4)
        del report["env"]
        failure = check_baseline_env(report)
        assert failure is not None and "no env.cpu_count" in failure

    def test_missing_cpu_count_fails(self):
        report = _sweep_report(1.6, cpu_count=4)
        del report["env"]["cpu_count"]
        assert check_baseline_env(report) is not None

    def test_non_integer_cpu_count_fails(self):
        failure = check_baseline_env(_sweep_report(1.6, cpu_count="n/a"))
        assert failure is not None and "not an integer" in failure

    def test_gate_rejects_metadata_regressed_baseline(self, tmp_path, capsys):
        # A baseline stripped of its env record must fail the gate even
        # when every timing is fine: losing the metadata would silently
        # disable the multi-core parallel_speedup rule forever.
        baseline = _sweep_report(0.9, cpu_count=1)
        del baseline["env"]
        current = _sweep_report(0.9, cpu_count=1)
        gate = TestGateIntegration()
        assert gate._run(tmp_path, baseline, current, "--ratios-only") == 1
        assert "env.cpu_count" in capsys.readouterr().out


def _kernel_side(median, counters=None, spans=None, times=None):
    times = times if times is not None else [median, median, median]
    side = {
        "median_s": median,
        "min_s": min(times),
        "max_s": max(times),
        "stdev_s": 0.0,
        "times_s": times,
        "counters": counters
        if counters is not None
        else {"soa.popcount_word_ops": 85000, "soa.reduceat_row_ops": 23000},
    }
    if spans is not None:
        side["spans"] = spans
    else:
        side["spans"] = [
            {
                "name": "stage1.mwis",
                "count": 40,
                "wall_s": median * 0.8,
                "cpu_s": median * 0.8,
                "self_s": median * 0.8,
            },
            {
                "name": "stage1",
                "count": 1,
                "wall_s": median,
                "cpu_s": median,
                "self_s": median * 0.2,
            },
        ]
    return side


def _kernels_report(fast_median=0.010, reference_median=0.050, **side_kwargs):
    fast = _kernel_side(fast_median, **side_kwargs)
    reference = _kernel_side(reference_median)
    return {
        "benchmark": "kernels",
        "fast": fast,
        "reference": reference,
        "speedup": reference["median_s"] / fast["median_s"],
        "identical_matching": True,
        "env": {"python": "3.11.7", "cpu_count": 1, "jobs": 2},
    }


class TestAttribution:
    def test_counter_drift_is_named_algorithmic(self):
        baseline = _kernels_report()
        current = _kernels_report(
            fast_median=0.021,
            counters={
                "soa.popcount_word_ops": 180000,
                "soa.reduceat_row_ops": 23000,
            },
        )
        text = "\n".join(attribution_lines(baseline, current))
        assert "attribution[fast]" in text
        assert "soa.popcount_word_ops 85000 -> 180000 (2.12x)" in text
        assert "algorithmic regression" in text

    def test_flat_counters_with_moved_spans_read_as_noise(self):
        baseline = _kernels_report()
        current = _kernels_report(fast_median=0.021)
        text = "\n".join(attribution_lines(baseline, current))
        assert "stage1.mwis +110%" in text
        assert "environment noise" in text

    def test_reports_without_capture_say_so(self):
        lines = attribution_lines(
            {"fast": {"median_s": 0.01}}, {"fast": {"median_s": 0.02}}
        )
        assert len(lines) == 1 and "attribution unavailable" in lines[0]

    def test_gate_failure_includes_attribution(self, tmp_path, capsys):
        # The acceptance scenario: a synthetic kernel slowdown with
        # counter drift must fail the gate AND name the phase and the
        # counter delta in its output.
        baseline = _kernels_report()
        current = _kernels_report(
            fast_median=0.05,
            counters={
                "soa.popcount_word_ops": 180000,
                "soa.reduceat_row_ops": 23000,
            },
        )
        base_dir, cur_dir = str(tmp_path / "b"), str(tmp_path / "c")
        for directory, report in ((base_dir, baseline), (cur_dir, current)):
            os.makedirs(directory)
            with open(
                os.path.join(directory, "BENCH_kernels.json"),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(report, handle)
        assert main([cur_dir, "--baseline-dir", base_dir]) == 1
        out = capsys.readouterr().out
        assert "fast.median_s regressed" in out
        assert "env.cpu_count=1" in out
        assert "soa.popcount_word_ops 85000 -> 180000" in out
        assert "algorithmic regression" in out


class TestNoiseRules:
    def test_sample_spread(self):
        assert sample_spread(
            {"median_s": 0.10, "times_s": [0.09, 0.10, 0.14]}
        ) == (0.14 - 0.09) / 0.10
        assert sample_spread({"median_s": 0.10}) is None
        assert sample_spread({"median_s": 0.10, "times_s": [0.1]}) is None

    def test_high_spread_warns_without_failing(self, tmp_path, capsys):
        baseline = _kernels_report()
        current = _kernels_report(
            fast_median=0.010, times=[0.006, 0.010, 0.013]
        )
        base_dir = str(tmp_path / "baseline")
        cur_dir = str(tmp_path / "current")
        for directory, report in ((base_dir, baseline), (cur_dir, current)):
            os.makedirs(directory)
            with open(
                os.path.join(directory, "BENCH_kernels.json"),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(report, handle)
        assert main([cur_dir, "--baseline-dir", base_dir]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out and "spread 70%" in out

    def test_noise_floor_guard_downgrades_noisy_regression(
        self, tmp_path, capsys
    ):
        # Median over the ceiling, but the minimum still under it on a
        # high-spread sample: the machine demonstrably reaches the old
        # speed, so the gate warns instead of failing.
        baseline = _kernels_report(fast_median=0.010)
        current = _kernels_report(
            fast_median=0.014, times=[0.009, 0.014, 0.030]
        )
        # The measured ratio would wobble with the same noise; pin it so
        # this test isolates the median-regression rule.
        current["speedup"] = baseline["speedup"]
        base_dir, cur_dir = str(tmp_path / "b"), str(tmp_path / "c")
        for directory, report in ((base_dir, baseline), (cur_dir, current)):
            os.makedirs(directory)
            with open(
                os.path.join(directory, "BENCH_kernels.json"),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(report, handle)
        assert main([cur_dir, "--baseline-dir", base_dir]) == 0
        out = capsys.readouterr().out
        assert "noise-floor guard" in out and "rerun to confirm" in out

    def test_low_spread_regression_still_fails(self, tmp_path, capsys):
        baseline = _kernels_report(fast_median=0.010)
        current = _kernels_report(
            fast_median=0.014, times=[0.0138, 0.014, 0.0142]
        )
        base_dir, cur_dir = str(tmp_path / "b"), str(tmp_path / "c")
        for directory, report in ((base_dir, baseline), (cur_dir, current)):
            os.makedirs(directory)
            with open(
                os.path.join(directory, "BENCH_kernels.json"),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(report, handle)
        assert main([cur_dir, "--baseline-dir", base_dir]) == 1
        assert "spread 3%" in capsys.readouterr().out

    def test_spread_warn_threshold_is_fifteen_percent(self):
        assert SPREAD_WARN == 0.15


class TestCommittedBaselines:
    """The committed baselines must themselves satisfy the gate."""

    def test_committed_sweep_reports_pass_the_rule(self):
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for rel in (
            "benchmarks/baselines/BENCH_sweep.json",
            "benchmarks/baselines/quick/BENCH_sweep.json",
        ):
            with open(os.path.join(root, rel), "r", encoding="utf-8") as handle:
                report = json.load(handle)
            assert check_parallel_speedup(report) is None, rel
            # Honest metadata: the env block records the producing
            # machine and the sweep's worker count, and satisfies the
            # REQUIRED_BASELINE_CPUS ratchet (bumped whenever a
            # beefier-machine baseline is committed).
            assert check_baseline_env(report) is None, rel
            assert report["env"]["cpu_count"] >= REQUIRED_BASELINE_CPUS
            assert report["env"]["jobs"] >= 2
