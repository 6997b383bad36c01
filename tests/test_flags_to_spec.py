"""The flags -> RunSpec mapping, pinned one run command at a time.

Each invocation sets every spec-bound flag of its command to a
non-default value, and the expected spec is written out by hand.
``tests/run/test_one_path.py`` compares the flags against the spec they
print, so it cannot see a mapping bug both sides share; this can.
"""

from __future__ import annotations

import pytest

from repro.cli import _spec_from_args, build_parser
from repro.run.spec import (
    RUN_COMMANDS,
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    ParallelSpec,
    ProfileSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)

DURABILITY_FLAGS = ["--checkpoint-dir", "RUN", "--checkpoint-every", "4",
                    "--inject-stall-after", "9"]
DURABILITY = DurabilitySpec(
    checkpoint_dir="RUN", checkpoint_every=4, inject_stall_after=9
)


def _figure(command, seed, jobs, options):
    return RunSpec(
        command=command,
        market=MarketSpec(seed=seed),
        engine=EngineSpec(name="figure", options=options),
        parallel=ParallelSpec(jobs=jobs),
    )


CASES = {
    "fig6": (
        ["fig6", "--panel", "b", "--repetitions", "3", "--seed", "7",
         "--jobs", "2", "--csv", "--json", "out.json"],
        _figure("fig6", 7, 2, {"panel": "b", "repetitions": 3, "csv": True,
                               "json_out": "out.json"}),
    ),
    "fig7": (
        ["fig7", "--panel", "c", "--repetitions", "2", "--seed", "1",
         "--jobs", "0", "--csv", "--json", "o7.json"],
        _figure("fig7", 1, 0, {"panel": "c", "repetitions": 2, "csv": True,
                               "json_out": "o7.json"}),
    ),
    "fig8": (
        ["fig8", "--panel", "b", "--repetitions", "4", "--seed", "4",
         "--jobs", "3", "--csv", "--json", "o8.json"],
        _figure("fig8", 4, 3, {"panel": "b", "repetitions": 4, "csv": True,
                               "json_out": "o8.json"}),
    ),
    "toy": (
        ["toy", "--trace-out", "t.jsonl", "--metrics",
         "--trace-flush-every", "5", "--metrics-out", "m.om",
         "--serve-metrics", "127.0.0.1:0", "--serve-hold", "1.5",
         "--slo", "drop_rate<0.05", "--slo", "rounds_to_convergence<=40",
         "--slo-policy", "fail", "--profile-out", "prof"],
        RunSpec(
            command="toy",
            market=MarketSpec(scenario="toy"),
            telemetry=TelemetrySpec(
                trace_out="t.jsonl",
                trace_flush_every=5,
                metrics=True,
                metrics_out="m.om",
                serve_metrics="127.0.0.1:0",
                serve_hold=1.5,
                slo=("drop_rate<0.05", "rounds_to_convergence<=40"),
                slo_policy="fail",
            ),
            profile=ProfileSpec(profile_out="prof"),
        ),
    ),
    "counterexample": (
        ["counterexample", "--metrics", "--trace-out", "c.jsonl"],
        RunSpec(
            command="counterexample",
            market=MarketSpec(scenario="counterexample"),
            telemetry=TelemetrySpec(trace_out="c.jsonl", metrics=True),
        ),
    ),
    "distributed": (
        ["distributed", "--buyers", "12", "--sellers", "3", "--seed", "5",
         "--policy", "adaptive", "--loss", "0.1"],
        RunSpec(
            command="distributed",
            market=MarketSpec(buyers=12, sellers=3, seed=5),
            engine=EngineSpec(
                name="distributed", options={"policy": "adaptive"}
            ),
            faults=FaultSpec(loss=0.1),
        ),
    ),
    "chaos": (
        ["chaos", "--buyers", "12", "--sellers", "4", "--seed", "2",
         "--policy", "adaptive", "--loss", "0.05",
         "--crash", "buyer:3@10-25/amnesia", "--crash", "seller:1@8",
         "--partition", "buyer:1,buyer:0|rest@5-20",
         "--deadline-slots", "300", "--on-timeout", "raise"]
        + DURABILITY_FLAGS,
        RunSpec(
            command="chaos",
            market=MarketSpec(buyers=12, sellers=4, seed=2),
            engine=EngineSpec(
                name="distributed", options={"policy": "adaptive"}
            ),
            faults=FaultSpec(
                loss=0.05,
                crashes=("buyer:3@10-25/amnesia", "seller:1@8"),
                partitions=("buyer:0,buyer:1@5-20",),
                deadline_slots=300,
                on_timeout="raise",
            ),
            durability=DURABILITY,
        ),
    ),
    "swaps": (
        ["swaps", "--buyers", "9", "--sellers", "3", "--seed", "4",
         "--counterexample"],
        RunSpec(
            command="swaps",
            market=MarketSpec(
                scenario="counterexample", buyers=9, sellers=3, seed=4
            ),
            engine=EngineSpec(name="swaps"),
        ),
    ),
    "dynamic": (
        ["dynamic", "--epochs", "5", "--buyers", "11", "--sellers", "3",
         "--arrival-rate", "2.5", "--departure-prob", "0.2",
         "--drift", "0.1", "--seed", "6", "--strategy", "cold"]
        + DURABILITY_FLAGS,
        RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=11,
                sellers=3,
                seed=6,
                workload=WorkloadSpec(
                    epochs=5,
                    arrival_rate=2.5,
                    departure_prob=0.2,
                    drift=0.1,
                    strategy="cold",
                ),
            ),
            engine=EngineSpec(name="dynamic"),
            durability=DURABILITY,
        ),
    ),
    "report": (
        ["report", "--seed", "9"],
        RunSpec(command="report", market=MarketSpec(seed=9)),
    ),
    "solve": (
        ["solve", "--solver", "greedy", "--scenario", "toy",
         "--buyers", "9", "--sellers", "2", "--seed", "3",
         "--check-stability", "--config", "quota=4",
         "--config", "repair=False", "--config", "mode=fast"],
        RunSpec(
            command="solve",
            market=MarketSpec(scenario="toy", buyers=9, sellers=2, seed=3),
            engine=EngineSpec(
                name="greedy",
                options={
                    "quota": 4,
                    "repair": False,
                    "mode": "fast",
                    "check_stability": True,
                },
            ),
        ),
    ),
}


def test_every_run_command_has_a_case():
    assert set(CASES) == set(RUN_COMMANDS)


@pytest.mark.parametrize("command", sorted(CASES))
def test_flags_map_onto_the_spec(command):
    argv, expected = CASES[command]
    assert _spec_from_args(build_parser().parse_args(argv)) == expected
