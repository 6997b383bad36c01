"""Flag-inventory snapshot of the CLI after the parent-parser refactor.

The shared option groups (observability, durability, ``--dry-run``) are
now defined once in parent parsers; this snapshot pins every
subcommand's complete flag set so a refactor that accidentally drops a
flag from one subcommand -- the exact regression parent parsers invite
-- fails loudly with the missing flag's name.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _spec_from_args, build_parser
from repro.run.spec import RUN_COMMANDS

#: Flags the observability parent must contribute to every run command.
OBS_FLAGS = (
    "--trace-out",
    "--metrics",
    "--trace-flush-every",
    "--metrics-out",
    "--serve-metrics",
    "--serve-hold",
    "--slo",
    "--slo-policy",
    "--profile-out",
)

#: Flags the durability parent contributes to checkpointable commands.
DURABILITY_FLAGS = (
    "--checkpoint-dir",
    "--checkpoint-every",
    "--inject-stall-after",
)

#: The full expected flag inventory, per subcommand (options only;
#: positionals are asserted separately).  Keep sorted within each entry.
FLAG_SNAPSHOT = {
    "fig6": ("--csv", "--dry-run", "--jobs", "--json", "--panel",
             "--repetitions", "--seed") + OBS_FLAGS,
    "fig7": ("--csv", "--dry-run", "--jobs", "--json", "--panel",
             "--repetitions", "--seed") + OBS_FLAGS,
    "fig8": ("--csv", "--dry-run", "--jobs", "--json", "--panel",
             "--repetitions", "--seed") + OBS_FLAGS,
    "toy": ("--dry-run",) + OBS_FLAGS,
    "counterexample": ("--dry-run",) + OBS_FLAGS,
    "distributed": ("--buyers", "--dry-run", "--loss", "--policy", "--seed",
                    "--sellers") + OBS_FLAGS,
    "chaos": ("--buyers", "--crash", "--deadline-slots", "--dry-run",
              "--loss", "--on-timeout", "--partition", "--policy", "--seed",
              "--sellers") + OBS_FLAGS + DURABILITY_FLAGS,
    "swaps": ("--buyers", "--counterexample", "--dry-run", "--seed",
              "--sellers") + OBS_FLAGS,
    "dynamic": ("--arrival-rate", "--buyers", "--departure-prob", "--drift",
                "--dry-run", "--epochs", "--seed", "--sellers",
                "--strategy") + OBS_FLAGS + DURABILITY_FLAGS,
    "report": ("--dry-run", "--seed") + OBS_FLAGS,
    "solve": ("--buyers", "--check-stability", "--config", "--dry-run",
              "--scenario", "--seed", "--sellers", "--solver") + OBS_FLAGS,
    "solvers": ("--capability",) + OBS_FLAGS,
    "resume": OBS_FLAGS,
    "supervise": ("--backoff", "--deadline", "--max-retries", "--retry-seed",
                  "--run-dir", "--stall-timeout") + OBS_FLAGS,
    "run": ("--dry-run",),
    "watch": ("--frames", "--interval", "--plain", "--profile"),
}


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("parser has no subcommands")


def _option_strings(parser: argparse.ArgumentParser):
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flags.update(s for s in action.option_strings if s.startswith("--"))
    return flags


@pytest.fixture(scope="module")
def commands():
    return _subparsers(build_parser())


def test_subcommand_inventory_is_complete(commands):
    assert set(commands) == set(FLAG_SNAPSHOT) | {"trace", "profile"}


@pytest.mark.parametrize("command", sorted(FLAG_SNAPSHOT))
def test_flag_snapshot(commands, command):
    expected = set(FLAG_SNAPSHOT[command])
    actual = _option_strings(commands[command])
    missing = expected - actual
    extra = actual - expected
    assert not missing, f"{command} lost flags: {sorted(missing)}"
    assert not extra, f"{command} grew undocumented flags: {sorted(extra)}"


def test_every_run_command_has_observability_and_dry_run(commands):
    for command in RUN_COMMANDS:
        flags = _option_strings(commands[command])
        assert set(OBS_FLAGS) <= flags, command
        assert "--dry-run" in flags, command


def test_checkpointable_commands_have_durability_flags(commands):
    for command in ("chaos", "dynamic"):
        assert set(DURABILITY_FLAGS) <= _option_strings(commands[command])
    for command in ("toy", "distributed", "solve"):
        assert not set(DURABILITY_FLAGS) & _option_strings(commands[command])


def test_run_subcommand_takes_a_spec_positional(commands):
    positionals = [
        action.dest
        for action in commands["run"]._actions
        if not action.option_strings
    ]
    assert positionals == ["spec"]


def test_trace_subcommands_survive(commands):
    assert set(_subparsers(commands["trace"])) == {
        "summarize",
        "diff",
        "export",
        "causality",
    }


def test_shared_flags_keep_their_defaults():
    # Parent parsers must not perturb the documented defaults.
    spec = _spec_from_args(build_parser().parse_args(["chaos"]))
    assert spec.telemetry.trace_flush_every == 1
    assert spec.telemetry.slo == ()
    assert spec.telemetry.slo_policy == "warn"
    assert spec.durability.checkpoint_every == 10
    assert spec.faults.on_timeout == "degrade"


def test_append_flag_defaults_are_not_shared_between_parses(commands):
    # Appending to a shared default list would leak --slo values across
    # parses through the parent parser; the append action must copy.
    parser = build_parser()
    first = _spec_from_args(
        parser.parse_args(["toy", "--slo", "drop_rate<0.5"])
    )
    second = _spec_from_args(build_parser().parse_args(["toy"]))
    assert first.telemetry.slo == ("drop_rate<0.5",)
    assert second.telemetry.slo == ()
