"""Command-line interface: ``spectrum-matching <command>``.

Commands
--------
``fig6`` / ``fig7`` / ``fig8``
    Regenerate one panel of the corresponding paper figure and print the
    series as a table (optionally CSV).
``toy``
    Replay the paper's toy example (Figs. 1-2) with the full
    round-by-round trace.
``counterexample``
    Demonstrate Section III-D: a Nash-stable output that is
    pairwise-blocked and not buyer-optimal.
``distributed``
    Run the message-level protocol (Section IV) on a random market and
    compare transition policies.
``chaos``
    Run the protocol under injected faults -- agent crash/restart
    schedules, network partitions, deadlines with graceful degradation
    (see the Fault model section of ``docs/architecture.md``).
``solve``
    Run any registered solver (``--solver NAME``) on a scenario or a
    random market and print its canonical report.
``solvers``
    List the solver registry (``solvers list``), optionally filtered by
    capability.
``run``
    Execute a declarative :class:`~repro.run.spec.RunSpec` JSON file --
    the spec any run subcommand prints with ``--dry-run``.  One spec file
    replaces an arbitrarily flag-heavy invocation; ``profile run SPEC``
    is ``run`` with a profile section, followed by the top span table.
``trace``
    Offline trace analysis: ``summarize`` one JSONL trace, ``diff`` two
    traces to the first behavioural divergence (with its causal message
    chain), ``export`` to Chrome trace JSON or OpenMetrics text, and
    ``causality`` to explain one agent's outcome as message chains.

Every run command additionally accepts ``--trace-out PATH`` (stream a
JSONL event trace with a run manifest), ``--metrics`` (print a metrics
and span summary after the command's normal output) and ``--dry-run``
(print the equivalent RunSpec JSON instead of executing); see the
Observability and Run model sections of ``docs/architecture.md``.

Internally every run subcommand is a thin adapter.  Each flag that sets
a spec field names that field as its argparse ``dest`` (``--buyers`` is
``market.buyers``, ``--crash`` is ``faults.crashes``), per-command
constants come from ``set_defaults``, and :func:`_spec_from_args` nests
the dotted keys into sections and parses them with the strict
:meth:`~repro.run.spec.RunSpec.from_dict` a spec file goes through.  Every
command runs inside the one :class:`~repro.run.session.RunLifecycle`.  A
single-run command's body is a presenter: it prints the result of
:meth:`~repro.run.session.Session.execute`, the dispatch ``Session.run()``
executes.  The comparisons -- ``distributed`` (centralized reference,
then each policy), ``chaos`` (fault-free twin, then the faulty run) and
``report`` -- are composites on the same builders.  So ``repro toy``,
``repro run toy.json`` and ``repro profile run toy.json`` print the same.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.stability import (
    is_nash_stable,
    is_pairwise_stable,
    pairwise_blocking_pairs,
)
from repro.core.two_stage import run_two_stage
from repro.distributed.protocol import run_distributed_matching
from repro.ioutil import canonical_json
from repro.obs import format_metrics_summary, get_recorder
from repro.run.session import (
    RunLifecycle,
    Session,
    build_market,
    build_recorder,
)
from repro.run.spec import (
    POLICIES,
    RUN_COMMANDS,
    SPEC_SCHEMA_VERSION,
    MarketSpec,
    ProfileSpec,
    RunSpec,
    TelemetrySpec,
)
from repro.workloads.scenarios import paper_simulation_market

__all__ = ["main", "build_parser"]

# ----------------------------------------------------------------------
# Shared parent parsers: each cross-command flag is defined exactly once,
# with no default of its own (an absent flag leaves the spec's default)
# ----------------------------------------------------------------------
def _observability_parent() -> argparse.ArgumentParser:
    """The observability flags every run subcommand shares."""
    parent = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--trace-out",
        dest="telemetry.trace_out",
        metavar="PATH",
        help="write a JSONL event trace (manifest line first) to PATH",
    )
    group.add_argument(
        "--metrics",
        dest="telemetry.metrics",
        action="store_true",
        help="print a metrics/span summary after the command output",
    )
    group.add_argument(
        "--trace-flush-every",
        dest="telemetry.trace_flush_every",
        type=int,
        metavar="N",
        help=(
            "buffer N events per trace write (default 1: write-through; "
            "raise for large chaos runs)"
        ),
    )
    group.add_argument(
        "--metrics-out",
        dest="telemetry.metrics_out",
        metavar="PATH",
        help="write the final metrics snapshot as OpenMetrics text to PATH",
    )
    group.add_argument(
        "--serve-metrics",
        dest="telemetry.serve_metrics",
        metavar="[HOST:]PORT",
        help=(
            "serve live telemetry over HTTP while the command runs "
            "(/metrics, /health, /runs, /slo); port 0 picks a free port"
        ),
    )
    group.add_argument(
        "--serve-hold",
        dest="telemetry.serve_hold",
        type=float,
        metavar="SECONDS",
        help=(
            "keep the telemetry server up SECONDS after the command "
            "finishes (lets scrapers read the final state)"
        ),
    )
    group.add_argument(
        "--slo",
        dest="telemetry.slo",
        action="append",
        metavar="RULE",
        help=(
            "declarative SLO rule, e.g. rounds_to_convergence<=40, "
            "drop_rate<0.05, slot_age_s<=5, welfare_regression_pct<=10. "
            "Repeatable; evaluated on every scrape and once at the end"
        ),
    )
    group.add_argument(
        "--slo-policy",
        dest="telemetry.slo_policy",
        choices=["warn", "fail"],
        help=(
            "what a violated SLO does to the exit code: warn (report "
            "only, default) or fail (exit nonzero)"
        ),
    )
    group.add_argument(
        "--profile-out",
        dest="profile.profile_out",
        metavar="DIR",
        help=(
            "profile the run (cProfile + tracemalloc + kernel cost "
            "counters) and write profile.json / profile.collapsed / "
            "profile.speedscope.json into DIR"
        ),
    )
    return parent


def _durability_parent() -> argparse.ArgumentParser:
    """The durable-run flags shared by checkpointable subcommands."""
    parent = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    group = parent.add_argument_group("durability")
    group.add_argument(
        "--checkpoint-dir",
        dest="durability.checkpoint_dir",
        metavar="RUN_DIR",
        help=(
            "run durably: write a WAL, periodic state checkpoints and the "
            "run's own trace into RUN_DIR (resume later with "
            "'repro resume RUN_DIR')"
        ),
    )
    group.add_argument(
        "--checkpoint-every",
        dest="durability.checkpoint_every",
        type=int,
        metavar="N",
        help="snapshot state every N committed epochs/slots (default 10)",
    )
    group.add_argument(
        "--inject-stall-after",
        dest="durability.inject_stall_after",
        type=int,
        metavar="N",
        help=(
            "testing hook: stop making progress after N WAL records (the "
            "run then waits to be SIGKILLed; requires --checkpoint-dir)"
        ),
    )
    return parent


def _dry_run_parent() -> argparse.ArgumentParser:
    """The ``--dry-run`` flag every spec-driven subcommand shares."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "print the run's declarative spec as JSON and exit without "
            "executing (feed it back with 'repro run SPEC.json')"
        ),
    )
    return parent


def _parse_crash_spec(spec: str) -> str:
    """Canonicalise a ``AGENT@CRASH[-RESTART][/MODE]`` crash spec."""
    from repro.distributed.faults import CrashFault
    from repro.errors import SimulationError

    try:
        return CrashFault.parse(spec).to_spec()
    except SimulationError as exc:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r} "
            f"(expected AGENT@CRASH[-RESTART][/checkpoint|amnesia]): {exc}"
        )


def _parse_partition_spec(spec: str) -> str:
    """Canonicalise a ``G1|G2|...@START[-END]`` partition spec."""
    from repro.distributed.faults import PartitionFault
    from repro.errors import SimulationError

    try:
        return PartitionFault.parse(spec).to_spec()
    except SimulationError as exc:
        raise argparse.ArgumentTypeError(
            f"bad partition spec {spec!r} "
            f"(expected G1|G2|...@START[-END]): {exc}"
        )


def _parse_config_entry(text: str) -> Tuple[str, object]:
    """Parse one ``--config KEY=VALUE`` pair.

    Values go through :func:`ast.literal_eval` so numbers, booleans and
    tuples arrive typed (``node_budget=100000``, ``repair=False``);
    anything that does not parse stays a plain string.  A literal the
    spec cannot serialise (a set, bytes, a complex number) is refused.
    """
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"bad config entry {text!r} (expected KEY=VALUE)"
        )
    try:
        parsed: object = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        parsed = value
    try:
        canonical_json(parsed)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"bad config entry {text!r} (VALUE must be a JSON value: a "
            f"number, string, boolean, None, list, tuple or dict)"
        )
    return key, parsed


class _EngineOption(argparse.Action):
    """``--config KEY=VALUE`` sets the spec field ``engine.options.KEY``."""

    def __call__(self, parser, namespace, values, option_string=None):
        key, value = values
        setattr(namespace, f"engine.options.{key}", value)


def _add_size(parser, buyers: int, sellers: int) -> None:
    """``--buyers``/``--sellers`` with this command's defaults."""
    parser.add_argument(
        "--buyers", type=int, default=buyers, dest="market.buyers",
        metavar="BUYERS",
    )
    parser.add_argument(
        "--sellers", type=int, default=sellers, dest="market.sellers",
        metavar="SELLERS",
    )


def _add_seed(parser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, dest="market.seed", metavar="SEED"
    )


def _add_loss(parser) -> None:
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        dest="faults.loss",
        metavar="LOSS",
        help="message loss rate in [0, 1]; enables the ARQ transport",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="spectrum-matching",
        description="Spectrum Matching (ICDCS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    obs = _observability_parent()
    durability = _durability_parent()
    dry_run = _dry_run_parent()
    run_parents = [obs, dry_run]

    for figure in (6, 7, 8):
        fig_parser = sub.add_parser(
            f"fig{figure}",
            help=f"regenerate a panel of the paper's Fig. {figure}",
            parents=run_parents,
        )
        fig_parser.add_argument(
            "--panel",
            choices=["a", "b", "c"],
            default="a",
            dest="engine.options.panel",
            help="figure panel",
        )
        fig_parser.add_argument(
            "--repetitions",
            type=int,
            default=None,
            dest="engine.options.repetitions",
            metavar="REPETITIONS",
            help="Monte-Carlo repetitions per point (default: panel spec)",
        )
        _add_seed(fig_parser)
        fig_parser.add_argument(
            "--jobs",
            type=int,
            default=None,
            dest="parallel.jobs",
            metavar="JOBS",
            help="worker processes for the sweep (default: serial; 0 = all cores)",
        )
        fig_parser.add_argument(
            "--csv",
            action="store_true",
            dest="engine.options.csv",
            help="emit CSV instead of a table",
        )
        fig_parser.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            dest="engine.options.json_out",
            help="also save the full series (mean/std/CI) as JSON",
        )
        fig_parser.set_defaults(**{"engine.name": "figure"})

    sub.add_parser(
        "toy",
        help="replay the paper's toy example (Figs. 1-2)",
        parents=run_parents,
    ).set_defaults(**{"market.scenario": "toy"})
    sub.add_parser(
        "counterexample",
        help="show the Section III-D pairwise-instability counterexample",
        parents=run_parents,
    ).set_defaults(**{"market.scenario": "counterexample"})

    dist = sub.add_parser(
        "distributed",
        help="run the Section IV message-level protocol",
        parents=run_parents,
    )
    _add_size(dist, buyers=30, sellers=5)
    _add_seed(dist)
    dist.add_argument(
        "--policy",
        choices=[*POLICIES, "both"],
        default="both",
        dest="engine.options.policy",
    )
    _add_loss(dist)
    dist.set_defaults(**{"engine.name": "distributed"})

    chaos = sub.add_parser(
        "chaos",
        help="run the protocol under injected crashes and partitions",
        description=(
            "Run the Section IV protocol with a declarative fault schedule "
            "and report convergence, welfare and fault accounting."
        ),
        parents=[obs, durability, dry_run],
    )
    _add_size(chaos, buyers=10, sellers=3)
    _add_seed(chaos)
    chaos.add_argument(
        "--policy",
        choices=POLICIES,
        default="default",
        dest="engine.options.policy",
    )
    _add_loss(chaos)
    chaos.add_argument(
        "--crash",
        action="append",
        default=[],
        dest="faults.crashes",
        metavar="AGENT@CRASH[-RESTART][/MODE]",
        type=_parse_crash_spec,
        help=(
            "crash AGENT at slot CRASH; restart at slot RESTART (omit for a "
            "permanent crash) in MODE 'checkpoint' (default) or 'amnesia'. "
            "Repeatable. Example: buyer:3@10-25/amnesia"
        ),
    )
    chaos.add_argument(
        "--partition",
        action="append",
        default=[],
        dest="faults.partitions",
        metavar="G1|G2|...@START[-END]",
        type=_parse_partition_spec,
        help=(
            "partition the population into '|'-separated groups of "
            "comma-separated agent ids over [START, END) (omit END for a "
            "partition that never heals); unnamed agents form an implicit "
            "extra group. Repeatable. Example: 'buyer:0,buyer:1|rest@5-20'"
        ),
    )
    chaos.add_argument(
        "--deadline-slots",
        type=int,
        default=None,
        dest="faults.deadline_slots",
        metavar="DEADLINE_SLOTS",
        help="slot budget before the timeout policy kicks in",
    )
    chaos.add_argument(
        "--on-timeout",
        choices=["raise", "degrade"],
        default="degrade",
        dest="faults.on_timeout",
        help=(
            "what to do at the deadline: abort loudly, or return the best "
            "interference-free partial matching (default: degrade)"
        ),
    )
    chaos.set_defaults(**{"engine.name": "distributed"})

    swaps = sub.add_parser(
        "swaps",
        help="run Stage III coordinated swaps (Section III-D future work)",
        parents=run_parents,
    )
    _add_size(swaps, buyers=14, sellers=4)
    _add_seed(swaps)
    swaps.add_argument(
        "--counterexample",
        action="store_const",
        const="counterexample",
        default="paper",
        dest="market.scenario",
        help="use the frozen Section III-D instance instead of a random market",
    )
    swaps.set_defaults(**{"engine.name": "swaps"})

    dyn = sub.add_parser(
        "dynamic",
        help="simulate an evolving market (warm vs cold re-matching)",
        parents=[obs, durability, dry_run],
    )
    dyn.add_argument(
        "--epochs", type=int, default=12, dest="market.workload.epochs",
        metavar="EPOCHS",
    )
    _add_size(dyn, buyers=40, sellers=5)
    dyn.add_argument(
        "--arrival-rate", type=float, default=5.0,
        dest="market.workload.arrival_rate", metavar="ARRIVAL_RATE",
    )
    dyn.add_argument(
        "--departure-prob", type=float, default=0.12,
        dest="market.workload.departure_prob", metavar="DEPARTURE_PROB",
    )
    dyn.add_argument(
        "--drift", type=float, default=0.05, dest="market.workload.drift",
        metavar="DRIFT",
    )
    _add_seed(dyn)
    dyn.add_argument(
        "--strategy",
        choices=["warm", "cold", "both"],
        default="both",
        dest="market.workload.strategy",
        help=(
            "re-matching strategy to run (default: both, for the "
            "warm-vs-cold comparison; durable runs need a single one)"
        ),
    )
    dyn.set_defaults(**{"engine.name": "dynamic"})

    resume = sub.add_parser(
        "resume",
        help="continue a durable run from its latest checkpoint",
        description=(
            "Crash-consistent resume: reload RUN_DIR's newest valid "
            "checkpoint, truncate the trace and WAL to its recorded "
            "offsets, replay deterministically (verifying every "
            "re-executed step against the write-ahead log) and finish the "
            "run. Already-completed runs are reported idempotently."
        ),
        parents=[obs],
    )
    resume.add_argument(
        "run_dir", metavar="RUN_DIR", help="durable run directory"
    )

    supervise = sub.add_parser(
        "supervise",
        help="run a command under stall detection and bounded retries",
        description=(
            "Launch COMMAND as a child process; SIGKILL it if its durable "
            "run directory's WAL stops advancing for --stall-timeout "
            "seconds, then restart from the latest checkpoint ('repro "
            "resume') with exponential backoff until the retry budget or "
            "deadline runs out."
        ),
        parents=[obs],
    )
    supervise.add_argument(
        "--run-dir",
        metavar="RUN_DIR",
        default=None,
        help=(
            "durable run directory COMMAND writes (enables stall "
            "detection and checkpoint-based resume on retry)"
        ),
    )
    supervise.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill an attempt whose WAL stops advancing for this long",
    )
    supervise.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall wall-clock budget across all attempts",
    )
    supervise.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="retry budget after the first attempt (default 3)",
    )
    supervise.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base exponential-backoff delay between attempts (default 0.5)",
    )
    supervise.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        help="seed for the backoff jitter stream (default 0)",
    )
    supervise.add_argument(
        "child_command",
        nargs=argparse.REMAINDER,
        metavar="COMMAND",
        help="command to supervise (prefix with -- to pass flags)",
    )

    report = sub.add_parser(
        "report",
        help="fast one-page replication check of the paper's headline claims",
        parents=run_parents,
    )
    _add_seed(report)

    solve = sub.add_parser(
        "solve",
        help="run one registered solver and print its report",
        parents=run_parents,
    )
    solve.add_argument(
        "--solver",
        required=True,
        dest="engine.name",
        metavar="NAME",
        help="registry name (see 'solvers list')",
    )
    solve.add_argument(
        "--scenario",
        choices=["paper", "toy", "counterexample"],
        default="paper",
        dest="market.scenario",
        help="market to solve (default: a random paper-workload market)",
    )
    _add_size(solve, buyers=20, sellers=4)
    _add_seed(solve)
    solve.add_argument(
        "--check-stability",
        action="store_true",
        default=argparse.SUPPRESS,
        dest="engine.options.check_stability",
        help="also run the stability scans (IR / Nash / pairwise)",
    )
    solve.add_argument(
        "--config",
        action=_EngineOption,
        default=argparse.SUPPRESS,
        metavar="KEY=VALUE",
        type=_parse_config_entry,
        help=(
            "solver-specific config entry (repeatable), e.g. "
            "--config quota=4 --config repair=False"
        ),
    )

    solvers = sub.add_parser(
        "solvers", help="inspect the solver registry", parents=[obs]
    )
    solvers.add_argument("action", choices=["list"], help="what to do")
    solvers.add_argument(
        "--capability",
        choices=["exact", "heuristic", "bound_only", "decentralized"],
        default=None,
        help="only show solvers with this capability",
    )

    run_cmd = sub.add_parser(
        "run",
        help="execute a declarative RunSpec JSON file",
        description=(
            "Execute a run described by a RunSpec JSON document -- the "
            "spec any run subcommand emits with --dry-run. Telemetry, "
            "faults and durability all come from the spec, so one file "
            "replaces an arbitrarily flag-heavy invocation."
        ),
        parents=[dry_run],
    )
    run_cmd.add_argument(
        "spec",
        metavar="SPEC",
        help="RunSpec JSON path (write one with '<subcommand> --dry-run')",
    )

    trace = sub.add_parser(
        "trace", help="analyze recorded JSONL event traces offline"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    summarize = trace_sub.add_parser(
        "summarize", help="per-run digest: rounds, welfare, messages"
    )
    summarize.add_argument("trace", metavar="TRACE", help="JSONL trace path")

    diff = trace_sub.add_parser(
        "diff",
        help=(
            "align two traces and report the first behavioural divergence "
            "(exit 1 when they diverge)"
        ),
    )
    diff.add_argument("left", metavar="LEFT", help="baseline trace path")
    diff.add_argument("right", metavar="RIGHT", help="candidate trace path")
    diff.add_argument(
        "--rounds-only",
        action="store_true",
        help=(
            "compare only the three round events (aligns a full CLI trace "
            "against the rounds-only golden trace)"
        ),
    )

    export = trace_sub.add_parser(
        "export", help="convert a trace to an interchange format"
    )
    export.add_argument("trace", metavar="TRACE", help="JSONL trace path")
    export.add_argument(
        "--format",
        choices=["chrome", "openmetrics", "collapsed", "speedscope"],
        required=True,
        help=(
            "chrome: trace-event JSON for Perfetto/chrome://tracing; "
            "openmetrics: exposition text of the trace's event counts; "
            "collapsed: flamegraph collapsed span stacks; "
            "speedscope: span tree as a speedscope.app profile"
        ),
    )
    export.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write here instead of stdout",
    )

    causality = trace_sub.add_parser(
        "causality",
        help="explain one agent's messages as causal chains",
    )
    causality.add_argument("trace", metavar="TRACE", help="JSONL trace path")
    causality.add_argument(
        "--agent",
        required=True,
        metavar="NAME",
        help="wire id, e.g. buyer:3 or seller:0",
    )
    causality.add_argument(
        "--limit",
        type=int,
        default=3,
        metavar="N",
        help="show at most N chains, latest first (default 3)",
    )

    profile = sub.add_parser(
        "profile",
        help="run, inspect and diff performance profiles",
        description=(
            "Profiling toolkit: execute a RunSpec under the stdlib "
            "profiler harness, render a profile's attribution tables, "
            "or diff two profiles (deterministic cost-counter drift "
            "fails the diff; wall-time movement is informational)."
        ),
    )
    profile_sub = profile.add_subparsers(
        dest="profile_command", required=True
    )

    prof_run = profile_sub.add_parser(
        "run",
        help="execute a RunSpec with profiling on and write the artifacts",
    )
    prof_run.add_argument(
        "spec",
        metavar="SPEC",
        help="RunSpec JSON path (write one with '<subcommand> --dry-run')",
    )
    prof_run.add_argument(
        "--out",
        metavar="DIR",
        default="profile-out",
        help="artifact directory (default ./profile-out)",
    )
    prof_run.add_argument(
        "--no-memory",
        action="store_true",
        help="skip the tracemalloc driver (cheaper; no alloc table)",
    )

    prof_top = profile_sub.add_parser(
        "top",
        help="show a profile's dominant spans, functions or alloc sites",
    )
    prof_top.add_argument(
        "path",
        metavar="PROFILE",
        help="profile.json path (or the directory holding it)",
    )
    prof_top.add_argument(
        "--section",
        choices=["spans", "functions", "allocs"],
        default="spans",
        help="which attribution table to render (default spans)",
    )
    prof_top.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="rows to show (default 10)",
    )

    prof_diff = profile_sub.add_parser(
        "diff",
        help=(
            "compare two profiles; exit 1 on deterministic cost-counter "
            "drift (an algorithmic difference, never hardware noise)"
        ),
    )
    prof_diff.add_argument(
        "left", metavar="A", help="baseline profile.json (or directory)"
    )
    prof_diff.add_argument(
        "right", metavar="B", help="candidate profile.json (or directory)"
    )

    watch = sub.add_parser(
        "watch",
        help="live dashboard for a telemetry server URL or a growing trace",
        description=(
            "Attach to a running command's telemetry server "
            "(http://host:port, see --serve-metrics) or tail a growing "
            "JSONL trace file, and render a refreshing console dashboard: "
            "run phase, welfare sparkline, message/drop counters, active "
            "faults, agent-step latency and SLO status."
        ),
    )
    watch.add_argument(
        "target",
        metavar="TARGET",
        help="server URL (http://...) or trace JSONL path",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    watch.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="stop after N refreshes (default: run until interrupted)",
    )
    watch.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of clearing the screen (log-friendly)",
    )
    watch.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help=(
            "a run's --profile-out directory; once its profile.json "
            "appears, top self-time spans and allocation sites are shown"
        ),
    )

    return parser


# ----------------------------------------------------------------------
# Flags -> RunSpec
# ----------------------------------------------------------------------
def _spec_sections(args: argparse.Namespace) -> Dict[str, Any]:
    """The namespace's dotted keys, nested into spec sections.

    A spec is at most three levels deep (``engine.options.KEY``), so a
    third part is a key as given: ``--config a.b=1`` sets option ``a.b``.
    """
    sections: Dict[str, Any] = {}
    for key, value in vars(args).items():
        if "." in key:
            *path, name = key.split(".", 2)
            node = sections
            for part in path:
                node = node.setdefault(part, {})
            node[name] = value
    return sections


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    """Translate one run subcommand's parsed flags into its RunSpec.

    This is the single place where CLI flags meet the declarative run
    model, and it parses them exactly as ``repro run`` parses a spec
    file: with the strict :meth:`RunSpec.from_dict`.  The command
    implementations below consume only the spec.
    """
    return RunSpec.from_dict({
        "schema": SPEC_SCHEMA_VERSION,
        "command": args.command,
        **_spec_sections(args),
    })


# ----------------------------------------------------------------------
# Presenters: each prints the result of the dispatch Session.run()
# executes; the distributed/chaos comparisons and the report are CLI
# composites on the same builders.  All of them run inside one lifecycle.
# ----------------------------------------------------------------------
def _cmd_figure(session: Session) -> int:
    from repro.analysis.paper_figures import figure_spec
    from repro.analysis.reporting import format_experiment_rows, rows_to_csv

    spec = session.spec
    figure = int(spec.command[3])
    options = spec.engine.options
    panel = options.get("panel", "a")
    repetitions = options.get("repetitions")
    fig_spec = figure_spec(figure, panel)
    rows = session.execute()
    x_label = fig_spec.axis.value
    include_srcc = fig_spec.axis.value == "similarity"
    if options.get("csv"):
        print(rows_to_csv(rows, fig_spec.series, x_label=x_label), end="")
    else:
        print(f"Fig. {figure}({panel}) -- sweep over {x_label}")
        print(
            format_experiment_rows(rows, fig_spec.series, x_label, include_srcc)
        )
    json_out = options.get("json_out")
    if json_out:
        from repro.analysis.persistence import save_rows

        save_rows(
            json_out,
            rows,
            metadata={
                "figure": figure,
                "panel": panel,
                "seed": spec.market.seed,
                "repetitions": repetitions or fig_spec.default_repetitions,
            },
        )
        print(f"saved series to {json_out}")
    return 0


def _created_market(session: Session, scenario: str):
    """The session's market, announced with a ``market.created`` event."""
    market = session.market
    recorder = session.recorder
    if recorder.enabled:
        recorder.emit(
            "market.created",
            scenario=scenario,
            buyers=market.num_buyers,
            channels=market.num_channels,
        )
    return market


def _set_slo_reference(session: Session, welfare: float) -> None:
    """The comparison's baseline for the welfare_regression_pct signal."""
    if session.lifecycle.slo_engine is not None:
        session.lifecycle.slo_engine.set_reference("welfare", welfare)


def _cmd_toy(session: Session) -> int:
    market = _created_market(session, "toy")
    result = session.execute()
    print("Paper toy example (5 buyers, sellers a/b/c)")
    print("-- Stage I (adapted deferred acceptance) --")
    for record in result.stage_one.rounds:
        proposals = {
            market.channel_names[ch]: [market.buyer_names[j] for j in buyers]
            for ch, buyers in sorted(record.proposals.items())
        }
        waitlists = {
            market.channel_names[ch]: [market.buyer_names[j] for j in members]
            for ch, members in sorted(record.waitlists.items())
        }
        print(f"round {record.round_index}: proposals={proposals}")
        print(f"          waitlists={waitlists}")
    print(f"Stage I welfare: {result.welfare_stage1:g} (paper: 27)")
    print("-- Stage II (transfer and invitation) --")
    for record in result.stage_two.transfer_rounds:
        print(
            f"transfer round {record.round_index}: "
            f"accepted={record.accepted} rejected={record.rejected}"
        )
    for record in result.stage_two.invitation_rounds:
        print(
            f"invitation round {record.round_index}: "
            f"accepted={record.accepted} declined={record.declined}"
        )
    print(f"Final welfare: {result.social_welfare:g} (paper: 30)")
    coalitions = {
        market.channel_names[ch]: sorted(
            market.buyer_names[j] for j in result.matching.coalition(ch)
        )
        for ch in range(market.num_channels)
    }
    print(f"Final matching: {coalitions}")
    return 0


def _cmd_counterexample(session: Session) -> int:
    market = _created_market(session, "counterexample")
    result = session.execute()
    matching = result.matching
    print("Section III-D counterexample")
    coalitions = {
        market.channel_names[ch]: sorted(
            market.buyer_names[j] for j in matching.coalition(ch)
        )
        for ch in range(market.num_channels)
    }
    print(f"algorithm output: {coalitions} (welfare {result.social_welfare:g})")
    print(f"Nash-stable:      {is_nash_stable(market, matching)}")
    print(f"pairwise-stable:  {is_pairwise_stable(market, matching)}")
    for pair in pairwise_blocking_pairs(market, matching):
        print(
            f"  blocking pair: seller {market.channel_names[pair.channel]} + "
            f"buyer {market.buyer_names[pair.buyer]} "
            f"(evicting {[market.buyer_names[k] for k in pair.evicted]}; "
            f"seller +{pair.seller_gain:g}, buyer "
            f"{pair.buyer_current:g} -> {pair.buyer_new:g})"
        )
    return 0


def _cmd_distributed(session: Session) -> int:
    """The centralized reference, then one protocol run per policy."""
    spec = session.spec
    market = _created_market(session, "paper_simulation")
    centralized = run_two_stage(market, record_trace=False)
    _set_slo_reference(session, centralized.social_welfare)
    print(
        f"market: N={spec.market.buyers} buyers, M={spec.market.sellers} "
        f"channels (seed {spec.market.seed}); centralized welfare "
        f"{centralized.social_welfare:.4f}"
    )
    loss = spec.faults.loss
    if loss > 0.0:
        print(f"network: {loss:.0%} message loss, ARQ transport enabled")
    chosen = spec.engine.options.get("policy", "both")
    for name in POLICIES if chosen == "both" else (chosen,):
        engine = dataclasses.replace(
            spec.engine, options={**spec.engine.options, "policy": name}
        )
        run = Session(
            dataclasses.replace(spec, engine=engine),
            recorder=session.recorder,
            market=market,
        ).execute()
        print(
            f"{name:>8}: slots={run.slots} messages={run.messages_sent} "
            f"dropped={run.messages_dropped} "
            f"welfare={run.social_welfare:.4f} "
            f"(matches centralized: {run.matching == centralized.matching})"
        )
    return 0


def _cmd_chaos(session: Session) -> int:
    """The fault-free twin, then the faulty run of the spec itself."""
    from repro.errors import SimulationError
    from repro.obs import NULL_RECORDER

    spec = session.spec
    faults = spec.faults
    market = _created_market(session, "paper_simulation")
    policy = session.policy
    print(
        f"market: N={spec.market.buyers} buyers, M={spec.market.sellers} "
        f"channels (seed {spec.market.seed}); policy "
        f"{spec.engine.options.get('policy', 'default')}"
    )
    print(
        f"faults: {len(faults.crashes)} crash(es), "
        f"{len(faults.partitions)} partition(s); "
        f"loss {faults.loss:.0%}"
        + (", ARQ transport" if faults.loss > 0.0 else "")
        + (
            f"; deadline {faults.deadline_slots} slots "
            f"({faults.on_timeout} on timeout)"
            if faults.deadline_slots is not None
            else ""
        )
    )
    # The fault-free reference twin runs under the null recorder, so a
    # --trace-out trace contains only the chaos run itself and diffs
    # cleanly against a separately recorded fault-free trace.
    reference = run_distributed_matching(
        market, policy=policy, recorder=NULL_RECORDER
    )
    _set_slo_reference(session, reference.social_welfare)
    try:
        run = session.execute()
    except SimulationError as exc:
        print(f"run aborted: {exc}")
        return 1
    print(
        f"status={run.status} slots={run.slots} "
        f"welfare={run.social_welfare:.4f} "
        f"(fault-free: {reference.social_welfare:.4f}) "
        f"matched={run.matching.num_matched()}/{market.num_buyers}"
    )
    print(
        f"faults: crashes={run.crashes} restarts={run.restarts} "
        f"lost_to_crash={run.messages_lost_to_crash} "
        f"partition_drops={run.partition_drops} "
        f"view_divergences={run.view_divergences}"
    )
    if run.recovery_slots:
        print(f"recovery times (slots): {list(run.recovery_slots)}")
    print(
        f"traffic: sent={run.messages_sent} delivered={run.messages_delivered} "
        f"dropped={run.messages_dropped}"
    )
    print(f"matches fault-free outcome: {run.matching == reference.matching}")
    return 0


def _cmd_swaps(session: Session) -> int:
    spec = session.spec
    stage3 = session.execute()
    market = session.market
    if spec.market.scenario == "counterexample":
        print("instance: Section III-D counterexample")
    else:
        print(
            f"instance: random market N={spec.market.buyers}, "
            f"M={spec.market.sellers} (seed {spec.market.seed})"
        )
    print(f"two-stage welfare: {stage3.welfare_before:.4f}")
    print(f"after Stage III:   {stage3.welfare_after:.4f} "
          f"({stage3.num_swaps} swap(s) executed)")
    for swap in stage3.swaps:
        print(
            f"  swap: buyer {market.buyer_names[swap.buyer]} -> channel "
            f"{market.channel_names[swap.channel]}, evicting "
            f"{[market.buyer_names[k] for k in swap.evicted]} "
            f"(welfare {swap.welfare_before:g} -> {swap.welfare_after:g})"
        )
    print(f"pairwise-stable after: {is_pairwise_stable(market, stage3.matching)}")
    return 0


def _cmd_dynamic(session: Session) -> int:
    spec = session.spec
    workload = spec.market.workload
    results = session.execute()
    print(
        f"{workload.epochs} epochs, N0={spec.market.buyers}, "
        f"M={spec.market.sellers}, "
        f"arrivals~Poisson({workload.arrival_rate}), departures "
        f"{workload.departure_prob:.0%}, drift {workload.drift}"
    )
    for strategy, outcomes in results.items():
        welfare = sum(o.social_welfare for o in outcomes[1:])
        moved = sum(o.churned for o in outcomes[1:])
        rounds = sum(o.rounds for o in outcomes[1:])
        print(
            f"{strategy.value:>5}: total welfare {welfare:.2f}, "
            f"incumbents moved {moved}, protocol rounds {rounds}"
        )
    return 0


def _durable_outcome(run_dir: str, execute) -> int:
    """Print a durable run's result: a fresh run or ``repro resume``."""
    from repro.errors import CheckpointError, SimulationError

    try:
        result = execute()
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"run aborted: {exc}")
        return 1
    if result["kind"] == "dynamic":
        print(
            f"durable dynamic run complete in {run_dir} "
            f"({result['epochs']} epochs, strategy {result['strategy']})"
        )
        print(
            f"{result['strategy']:>5}: total welfare "
            f"{result['total_welfare']:.2f}, incumbents moved "
            f"{result['total_churned']}, protocol rounds "
            f"{result['total_rounds']}"
        )
        return 0
    print(f"durable chaos run complete in {run_dir}")
    print(
        f"status={result['status']} slots={result['slots']} "
        f"welfare={result['social_welfare']:.4f} "
        f"matched={result['matched']}"
    )
    print(
        f"faults: crashes={result['crashes']} restarts={result['restarts']} "
        f"lost_to_crash={result['messages_lost_to_crash']} "
        f"partition_drops={result['partition_drops']} "
        f"view_divergences={result['view_divergences']}"
    )
    print(
        f"traffic: sent={result['messages_sent']} "
        f"delivered={result['messages_delivered']} "
        f"dropped={result['messages_dropped']}"
    )
    return 0


def _cmd_report(session: Session) -> int:
    """Quick replication report: each headline claim, checked live."""
    import numpy as np

    import repro
    from repro.core.swap_extension import coordinated_swaps
    from repro.distributed.transition import adaptive_policy, default_policy
    from repro.optimal.branch_and_bound import optimal_matching_branch_and_bound

    seed = session.spec.market.seed

    def line(ok: bool, text: str) -> None:
        print(f"  [{'PASS' if ok else 'FAIL'}] {text}")

    print(f"spectrum-matching {repro.__version__} -- replication report")
    print("paper: Chen et al., 'Spectrum Matching', IEEE ICDCS 2016\n")

    print("Toy example (Figs. 1-3):")
    toy = build_market(MarketSpec(scenario="toy"))
    toy_result = run_two_stage(toy, record_trace=False)
    line(
        toy_result.welfare_stage1 == 27.0,
        f"Stage I welfare 27 (measured {toy_result.welfare_stage1:g})",
    )
    line(
        toy_result.social_welfare == 30.0,
        f"final welfare 30 (measured {toy_result.social_welfare:g})",
    )

    print("Stability (Propositions 3-4, Section III-D):")
    ce = build_market(MarketSpec(scenario="counterexample"))
    ce_result = run_two_stage(ce, record_trace=False)
    line(is_nash_stable(ce, ce_result.matching), "output Nash-stable")
    line(
        not is_pairwise_stable(ce, ce_result.matching),
        "counterexample pairwise-blocked (negative result reproduced)",
    )
    stage3 = coordinated_swaps(ce, ce_result.matching)
    line(
        stage3.welfare_after == 27.0,
        f"Stage III repairs it to the optimum "
        f"({stage3.welfare_before:g} -> {stage3.welfare_after:g})",
    )

    print("Headline (>90% of optimal, Fig. 6 regime):")
    ratios = []
    for rep in range(20):
        market = paper_simulation_market(
            8, 4, np.random.default_rng([seed, rep])
        )
        result = run_two_stage(market, record_trace=False)
        best = optimal_matching_branch_and_bound(market).social_welfare(
            market.utilities
        )
        ratios.append(result.social_welfare / best if best > 0 else 1.0)
    mean_ratio = float(np.mean(ratios))
    line(mean_ratio > 0.9, f"mean welfare ratio {mean_ratio:.3f} (20 markets)")

    print("Distributed implementation (Section IV):")
    market = build_market(MarketSpec(buyers=12, sellers=3, seed=seed))
    centralized = run_two_stage(market, record_trace=False)
    distributed = run_distributed_matching(market, policy=default_policy())
    line(
        distributed.matching == centralized.matching,
        "default-rule protocol replays the centralised algorithm exactly",
    )
    adaptive = run_distributed_matching(toy, policy=adaptive_policy())
    default_run = run_distributed_matching(toy, policy=default_policy())
    line(
        adaptive.slots < default_run.slots,
        f"adaptive transition rules beat the default deadline "
        f"({adaptive.slots} vs {default_run.slots} slots on the toy)",
    )
    print("\nfull evaluation: pytest benchmarks/ --benchmark-only -s")
    return 0


def _cmd_solve(session: Session) -> int:
    from repro.engine import get_solver
    from repro.errors import SolverError

    spec = session.spec
    market = _created_market(session, spec.market.scenario)
    check_stability = bool(spec.engine.options.get("check_stability"))
    try:
        report = session.execute()
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    capabilities = get_solver(spec.engine.name).capabilities
    print(
        f"solver: {report.solver} "
        f"[{', '.join(sorted(c.value for c in capabilities))}]"
    )
    print(
        f"market: {market.num_buyers} buyers x {market.num_channels} channels "
        f"({spec.market.scenario})"
    )
    print(f"status: {report.status}")
    if report.matching is None:
        print(f"bound:  {report.social_welfare:.4f} (no matching produced)")
    else:
        print(
            f"welfare: {report.social_welfare:.4f}  "
            f"matched: {report.num_matched}/{report.num_buyers} "
            f"({report.matched_fraction:.0%})"
        )
        print(f"interference-free: {report.interference_free}")
    if check_stability and report.matching is not None:
        print(
            f"stability: individually_rational={report.individually_rational} "
            f"nash={report.nash_stable} pairwise={report.pairwise_stable}"
        )
    print(f"time: {report.wall_time_s:.4f}s wall, {report.cpu_time_s:.4f}s cpu")
    if report.metadata:
        pairs = ", ".join(
            f"{key}={value}" for key, value in sorted(report.metadata.items())
        )
        print(f"metadata: {pairs}")
    if report.trace_path is not None:
        print(f"trace: {report.trace_path}")
    return 0


_PRESENTERS = dict(
    fig6=_cmd_figure, fig7=_cmd_figure, fig8=_cmd_figure, toy=_cmd_toy,
    counterexample=_cmd_counterexample, distributed=_cmd_distributed,
    chaos=_cmd_chaos, swaps=_cmd_swaps, dynamic=_cmd_dynamic,
    report=_cmd_report, solve=_cmd_solve,
)


def _run_spec(session: Session) -> int:
    """The body of a spec command: its presenter or composite."""
    from repro.errors import SpecError

    spec = session.spec
    try:
        if session.durable:
            return _durable_outcome(
                spec.durability.checkpoint_dir, session.execute
            )
        return _PRESENTERS[spec.command](session)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Non-spec commands (registry inspection, trace toolkit, runtime ops)
# ----------------------------------------------------------------------
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.trace import (
        CausalGraph,
        TraceReader,
        counters_from_events,
        diff_traces,
        format_chain,
        format_diff,
        format_summary,
        load_events,
        to_chrome_trace,
        to_collapsed,
        to_openmetrics,
        to_speedscope,
    )

    try:
        if args.trace_command == "summarize":
            reader = TraceReader.from_file(args.trace)
            print(format_summary(reader.summary()))
            return 0

        if args.trace_command == "diff":
            left = TraceReader.from_file(args.left)
            right = TraceReader.from_file(args.right)
            diff = diff_traces(
                left.events,
                right.events,
                rounds_only=args.rounds_only,
                left_label=args.left,
                right_label=args.right,
            )
            print(format_diff(diff))
            return 1 if diff.diverged else 0

        if args.trace_command == "export":
            import json as json_module

            events = load_events(args.trace)
            if args.format == "chrome":
                rendered = json_module.dumps(to_chrome_trace(events), indent=1)
            elif args.format == "collapsed":
                rendered = to_collapsed(events)
            elif args.format == "speedscope":
                rendered = json_module.dumps(to_speedscope(events), indent=1)
            else:
                rendered = to_openmetrics(counters_from_events(events))
            if args.output is None:
                print(rendered, end="" if rendered.endswith("\n") else "\n")
            else:
                from repro.ioutil import atomic_write_text

                if not rendered.endswith("\n"):
                    rendered += "\n"
                atomic_write_text(args.output, rendered)
                print(f"{args.format} export written to {args.output}")
            return 0

        if args.trace_command == "causality":
            graph = CausalGraph(load_events(args.trace))
            if not len(graph):
                print(
                    "error: trace has no msg.sent events (recorded without "
                    "the distributed kernel's event sink?)",
                    file=sys.stderr,
                )
                return 2
            chains = graph.explain(args.agent)[: max(args.limit, 1)]
            print(
                f"{args.agent}: {len(graph.messages_of_agent(args.agent))} "
                f"traced messages, showing {len(chains)} chain(s), "
                f"latest first"
            )
            for chain in chains:
                print(format_chain(graph, chain))
                print()
            return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _cmd_solvers(args: argparse.Namespace) -> int:
    from repro.engine import list_solvers

    solvers = list_solvers(args.capability)
    if not solvers:
        print(f"no registered solver has capability {args.capability!r}")
        return 0
    width = max(len(solver.name) for solver in solvers)
    for solver in solvers:
        caps = ",".join(sorted(c.value for c in solver.capabilities))
        print(f"{solver.name:<{width}}  [{caps}]  {solver.description}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.runtime import resume_run

    return _durable_outcome(
        args.run_dir, lambda: resume_run(args.run_dir, recorder=get_recorder())
    )


def _cmd_supervise(args: argparse.Namespace) -> int:
    from repro.errors import RetryBudgetExceeded
    from repro.runtime import RetryPolicy, Supervisor

    command = list(args.child_command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("error: supervise needs a COMMAND to run", file=sys.stderr)
        return 2
    policy = RetryPolicy(
        max_retries=args.max_retries,
        base_backoff_s=args.backoff,
        seed=args.retry_seed,
    )
    supervisor = Supervisor(
        policy=policy,
        recorder=get_recorder(),
        stall_timeout_s=args.stall_timeout,
        deadline_s=args.deadline,
    )
    try:
        supervisor.run_command(command, run_dir=args.run_dir)
    except RetryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    attempts = len(supervisor.history)
    print(
        f"supervised command succeeded after {attempts} attempt(s) "
        f"({attempts - 1} retr{'y' if attempts == 2 else 'ies'})"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``profile top`` / ``profile diff``; ``main`` runs ``profile run``."""
    from repro.errors import ObservabilityError
    from repro.prof import (
        diff_profiles,
        format_diff,
        format_top,
        load_profile,
    )

    try:
        if args.profile_command == "top":
            payload = load_profile(args.path)
            for line in format_top(
                payload, limit=args.limit, section=args.section
            ):
                print(line)
            return 0
        if args.profile_command == "diff":
            diff = diff_profiles(
                load_profile(args.left), load_profile(args.right)
            )
            for line in format_diff(diff):
                print(line)
            return 1 if diff["counter_drift"] else 0
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(
        f"unhandled profile subcommand {args.profile_command!r}"
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.watch import watch

    return watch(
        args.target,
        interval_s=args.interval,
        frames=args.frames,
        plain=args.plain,
        profile_path=args.profile,
    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "solvers":
        return _cmd_solvers(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "supervise":
        return _cmd_supervise(args)
    if args.command == "watch":
        return _cmd_watch(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _read_spec(path: str) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return RunSpec.from_json(handle.read())
    except OSError as exc:
        from repro.errors import SpecError

        raise SpecError(f"cannot read spec file {path!r}: {exc}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    from repro.errors import ObservabilityError, SpecError

    profile_run = args.command == "profile" and args.profile_command == "run"
    spec: Optional[RunSpec] = None
    try:
        if args.command == "run" or profile_run:
            spec = _read_spec(args.spec)
        elif args.command in RUN_COMMANDS:
            spec = _spec_from_args(args)
        if profile_run:  # `run` with a profile section, then the span table
            profile = ProfileSpec(
                profile_out=args.out, memory=not args.no_memory
            )
            spec = dataclasses.replace(spec, profile=profile)
        if spec is not None:  # a dry run prints only a spec that runs
            spec.validate()
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec is not None and getattr(args, "dry_run", False):
        print(spec.to_json(indent=2))
        return 0

    try:
        if spec is not None:
            telemetry, profile = spec.telemetry, spec.profile
            session = Session(spec)
            lifecycle = session.open()
            body = functools.partial(_run_spec, session)
        else:
            sections = _spec_sections(args)
            telemetry = TelemetrySpec.from_dict(sections.get("telemetry", {}))
            profile = ProfileSpec.from_dict(sections.get("profile", {}))
            config = {
                key: value
                for key, value in vars(args).items()
                if "." not in key
            }
            recorder = build_recorder(
                telemetry, profile=profile, config=config
            )
            lifecycle = RunLifecycle(
                telemetry, recorder, profile=profile,
                meta={"command": args.command},
            )
            body = functools.partial(_dispatch, args)
    except OSError as exc:
        print(
            f"error: cannot open trace file {telemetry.trace_out!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    except (SpecError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if lifecycle.server is not None:
        print(
            f"telemetry server listening on {lifecycle.server.url}",
            file=sys.stderr,
        )
    try:
        exit_code = lifecycle.run(body)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if lifecycle.slo_engine is not None:
        for rule_text, count in lifecycle.slo_engine.violation_counts.items():
            print(
                f"slo violated: {rule_text} ({count} evaluation(s))",
                file=sys.stderr,
            )
    exit_code = max(exit_code, lifecycle.slo_exit_code)
    if telemetry.metrics:
        print("\n-- observability summary --")
        print(format_metrics_summary(lifecycle.recorder))
    if telemetry.metrics_out is not None:
        print(f"metrics written to {telemetry.metrics_out}")
    if profile.enabled:
        print(f"profile written to {profile.profile_out}")
    if telemetry.trace_out is not None:
        print(f"trace written to {telemetry.trace_out}")
    if profile_run:
        from repro.prof import format_top, load_profile

        payload = load_profile(profile.profile_out)
        for line in format_top(payload, limit=10, section="spans"):
            print(line)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
