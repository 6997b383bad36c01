"""One benchmark pass inside a fresh interpreter.

Run as ``python -m benchmarks.e2e.worker --workload W --seed S --pass P``
with ``src`` on ``PYTHONPATH``.  The process imports the package, runs
one toy-size unit of the workload's command, prints ``ready`` (the
orchestrator's set-up clock stops there) and then, depending on ``P``:

* ``probe`` -- exits (a set-up time sample only);
* ``untraced`` -- runs ``Workload.units(--seconds)`` units back to back
  through the ``Session`` entry point, timing each;
* ``traced`` -- replays units ``0 .. prefix-1`` by calling the layers'
  public functions one after another, each under a benchmark-side span,
  every traced unit right after a timed untraced run of itself.

The pass result is written as JSON to ``--result``.  Every unit records
its welfare, a digest of its final coalitions and the problems its checks
found; an exception inside a unit is recorded as a problem, not raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from typing import Callable, Dict, List, Tuple

import numpy as np

from benchmarks.e2e import workloads
from benchmarks.e2e.spans import SpanRecorder
from repro.core.deferred_acceptance import deferred_acceptance
from repro.core.transfer_invitation import transfer_and_invitation
from repro.distributed.protocol import build_distributed_simulation
from repro.distributed.transition import default_policy
from repro.dynamic.generator import DynamicMarketGenerator
from repro.dynamic.online import OnlineMatcher, RematchStrategy
from repro.engine.validation import validate_matching
from repro.run.session import Session, build_market, execute_two_stage
from repro.run.spec import EngineSpec, MarketSpec, RunSpec, WorkloadSpec
from repro.workloads.deployment import (
    DEFAULT_MAX_RANGE,
    random_deployment,
    random_transmission_ranges,
)
from repro.workloads.scenarios import sparse_simulation_market

__all__ = ["market_seeds", "untraced_pass", "traced_pass", "main"]

#: The verdicts every solve unit must report as true: interference-free
#: and individually rational (Prop. 3).  Nash stability (Prop. 4) is
#: recorded per unit instead: a single Stage II pass can leave a
#: profitable deviation (see ``iterate_stage_two``), which happens on
#: about one N=400 market in a thousand.
VERDICTS = ("interference_free", "individually_rational")

# Session's own default slot bound for distributed runs.
_MAX_SLOTS = 1_000_000

#: Channel ranges of the sparse markets are uniform on (0, 1].
SPARSE_MAX_RANGE = 1.0

#: A market's interference edges, and with them its build time and
#: memory, scale with its channels' mean squared transmission range.  A
#: candidate market seed is used only when that mean lies within this
#: share of its expectation, ``max_range**2 / 3``, so every run measures
#: markets of the same load while locations, utilities and the ranges
#: themselves still vary with the seed.
LOAD_BAND = 0.05

#: Run seed ``S`` draws its candidate market seeds from
#: ``[SEED_STRIDE * S, SEED_STRIDE * (S + 1))``, in order.
SEED_STRIDE = 10_000


# ----------------------------------------------------------------------
# Specs and small helpers
# ----------------------------------------------------------------------
def _market_spec(w: workloads.Workload, seed: int, **extra) -> MarketSpec:
    return MarketSpec(buyers=w.buyers, sellers=w.channels, seed=seed, **extra)


def _solve_spec(w, seed) -> RunSpec:
    return RunSpec(
        command="solve",
        market=_market_spec(w, seed),
        engine=EngineSpec("two_stage", {"check_stability": True}),
    )


def _distributed_spec(w, seed) -> RunSpec:
    return RunSpec(command="distributed", market=_market_spec(w, seed))


def _dynamic_spec(w, seed) -> RunSpec:
    workload = WorkloadSpec(
        epochs=w.epochs,
        arrival_rate=w.arrival_rate,
        departure_prob=w.departure_prob,
        drift=w.drift,
        strategy="both",
    )
    return RunSpec(command="dynamic", market=_market_spec(w, seed, workload=workload))


def _sparse_market(w, seed):
    return sparse_simulation_market(
        w.buyers, w.channels, np.random.default_rng(seed), max_range=SPARSE_MAX_RANGE
    )


def _range_load(w, market_seed: int) -> float:
    """Mean squared channel range of a market over its expectation.

    The ranges are drawn exactly as the market's builder draws them, from
    the same seeded generator, without building the market.
    """
    rng = np.random.default_rng(market_seed)
    if w.kind == "dynamic":
        # DynamicMarketGenerator draws its channel plant first.
        max_range = DEFAULT_MAX_RANGE
        ranges = random_transmission_ranges(w.channels, rng, max_range=max_range)
    else:
        # Paper and sparse markets draw locations, then ranges, as
        # random_deployment does.
        max_range = SPARSE_MAX_RANGE if w.kind == "sparse" else DEFAULT_MAX_RANGE
        ranges = random_deployment(
            w.buyers, w.channels, rng, max_range=max_range
        ).transmission_ranges
    return 3.0 * sum(r * r for r in ranges) / (len(ranges) * max_range**2)


def market_seeds(w: workloads.Workload, seed: int, count: int) -> List[int]:
    """The first ``count`` admitted market seeds of run seed ``seed``."""
    seeds: List[int] = []
    for candidate in range(SEED_STRIDE * seed, SEED_STRIDE * (seed + 1)):
        if abs(_range_load(w, candidate) - 1.0) <= LOAD_BAND:
            seeds.append(candidate)
            if len(seeds) == count:
                return seeds
    raise RuntimeError(f"run seed {seed} admits fewer than {count} {w.name} markets")


def _digest(*matchings) -> str:
    """Short digest of the final coalitions (one assignment tuple each)."""
    h = hashlib.sha256()
    for matching in matchings:
        h.update(repr(matching.as_assignment()).encode())
    return h.hexdigest()[:16]


def _verdict_problems(report) -> List[str]:
    return [
        f"{name} is {getattr(report, name)}"
        for name in VERDICTS
        if getattr(report, name) is not True
    ]


def _distributed_problems(result, market) -> List[str]:
    problems = []
    if result.status != "converged":
        problems.append(f"status is {result.status!r}, not 'converged'")
    if result.matching != execute_two_stage(market, record_trace=False).matching:
        problems.append("matching differs from execute_two_stage")
    return problems


def _edges(market) -> int:
    return sum(graph.num_edges for graph in market.interference)


# ----------------------------------------------------------------------
# Untraced units: the whole run through Session, timed as one block
# ----------------------------------------------------------------------
# Each returns (wall_s, welfare, digest, nash_stable, problems), with
# nash_stable None where no verdict is computed.  Checks run after the
# clock stops.  The session (and the market it holds) stays referenced
# until then, so freeing the market is outside the unit, as it is for the
# traced twin.
def _untraced_solve(w, seed):
    start = time.perf_counter()
    market = _sparse_market(w, seed) if w.kind == "sparse" else None
    session = Session(_solve_spec(w, seed), market=market)
    report = session.run()
    wall = time.perf_counter() - start
    return (
        wall, report.social_welfare, _digest(report.matching), report.nash_stable,
        _verdict_problems(report),
    )


def _untraced_distributed(w, seed):
    start = time.perf_counter()
    session = Session(_distributed_spec(w, seed))
    result = session.run()
    wall = time.perf_counter() - start
    problems = _distributed_problems(result, session.market)
    return wall, result.social_welfare, _digest(result.matching), None, problems


def _untraced_dynamic(w, seed):
    start = time.perf_counter()
    runs = Session(_dynamic_spec(w, seed)).run()
    wall = time.perf_counter() - start
    finals = [outcomes[-1] for outcomes in runs.values()]
    welfare = sum(o.social_welfare for o in finals) / len(finals)
    problems = [
        f"{strategy.value} ran {len(outcomes)} of {w.epochs} epochs"
        for strategy, outcomes in runs.items()
        if len(outcomes) != w.epochs
    ]
    return wall, welfare, _digest(*(o.matching for o in finals)), None, problems


_UNTRACED: Dict[str, Callable] = {
    "solve": _untraced_solve,
    "sparse": _untraced_solve,
    "distributed": _untraced_distributed,
    "dynamic": _untraced_dynamic,
}


# ----------------------------------------------------------------------
# Traced units: the same work, one layer call per span
# ----------------------------------------------------------------------
# Each returns (welfare, digest, counters, problems).
def _traced_solve(w, seed, rec: SpanRecorder, k: int):
    spec = _solve_spec(w, seed)
    with rec.span("unit", trace=k):
        with rec.span("market.build"):
            if w.kind == "sparse":
                market = _sparse_market(w, seed)
            else:
                market = build_market(spec.market)
        with rec.span("stage1"):
            stage1 = deferred_acceptance(market, record_trace=False)
        with rec.span("stage2"):
            stage2 = transfer_and_invitation(market, stage1.matching, record_trace=False)
        with rec.span("validate"):
            report = validate_matching(market, stage2.matching, check_stability=True)
    # The second Stage I call on the same market finds the lazily derived
    # adjacency forms already built; it lies outside the unit on purpose.
    with rec.span("stage1.warm", trace=k):
        warm = deferred_acceptance(market, record_trace=False)
    problems = _verdict_problems(report)
    if warm.matching != stage1.matching:
        problems.append("warm Stage I matching differs from the cold one")
    counters = {
        "market.edges": _edges(market),
        "stage1.rounds": stage1.num_rounds,
        "stage2.transfer_rounds": stage2.num_transfer_rounds,
        "stage2.invitation_rounds": stage2.num_invitation_rounds,
    }
    return report.social_welfare, _digest(stage2.matching), counters, problems


def _traced_distributed(w, seed, rec: SpanRecorder, k: int):
    spec = _distributed_spec(w, seed)
    with rec.span("unit", trace=k):
        with rec.span("market.build"):
            market = build_market(spec.market)
        with rec.span("distributed.build"):
            sim = build_distributed_simulation(market, policy=default_policy(), seed=seed)
            sim.emit_run_start()
        with rec.span("distributed.run"):
            slots = sim.simulator.run(max_slots=_MAX_SLOTS, on_timeout="stop")
        with rec.span("distributed.finalize"):
            result = sim.finalize(slots)
    counters = {
        "market.edges": _edges(market),
        "distributed.slots": result.slots,
        "distributed.messages_sent": result.messages_sent,
        "distributed.messages_delivered": result.messages_delivered,
        "distributed.agents": market.num_buyers + market.num_channels,
    }
    problems = _distributed_problems(result, market)
    return result.social_welfare, _digest(result.matching), counters, problems


def _traced_dynamic(w, seed, rec: SpanRecorder, k: int):
    runs = []
    with rec.span("unit", trace=k):
        # Session's order: every strategy on its own generator, all epochs
        # generated before the first step.
        for strategy in RematchStrategy:
            with rec.span("dynamic.generate"):
                generator = DynamicMarketGenerator(
                    num_channels=w.channels,
                    initial_buyers=w.buyers,
                    arrival_rate=w.arrival_rate,
                    departure_prob=w.departure_prob,
                    drift_sigma=w.drift,
                    rng=np.random.default_rng(seed),
                )
            epochs = []
            for _ in range(w.epochs):
                with rec.span("dynamic.generate"):
                    epochs.append(generator.next_epoch())
            matcher = OnlineMatcher(strategy)
            outcomes = []
            for epoch in epochs:
                with rec.span(f"dynamic.step_{strategy.value}"):
                    outcomes.append(matcher.step(epoch))
            runs.append((strategy, epochs, outcomes))
    problems, counters = [], {}
    for strategy, epochs, outcomes in runs:
        for epoch, outcome in zip(epochs, outcomes):
            if not outcome.matching.is_interference_free(epoch.market.interference):
                problems.append(
                    f"{strategy.value} epoch {epoch.index} is not interference-free"
                )
        counters[f"dynamic.rounds_{strategy.value}"] = sum(o.rounds for o in outcomes)
        counters[f"dynamic.churned_{strategy.value}"] = sum(o.churned for o in outcomes)
    finals = [outcomes[-1] for _, _, outcomes in runs]
    welfare = sum(o.social_welfare for o in finals) / len(finals)
    return welfare, _digest(*(o.matching for o in finals)), counters, problems


_TRACED: Dict[str, Callable] = {
    "solve": _traced_solve,
    "sparse": _traced_solve,
    "distributed": _traced_distributed,
    "dynamic": _traced_dynamic,
}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _guarded(body: Callable[[], Tuple], width: int) -> Tuple[Tuple, List[str]]:
    """Run one unit body; an exception becomes the unit's only problem."""
    try:
        *values, problems = body()
        return tuple(values), list(problems)
    except Exception as exc:  # the unit failed; the pass goes on
        traceback.print_exc(file=sys.stderr)
        return (None,) * width, [f"raised {type(exc).__name__}: {exc}"]


def warm_up(w: workloads.Workload) -> None:
    """Run one toy-size unit so imports and lazy set-up are done."""
    _, problems = _guarded(lambda: _UNTRACED[w.kind](w.toy(), 0), 4)
    if problems:
        raise RuntimeError(f"warm-up unit of {w.name} failed: {problems}")


def _untraced_unit(w, k: int, market_seed: int) -> dict:
    (wall, welfare, digest, nash), problems = _guarded(
        lambda: _UNTRACED[w.kind](w, market_seed), 4
    )
    return {"k": k, "seed": market_seed, "wall_s": wall, "welfare": welfare,
            "digest": digest, "nash_stable": nash, "problems": problems}


def untraced_pass(w: workloads.Workload, seed: int, seconds: float) -> dict:
    """Units ``0 .. w.units(seconds)-1`` back to back through ``Session``."""
    seeds = market_seeds(w, seed, w.units(seconds))
    units = [_untraced_unit(w, k, market_seed) for k, market_seed in enumerate(seeds)]
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"units": units, "peak_rss_mb": peak_rss_mb}


def traced_pass(w: workloads.Workload, seed: int) -> dict:
    """Replay units ``0 .. prefix-1`` with one span per layer call.

    Each traced unit directly follows a timed untraced run of the same
    unit in this process (its twin), so tracing overhead and span
    coverage compare two runs made moments apart on the same machine
    state; the twin must produce the same welfare and coalitions.
    """
    body = _TRACED[w.kind]
    rec = SpanRecorder()
    units = []
    seeds = market_seeds(w, seed, w.prefix)
    # The first full-size unit of a process also pays for mapping its
    # memory (about a third more page faults at dense-2k); an untimed run
    # first keeps that cost off twin 0.
    _untraced_unit(w, -1, seeds[0])
    for k, market_seed in enumerate(seeds):
        twin = _untraced_unit(w, k, market_seed)
        (welfare, digest, counters), problems = _guarded(
            lambda: body(w, market_seed, rec, k), 3
        )
        if not twin["problems"] and (welfare, digest) != (twin["welfare"], twin["digest"]):
            problems.append("welfare or coalitions differ from the in-process twin")
        units.append(
            {"k": k, "seed": market_seed, "welfare": welfare, "digest": digest,
             "counters": counters or {}, "twin_wall_s": twin["wall_s"],
             "problems": twin["problems"] + problems}
        )
    return {"units": units, "spans": rec.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--pass", dest="mode", required=True, choices=("probe", "untraced", "traced")
    )
    parser.add_argument("--result", help="where to write the pass result JSON")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode != "probe" and not args.result:
        parser.error(f"--pass {args.mode} needs --result")
    w = workloads.get(args.workload, smoke=args.smoke)
    warm_up(w)
    print("ready", flush=True)
    if args.mode == "probe":
        return 0
    if args.mode == "untraced":
        result = untraced_pass(w, args.seed, args.seconds)
    else:
        result = traced_pass(w, args.seed)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
