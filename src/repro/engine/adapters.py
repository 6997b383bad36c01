"""Builtin solver adapters: every backend behind the one engine contract.

Each adapter is a thin wrapper translating the canonical
``solve(market, *, recorder, config)`` call into the backend's native
signature and its native result into a
:class:`~repro.engine.report.SolveReport`.  Adapters contain *no*
algorithmic logic -- the backends stay the single source of truth, which
is what keeps registry dispatch byte-identical to direct calls (locked by
``tests/engine/test_parity.py``).

This module is imported lazily by the registry on first lookup; importing
:mod:`repro.engine` alone never pulls in the backend packages.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.core.two_stage import run_two_stage
from repro.auction.mcafee import mcafee_double_auction
from repro.distributed.protocol import run_distributed_matching
from repro.distributed.transition import NAMED_POLICIES
from repro.engine.protocol import Capability
from repro.engine.registry import register_solver
from repro.engine.report import SolveReport, build_bound_report, build_report
from repro.errors import SolverError
from repro.obs.recorder import Recorder, resolve_recorder, use_recorder
from repro.obs.spans import SpanTracer
from repro.optimal.branch_and_bound import (
    DEFAULT_NODE_BUDGET,
    optimal_matching_branch_and_bound,
)
from repro.optimal.bruteforce import (
    DEFAULT_BRUTEFORCE_STATE_LIMIT,
    optimal_matching_bruteforce,
)
from repro.optimal.college_admission import fixed_quota_deferred_acceptance
from repro.optimal.greedy import greedy_centralized_matching
from repro.optimal.lp_relaxation import lp_relaxation_bound
from repro.optimal.nash_enumeration import price_of_nash_stability
from repro.optimal.random_baseline import random_matching

__all__ = ["SolverAdapter", "BUILTIN_SOLVERS"]


class SolverAdapter:
    """Base class handling the contract plumbing shared by every adapter.

    Subclasses set ``name`` / ``capabilities`` / ``description`` /
    ``config_keys`` and implement ``_solve(market, config, recorder)``
    returning ``(matching_or_bound, status, metadata)``.  The base class
    resolves the recorder, validates config keys, times the backend with
    a span tracer (the span also lands in the ambient recorder as
    ``solve.<name>``), and builds the report through the shared
    validation pipeline.
    """

    name: str = ""
    capabilities: FrozenSet[Capability] = frozenset()
    description: str = ""
    #: Config keys the adapter accepts beyond the shared ``check_stability``.
    config_keys: FrozenSet[str] = frozenset()

    def check_config(self, config: Mapping[str, object]) -> None:
        """Raise :class:`SolverError` for a config this solver refuses.

        :meth:`solve` runs it first, and ``RunSpec.validate`` runs it on
        a ``solve`` spec's options, so a dry run refuses what a run does.
        """
        unknown = set(config) - self.config_keys - {"check_stability"}
        if unknown:
            accepted = sorted(self.config_keys | {"check_stability"})
            raise SolverError(
                f"solver {self.name!r} got unknown config key(s) "
                f"{sorted(unknown)}; accepted: {accepted}"
            )

    def solve(
        self,
        market: SpectrumMarket,
        *,
        recorder: Optional[Recorder] = None,
        config: Optional[Mapping[str, object]] = None,
    ) -> SolveReport:
        rec = resolve_recorder(recorder)
        cfg: Dict[str, object] = dict(config) if config else {}
        self.check_config(cfg)
        check_stability = bool(cfg.pop("check_stability", False))
        timer = SpanTracer()
        # Install the resolved recorder as the ambient one for the
        # backend's duration: backends that resolve it themselves (most
        # of the registry) then observe an *explicitly passed* recorder
        # too, so `solve --solver NAME --trace-out` works for every
        # backend, not just the ones whose native signature takes one.
        with use_recorder(rec):
            with rec.span(f"solve.{self.name}"):
                with timer.span(self.name):
                    outcome, status, metadata = self._solve(market, cfg, rec)
        timing = timer.records[-1]
        trace_path = getattr(rec.events, "path", None)
        if isinstance(outcome, Matching):
            report = build_report(
                self.name,
                market,
                outcome,
                wall_time_s=timing.wall_s,
                cpu_time_s=timing.cpu_s,
                check_stability=check_stability,
                status=status,
                metadata=metadata,
                trace_path=trace_path,
            )
        else:
            report = build_bound_report(
                self.name,
                market,
                float(outcome),
                wall_time_s=timing.wall_s,
                cpu_time_s=timing.cpu_s,
                metadata=metadata,
                trace_path=trace_path,
            )
        if rec.enabled:
            rec.emit(
                "engine.solve",
                solver=self.name,
                status=report.status,
                social_welfare=report.social_welfare,
                matched=report.num_matched,
                wall_s=report.wall_time_s,
            )
            metrics = rec.metrics
            if metrics.enabled:
                metrics.counter(f"engine.solve.{self.name}").inc()
                metrics.gauge(f"engine.welfare.{self.name}").set(
                    report.social_welfare
                )
        return report

    def _solve(
        self,
        market: SpectrumMarket,
        config: Dict[str, object],
        recorder: Recorder,
    ) -> Tuple[object, str, Optional[Dict[str, object]]]:
        raise NotImplementedError


class TwoStageSolver(SolverAdapter):
    name = "two_stage"
    capabilities = frozenset({Capability.HEURISTIC})
    description = (
        "The paper's two-stage algorithm: deferred acceptance (Alg. 1) "
        "then transfer-and-invitation (Alg. 2)"
    )
    config_keys = frozenset({"record_trace", "monotone_guard"})

    def _solve(self, market, config, recorder):
        result = run_two_stage(
            market,
            record_trace=bool(config.get("record_trace", False)),
            monotone_guard=bool(config.get("monotone_guard", True)),
            recorder=recorder,
        )
        metadata = {
            "welfare_stage1": result.welfare_stage1,
            "welfare_phase1": result.welfare_phase1,
            "welfare_phase2": result.welfare_phase2,
            "rounds_stage1": result.rounds_stage1,
            "rounds_phase1": result.rounds_phase1,
            "rounds_phase2": result.rounds_phase2,
            "total_rounds": result.total_rounds,
        }
        return result.matching, "ok", metadata


class BruteforceSolver(SolverAdapter):
    name = "bruteforce"
    capabilities = frozenset({Capability.EXACT})
    description = "Exhaustive optimal matching (the paper's footnote-4 benchmark)"
    config_keys = frozenset({"state_limit"})

    def _solve(self, market, config, recorder):
        state_limit = int(
            config.get("state_limit", DEFAULT_BRUTEFORCE_STATE_LIMIT)
        )
        return optimal_matching_bruteforce(market, state_limit), "ok", None


class BranchAndBoundSolver(SolverAdapter):
    name = "branch_and_bound"
    capabilities = frozenset({Capability.EXACT})
    description = "Exact optimal matching via branch and bound with pruning"
    config_keys = frozenset({"node_budget"})

    def _solve(self, market, config, recorder):
        node_budget = int(config.get("node_budget", DEFAULT_NODE_BUDGET))
        return optimal_matching_branch_and_bound(market, node_budget), "ok", None


class GreedySolver(SolverAdapter):
    name = "greedy"
    capabilities = frozenset({Capability.HEURISTIC})
    description = "Centralised greedy baseline (highest price first)"

    def _solve(self, market, config, recorder):
        return greedy_centralized_matching(market), "ok", None


class LpBoundSolver(SolverAdapter):
    name = "lp_bound"
    capabilities = frozenset({Capability.BOUND_ONLY})
    description = (
        "LP-relaxation upper bound on the optimum (no matching produced)"
    )

    def _solve(self, market, config, recorder):
        bound = lp_relaxation_bound(market)
        return bound, "ok", {"bound": bound}


class RandomSolver(SolverAdapter):
    name = "random"
    capabilities = frozenset({Capability.HEURISTIC})
    description = "Random feasible matching baseline (seeded)"
    config_keys = frozenset({"seed"})

    def _solve(self, market, config, recorder):
        seed = config.get("seed", 0)
        rng = np.random.default_rng(seed)
        return random_matching(market, rng), "ok", None


class CollegeAdmissionSolver(SolverAdapter):
    name = "college_admission"
    capabilities = frozenset({Capability.HEURISTIC})
    description = (
        "Classic fixed-quota deferred acceptance with feasibility repair"
    )
    config_keys = frozenset({"quota", "repair"})

    def _solve(self, market, config, recorder):
        quota = int(config.get("quota", 1))
        repair = bool(config.get("repair", True))
        matching = fixed_quota_deferred_acceptance(market, quota, repair=repair)
        return matching, "ok", {"quota": quota, "repair": repair}


class NashEnumerationSolver(SolverAdapter):
    name = "nash_enumeration"
    capabilities = frozenset({Capability.EXACT})
    description = (
        "Exhaustive enumeration: best Nash-stable matching plus the price "
        "of stability"
    )
    config_keys = frozenset({"state_limit"})

    def _solve(self, market, config, recorder):
        state_limit = int(
            config.get("state_limit", DEFAULT_BRUTEFORCE_STATE_LIMIT)
        )
        ratio, best_stable = price_of_nash_stability(market, state_limit)
        return best_stable, "ok", {"price_of_nash_stability": ratio}


class McAfeeSolver(SolverAdapter):
    name = "mcafee"
    capabilities = frozenset({Capability.HEURISTIC})
    description = (
        "McAfee 1992 truthful double auction (unit demand; faithful on "
        "homogeneous-channel markets)"
    )
    config_keys = frozenset({"asks"})

    def _solve(self, market, config, recorder):
        utilities = market.utilities
        # Unit-demand reduction: each buyer bids her best channel value
        # (identical across channels on the homogeneous markets the
        # auction literature assumes); sellers ask their reserve prices.
        bids = [max(0.0, float(utilities[j].max())) for j in range(market.num_buyers)]
        asks_cfg = config.get("asks")
        if asks_cfg is None:
            asks = [0.0] * market.num_channels
        else:
            asks = [float(a) for a in asks_cfg]  # type: ignore[union-attr]
            if len(asks) != market.num_channels:
                raise SolverError(
                    f"mcafee 'asks' needs one ask per channel "
                    f"({market.num_channels}), got {len(asks)}"
                )
        outcome = mcafee_double_auction(bids, asks)
        matching = Matching(market.num_channels, market.num_buyers)
        for buyer, channel in zip(outcome.winning_buyers, outcome.winning_sellers):
            matching.match(buyer, channel)
        metadata = {
            "buyer_price": outcome.buyer_price,
            "seller_price": outcome.seller_price,
            "sacrificed": outcome.sacrificed,
            "num_trades": outcome.num_trades,
            "auctioneer_surplus": outcome.auctioneer_surplus,
        }
        return matching, "ok", metadata


class DistributedSolver(SolverAdapter):
    """The fault-free Section IV protocol; its one option is ``policy``.

    The run takes the protocol's defaults (reliable network, default slot
    bound, a timeout raises); faulty or lossy runs are ``chaos`` specs.
    """

    name = "distributed"
    capabilities = frozenset({Capability.HEURISTIC, Capability.DECENTRALIZED})
    description = (
        "Section-IV message-passing runtime with local stage-transition "
        "rules"
    )
    config_keys = frozenset({"policy"})

    def check_config(self, config):
        super().check_config(config)
        policy = config.get("policy")
        if isinstance(policy, str) and policy not in NAMED_POLICIES:
            raise SolverError(
                f"unknown distributed policy {policy!r}; expected one of "
                f"{sorted(NAMED_POLICIES)}"
            )

    def _solve(self, market, config, recorder):
        policy = config.get("policy")
        if isinstance(policy, str):
            policy = NAMED_POLICIES[policy]()
        result = run_distributed_matching(
            market, policy=policy, recorder=recorder
        )
        metadata = {
            "slots": result.slots,
            "messages_sent": result.messages_sent,
            "messages_delivered": result.messages_delivered,
            "messages_dropped": result.messages_dropped,
            "crashes": result.crashes,
            "restarts": result.restarts,
            "messages_lost_to_crash": result.messages_lost_to_crash,
            "partition_drops": result.partition_drops,
            "view_divergences": result.view_divergences,
        }
        return result.matching, result.status, metadata


#: The builtin adapter instances, in registration order.
BUILTIN_SOLVERS = (
    TwoStageSolver(),
    BruteforceSolver(),
    BranchAndBoundSolver(),
    GreedySolver(),
    LpBoundSolver(),
    RandomSolver(),
    CollegeAdmissionSolver(),
    NashEnumerationSolver(),
    McAfeeSolver(),
    DistributedSolver(),
)

for _solver in BUILTIN_SOLVERS:
    register_solver(_solver, replace=True)
