"""Adapter parity: registry dispatch is byte-identical to direct calls.

The acceptance bar for the engine refactor: for every backend,
``engine.get_solver(name).solve(market)`` must return the same matching
and the exact same welfare float as invoking the backend module
directly.  Any drift here means an adapter grew algorithmic logic of its
own, which is exactly what the engine design forbids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.auction.mcafee import mcafee_double_auction
from repro.cli import main
from repro.core.matching import Matching
from repro.core.two_stage import run_two_stage
from repro.distributed.protocol import run_distributed_matching
from repro.engine import Capability, SolveReport, get_solver
from repro.errors import SolverError
from repro.obs import ListEventSink, Recorder
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

#: Seeds for the small parity markets (exact solvers must stay within
#: their state limits, so these stay tiny).
SMALL_SEEDS = (0, 7, 21)


def small_market(market_factory, seed):
    return market_factory(num_buyers=5, num_channels=3, seed=seed)


def assert_same_matching(report: SolveReport, matching: Matching) -> None:
    assert report.matching.as_assignment() == matching.as_assignment()


class TestHeuristicParity:
    def test_two_stage(self, market_factory):
        for seed in SMALL_SEEDS:
            market = market_factory(num_buyers=20, num_channels=4, seed=seed)
            direct = run_two_stage(market, record_trace=False)
            report = get_solver("two_stage").solve(market)
            assert_same_matching(report, direct.matching)
            assert report.social_welfare == direct.social_welfare
            assert report.metadata["welfare_stage1"] == direct.welfare_stage1
            assert report.metadata["welfare_phase2"] == direct.welfare_phase2
            assert report.metadata["total_rounds"] == direct.total_rounds

    def test_greedy(self, market_factory):
        for seed in SMALL_SEEDS:
            market = market_factory(num_buyers=15, num_channels=4, seed=seed)
            direct = greedy_centralized_matching(market)
            report = get_solver("greedy").solve(market)
            assert_same_matching(report, direct)
            assert report.social_welfare == direct.social_welfare(market.utilities)

    def test_random_seed_config(self, market_factory):
        market = market_factory(num_buyers=15, num_channels=4, seed=3)
        for seed in (0, 5, [601, 2]):
            direct = random_matching(market, np.random.default_rng(seed))
            report = get_solver("random").solve(market, config={"seed": seed})
            assert_same_matching(report, direct)

    def test_college_admission_quota(self, market_factory):
        market = market_factory(num_buyers=15, num_channels=4, seed=4)
        for quota in (1, 4):
            direct = fixed_quota_deferred_acceptance(market, quota)
            report = get_solver("college_admission").solve(
                market, config={"quota": quota}
            )
            assert_same_matching(report, direct)
            assert report.metadata["quota"] == quota

    def test_mcafee(self, market_factory):
        market = market_factory(num_buyers=12, num_channels=4, seed=5)
        utilities = market.utilities
        bids = [
            max(0.0, float(utilities[j].max())) for j in range(market.num_buyers)
        ]
        outcome = mcafee_double_auction(bids, [0.0] * market.num_channels)
        direct = Matching(market.num_channels, market.num_buyers)
        for buyer, channel in zip(outcome.winning_buyers, outcome.winning_sellers):
            direct.match(buyer, channel)
        report = get_solver("mcafee").solve(market)
        assert_same_matching(report, direct)
        assert report.metadata["num_trades"] == outcome.num_trades
        assert report.metadata["buyer_price"] == outcome.buyer_price

    def test_distributed(self, market_factory):
        market = market_factory(num_buyers=10, num_channels=3, seed=6)
        direct = run_distributed_matching(market, seed=0)
        report = get_solver("distributed").solve(market)
        assert_same_matching(report, direct.matching)
        assert report.social_welfare == direct.social_welfare
        assert report.status == direct.status


class TestExactParity:
    def test_bruteforce(self, market_factory):
        for seed in SMALL_SEEDS:
            market = small_market(market_factory, seed)
            direct = optimal_matching_bruteforce(
                market, DEFAULT_BRUTEFORCE_STATE_LIMIT
            )
            report = get_solver("bruteforce").solve(market)
            assert_same_matching(report, direct)
            assert report.social_welfare == direct.social_welfare(market.utilities)

    def test_branch_and_bound(self, market_factory):
        for seed in SMALL_SEEDS:
            market = small_market(market_factory, seed)
            direct = optimal_matching_branch_and_bound(market, DEFAULT_NODE_BUDGET)
            report = get_solver("branch_and_bound").solve(market)
            assert_same_matching(report, direct)
            assert report.social_welfare == direct.social_welfare(market.utilities)

    def test_nash_enumeration(self, market_factory):
        market = small_market(market_factory, 1)
        ratio, direct = price_of_nash_stability(
            market, DEFAULT_BRUTEFORCE_STATE_LIMIT
        )
        report = get_solver("nash_enumeration").solve(market)
        assert_same_matching(report, direct)
        assert report.metadata["price_of_nash_stability"] == ratio


class TestBoundParity:
    def test_lp_bound_value(self, market_factory):
        for seed in SMALL_SEEDS:
            market = market_factory(num_buyers=10, num_channels=3, seed=seed)
            report = get_solver("lp_bound").solve(market)
            assert report.social_welfare == lp_relaxation_bound(market)

    def test_bound_report_shape(self, market_factory):
        market = market_factory(num_buyers=8, num_channels=3, seed=2)
        report = get_solver("lp_bound").solve(market)
        assert report.matching is None
        assert report.num_matched == 0
        assert report.buyer_utilities == ()
        assert report.seller_revenue == ()
        assert report.interference_free is None
        assert report.nash_stable is None
        assert report.metadata["bound"] == report.social_welfare


class TestReportContract:
    def test_report_is_scored_and_frozen(self, toy_market):
        report = get_solver("two_stage").solve(toy_market)
        assert report.solver == "two_stage"
        assert report.status == "ok"
        assert report.social_welfare == pytest.approx(30.0)
        assert report.num_buyers == toy_market.num_buyers
        assert report.matched_fraction == report.num_matched / report.num_buyers
        assert report.interference_free is True
        assert sum(report.buyer_utilities) == pytest.approx(30.0)
        assert sum(report.seller_revenue) == pytest.approx(30.0)
        assert report.wall_time_s > 0
        assert report.cpu_time_s >= 0
        with pytest.raises(AttributeError):
            report.social_welfare = 0.0
        with pytest.raises(TypeError):
            report.metadata["welfare_stage1"] = 0.0

    def test_stability_verdicts_opt_in(self, toy_market):
        plain = get_solver("two_stage").solve(toy_market)
        assert plain.nash_stable is None
        assert plain.individually_rational is None
        checked = get_solver("two_stage").solve(
            toy_market, config={"check_stability": True}
        )
        assert checked.nash_stable is True
        assert checked.individually_rational is True
        assert checked.pairwise_stable is True

    def test_unknown_config_key_rejected(self, toy_market):
        with pytest.raises(SolverError, match="unknown config key"):
            get_solver("greedy").solve(toy_market, config={"quota": 3})
        with pytest.raises(SolverError, match="check_stability"):
            get_solver("two_stage").solve(toy_market, config={"bogus": 1})

    @pytest.mark.parametrize("key", [
        "deadline_slots", "retransmit_interval", "network", "seed",
        "max_slots", "reliable_transport", "fault_schedule", "on_timeout",
    ])
    def test_removed_distributed_keys_rejected(self, toy_market, key, capsys):
        # The solver's one option is policy: a faulty, lossy or bounded
        # run is a chaos spec, and the ARQ period is no setting at all.
        with pytest.raises(SolverError, match=rf"\['{key}'\]"):
            get_solver("distributed").solve(toy_market, config={key: 5})
        argv = ["solve", "--solver", "distributed", "--scenario", "toy",
                "--config", f"{key}=5"]
        for dry_run in ([], ["--dry-run"]):
            assert main(argv + dry_run) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"['{key}']" in captured.err

    def test_removed_kernel_toggle_rejected(self, toy_market):
        # Stage I has no kernel switch any more: a caller still asking
        # for one must fail loudly, not silently run the default path.
        with pytest.raises(SolverError, match=r"\['fast_kernels'\]"):
            get_solver("two_stage").solve(
                toy_market, config={"fast_kernels": False}
            )

    def test_unknown_distributed_policy_rejected(self, toy_market):
        with pytest.raises(SolverError, match="unknown distributed policy"):
            get_solver("distributed").solve(toy_market, config={"policy": "nope"})

    def test_capabilities_match_behaviour(self):
        assert Capability.BOUND_ONLY in get_solver("lp_bound").capabilities
        assert Capability.EXACT in get_solver("bruteforce").capabilities
        assert Capability.DECENTRALIZED in get_solver("distributed").capabilities


class TestObservability:
    def test_dispatch_preserves_backend_events(self, toy_market):
        direct_sink = ListEventSink()
        with Recorder(events=direct_sink) as rec:
            run_two_stage(toy_market, record_trace=False, recorder=rec)

        engine_sink = ListEventSink()
        with Recorder(events=engine_sink) as rec:
            get_solver("two_stage").solve(toy_market, recorder=rec)

        def backend_events(sink):
            return [
                event
                for event in sink.events
                if not event["event"].startswith(("engine.", "span"))
            ]

        def strip_timestamps(events):
            return [
                {k: v for k, v in event.items() if k not in ("ts", "wall_s")}
                for event in events
            ]

        assert strip_timestamps(backend_events(engine_sink)) == strip_timestamps(
            backend_events(direct_sink)
        )

    def test_engine_solve_event_emitted(self, toy_market):
        sink = ListEventSink()
        with Recorder(events=sink) as rec:
            get_solver("greedy").solve(toy_market, recorder=rec)
        engine_events = [e for e in sink.events if e["event"] == "engine.solve"]
        assert len(engine_events) == 1
        assert engine_events[0]["solver"] == "greedy"
        assert engine_events[0]["status"] == "ok"
