"""Chaos bench: matching quality and convergence cost vs node churn.

Crash/restart schedules of increasing severity are injected into the
message-level runtime (over a lossy network with the ARQ transport) and
the run is compared against the fault-free baseline: slots to quiescence,
wire traffic, messages lost to dead hosts, and the welfare ratio.

Expected shape: checkpoint restarts that complete before the default
rule's ``MN`` transition deadline are *free* in welfare terms -- the
protocol re-converges to the fault-free outcome, paying only in slots and
retransmissions.  A second table shows graceful degradation: under an
unrecoverable buyer/seller partition the salvageable matching grows with
the slot budget spent before the deadline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.distributed.faults import CrashFault, FaultSchedule, PartitionFault
from repro.distributed.network import LossyNetwork
from repro.distributed.protocol import run_distributed_matching
from repro.distributed.transition import default_policy
from repro.workloads.scenarios import paper_simulation_market

NUM_BUYERS = 12
NUM_CHANNELS = 3
NUM_MARKETS = 4
LOSS_RATE = 0.1


def churn_schedule(buyer_crashes: int, seller_crashes: int) -> FaultSchedule:
    """Staggered crash/restart waves, all healed well before the default
    rule's Stage-II deadline (``MN`` = 36 slots here)."""
    crashes = [
        CrashFault(f"buyer:{j}", crash_slot=4 + j, restart_slot=12 + 2 * j)
        for j in range(buyer_crashes)
    ]
    crashes += [
        CrashFault(f"seller:{i}", crash_slot=6 + i, restart_slot=15 + i)
        for i in range(seller_crashes)
    ]
    return FaultSchedule(crashes=crashes)


CHURN_LEVELS = [
    ("none", 0, 0),
    ("light", 2, 0),
    ("moderate", 3, 1),
    ("heavy", 5, 1),
]


def test_welfare_and_convergence_vs_churn(benchmark):
    rows = []
    ratios = {}
    lost_means = {}
    slot_means = {}
    for label, buyer_crashes, seller_crashes in CHURN_LEVELS:
        schedule = churn_schedule(buyer_crashes, seller_crashes)
        slots_total = 0
        messages_total = 0
        lost_total = 0
        ratio_total = 0.0
        for seed in range(NUM_MARKETS):
            market = paper_simulation_market(
                NUM_BUYERS, NUM_CHANNELS, np.random.default_rng([500, seed])
            )
            baseline = run_distributed_matching(market, policy=default_policy())
            run = run_distributed_matching(
                market,
                policy=default_policy(),
                network=LossyNetwork(LOSS_RATE),
                seed=seed,
                reliable_transport=True,
                fault_schedule=None if schedule.empty else schedule,
                max_slots=200_000,
            )
            assert run.status == "converged", (label, seed)
            assert run.matching.is_interference_free(market.interference)
            slots_total += run.slots
            messages_total += run.messages_sent
            lost_total += run.messages_lost_to_crash
            ratio_total += (
                run.social_welfare / baseline.social_welfare
                if baseline.social_welfare > 0
                else 1.0
            )
        ratios[label] = ratio_total / NUM_MARKETS
        lost_means[label] = lost_total / NUM_MARKETS
        slot_means[label] = slots_total / NUM_MARKETS
        rows.append(
            [
                label,
                buyer_crashes + seller_crashes,
                slots_total / NUM_MARKETS,
                messages_total / NUM_MARKETS,
                lost_total / NUM_MARKETS,
                ratio_total / NUM_MARKETS,
            ]
        )
    print()
    print(
        f"== Welfare / convergence vs churn "
        f"({NUM_MARKETS} markets, N={NUM_BUYERS}, M={NUM_CHANNELS}, "
        f"{LOSS_RATE:.0%} loss + ARQ) =="
    )
    print(
        format_table(
            ["churn", "crashes", "mean slots", "mean msgs",
             "mean lost", "welfare ratio"],
            rows,
        )
    )

    # Checkpoint recovery before the deadline costs no welfare at all.
    for label, _, _ in CHURN_LEVELS:
        assert ratios[label] == pytest.approx(1.0), label
    # ...but churn is not free: dead hosts eat real wire traffic, and the
    # staggered restarts pin the run past the last recovery (slot 20).
    assert lost_means["none"] == 0
    assert lost_means["heavy"] > lost_means["light"] > 0
    assert slot_means["heavy"] > 20

    market = paper_simulation_market(
        NUM_BUYERS, NUM_CHANNELS, np.random.default_rng([500, 0])
    )
    schedule = churn_schedule(3, 1)
    benchmark.pedantic(
        lambda: run_distributed_matching(
            market,
            policy=default_policy(),
            network=LossyNetwork(LOSS_RATE),
            reliable_transport=True,
            fault_schedule=schedule,
            max_slots=200_000,
        ),
        rounds=3,
        iterations=1,
    )


def test_degraded_matching_grows_with_deadline(benchmark):
    """Unrecoverable buyer/seller partition from slot ``t``: everything
    agreed before the split survives degradation, so later partitions
    (equivalently: larger pre-fault budgets) salvage more matches."""
    market = paper_simulation_market(
        NUM_BUYERS, NUM_CHANNELS, np.random.default_rng([501, 0])
    )
    baseline = run_distributed_matching(market, policy=default_policy())
    rows = []
    matched_counts = []
    for split_slot in (2, 6, 12):
        schedule = FaultSchedule(
            partitions=[
                PartitionFault(
                    groups=(
                        frozenset(f"buyer:{j}" for j in range(NUM_BUYERS)),
                        frozenset(f"seller:{i}" for i in range(NUM_CHANNELS)),
                    ),
                    start_slot=split_slot,  # never heals
                )
            ]
        )
        run = run_distributed_matching(
            market,
            policy=default_policy(),
            fault_schedule=schedule,
            max_slots=100,
            on_timeout="degrade",
        )
        assert run.status == "degraded"
        assert run.matching.is_interference_free(market.interference)
        matched_counts.append(run.matching.num_matched())
        rows.append(
            [
                split_slot,
                run.matching.num_matched(),
                baseline.matching.num_matched(),
                run.social_welfare,
                baseline.social_welfare,
                run.partition_drops,
            ]
        )
    print()
    print("== Graceful degradation under an unrecoverable partition ==")
    print(
        format_table(
            ["split slot", "matched", "baseline matched",
             "welfare", "baseline welfare", "drops"],
            rows,
        )
    )
    # Monotone salvage: a later split never rescues fewer buyers.
    assert matched_counts == sorted(matched_counts)
    assert matched_counts[-1] > matched_counts[0]

    benchmark.pedantic(
        lambda: run_distributed_matching(
            market,
            policy=default_policy(),
            fault_schedule=FaultSchedule(
                partitions=[
                    PartitionFault(
                        groups=(
                            frozenset(
                                f"buyer:{j}" for j in range(NUM_BUYERS)
                            ),
                            frozenset(
                                f"seller:{i}" for i in range(NUM_CHANNELS)
                            ),
                        ),
                        start_slot=6,
                    )
                ]
            ),
            max_slots=100,
            on_timeout="degrade",
        ),
        rounds=3,
        iterations=1,
    )
