#!/usr/bin/env python3
"""Run spectrum matching as an actual message-passing protocol.

Everything in the other examples uses the centralised reference loops.
This example runs the Section IV implementation instead: every buyer and
seller is an independent agent exchanging Propose / Stage1Decision /
TransferApply / Invite messages over a time-slotted network, each deciding
locally when to move from Stage I to Stage II.

It compares the paper's transition rules on one market -- the default
rule (wait out the MN worst case) versus the probability-driven adaptive
rules -- and then repeats the run over a jittery network to show the
protocol tolerates delay.

Run:  python examples/distributed_protocol.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    adaptive_policy,
    default_policy,
    paper_simulation_market,
    run_distributed_matching,
    run_two_stage,
)
from repro.analysis.reporting import format_table
from repro.distributed.network import DelayedNetwork
from repro.distributed.transition import neighbor_rule_policy


def main() -> None:
    rng = np.random.default_rng(99)
    market = paper_simulation_market(num_buyers=24, num_channels=5, rng=rng)
    centralized = run_two_stage(market, record_trace=False)
    print(f"market: {market}")
    print(f"centralized reference welfare: {centralized.social_welfare:.4f} "
          f"(MN = {market.num_buyers * market.num_channels} slots worst case)")

    policies = [
        ("default (wait MN)", default_policy()),
        ("buyer rule I", neighbor_rule_policy()),
        ("adaptive P^k/Q^k (0.05)", adaptive_policy(0.05, 0.05)),
        ("adaptive P^k/Q^k (0.30)", adaptive_policy(0.30, 0.30)),
    ]
    rows = []
    for name, policy in policies:
        run = run_distributed_matching(market, policy=policy)
        rows.append(
            [
                name,
                run.slots,
                run.messages_sent,
                run.social_welfare,
                "yes" if run.matching == centralized.matching else "no",
            ]
        )
    print("\ntransition-rule comparison (reliable network):")
    print(
        format_table(
            ["policy", "slots", "messages", "welfare", "= centralized"],
            rows,
        )
    )

    print("\nsame protocol over a network with random 1-3 slot delays:")
    jittery = run_distributed_matching(
        market,
        policy=default_policy(),
        network=DelayedNetwork(1, 3),
        seed=5,
    )
    print(
        f"  slots={jittery.slots} messages={jittery.messages_sent} "
        f"welfare={jittery.social_welfare:.4f} "
        f"interference-free="
        f"{jittery.matching.is_interference_free(market.interference)}"
    )


if __name__ == "__main__":
    main()
