"""Failure-injection tests: which guarantees survive a misbehaving network.

The paper assumes reliable synchronous delivery.  These tests document the
boundary: interference-freedom (safety) survives everything we throw at
the protocol, while liveness requires reliability -- with message loss the
stop-and-wait handshakes deadlock and the kernel's termination guard
reports it, rather than the protocol silently producing garbage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.messages import Propose
from repro.distributed.network import DelayedNetwork, LossyNetwork, ReliableNetwork
from repro.distributed.protocol import run_distributed_matching
from repro.distributed.transition import default_policy
from repro.errors import SimulationError
from repro.workloads.scenarios import paper_simulation_market, toy_example_market


class TestLossyNetwork:
    def test_loss_rate_validation(self):
        with pytest.raises(SimulationError):
            LossyNetwork(loss_rate=1.1)
        with pytest.raises(SimulationError):
            LossyNetwork(loss_rate=-0.1)

    def test_total_blackout_drops_everything(self):
        """loss_rate=1.0 is legal: it expresses a total-blackout window."""
        network = LossyNetwork(loss_rate=1.0)
        rng = np.random.default_rng(0)
        message = Propose("buyer:0", 0)
        assert all(
            network.route(0, rng, "buyer:0", "seller:0", message) is None
            for _ in range(100)
        )

    def test_zero_loss_behaves_like_reliable(self):
        market = toy_example_market()
        lossless = run_distributed_matching(
            market, policy=default_policy(), network=LossyNetwork(0.0)
        )
        reliable = run_distributed_matching(
            market, policy=default_policy(), network=ReliableNetwork()
        )
        assert lossless.matching == reliable.matching

    def test_heavy_loss_breaks_liveness_loudly(self):
        """A lost proposal reply deadlocks stop-and-wait; the kernel's
        termination guard must surface that as an error, not a hang or a
        silent partial result."""
        market = paper_simulation_market(10, 3, np.random.default_rng(300))
        with pytest.raises(SimulationError):
            run_distributed_matching(
                market,
                policy=default_policy(),
                network=LossyNetwork(0.5),
                seed=4,
                max_slots=500,
            )

    def test_drop_counter_reports_losses(self):
        market = paper_simulation_market(10, 3, np.random.default_rng(300))
        try:
            run_distributed_matching(
                market,
                policy=default_policy(),
                network=LossyNetwork(0.5),
                seed=4,
                max_slots=500,
            )
        except SimulationError as error:
            # The failure message names the stuck agents for debugging.
            assert "busy agents" in str(error)


class TestDelayValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            DelayedNetwork(-1, 2)

    def test_inverted_window_rejected(self):
        with pytest.raises(SimulationError):
            DelayedNetwork(3, 1)

    def test_extreme_jitter_still_safe(self):
        """Large random jitter reorders messages across many slots; the
        matching must remain interference-free and two-sided consistent."""
        market = paper_simulation_market(8, 3, np.random.default_rng(301))
        result = run_distributed_matching(
            market,
            policy=default_policy(),
            network=DelayedNetwork(1, 6),
            seed=13,
            max_slots=20_000,
        )
        assert result.matching.is_interference_free(market.interference)
