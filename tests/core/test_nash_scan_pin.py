"""Pin of the Nash scan on a market where one Stage II pass is not enough.

``paper_simulation_market(400, 8, default_rng(2040464))`` is a market on
which ``run_two_stage`` ends with profitable unilateral deviations: a
Phase-2 invitation moves a buyer out of a coalition and re-opens a
deviation (see ``iterate_stage_two``).  The exact moves pin the order and
the values :func:`nash_blocking_moves` yields, and the fixed point pins
what iterating Stage II makes of them.
"""

from __future__ import annotations

import numpy as np

from repro.core.stability import NashBlockingMove, is_nash_stable, nash_blocking_moves
from repro.core.two_stage import iterate_stage_two, run_two_stage
from repro.workloads.scenarios import paper_simulation_market


def test_single_pass_leaves_three_deviations_that_iteration_removes():
    market = paper_simulation_market(400, 8, np.random.default_rng(2040464))
    matching = run_two_stage(market, record_trace=False).matching
    assert list(nash_blocking_moves(market, matching)) == [
        NashBlockingMove(110, 5, 0.21053500325496965, 0.9063882293196044),
        NashBlockingMove(118, 5, 0.2267919901229123, 0.921036306942341),
        NashBlockingMove(180, 5, 0.8797674687619516, 0.9472939759438728),
    ]
    fixed, _, passes = iterate_stage_two(market, matching)
    assert passes == 2
    assert is_nash_stable(market, fixed)
    assert fixed.social_welfare(market.utilities) == 238.9645444077226
