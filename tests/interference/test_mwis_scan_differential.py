"""Differential suite: the lazy-heap GWMIN/GWMIN2 vs the literal scans.

:func:`~repro.interference.mwis.mwis_greedy_gwmin` and
:func:`~repro.interference.mwis.mwis_greedy_gwmin2` pick from a heap of
``(-score, buyer)`` entries and skip stale ones;
:data:`~repro.interference.mwis.SCAN_SOLVERS` keeps the literal loops
that rescore every remaining buyer for each pick.  Both must return the
same buyers, element for element, on every input: ties (small integer
weights), all-zero weights, isolated nodes and pools that are a subset
of the graph.
"""

from __future__ import annotations

import random

import pytest

from repro.interference.graph import InterferenceGraph
from repro.interference.mwis import (
    SCAN_SOLVERS,
    MwisAlgorithm,
    mwis_greedy_gwmin,
    mwis_greedy_gwmin2,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False


HEAP_SOLVERS = {
    MwisAlgorithm.GWMIN: mwis_greedy_gwmin,
    MwisAlgorithm.GWMIN2: mwis_greedy_gwmin2,
}
ALGORITHMS = pytest.mark.parametrize(
    "algorithm", list(HEAP_SOLVERS), ids=lambda a: a.value
)


def _assert_same(algorithm, graph, weights, pool):
    got = HEAP_SOLVERS[algorithm](graph, weights, pool)
    expected = SCAN_SOLVERS[algorithm](graph, weights, pool)
    assert got == expected, (
        f"{algorithm.value} diverged on n={graph.num_buyers} "
        f"edges={sorted(graph.edges())} pool={pool} weights={weights}"
    )


def _random_instance(rng: random.Random):
    n = rng.randint(1, 40)
    density = rng.choice([0.0, 0.05, 0.1, 0.3, 0.7, 1.0])
    edges = [
        (j, k) for j in range(n) for k in range(j + 1, n)
        if rng.random() < density
    ]
    regime = rng.randrange(3)
    if regime == 0:
        weights = {j: rng.uniform(0.0, 10.0) for j in range(n)}
    elif regime == 1:
        weights = {j: float(rng.randint(0, 3)) for j in range(n)}
    else:
        weights = {j: 0.0 for j in range(n)}
    if rng.random() < 0.5:
        pool = sorted(rng.sample(range(n), rng.randint(1, n)))
    else:
        pool = list(range(n))
    return InterferenceGraph(n, edges), weights, pool


class TestSeededRandom:
    @ALGORITHMS
    def test_identical_selections(self, algorithm):
        rng = random.Random(20261021)
        for _ in range(400):
            _assert_same(algorithm, *_random_instance(rng))


class TestPinned:
    @ALGORITHMS
    def test_rescored_buyer_wins_a_tie_by_index(self, algorithm):
        # Buyer 0 goes first and takes buyer 1 with it.  That lifts
        # buyer 2 to buyer 7's score (GWMIN 6/2 = 3.0, GWMIN2 6/12 =
        # 0.5); 2's entry enters the heap after 7's, yet the smaller
        # buyer must win the tie and block 7.
        graph = InterferenceGraph(8, [(0, 1), (1, 2), (2, 7)])
        weights = {0: 9.0, 1: 1.0, 2: 6.0, 7: 6.0}
        pool = [0, 1, 2, 7]
        assert HEAP_SOLVERS[algorithm](graph, weights, pool) == [0, 2]
        _assert_same(algorithm, graph, weights, pool)

    def test_gwmin2_decrements_in_ascending_order(self):
        # Buyer 2 goes first and takes 1, 3 and 4 with it.  Buyer 0's
        # closed weight then loses 0.3, 0.1 and 0.7: in that order it
        # lands one ulp above 1.4, and buyer 5 (0.7 / 1.4) wins the
        # near-tie; in the opposite order buyer 0 would tie and win.
        graph = InterferenceGraph(6, [
            (0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
            (2, 3), (2, 4), (3, 4), (3, 5),
        ])
        weights = {0: 0.7, 1: 0.3, 2: 1.1, 3: 0.1, 4: 0.7, 5: 0.7}
        pool = list(range(6))
        assert mwis_greedy_gwmin2(graph, weights, pool) == [2, 5]
        _assert_same(MwisAlgorithm.GWMIN2, graph, weights, pool)

    def test_gwmin2_skips_an_entry_whose_score_fell(self):
        # Removing buyer 1 rounds buyer 2's closed weight (1.0 + 1e-20)
        # down to 0.0, so her score falls from 1e-20 to 0.0.  Her old
        # entry still sits above buyer 0's; it is stale, and buyer 0 wins
        # the tie at 0.0 by index.
        graph = InterferenceGraph(4, [(1, 3), (1, 2), (0, 2)])
        weights = {0: 0.0, 1: 1.0, 2: 1e-20, 3: 10.0}
        pool = list(range(4))
        assert mwis_greedy_gwmin2(graph, weights, pool) == [0, 3]
        _assert_same(MwisAlgorithm.GWMIN2, graph, weights, pool)

    @ALGORITHMS
    def test_isolated_and_zero_weight_buyers(self, algorithm):
        graph = InterferenceGraph(6, [(0, 1), (1, 2)])
        weights = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 2.0, 5: 0.0}
        _assert_same(algorithm, graph, weights, list(range(6)))
        _assert_same(algorithm, graph, weights, [1, 3, 5])


if HAVE_HYPOTHESIS:

    @st.composite
    def _instances(draw):
        n = draw(st.integers(min_value=1, max_value=20))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=n * 3,
            )
        )
        weight = st.one_of(
            st.floats(0.0, 100.0, allow_nan=False),
            st.integers(0, 3).map(float),
            st.just(0.0),
        )
        weights = {j: draw(weight) for j in range(n)}
        pool = draw(
            st.lists(
                st.integers(0, n - 1), min_size=0, max_size=n, unique=True
            ).map(sorted)
        )
        return InterferenceGraph(n, edges), weights, pool

    class TestHypothesis:
        @ALGORITHMS
        @settings(max_examples=300, deadline=None)
        @given(instance=_instances())
        def test_identical_selections(self, algorithm, instance):
            _assert_same(algorithm, *instance)
