"""Differential suite: the batched Stage-I MWIS kernel vs the references.

:func:`repro.core.soa._batched_mwis` promises *identical* coalitions --
not merely coalitions of equal weight -- to the set-based GWMIN/GWMIN2
loops of :mod:`repro.interference.mwis` (see the equivalence contract in
:mod:`repro.core.soa`).  These tests enforce that promise at the MWIS
level on hundreds of random graphs across three weight regimes
(continuous, small-integer with many ties, and all-zero), on full node
sets and on random sub-pools, with Hypothesis exploring further when it
is installed.  Every case runs single-segment (one pool per call) and
multi-segment (several unrelated pools solved in one lockstep call), on
both :class:`~repro.core.soa.SellerPoolCache` layouts.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.soa import SellerPoolCache, _batched_mwis
from repro.interference.graph import InterferenceGraph
from repro.interference.mwis import (
    MwisAlgorithm,
    _argmax_remaining,
    mwis_greedy_gwmin,
    mwis_greedy_gwmin2,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False


REFERENCES = {
    MwisAlgorithm.GWMIN: mwis_greedy_gwmin,
    MwisAlgorithm.GWMIN2: mwis_greedy_gwmin2,
}
ALGORITHMS = pytest.mark.parametrize(
    "algorithm", list(REFERENCES), ids=lambda a: a.value
)
#: ``sparse`` drops the dense-layout threshold to zero, forcing the
#: slot-recycling layout the large markets use onto these tiny graphs.
LAYOUTS = pytest.mark.parametrize("layout", ["dense", "sparse"])
SEGMENTS = pytest.mark.parametrize("segments", ["single", "multi"])


# ----------------------------------------------------------------------
# Random instance generation (seeded, deterministic)
# ----------------------------------------------------------------------
def _random_instance(rng: random.Random):
    """One random (graph, weights, pool) triple.

    Cycles through the adversarial weight regimes: continuous weights
    (generic case), small integers (forces score *ties*, stressing the
    tie-break rule), and all-zero weights (stresses the GWMIN2 zero
    guard, where every score collapses to 0.0).
    """
    n = rng.randint(1, 24)
    density = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
    edges = [
        (j, k)
        for j in range(n)
        for k in range(j + 1, n)
        if rng.random() < density
    ]
    graph = InterferenceGraph(n, edges)
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
    return graph, weights, pool


def _batched(algorithm, layout, instances):
    """Solve every ``(graph, weights, pool)`` instance in one batched call."""
    caches, pools = [], []
    for graph, weights, pool in instances:
        cache = SellerPoolCache(
            graph,
            [weights[j] for j in range(graph.num_buyers)],
            dense_threshold=None if layout == "dense" else 0,
        )
        assert cache.dense == (layout == "dense")
        pool_ids = np.asarray(pool, dtype=np.int64)
        cache.update(pool_ids)
        caches.append(cache)
        pools.append(pool_ids)
    return [chosen.tolist() for chosen in _batched_mwis(algorithm, caches, pools)]


def _assert_matches_reference(algorithm, layout, segments, instances):
    """Batched selections equal the reference's, instance by instance."""
    reference = REFERENCES[algorithm]
    if segments == "single":
        batched = [_batched(algorithm, layout, [inst])[0] for inst in instances]
    else:
        batched = _batched(algorithm, layout, instances)
    for case, (inst, got) in enumerate(zip(instances, batched)):
        graph, weights, pool = inst
        assert got == reference(graph, weights, pool), (
            f"case {case}: {algorithm.value} diverged on "
            f"n={graph.num_buyers} pool={pool} weights={weights}"
        )


class TestDifferentialRandomGraphs:
    """Seeded-random sweep: 250 instances per algorithm, zero tolerance."""

    @ALGORITHMS
    @LAYOUTS
    @SEGMENTS
    def test_identical_coalitions_on_random_graphs(
        self, algorithm, layout, segments
    ):
        rng = random.Random(20260806)
        instances = [_random_instance(rng) for _ in range(250)]
        if segments == "single":
            _assert_matches_reference(algorithm, layout, segments, instances)
        else:
            # Lockstep batches of a few unrelated pools, like one round's
            # sellers.
            for start in range(0, len(instances), 5):
                _assert_matches_reference(
                    algorithm, layout, segments, instances[start : start + 5]
                )


if HAVE_HYPOTHESIS:

    @st.composite
    def _instances(draw):
        n = draw(st.integers(min_value=1, max_value=16))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=n * 3,
            )
        )
        weights = {
            j: draw(
                st.one_of(
                    st.floats(0.0, 100.0, allow_nan=False),
                    st.integers(0, 4).map(float),
                )
            )
            for j in range(n)
        }
        pool = draw(
            st.lists(
                st.integers(0, n - 1), min_size=1, max_size=n, unique=True
            ).map(sorted)
        )
        return InterferenceGraph(n, edges), weights, pool

    class TestDifferentialHypothesis:
        @ALGORITHMS
        @LAYOUTS
        @settings(max_examples=200, deadline=None)
        @given(instances=st.lists(_instances(), min_size=1, max_size=4))
        def test_identical_coalitions(self, algorithm, layout, instances):
            for segments in ("single", "multi"):
                _assert_matches_reference(
                    algorithm, layout, segments, instances
                )


class TestTieBreak:
    """Ties must go to the smallest index on both paths."""

    def test_argmax_remaining_prefers_smallest_index(self):
        assert _argmax_remaining([3, 5, 9], {3: 1.0, 5: 1.0, 9: 1.0}.get) == 3
        assert _argmax_remaining([3, 5, 9], {3: 1.0, 5: 2.0, 9: 2.0}.get) == 5

    @ALGORITHMS
    @LAYOUTS
    @SEGMENTS
    def test_equal_weight_path_graph(self, algorithm, layout, segments):
        # Path 0-1-2-3 with equal weights: every node ties on score, so
        # the smallest index (0) goes first, eliminating 1; then 2,
        # eliminating 3.  Both paths must realise exactly {0, 2}.
        graph = InterferenceGraph(4, [(0, 1), (1, 2), (2, 3)])
        path = (graph, {j: 2.5 for j in range(4)}, [0, 1, 2, 3])
        assert REFERENCES[algorithm](*path) == [0, 2]
        _assert_matches_reference(
            algorithm, layout, segments, [path, path]
        )

    @ALGORITHMS
    @LAYOUTS
    @SEGMENTS
    def test_all_zero_weights_are_deterministic(
        self, algorithm, layout, segments
    ):
        graph = InterferenceGraph(5, [(0, 1), (1, 2), (3, 4)])
        zero = (graph, {j: 0.0 for j in range(5)}, [0, 1, 2, 3, 4])
        _assert_matches_reference(algorithm, layout, segments, [zero, zero])
