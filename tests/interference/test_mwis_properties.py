"""Property-based tests (hypothesis) for the MWIS solvers."""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interference.graph import InterferenceGraph
from repro.interference.mwis import (
    gwmin_lower_bound,
    is_independent_set,
    mwis_exact,
    mwis_greedy_gwmax,
    mwis_greedy_gwmin,
    mwis_greedy_gwmin2,
)


@st.composite
def weighted_graphs(draw, max_nodes: int = 9):
    """Random small graph + positive weights (exact solver stays fast)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    possible_edges = [(j, k) for j in range(n) for k in range(j + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
        if possible_edges
        else st.just([])
    )
    # Weights are either exactly zero or >= 0.01: sub-epsilon weights make
    # "maximality" undecidable in float arithmetic (1.0 + 1e-244 == 1.0),
    # which is a property of IEEE 754, not of the solver.
    weight_strategy = st.one_of(
        st.just(0.0),
        st.floats(
            min_value=0.01, max_value=10.0, allow_nan=False, allow_infinity=False
        ),
    )
    weights = {j: draw(weight_strategy) for j in range(n)}
    return InterferenceGraph(n, edges), weights


def gwmin2_lower_bound(graph, weights, nodes) -> float:
    """Sakai et al.'s GWMIN2 guarantee ``sum w(v)^2 / W(N+(v))``.

    ``W(N+(v))`` is the weight of ``v``'s closed neighbourhood within
    ``nodes``; a vertex whose closed neighbourhood weighs nothing adds 0.
    """
    pool = set(nodes)
    bound = 0.0
    for v in pool:
        closed = weights[v] + sum(weights[u] for u in graph.neighbors(v) & pool)
        if closed > 0.0:
            bound += weights[v] ** 2 / closed
    return bound


#: GWMIN2 meets its own bound here (4.75 >= 4.646) but not GWMIN's
#: degree bound (4.833): it takes buyer 1 (score 4.75/11.25 = 0.422 beats
#: 3.25/8 = 0.406), which blocks buyers 5 and 6.
BELOW_DEGREE_BOUND = (
    InterferenceGraph(7, [(1, 5), (1, 6)]),
    {0: 0.0, 1: 4.75, 2: 0.0, 3: 0.0, 4: 0.0, 5: 3.25, 6: 3.25},
)


@given(weighted_graphs())
@settings(max_examples=150, deadline=None)
def test_greedy_outputs_are_independent_sets(case):
    graph, weights = case
    nodes = range(graph.num_buyers)
    for solver in (mwis_greedy_gwmin, mwis_greedy_gwmin2, mwis_greedy_gwmax):
        assert is_independent_set(graph, solver(graph, weights, nodes))


@given(weighted_graphs())
@settings(max_examples=150, deadline=None)
def test_exact_dominates_every_greedy(case):
    graph, weights = case
    nodes = range(graph.num_buyers)
    exact_value = sum(weights[j] for j in mwis_exact(graph, weights, nodes))
    for solver in (mwis_greedy_gwmin, mwis_greedy_gwmin2, mwis_greedy_gwmax):
        greedy_value = sum(weights[j] for j in solver(graph, weights, nodes))
        assert greedy_value <= exact_value + 1e-9


@given(weighted_graphs())
@settings(max_examples=150, deadline=None)
def test_gwmin_achieves_sakai_bound(case):
    """Sakai et al. Theorem: GWMIN >= sum w(v)/(deg(v)+1)."""
    graph, weights = case
    nodes = range(graph.num_buyers)
    value = sum(weights[j] for j in mwis_greedy_gwmin(graph, weights, nodes))
    assert value >= gwmin_lower_bound(graph, weights, nodes) - 1e-9


@given(weighted_graphs())
@example(BELOW_DEGREE_BOUND)
@settings(max_examples=150, deadline=None)
def test_gwmin2_achieves_sakai_bound(case):
    """Sakai et al. Theorem: GWMIN2 >= sum w(v)^2 / W(N+(v)).

    GWMIN2's guarantee is its own, not GWMIN's degree bound: it can fall
    below ``sum w(v)/(deg(v)+1)`` (see ``BELOW_DEGREE_BOUND``).
    """
    graph, weights = case
    nodes = range(graph.num_buyers)
    value = sum(weights[j] for j in mwis_greedy_gwmin2(graph, weights, nodes))
    assert value >= gwmin2_lower_bound(graph, weights, nodes) - 1e-9


@given(weighted_graphs())
@settings(max_examples=100, deadline=None)
def test_exact_is_maximal(case):
    """No leftover vertex can be added to the exact solution for free."""
    graph, weights = case
    nodes = list(range(graph.num_buyers))
    chosen = set(mwis_exact(graph, weights, nodes))
    for j in nodes:
        if j in chosen:
            continue
        if weights[j] > 0 and not graph.conflicts_with_set(j, chosen):
            raise AssertionError(
                f"vertex {j} (weight {weights[j]}) could extend {sorted(chosen)}"
            )


@given(weighted_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_exact_invariant_under_pool_order(case, rnd):
    """The exact optimum must not depend on candidate enumeration order."""
    graph, weights = case
    nodes = list(range(graph.num_buyers))
    baseline = mwis_exact(graph, weights, nodes)
    shuffled = list(nodes)
    rnd.shuffle(shuffled)
    assert mwis_exact(graph, weights, shuffled) == baseline
