"""Maximum-weight-independent-set (MWIS) solvers.

When a seller forms her most-preferred spectrum coalition (Algorithm 1,
line 12), she must pick a set of mutually non-interfering buyers with
maximum total offered price -- an MWIS on her channel's interference graph
restricted to the waitlist plus current proposers.  MWIS is NP-hard, so the
paper adopts the linear-time greedy algorithms of Sakai, Togasaki and
Yamazaki, "A note on greedy algorithms for the maximum weighted independent
set problem" (Discrete Applied Mathematics, 2003) -- reference [8].

This module implements the three greedy variants from that paper plus an
exact branch-and-bound solver used as ground truth in tests and in the
MWIS-ablation benchmark:

* **GWMIN** -- repeatedly take the vertex maximising ``w(v) / (deg(v)+1)``
  in the current graph, then delete it and its neighbours.  Guarantees a
  solution of weight at least ``sum_v w(v)/(deg_G(v)+1)``.
* **GWMIN2** -- same loop but scores ``w(v) / sum_{u in N+(v)} w(u)`` where
  ``N+(v)`` is the closed neighbourhood.  Guarantees at least
  ``sum_v w(v)^2 / W(N+(v))``, which is not GWMIN's bound: on some graphs
  GWMIN2 falls below ``sum_v w(v)/(deg_G(v)+1)``.
* **GWMAX** -- repeatedly *delete* the vertex minimising
  ``w(v) / (deg(v) * (deg(v)+1))`` until no edges remain; the survivors form
  an independent set.
* **exact** -- branch and bound with a sum-of-remaining-weights bound.

All solvers operate on an induced subset of an
:class:`~repro.interference.graph.InterferenceGraph` so sellers can restrict
the search to their current candidate pool, and all break ties
deterministically (strictly-greater score wins, equal scores go to the
smallest buyer index) so simulation runs are reproducible.

These set-based loops are the reference implementations.  Stage I's
batched kernel (:mod:`repro.core.soa`) reproduces GWMIN and GWMIN2
selection for selection -- the differential suite asserts
element-for-element equality on random graphs -- and every other caller
(Stage II, the distributed sellers, :func:`mwis_solve`) runs the loops
here directly.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, Mapping, Set

from repro.errors import MarketConfigurationError, SolverError, SolverLimitExceeded
from repro.interference.graph import InterferenceGraph

__all__ = [
    "MwisAlgorithm",
    "mwis_greedy_gwmin",
    "mwis_greedy_gwmin2",
    "mwis_greedy_gwmax",
    "mwis_exact",
    "mwis_solve",
    "is_independent_set",
    "gwmin_lower_bound",
]

#: Exact solver refuses candidate pools larger than this unless overridden;
#: 2^60 branch nodes would be intractable, and the matching core only ever
#: needs exact answers on small pools (tests, toy examples, optimal solver).
DEFAULT_EXACT_NODE_LIMIT = 60


class MwisAlgorithm(str, enum.Enum):
    """Selector for :func:`mwis_solve` (used by sellers and ablations)."""

    GWMIN = "gwmin"
    GWMIN2 = "gwmin2"
    GWMAX = "gwmax"
    EXACT = "exact"


def _induced_adjacency(
    graph: InterferenceGraph, nodes: Iterable[int]
) -> Dict[int, Set[int]]:
    """Adjacency of the subgraph induced by ``nodes`` (validates indices).

    Each member's CSR row is intersected with the node set directly.
    """
    node_set = set(nodes)
    n = graph.num_buyers
    indptr, indices = graph.neighbor_csr()
    adjacency: Dict[int, Set[int]] = {}
    for j in node_set:
        if not 0 <= j < n:
            raise MarketConfigurationError(f"buyer index {j} out of range [0, {n})")
        adjacency[j] = node_set.intersection(indices[indptr[j] : indptr[j + 1]].tolist())
    return adjacency


def _validate_weights(weights: Mapping[int, float], nodes: Iterable[int]) -> None:
    for j in nodes:
        if j not in weights:
            raise SolverError(f"missing weight for buyer {j}")
        if weights[j] < 0:
            raise SolverError(
                f"negative weight {weights[j]} for buyer {j}; prices must be >= 0"
            )


def is_independent_set(graph: InterferenceGraph, nodes: Iterable[int]) -> bool:
    """Check that ``nodes`` form an independent set of ``graph``."""
    return graph.is_independent(nodes)


def gwmin_lower_bound(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
) -> float:
    """Sakai et al.'s GWMIN guarantee ``sum w(v) / (deg(v)+1)`` on the pool.

    Any GWMIN output is guaranteed to weigh at least this much; the property
    tests assert it.
    """
    adjacency = _induced_adjacency(graph, nodes)
    _validate_weights(weights, adjacency)
    return sum(weights[j] / (len(adjacency[j]) + 1.0) for j in adjacency)


def _argmax_remaining(
    remaining: List[int], score_of: Callable[[int], float]
) -> int:
    """Deterministic argmax: strictly-greater score wins, ties go to the
    smallest buyer index.

    ``remaining`` must be in ascending index order; scanning it front to
    back and advancing only on a strict improvement realises the
    tie-break rule explicitly (the historical ``max(..., key=(score,
    -j))`` encoded the same rule, but only implicitly through tuple
    comparison of a float and a negated index).
    """
    best = remaining[0]
    best_score = score_of(best)
    for j in remaining[1:]:
        s = score_of(j)
        if s > best_score:
            best, best_score = j, s
    return best


def _greedy_select(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
    score: Callable[[int, Dict[int, Set[int]]], float],
) -> List[int]:
    """Shared set-based select-and-remove loop (GWMIN reference path)."""
    adjacency = _induced_adjacency(graph, nodes)
    _validate_weights(weights, adjacency)
    chosen: List[int] = []
    remaining = sorted(adjacency)
    while remaining:
        best = _argmax_remaining(remaining, lambda j: score(j, adjacency))
        chosen.append(best)
        removed = {best} | adjacency[best]
        remaining = [j for j in remaining if j not in removed]
        for j in removed:
            for k in adjacency[j]:
                adjacency[k].discard(j)
            del adjacency[j]
    chosen.sort()
    return chosen


def mwis_greedy_gwmin(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
) -> List[int]:
    """GWMIN greedy MWIS on the subgraph induced by ``nodes``.

    Returns the selected buyers in ascending index order.
    """

    def score(j: int, adjacency: Dict[int, Set[int]]) -> float:
        return weights[j] / (len(adjacency[j]) + 1.0)

    return _greedy_select(graph, weights, nodes, score)


def mwis_greedy_gwmin2(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
) -> List[int]:
    """GWMIN2 greedy MWIS (closed-neighbourhood weight ratio scoring).

    Each node's closed-neighbourhood weight is initialised by an
    ascending-index sum and decremented once per removed neighbour in
    ascending order; Stage I's batched kernel replays this exact
    floating-point operation sequence, so both return identical
    coalitions.
    """
    adjacency = _induced_adjacency(graph, nodes)
    _validate_weights(weights, adjacency)
    closed: Dict[int, float] = {}
    for j in sorted(adjacency):
        acc = 0.0
        for k in sorted(adjacency[j]):
            acc += weights[k]
        closed[j] = weights[j] + acc

    def score_of(j: int) -> float:
        if closed[j] <= 0.0:
            # All weights in the closed neighbourhood are zero: the choice
            # is welfare-neutral, any deterministic value works.
            return 0.0
        return weights[j] / closed[j]

    chosen: List[int] = []
    remaining = sorted(adjacency)
    while remaining:
        best = _argmax_remaining(remaining, score_of)
        chosen.append(best)
        removed = {best} | adjacency[best]
        remaining = [j for j in remaining if j not in removed]
        for r in sorted(removed):
            for k in sorted(adjacency[r]):
                if k not in removed:
                    closed[k] -= weights[r]
        for j in removed:
            for k in adjacency[j]:
                adjacency[k].discard(j)
            del adjacency[j]
    chosen.sort()
    return chosen


def mwis_greedy_gwmax(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
) -> List[int]:
    """GWMAX greedy MWIS: delete lowest-value vertices until edge-free."""
    adjacency = _induced_adjacency(graph, nodes)
    _validate_weights(weights, adjacency)

    def score(j: int) -> float:
        degree = len(adjacency[j])
        # Vertices that are already isolated are never deleted.
        return weights[j] / (degree * (degree + 1.0))

    while True:
        with_edges = [j for j in adjacency if adjacency[j]]
        if not with_edges:
            break
        # Delete the vertex with the smallest score; ties broken by largest
        # index so the *kept* set is biased toward small indices, matching
        # the other solvers' tie-break direction.
        victim = min(with_edges, key=lambda j: (score(j), j))
        for k in adjacency[victim]:
            adjacency[k].discard(victim)
        del adjacency[victim]
    return sorted(adjacency)


def mwis_exact(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
    node_limit: int = DEFAULT_EXACT_NODE_LIMIT,
) -> List[int]:
    """Exact MWIS via branch and bound.

    Vertices are branched in descending-weight order; the search prunes with
    the trivial bound ``current + sum(remaining weights)``.  Ties between
    equal-weight optima are broken toward the lexicographically smallest
    buyer-index set, so results are deterministic.

    Raises
    ------
    SolverLimitExceeded
        If the candidate pool exceeds ``node_limit`` vertices.
    """
    adjacency = _induced_adjacency(graph, nodes)
    _validate_weights(weights, adjacency)
    pool = sorted(adjacency, key=lambda j: (-weights[j], j))
    if len(pool) > node_limit:
        raise SolverLimitExceeded(
            f"exact MWIS limited to {node_limit} nodes, got {len(pool)}"
        )

    suffix_weight = [0.0] * (len(pool) + 1)
    for idx in range(len(pool) - 1, -1, -1):
        suffix_weight[idx] = suffix_weight[idx + 1] + weights[pool[idx]]

    best_weight = -1.0
    best_set: List[int] = []

    def consider(candidate: List[int], weight: float) -> None:
        nonlocal best_weight, best_set
        key = sorted(candidate)
        # Strict improvement wins; exact ties go to the lexicographically
        # smallest index set (deterministic, and never discards a strictly
        # positive improvement however small).
        if weight > best_weight or (weight == best_weight and key < best_set):
            best_weight = weight
            best_set = key

    def branch(idx: int, chosen: List[int], blocked: Set[int], weight: float) -> None:
        if weight + suffix_weight[idx] < best_weight - 1e-12:
            return
        if idx == len(pool):
            consider(chosen, weight)
            return
        vertex = pool[idx]
        if vertex not in blocked:
            newly_blocked = adjacency[vertex] - blocked
            chosen.append(vertex)
            branch(idx + 1, chosen, blocked | newly_blocked, weight + weights[vertex])
            chosen.pop()
        branch(idx + 1, chosen, blocked, weight)

    branch(0, [], set(), 0.0)
    return best_set


_DISPATCH: Dict[MwisAlgorithm, Callable[..., List[int]]] = {
    MwisAlgorithm.GWMIN: mwis_greedy_gwmin,
    MwisAlgorithm.GWMIN2: mwis_greedy_gwmin2,
    MwisAlgorithm.GWMAX: mwis_greedy_gwmax,
    MwisAlgorithm.EXACT: mwis_exact,
}


def mwis_solve(
    graph: InterferenceGraph,
    weights: Mapping[int, float],
    nodes: Iterable[int],
    algorithm: MwisAlgorithm = MwisAlgorithm.GWMIN,
) -> List[int]:
    """Solve MWIS on the induced subgraph with the selected algorithm.

    This is the entry point used by sellers when forming coalitions; the
    algorithm choice is a market-level configuration knob (see
    :class:`~repro.core.market.SpectrumMarket`) and the subject of the
    ``bench_mwis`` ablation.
    """
    algorithm = MwisAlgorithm(algorithm)
    solver = _DISPATCH[algorithm]
    return solver(graph, weights, nodes)
