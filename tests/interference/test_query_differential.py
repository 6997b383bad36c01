"""Differential: CSR-backed graph queries against set-based references.

Every coalition-level query of :class:`InterferenceGraph` reads CSR rows
and membership masks.  Each is compared here with the plain adjacency-set
definition, kept in this file, on Erdos-Renyi graphs (edge lists replayed
from the generator's own draws) and on disk maps (edges from the all-pairs
distance predicate).  The Nash and pairwise scans are compared with their
set-based loops, including yield order and float values.  Coalition masks
come from packed bit rows on small graphs and from gathered CSR rows on
large ones; every test runs on both paths.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np
import pytest

from repro.core.market import SpectrumMarket
from repro.core.matching import Matching
from repro.core.stability import (
    NashBlockingMove,
    PairwiseBlockingPair,
    nash_blocking_moves,
    pairwise_blocking_pairs,
)
from repro.core.two_stage import run_two_stage
from repro.errors import MarketConfigurationError
from repro.interference import graph as graph_module
from repro.interference.generators import random_gnp_graph
from repro.interference.geometric import build_geometric_interference_map
from repro.interference.graph import InterferenceGraph, InterferenceMap
from repro.interference.mwis import _induced_adjacency

Adjacency = List[Set[int]]


@pytest.fixture(autouse=True, params=["packed-rows", "csr-rows"])
def mask_path(request, monkeypatch):
    """Run each test with masks from packed rows, then from CSR rows."""
    if request.param == "csr-rows":
        monkeypatch.setattr(graph_module, "PACKED_QUERY_MAX_BUYERS", -1)
    return request.param


# ----------------------------------------------------------------------
# Graphs with independently known adjacency sets
# ----------------------------------------------------------------------
def gnp_case(n: int, p: float, seed: int):
    """``random_gnp_graph`` plus its adjacency, replayed from the same draws."""
    graph = random_gnp_graph(n, p, np.random.default_rng(seed))
    draws = np.random.default_rng(seed)
    adjacency: Adjacency = [set() for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            if draws.random() < p:
                adjacency[j].add(k)
                adjacency[k].add(j)
    return graph, adjacency


def disk_case(n: int, ranges, seed: int):
    """A disk map plus each channel's adjacency from all-pairs distances."""
    points = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))
    imap = build_geometric_interference_map(points, ranges)
    cases = []
    for channel, radius in enumerate(ranges):
        adjacency: Adjacency = [set() for _ in range(n)]
        for j in range(n):
            for k in range(n):
                dx = points[j, 0] - points[k, 0]
                dy = points[j, 1] - points[k, 1]
                if j != k and dx * dx + dy * dy <= radius**2:
                    adjacency[j].add(k)
        cases.append((imap[channel], adjacency))
    return imap, cases


GNP_PARAMS = [(1, 0.5, 0), (12, 0.0, 1), (30, 0.15, 2), (40, 0.5, 3), (25, 1.0, 4)]
CASES = [gnp_case(n, p, seed) for n, p, seed in GNP_PARAMS]
CASES += disk_case(45, [1.0, 3.5], 5)[1]


# ----------------------------------------------------------------------
# Set-based references (the definitions)
# ----------------------------------------------------------------------
def ref_conflicts(adjacency: Adjacency, j: int, buyers) -> bool:
    return any(k in adjacency[j] for k in buyers if k != j)


def ref_independent(adjacency: Adjacency, buyers) -> bool:
    chosen = list(buyers)
    if len(set(chosen)) != len(chosen):
        return False
    return all(adjacency[j].isdisjoint(chosen) for j in chosen)


def ref_compatible(adjacency: Adjacency, anchor, candidates) -> List[int]:
    anchor_set = set(anchor)
    return [
        j
        for j in candidates
        if j not in anchor_set and not ref_conflicts(adjacency, j, anchor_set)
    ]


def ref_induced(adjacency: Adjacency, nodes) -> Dict[int, Set[int]]:
    node_set = set(nodes)
    return {j: adjacency[j] & node_set for j in node_set}


def subsets(n: int, rng: np.random.Generator, count: int):
    """Random buyer subsets of every size class, as lists (with repeats)."""
    out = [[]]
    for _ in range(count):
        size = int(rng.integers(0, n + 1))
        out.append(rng.integers(0, n, size=size).tolist())
    return out


@pytest.mark.parametrize("case", range(len(CASES)))
class TestGraphQueries:
    def test_interferes(self, case):
        graph, adjacency = CASES[case]
        n = graph.num_buyers
        for j in range(n):
            for k in range(n):
                assert graph.interferes(j, k) == (k in adjacency[j])
            assert graph.neighbors(j) == frozenset(adjacency[j])
            assert graph.degree(j) == len(adjacency[j])

    def test_conflicts_with_set(self, case):
        graph, adjacency = CASES[case]
        n = graph.num_buyers
        rng = np.random.default_rng(case)
        for buyers in subsets(n, rng, 40):
            for j in rng.integers(0, n, size=4).tolist() + buyers[:2]:
                want = ref_conflicts(adjacency, j, buyers)
                # j may itself be a member; lists, sets and frozensets agree.
                assert graph.conflicts_with_set(j, buyers) == want
                assert graph.conflicts_with_set(j, set(buyers)) == want
                assert graph.conflicts_with_set(j, frozenset(buyers)) == want
                assert graph.conflict_mask(buyers)[j] == want

    def test_is_independent(self, case):
        graph, adjacency = CASES[case]
        n = graph.num_buyers
        rng = np.random.default_rng(100 + case)
        candidates = subsets(n, rng, 40)
        # Independent sets by construction, and the same with a repeat.
        greedy: List[int] = []
        for j in rng.permutation(n).tolist():
            if adjacency[j].isdisjoint(greedy):
                greedy.append(j)
        candidates += [greedy, greedy + greedy[:1], greedy[:1]]
        for buyers in candidates:
            assert graph.is_independent(buyers) == ref_independent(adjacency, buyers)

    def test_independent_subset_greedily_compatible(self, case):
        graph, adjacency = CASES[case]
        n = graph.num_buyers
        rng = np.random.default_rng(200 + case)
        sets = subsets(n, rng, 30)
        for anchor, candidates in zip(sets, reversed(sets)):
            assert graph.independent_subset_greedily_compatible(
                anchor, candidates
            ) == ref_compatible(adjacency, anchor, candidates)

    def test_induced_adjacency(self, case):
        graph, adjacency = CASES[case]
        n = graph.num_buyers
        rng = np.random.default_rng(300 + case)
        for nodes in subsets(n, rng, 30):
            assert _induced_adjacency(graph, nodes) == ref_induced(adjacency, nodes)


# ----------------------------------------------------------------------
# Stability scans against their set-based loops
# ----------------------------------------------------------------------
def ref_nash_moves(market, adjacencies, matching) -> List[NashBlockingMove]:
    utilities = market.utilities
    moves = []
    for buyer in range(market.num_buyers):
        current_channel = matching.channel_of(buyer)
        current = matching.buyer_utility(buyer, utilities)
        for channel in range(market.num_channels):
            if channel == current_channel:
                continue
            gain = float(utilities[buyer, channel])
            if gain <= current:
                continue
            if ref_conflicts(adjacencies[channel], buyer, matching.coalition(channel)):
                continue
            moves.append(NashBlockingMove(buyer, channel, current, gain))
    return moves


def ref_pairwise(market, adjacencies, matching) -> List[PairwiseBlockingPair]:
    utilities = market.utilities
    pairs = []
    for channel in range(market.num_channels):
        coalition = matching.coalition(channel)
        for buyer in range(market.num_buyers):
            if buyer in coalition:
                continue
            price = float(utilities[buyer, channel])
            current = matching.buyer_utility(buyer, utilities)
            if price <= current:
                continue
            evicted = tuple(sorted(k for k in coalition if k in adjacencies[channel][buyer]))
            evicted_value = sum(float(utilities[k, channel]) for k in evicted)
            if price <= evicted_value:
                continue
            pairs.append(
                PairwiseBlockingPair(
                    channel, buyer, evicted, price - evicted_value, current, price
                )
            )
    return pairs


def random_matching(num_channels, num_buyers, rng) -> Matching:
    """An arbitrary matching (coalitions need not be interference-free)."""
    matching = Matching(num_channels, num_buyers)
    for buyer, channel in enumerate(rng.integers(-1, num_channels, size=num_buyers)):
        if channel >= 0:
            matching.match(buyer, int(channel))
    return matching


@pytest.mark.parametrize("seed", range(4))
def test_stability_scans_match_set_based_loops(seed):
    rng = np.random.default_rng(seed)
    n = 40
    gnp = [gnp_case(n, p, 10 * seed + c) for c, p in enumerate([0.05, 0.3])]
    disk = disk_case(n, [2.0, 0.8, 4.0], seed)[1]
    for cases in (gnp, disk):
        imap = InterferenceMap([graph for graph, _ in cases])
        adjacencies = [adjacency for _, adjacency in cases]
        utilities = rng.uniform(0.0, 1.0, size=(n, imap.num_channels))
        utilities[rng.random(utilities.shape) < 0.1] = 0.0
        market = SpectrumMarket(utilities, imap)
        for matching in (
            random_matching(imap.num_channels, n, rng),
            Matching(imap.num_channels, n),
            run_two_stage(market, record_trace=False).matching,
        ):
            assert list(nash_blocking_moves(market, matching)) == ref_nash_moves(
                market, adjacencies, matching
            )
            assert list(pairwise_blocking_pairs(market, matching)) == ref_pairwise(
                market, adjacencies, matching
            )


def test_edge_order_is_ascending():
    graph, adjacency = gnp_case(30, 0.3, 7)
    want = [(j, k) for j in range(30) for k in sorted(adjacency[j]) if j < k]
    assert list(graph.edges()) == want
    assert graph.num_edges == len(want)


@pytest.mark.parametrize("bad", [(0, 3), (-1, 0), (1, 1)])
def test_both_constructors_reject_bad_edges(bad):
    with pytest.raises(MarketConfigurationError):
        InterferenceGraph(3, [(0, 1), bad])
    with pytest.raises(MarketConfigurationError):
        InterferenceGraph.from_edge_arrays(3, [0, bad[0]], [1, bad[1]])


@pytest.mark.parametrize("bad", [-1, 5])
def test_mask_queries_reject_out_of_range_buyers(bad):
    # A negative id would otherwise index a mask from its end.
    graph = InterferenceGraph(5, [(0, 1), (3, 4)])
    with pytest.raises(MarketConfigurationError):
        graph.conflict_mask([0, bad])
    with pytest.raises(MarketConfigurationError):
        graph.is_independent([2, bad])
    with pytest.raises(MarketConfigurationError):
        graph.independent_subset_greedily_compatible([0], [2, bad])
    with pytest.raises(MarketConfigurationError):
        _induced_adjacency(graph, [1, bad])
