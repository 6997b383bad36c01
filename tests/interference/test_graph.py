"""Unit tests for InterferenceGraph and InterferenceMap."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import MarketConfigurationError
from repro.interference.graph import InterferenceGraph, InterferenceMap


class TestInterferenceGraphConstruction:
    def test_empty_graph_has_no_edges(self):
        graph = InterferenceGraph(4)
        assert graph.num_buyers == 4
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_zero_buyers_allowed(self):
        graph = InterferenceGraph(0)
        assert graph.num_buyers == 0

    def test_negative_size_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph(-1)

    def test_duplicate_and_reversed_edges_merge(self):
        graph = InterferenceGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph(3, [(1, 1)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph(3, [(0, 3)])
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph(3, [(-1, 0)])

    def test_edges_are_sorted_tuples(self):
        graph = InterferenceGraph(4, [(3, 1), (2, 0)])
        assert sorted(graph.edges()) == [(0, 2), (1, 3)]

    @pytest.mark.parametrize(
        "num_buyers,edges",
        [
            # Node 4 and the last node are isolated (empty CSR rows at
            # the start, middle and end of the index).
            (9, [(1, 0), (0, 3), (1, 2), (2, 5), (3, 6), (5, 6), (1, 6), (6, 2)]),
            (3, []),
            (0, []),
        ],
    )
    def test_constructors_agree(self, num_buyers, edges):
        # One edge set through all three constructors: every derived
        # view must coincide, including the CSR index the matrix and
        # edge-array constructors build up front.
        matrix = np.zeros((num_buyers, num_buyers), dtype=bool)
        for j, k in edges:
            matrix[j, k] = matrix[k, j] = True
        u = np.array([j for j, _ in edges], dtype=np.int64)
        v = np.array([k for _, k in edges], dtype=np.int64)
        reference = InterferenceGraph(num_buyers, edges)
        for graph in (
            InterferenceGraph.from_adjacency_matrix(matrix),
            # Reversed and duplicated pairs must merge like the
            # iterable constructor's.
            InterferenceGraph.from_edge_arrays(
                num_buyers, np.concatenate([v, u]), np.concatenate([u, v])
            ),
        ):
            assert graph == reference
            for j in range(num_buyers):
                assert graph.neighbors(j) == reference.neighbors(j)
            for got, want in zip(graph.neighbor_csr(), reference.neighbor_csr()):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                graph.packed_rows(), reference.packed_rows()
            )


class TestInterferenceQueries:
    @pytest.fixture
    def path_graph(self):
        # 0 - 1 - 2 - 3
        return InterferenceGraph(4, [(0, 1), (1, 2), (2, 3)])

    def test_interferes_is_symmetric(self, path_graph):
        assert path_graph.interferes(0, 1)
        assert path_graph.interferes(1, 0)
        assert not path_graph.interferes(0, 2)

    def test_neighbors(self, path_graph):
        assert path_graph.neighbors(1) == frozenset({0, 2})
        assert path_graph.neighbors(0) == frozenset({1})

    def test_degree(self, path_graph):
        assert path_graph.degree(1) == 2
        assert path_graph.degree(3) == 1

    def test_query_out_of_range_raises(self, path_graph):
        with pytest.raises(MarketConfigurationError):
            path_graph.interferes(0, 9)
        with pytest.raises(MarketConfigurationError):
            path_graph.neighbors(-1)

    def test_is_independent_true_cases(self, path_graph):
        assert path_graph.is_independent([])
        assert path_graph.is_independent([0])
        assert path_graph.is_independent([0, 2])
        assert path_graph.is_independent([0, 3])
        assert path_graph.is_independent([1, 3])

    def test_is_independent_false_cases(self, path_graph):
        assert not path_graph.is_independent([0, 1])
        assert not path_graph.is_independent([0, 1, 3])

    def test_duplicate_member_is_not_independent(self, path_graph):
        # The same (virtual) buyer twice models one buyer holding the
        # channel twice, which the dummy expansion forbids.
        assert not path_graph.is_independent([0, 0])

    def test_conflicts_with_set(self, path_graph):
        assert path_graph.conflicts_with_set(1, {0, 3})
        assert not path_graph.conflicts_with_set(0, {2, 3})
        # A node never conflicts with itself in the anchor set.
        assert not path_graph.conflicts_with_set(2, {2})

    def test_compatible_filter(self, path_graph):
        compatible = path_graph.independent_subset_greedily_compatible(
            anchor=[1], candidates=[0, 2, 3]
        )
        assert compatible == [3]

    def test_compatible_filter_excludes_anchor_members(self, path_graph):
        compatible = path_graph.independent_subset_greedily_compatible(
            anchor=[0], candidates=[0, 2, 3]
        )
        assert compatible == [2, 3]


class TestNetworkxInterop:
    def test_round_trip(self):
        graph = InterferenceGraph(5, [(0, 4), (1, 2)])
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 5
        back = InterferenceGraph.from_networkx(nx_graph)
        assert back == graph

    def test_from_networkx_keeps_isolated_high_nodes(self):
        nx_graph = nx.Graph()
        nx_graph.add_node(7)
        graph = InterferenceGraph.from_networkx(nx_graph)
        assert graph.num_buyers == 8

    def test_from_networkx_rejects_non_int_nodes(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge("a", "b")
        with pytest.raises(MarketConfigurationError):
            InterferenceGraph.from_networkx(nx_graph)

    def test_equality_and_hash(self):
        a = InterferenceGraph(3, [(0, 1)])
        b = InterferenceGraph(3, [(1, 0)])
        c = InterferenceGraph(3, [(0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


class TestInterferenceMap:
    def test_requires_at_least_one_channel(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceMap([])

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(MarketConfigurationError):
            InterferenceMap([InterferenceGraph(3), InterferenceGraph(4)])

    def test_indexing_and_iteration(self):
        graphs = [InterferenceGraph(3, [(0, 1)]), InterferenceGraph(3)]
        imap = InterferenceMap(graphs)
        assert imap.num_channels == 2
        assert imap.num_buyers == 3
        assert imap[0].num_edges == 1
        assert len(list(imap)) == 2
        assert len(imap) == 2

    def test_channel_out_of_range(self):
        imap = InterferenceMap([InterferenceGraph(3)])
        with pytest.raises(MarketConfigurationError):
            imap.graph(1)

    def test_interferes_and_independent_delegate(self):
        imap = InterferenceMap(
            [InterferenceGraph(3, [(0, 1)]), InterferenceGraph(3, [(1, 2)])]
        )
        assert imap.interferes(0, 0, 1)
        assert not imap.interferes(1, 0, 1)
        assert imap.is_independent(1, [0, 1])
        assert not imap.is_independent(0, [0, 1])

    def test_with_clique_adds_edges_on_all_channels(self):
        imap = InterferenceMap([InterferenceGraph(4), InterferenceGraph(4)])
        expanded = imap.with_clique([0, 2, 3])
        for channel in range(2):
            assert expanded.interferes(channel, 0, 2)
            assert expanded.interferes(channel, 0, 3)
            assert expanded.interferes(channel, 2, 3)
            assert not expanded.interferes(channel, 0, 1)
        # Original map is untouched (immutability).
        assert imap[0].num_edges == 0

    def test_density(self):
        imap = InterferenceMap([InterferenceGraph(4, [(0, 1), (2, 3)])])
        assert imap.density(0) == pytest.approx(2 / 6)

    def test_density_of_tiny_graph_is_zero(self):
        imap = InterferenceMap([InterferenceGraph(1)])
        assert imap.density(0) == 0.0
