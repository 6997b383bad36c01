"""Tests for the disk-model interference construction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MarketConfigurationError
from repro.interference.geometric import (
    build_geometric_interference_map,
    disk_interference_graph,
)
from repro.interference.graph import InterferenceGraph


class TestDiskGraph:
    def test_pairs_within_range_interfere(self):
        locations = [(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)]
        graph = disk_interference_graph(locations, transmission_range=1.5)
        assert graph.interferes(0, 1)
        assert not graph.interferes(0, 2)
        assert not graph.interferes(1, 2)

    def test_boundary_distance_is_inclusive(self):
        locations = [(0.0, 0.0), (2.0, 0.0)]
        graph = disk_interference_graph(locations, transmission_range=2.0)
        assert graph.interferes(0, 1)

    def test_diagonal_distance(self):
        locations = [(0.0, 0.0), (3.0, 4.0)]  # distance 5
        assert disk_interference_graph(locations, 5.0).interferes(0, 1)
        assert not disk_interference_graph(locations, 4.99).interferes(0, 1)

    def test_zero_range_rejected(self):
        with pytest.raises(MarketConfigurationError):
            disk_interference_graph([(0.0, 0.0)], 0.0)

    def test_empty_locations(self):
        graph = disk_interference_graph(np.empty((0, 2)), 1.0)
        assert graph.num_buyers == 0

    def test_bad_location_shape_rejected(self):
        with pytest.raises(MarketConfigurationError):
            disk_interference_graph([(0.0, 0.0, 0.0)], 1.0)

    def test_single_point_graph(self):
        graph = disk_interference_graph([(1.0, 1.0)], 3.0)
        assert graph.num_buyers == 1
        assert graph.num_edges == 0

    def test_coincident_points_interfere(self):
        graph = disk_interference_graph([(2.0, 2.0), (2.0, 2.0)], 0.1)
        assert graph.interferes(0, 1)


class TestGeometricMap:
    def test_larger_range_is_denser(self, rng):
        locations = rng.uniform(0, 10, size=(40, 2))
        imap = build_geometric_interference_map(locations, [0.5, 2.0, 5.0])
        assert imap.num_channels == 3
        edges = [imap[i].num_edges for i in range(3)]
        assert edges[0] <= edges[1] <= edges[2]
        assert edges[2] > edges[0]  # with 40 points this is essentially sure

    def test_edge_subset_monotonicity(self, rng):
        """Every edge of a smaller-range channel appears in a larger one."""
        locations = rng.uniform(0, 10, size=(25, 2))
        imap = build_geometric_interference_map(locations, [1.0, 4.0])
        small, large = imap[0], imap[1]
        for j, k in small.edges():
            assert large.interferes(j, k)

    def test_requires_a_channel(self):
        with pytest.raises(MarketConfigurationError):
            build_geometric_interference_map([(0.0, 0.0)], [])


class TestNonFiniteGeometry:
    """Non-finite input fails loudly instead of yielding a wrong graph."""

    def test_nan_range_rejected(self):
        with pytest.raises(MarketConfigurationError, match="nan"):
            build_geometric_interference_map([(0.0, 0.0), (1.0, 0.0)], [1.0, math.nan])

    def test_nan_coordinate_rejected(self):
        with pytest.raises(MarketConfigurationError, match="nan"):
            build_geometric_interference_map([(0.0, 0.0), (math.nan, 1.0)], [2.0])

    def test_infinite_coordinate_rejected(self):
        with pytest.raises(MarketConfigurationError, match="inf"):
            build_geometric_interference_map([(0.0, -math.inf), (0.0, 1.0)], [2.0])

    def test_infinite_range_makes_everyone_interfere(self):
        points = [(0.0, 0.0), (1e6, 0.0), (0.0, -1e9)]
        graph = build_geometric_interference_map(points, [math.inf])[0]
        assert graph.num_edges == 3


# ----------------------------------------------------------------------
# Differential: the one builder against an all-pairs reference
# ----------------------------------------------------------------------
def reference_csr(points: np.ndarray, transmission_range: float):
    """Disk graph CSR from the full N x N squared-distance matrix."""
    n = points.shape[0]
    deltas = points[:, None, :] - points[None, :, :]
    sq_dist = np.einsum("ijk,ijk->ij", deltas, deltas)
    adjacency = sq_dist <= float(transmission_range) ** 2
    np.fill_diagonal(adjacency, False)
    assert np.array_equal(adjacency, adjacency.T)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(adjacency, axis=1), out=indptr[1:])
    indices = (np.flatnonzero(adjacency) % max(n, 1)).astype(np.int32)
    return indptr, indices


def assert_matches_reference(points, ranges) -> None:
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = points.shape[0]
    imap = build_geometric_interference_map(points, ranges)
    assert imap.num_channels == len(ranges)
    for channel, radius in enumerate(ranges):
        graph = imap[channel]
        want_ptr, want_idx = reference_csr(points, radius)
        got_ptr, got_idx = graph.neighbor_csr()
        assert got_ptr.dtype == np.int64 and got_idx.dtype == np.int32
        np.testing.assert_array_equal(got_ptr, want_ptr)
        np.testing.assert_array_equal(got_idx, want_idx)
        src = np.repeat(np.arange(n), np.diff(want_ptr))
        reference = InterferenceGraph(
            n, [(j, k) for j, k in zip(src.tolist(), want_idx.tolist()) if j < k]
        )
        assert graph == reference
        assert hash(graph) == hash(reference)
        np.testing.assert_array_equal(graph.packed_rows(), reference.packed_rows())
        assert disk_interference_graph(points, radius) == graph


class TestBuilderDifferential:
    """The nested KD-tree builder reproduces the all-pairs disk predicate."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ranges=st.lists(
            st.floats(min_value=0.05, max_value=12.0), min_size=1, max_size=5
        ),
        repeat_first=st.booleans(),
    )
    def test_uniform_deployments(self, n, seed, ranges, repeat_first):
        # Ranges come unsorted; repeat_first adds a duplicate radius.
        ranges = ranges + ranges[:1] if repeat_first else ranges
        points = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 2))
        assert_matches_reference(points, ranges)

    def test_lattice_pairs_on_the_boundary(self):
        # Integer points: many pairs lie exactly at distance 1, sqrt(2), 2
        # or 5 (3-4-5 triangles), so the inclusive boundary is exercised.
        xs, ys = np.meshgrid(np.arange(7.0), np.arange(6.0))
        points = np.column_stack([xs.ravel(), ys.ravel()])
        assert_matches_reference(points, [2.0, 1.0, 5.0, math.sqrt(2), 2.0])

    def test_coincident_points(self):
        points = [(1.0, 1.0)] * 4 + [(1.5, 1.0), (1.0, 1.0), (4.0, 4.0)]
        assert_matches_reference(points, [0.5, 1e-9, 3.0])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs(self, n):
        points = [(0.0, 0.0), (0.5, 0.5)][:n]
        assert_matches_reference(points, [1.0, 0.1])

    def test_infinite_range(self, rng):
        points = rng.uniform(0.0, 10.0, size=(25, 2))
        assert_matches_reference(points, [1.5, math.inf, 4.0])
