"""Unit tests for the MWIS solvers (greedy variants + exact)."""

from __future__ import annotations

import pytest

from repro.errors import MarketConfigurationError, SolverError, SolverLimitExceeded
from repro.interference.generators import complete_graph, empty_graph, ring_graph
from repro.interference.graph import InterferenceGraph
from repro.interference.mwis import (
    MwisAlgorithm,
    gwmin_lower_bound,
    is_independent_set,
    mwis_exact,
    mwis_greedy_gwmax,
    mwis_greedy_gwmin,
    mwis_greedy_gwmin2,
    mwis_solve,
)

ALL_SOLVERS = [
    mwis_greedy_gwmin,
    mwis_greedy_gwmin2,
    mwis_greedy_gwmax,
    mwis_exact,
]


@pytest.fixture
def path4():
    # 0 - 1 - 2 - 3
    return InterferenceGraph(4, [(0, 1), (1, 2), (2, 3)])


class TestAllSolversBasics:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_empty_pool(self, solver, path4):
        assert solver(path4, {}, []) == []

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_singleton(self, solver, path4):
        assert solver(path4, {2: 1.0}, [2]) == [2]

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_no_edges_takes_everything(self, solver):
        graph = empty_graph(5)
        weights = {j: float(j + 1) for j in range(5)}
        assert solver(graph, weights, range(5)) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_complete_graph_takes_heaviest(self, solver):
        graph = complete_graph(4)
        weights = {0: 1.0, 1: 5.0, 2: 3.0, 3: 2.0}
        assert solver(graph, weights, range(4)) == [1]

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_output_is_independent(self, solver, path4):
        weights = {0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0}
        result = solver(path4, weights, range(4))
        assert is_independent_set(path4, result)

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_missing_weight_raises(self, solver, path4):
        with pytest.raises(SolverError):
            solver(path4, {0: 1.0}, [0, 1])

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_negative_weight_raises(self, solver, path4):
        with pytest.raises(SolverError):
            solver(path4, {0: -1.0}, [0])

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_respects_subset_restriction(self, solver, path4):
        weights = {j: 1.0 for j in range(4)}
        result = solver(path4, weights, [1, 2])
        assert set(result) <= {1, 2}
        assert len(result) == 1


class TestExactSolver:
    def test_path_optimum(self, path4):
        # Optimal on the path with these weights is {1, 3} = 7.
        weights = {0: 1.0, 1: 5.0, 2: 4.0, 3: 2.0}
        assert mwis_exact(path4, weights, range(4)) == [1, 3]

    def test_ring_optimum(self):
        graph = ring_graph(5)
        weights = {j: 1.0 for j in range(5)}
        result = mwis_exact(graph, weights, range(5))
        assert len(result) == 2  # max independent set of C5 has size 2
        assert is_independent_set(graph, result)

    def test_tie_break_is_lexicographic(self):
        graph = InterferenceGraph(3, [(0, 1)])
        weights = {0: 1.0, 1: 1.0, 2: 1.0}
        # {0, 2} and {1, 2} both weigh 2; lexicographically smaller wins.
        assert mwis_exact(graph, weights, range(3)) == [0, 2]

    def test_node_limit(self, path4):
        with pytest.raises(SolverLimitExceeded):
            mwis_exact(path4, {j: 1.0 for j in range(4)}, range(4), node_limit=3)

    def test_zero_weights_allowed(self, path4):
        result = mwis_exact(path4, {j: 0.0 for j in range(4)}, range(4))
        assert is_independent_set(path4, result)


class TestGreedyKnownBehaviours:
    def test_gwmin_prefers_high_ratio(self):
        # Star: hub weight 3 with 3 spokes of weight 2 each.
        graph = InterferenceGraph(4, [(0, 1), (0, 2), (0, 3)])
        weights = {0: 3.0, 1: 2.0, 2: 2.0, 3: 2.0}
        # hub ratio 3/4; spoke ratio 2/2=1 -> spokes win; total 6 (optimal).
        assert mwis_greedy_gwmin(graph, weights, range(4)) == [1, 2, 3]

    def test_gwmin_bound_holds_on_fixture(self):
        graph = ring_graph(6)
        weights = {j: float(j + 1) for j in range(6)}
        result = mwis_greedy_gwmin(graph, weights, range(6))
        achieved = sum(weights[j] for j in result)
        assert achieved >= gwmin_lower_bound(graph, weights, range(6)) - 1e-9

    def test_gwmin2_can_fall_below_the_gwmin_degree_bound(self):
        """GWMIN's guarantee is not GWMIN2's: here GWMIN2 takes buyer 1
        (4.75/11.25 = 0.422 beats 3.25/8 = 0.406) and misses 5 and 6."""
        graph = InterferenceGraph(7, [(1, 5), (1, 6)])
        weights = {j: 0.0 for j in range(7)}
        weights.update({1: 4.75, 5: 3.25, 6: 3.25})
        chosen = mwis_greedy_gwmin2(graph, weights, range(7))
        assert 1 in chosen and 5 not in chosen and 6 not in chosen
        achieved = sum(weights[j] for j in chosen)
        assert achieved == pytest.approx(4.75)
        assert gwmin_lower_bound(graph, weights, range(7)) == pytest.approx(
            4.75 / 3 + 3.25
        )
        assert achieved < gwmin_lower_bound(graph, weights, range(7))

    def test_gwmin2_handles_zero_weight_neighbourhood(self):
        graph = InterferenceGraph(2, [(0, 1)])
        result = mwis_greedy_gwmin2(graph, {0: 0.0, 1: 0.0}, [0, 1])
        assert len(result) == 1

    def test_gwmax_removes_light_vertices_first(self):
        # Triangle with one heavy vertex: GWMAX must keep the heavy one.
        graph = complete_graph(3)
        weights = {0: 10.0, 1: 1.0, 2: 1.0}
        assert mwis_greedy_gwmax(graph, weights, range(3)) == [0]


class TestDispatch:
    def test_solve_accepts_enum_and_string(self, path4):
        weights = {j: 1.0 for j in range(4)}
        by_enum = mwis_solve(path4, weights, range(4), MwisAlgorithm.EXACT)
        by_string = mwis_solve(path4, weights, range(4), "exact")
        assert by_enum == by_string

    def test_solve_unknown_algorithm_raises(self, path4):
        with pytest.raises(ValueError):
            mwis_solve(path4, {0: 1.0}, [0], "nonsense")

    @pytest.mark.parametrize("algorithm", list(MwisAlgorithm))
    def test_out_of_range_node_raises(self, algorithm, path4):
        with pytest.raises(MarketConfigurationError, match="out of range"):
            mwis_solve(path4, {0: 1.0, 4: 1.0}, [0, 4], algorithm)
