import math

import pytest
from hypothesis import given

from idcodes.families import clique_corona1, corona, cycle, path, random_tree, star
from idcodes.graph import from_edge_list, profile
from idcodes.identify import verify_identifying, verify_td_identifying
from idcodes.solver import (
    IsolatedVertexError,
    NotIdentifiableError,
    _closed_masks,
    _open_masks,
    _reduce_constraints,
    _separation_masks,
    gamma_id,
    gamma_tid,
)

from conftest import connected_graphs, graphs
from oracles import all_pairs_separation_masks, naive_gamma_id, naive_gamma_tid


class TestKnownValues:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (path(7), 4),
            (cycle(7), 5),
            (cycle(9), 6),
            (star(6), 5),
            (clique_corona1(3), 4),
        ],
    )
    def test_gamma_id(self, g, expected):
        result = gamma_id(g)
        assert result.value == expected
        assert result.proven_optimal
        assert verify_identifying(g, result.witness).is_valid

    def test_complete_bipartite_3_2(self):
        g = from_edge_list(5, [(a, 3 + b) for a in range(3) for b in range(2)])
        assert gamma_id(g).value == 3

    @pytest.mark.parametrize(
        "g, expected",
        [
            (clique_corona1(3), 5),
            (star(4), 3),
            (corona(path(2), 3), 6),
        ],
    )
    def test_gamma_tid(self, g, expected):
        result = gamma_tid(g)
        assert result.value == expected
        assert verify_td_identifying(g, result.witness).is_valid


class TestErrors:
    def test_closed_twins_rejected(self):
        k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotIdentifiableError):
            gamma_id(k3)
        with pytest.raises(NotIdentifiableError):
            gamma_tid(k3)

    def test_isolated_vertex_rejected_for_td(self):
        g = from_edge_list(4, [(0, 1), (1, 2)])  # vertex 3 isolated
        with pytest.raises(IsolatedVertexError):
            gamma_tid(g)
        # the plain variant still solves it
        assert gamma_id(g).value == 3


class TestBudget:
    def test_budget_exhaustion_returns_upper_witness(self):
        result = gamma_id(path(12), budget=5)
        assert not result.proven_optimal
        assert verify_identifying(path(12), result.witness).is_valid
        assert result.value >= gamma_id(path(12)).value

    def test_accounting_fields(self):
        result = gamma_id(path(6))
        assert result.nodes_explored > 0
        assert result.time >= 0.0


class TestDeterminism:
    def test_same_input_same_result(self):
        g = corona(cycle(4), 1)
        r1, r2 = gamma_id(g), gamma_id(g)
        assert r1.value == r2.value
        assert r1.witness == r2.witness
        assert r1.nodes_explored == r2.nodes_explored


class TestOracleEquivalence:
    def test_exhaustive_tiny(self):
        """All connected identifiable graphs on <= 5 vertices (labeled)."""
        from oracles import all_labeled_graphs
        from idcodes.graph import is_connected

        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                if not is_connected(g):
                    continue
                prof = profile(g)
                if not prof.identifiable:
                    continue
                assert gamma_id(g).value == naive_gamma_id(g)

    @given(connected_graphs(max_n=7))
    def test_sampled_id(self, g):
        if profile(g).identifiable:
            assert gamma_id(g).value == naive_gamma_id(g)

    @given(connected_graphs(min_n=2, max_n=6))
    def test_sampled_tid(self, g):
        prof = profile(g)
        if prof.identifiable and all(g.degree(v) > 0 for v in range(g.n)):
            assert gamma_tid(g).value == naive_gamma_tid(g)


class TestStructuralProperties:
    @given(connected_graphs(min_n=2, max_n=8))
    def test_tid_at_least_id(self, g):
        prof = profile(g)
        if prof.identifiable and all(g.degree(v) > 0 for v in range(g.n)):
            assert gamma_tid(g).value >= gamma_id(g).value

    @given(connected_graphs(min_n=3, max_n=8))
    def test_at_most_n_minus_1(self, g):
        if profile(g).identifiable:
            assert gamma_id(g).value <= g.n - 1

    @given(connected_graphs(max_n=8))
    def test_witness_reverifies(self, g):
        if profile(g).identifiable:
            result = gamma_id(g)
            assert verify_identifying(g, result.witness).is_valid
            assert len(result.witness) == result.value


class TestLocalSeparation:
    """Separation masks for pairs at distance <= 2 give the same reduced
    constraint family as masks for all pairs, under either domination."""

    @staticmethod
    def assert_same_family(g):
        local = _separation_masks(g)
        every = all_pairs_separation_masks(g)
        for domination in (_closed_masks(g), _open_masks(g)):
            assert _reduce_constraints(domination + local) == _reduce_constraints(
                domination + every
            )

    @given(connected_graphs(max_n=8))
    def test_sampled_graphs(self, g):
        self.assert_same_family(g)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [40, 60])
    def test_random_trees(self, n, seed):
        self.assert_same_family(random_tree(n, seed))


class TestBranching:
    def test_random_tree_60_within_budget(self):
        result = gamma_id(random_tree(60, 0), budget=200_000)
        assert result.proven_optimal
        assert result.value == 36
