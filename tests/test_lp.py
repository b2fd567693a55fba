"""Tests for the exact LP minimax baseline (repro.solvers.lp)."""

import pytest

from repro.core.characterization import verify_best_responses
from repro.core.game import GameError, TupleGame
from repro.core.profits import expected_profit_tp
from repro.equilibria.solve import solve_game
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.matching.covers import minimum_edge_cover_size
from repro.solvers.lp import lp_defender_gain, lp_equilibrium, solve_minimax


class TestGameValues:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(4), path_graph(6), star_graph(4), cycle_graph(6),
         complete_bipartite_graph(2, 4), grid_graph(2, 3)],
        ids=["path4", "path6", "star4", "cycle6", "k24", "grid23"],
    )
    def test_value_is_k_over_rho_on_partitionable_graphs(self, graph):
        """Where a k-matching NE exists the duel value must match Claim
        4.3's k/rho(G)."""
        rho = minimum_edge_cover_size(graph)
        for k in range(1, rho):
            solution = solve_minimax(TupleGame(graph, k, nu=1))
            assert solution.value == pytest.approx(k / rho, abs=1e-7)

    def test_value_at_and_above_rho_is_one(self):
        graph = path_graph(4)
        rho = minimum_edge_cover_size(graph)
        for k in range(rho, graph.m + 1):
            solution = solve_minimax(TupleGame(graph, k, nu=1))
            assert solution.value == pytest.approx(1.0, abs=1e-9)

    def test_petersen_value_without_structural_ne(self):
        """Petersen admits no k-matching NE, yet the minimax value still
        equals k/rho — the gain law extends beyond the structural class."""
        graph = petersen_graph()
        for k in (1, 2, 3):
            solution = solve_minimax(TupleGame(graph, k, nu=1))
            assert solution.value == pytest.approx(k / 5, abs=1e-7)

    def test_odd_cycle_value_breaks_the_k_over_rho_law(self):
        """C5, k=1: the value is 2/5 (uniform defender over the 5 edges
        hits every vertex w.p. deg/m = 2/5), *not* k/rho = 1/3.  Outside
        the k-matching class the gain law genuinely fails — Petersen only
        matched k/rho because it has a perfect matching (rho = n/2, so
        k·2/n = k/rho).  Recorded as a boundary finding in EXPERIMENTS.md."""
        solution = solve_minimax(TupleGame(cycle_graph(5), 1, nu=1))
        assert solution.value == pytest.approx(2 / 5, abs=1e-7)
        assert solution.value > 1 / minimum_edge_cover_size(cycle_graph(5))

    def test_complete_graph_value(self):
        # K4, k=1: by symmetry the defender hits any vertex w.p. 1/2
        # (3 perfect-matching pairs); value = 1/2.
        solution = solve_minimax(TupleGame(complete_graph(4), 1, nu=1))
        assert solution.value == pytest.approx(0.5, abs=1e-7)


class TestLPEquilibrium:
    @pytest.mark.parametrize(
        "graph, k, nu",
        [(path_graph(5), 2, 3), (complete_bipartite_graph(2, 3), 1, 2),
         (petersen_graph(), 2, 2), (cycle_graph(5), 1, 4)],
        ids=["path5", "k23", "petersen", "cycle5"],
    )
    def test_lp_profile_is_nash(self, graph, k, nu):
        game = TupleGame(graph, k, nu)
        config, solution = lp_equilibrium(game)
        ok, gaps = verify_best_responses(game, config, tol=1e-6)
        assert ok, gaps
        assert expected_profit_tp(config) == pytest.approx(
            nu * solution.value, abs=1e-6
        )

    def test_agrees_with_structural_gain(self):
        graph = grid_graph(2, 4)
        rho = minimum_edge_cover_size(graph)
        for k in range(1, rho):
            game = TupleGame(graph, k, nu=6)
            structural = solve_game(game).defender_gain
            assert lp_defender_gain(game) == pytest.approx(structural, abs=1e-6)

    def test_distributions_are_normalized(self):
        game = TupleGame(path_graph(5), 2, nu=1)
        solution = solve_minimax(game)
        assert sum(solution.defender.values()) == pytest.approx(1.0)
        assert sum(solution.attacker.values()) == pytest.approx(1.0)
        assert all(p > 0 for p in solution.defender.values())
        assert all(p > 0 for p in solution.attacker.values())

    def test_tuple_limit_guard(self):
        game = TupleGame(complete_bipartite_graph(5, 6), 10, nu=1)
        with pytest.raises(GameError, match="exceed the LP limit"):
            solve_minimax(game, tuple_limit=100)

    def test_repr(self):
        solution = solve_minimax(TupleGame(path_graph(4), 1, nu=1))
        assert "value=" in repr(solution)


class TestPayoffDuel:
    def test_mapping_payoffs(self):
        from repro.solvers.lp import minimax_over_strategies

        # Matching pennies in defender payoffs: value 0, both sides 50/50.
        payoffs = {"H": {"h": 1.0, "t": -1.0}, "T": {"h": -1.0, "t": 1.0}}
        solution = minimax_over_strategies(["h", "t"], ["H", "T"], payoffs.get)
        assert solution.value == pytest.approx(0.0, abs=1e-9)
        assert solution.defender == pytest.approx({"H": 0.5, "T": 0.5})
        assert solution.attacker == pytest.approx({"h": 0.5, "t": 0.5})

    def test_unit_scale_reproduces_coverage_matrix(self):
        from repro.core.tuples import all_tuples, tuple_vertices
        from repro.solvers.lp import _payoff_matrix, _scaled_coverage

        graph = cycle_graph(5)
        vertices = graph.sorted_vertices()
        tuples = list(all_tuples(graph, 2))
        plain = _payoff_matrix(vertices, tuples, tuple_vertices)
        scaled = _payoff_matrix(vertices, tuples, _scaled_coverage(
            dict.fromkeys(vertices, 1.0), dict.fromkeys(vertices, 0.0),
        ))
        assert plain.tobytes() == scaled.tobytes()
