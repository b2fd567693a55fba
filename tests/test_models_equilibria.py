"""Tests for generalized mixed profiles and the uniform-family
construction (repro.models.equilibria)."""

import pytest

from repro.core.game import GameError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
)
from repro.models.equilibria import (
    generalized_defender_profit,
    generalized_hit_probabilities,
    uniform_family_equilibrium,
    verify_generalized_nash,
)
from repro.models.families import KPathFamily, KStarFamily, KTupleFamily
from repro.models.game import GeneralizedGame


class TestRotatingPathPatrol:
    """The structural equilibrium of the [8]-style path defender on
    cycles: uniform rotation over the n k-paths."""

    @pytest.mark.parametrize("n, k", [(6, 2), (8, 3), (10, 2), (7, 3)])
    def test_cycle_rotation_is_nash(self, n, k):
        game = GeneralizedGame(cycle_graph(n), KPathFamily(k), nu=2)
        attacker, defender = uniform_family_equilibrium(game)
        ok, gaps = verify_generalized_nash(game, attacker, defender)
        assert ok, gaps
        # Value = (k+1)/n: a k-path covers k+1 of n symmetric vertices.
        hits = generalized_hit_probabilities(game, defender)
        for v in game.graph.vertices():
            assert hits[v] == pytest.approx((k + 1) / n)

    def test_value_matches_family_lp(self):
        game = GeneralizedGame(cycle_graph(8), KPathFamily(3), nu=1)
        attacker, defender = uniform_family_equilibrium(game)
        lp_value = game.solve_minimax().value
        hits = generalized_hit_probabilities(game, defender)
        assert min(hits.values()) == pytest.approx(lp_value, abs=1e-9)

    def test_defender_profit_scales_with_nu(self):
        game = GeneralizedGame(cycle_graph(6), KPathFamily(2), nu=4)
        attacker, defender = uniform_family_equilibrium(game)
        assert generalized_defender_profit(game, attacker, defender) == (
            pytest.approx(4 * 3 / 6)
        )


class TestUniformFamilyOnOtherGraphs:
    def test_complete_graph_star_family(self):
        # K5 is vertex-transitive: uniform stars equalize hits.
        game = GeneralizedGame(complete_graph(5), KStarFamily(2), nu=1)
        attacker, defender = uniform_family_equilibrium(game)
        ok, _ = verify_generalized_nash(game, attacker, defender)
        assert ok

    def test_petersen_path_family(self):
        # Petersen is vertex- and edge-transitive; path rotation works.
        game = GeneralizedGame(petersen_graph(), KPathFamily(2), nu=1)
        attacker, defender = uniform_family_equilibrium(game)
        ok, gaps = verify_generalized_nash(game, attacker, defender)
        assert ok, gaps

    def test_rejects_asymmetric_graph(self):
        game = GeneralizedGame(path_graph(6), KPathFamily(2), nu=1)
        with pytest.raises(GameError, match="not an NE"):
            uniform_family_equilibrium(game)

    def test_rejects_unequal_coverage_family(self):
        # Star family on a grid: hub stars cover k+1 vertices, corner
        # stars are degree-capped and cover fewer.
        game = GeneralizedGame(grid_graph(3, 3), KStarFamily(3), nu=1)
        with pytest.raises(GameError, match="unequal vertex counts"):
            uniform_family_equilibrium(game)


class TestVerifyGeneralizedNash:
    @pytest.fixture
    def cycle_game(self):
        return GeneralizedGame(cycle_graph(6), KPathFamily(2), nu=1)

    def test_detects_exploitable_defender(self, cycle_game):
        strategies = cycle_game.strategies
        defender = {strategies[0]: 1.0}
        attacker = {v: 1.0 / 6 for v in cycle_game.graph.vertices()}
        ok, gaps = verify_generalized_nash(cycle_game, attacker, defender)
        assert not ok
        assert gaps["attacker"] > 0.1

    def test_detects_exploitable_attacker(self, cycle_game):
        _, defender = uniform_family_equilibrium(cycle_game)
        attacker = {0: 1.0}
        ok, gaps = verify_generalized_nash(cycle_game, attacker, defender)
        # Hits are uniform, so a point attacker is still a best response;
        # but the *defender* now has a better reply than its uniform mix.
        assert not ok
        assert gaps["defender"] > 0.1

    def test_rejects_malformed_distributions(self, cycle_game):
        attacker = {v: 1.0 / 6 for v in cycle_game.graph.vertices()}
        with pytest.raises(GameError, match="empty"):
            verify_generalized_nash(cycle_game, attacker, {})
        with pytest.raises(GameError, match="sums to"):
            verify_generalized_nash(
                cycle_game, attacker, {cycle_game.strategies[0]: 0.4}
            )
        with pytest.raises(GameError, match="not in the family"):
            verify_generalized_nash(
                cycle_game, attacker, {(((0, 1)), ((2, 3)), ((4, 5))): 1.0}
            )

    def test_rejects_nan_probabilities(self, cycle_game):
        attacker, defender = uniform_family_equilibrium(cycle_game)
        nan_attacker = {**attacker, 0: float("nan")}
        with pytest.raises(GameError, match="attacker distribution has non-finite"):
            verify_generalized_nash(cycle_game, nan_attacker, defender)
        nan_defender = {**defender, cycle_game.strategies[0]: float("nan")}
        with pytest.raises(GameError, match="defender distribution has non-finite"):
            verify_generalized_nash(cycle_game, attacker, nan_defender)

    def test_rejects_foreign_vertex(self, cycle_game):
        _, defender = uniform_family_equilibrium(cycle_game)
        with pytest.raises(GameError, match="not in the graph"):
            verify_generalized_nash(cycle_game, {99: 1.0}, defender)
