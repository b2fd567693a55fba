"""Tests for fictitious play (repro.solvers.fictitious_play)."""

import pytest

from repro.core.game import TupleGame
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from repro.matching.covers import minimum_edge_cover_size
from repro.obs import metrics
from repro.solvers.fictitious_play import fictitious_play
from repro.solvers.lp import solve_minimax


class TestValueBounds:
    @pytest.mark.parametrize(
        "graph, k",
        [(path_graph(5), 1), (path_graph(5), 2), (complete_bipartite_graph(2, 4), 2),
         (cycle_graph(6), 1), (petersen_graph(), 2)],
        ids=["path5-k1", "path5-k2", "k24-k2", "cycle6-k1", "petersen-k2"],
    )
    def test_bounds_sandwich_true_value(self, graph, k):
        game = TupleGame(graph, k, nu=1)
        true_value = solve_minimax(game).value
        result = fictitious_play(game, rounds=400)
        assert result.lower_bound <= true_value + 1e-9
        assert result.upper_bound >= true_value - 1e-9

    def test_bounds_tighten_with_rounds(self):
        game = TupleGame(complete_bipartite_graph(2, 4), 2, nu=1)
        short = fictitious_play(game, rounds=50)
        long = fictitious_play(game, rounds=800)
        assert long.gap <= short.gap + 1e-9

    def test_converges_near_value(self):
        game = TupleGame(path_graph(5), 2, nu=1)
        true_value = solve_minimax(game).value
        result = fictitious_play(game, rounds=1500)
        assert result.value_estimate == pytest.approx(true_value, abs=0.05)


class TestMechanics:
    def test_deterministic(self):
        game = TupleGame(path_graph(6), 2, nu=1)
        a = fictitious_play(game, rounds=100)
        b = fictitious_play(game, rounds=100)
        assert a.attacker_strategy == b.attacker_strategy
        assert a.defender_strategy == b.defender_strategy

    def test_strategies_are_distributions(self):
        game = TupleGame(cycle_graph(6), 2, nu=1)
        result = fictitious_play(game, rounds=120)
        assert sum(result.attacker_strategy.values()) == pytest.approx(1.0)
        assert sum(result.defender_strategy.values()) == pytest.approx(1.0)

    def test_history_length_matches_rounds(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        result = fictitious_play(game, rounds=37)
        assert result.rounds == 37
        assert len(result.history) == 37

    def test_early_stop_on_tolerance(self):
        game = TupleGame(path_graph(4), 2, nu=1)
        result = fictitious_play(game, rounds=10_000, tolerance=0.2)
        assert result.rounds < 10_000
        assert result.gap <= 0.2

    def test_defender_gain_estimate_scales_with_nu(self):
        game = TupleGame(path_graph(5), 2, nu=4)
        result = fictitious_play(game, rounds=200)
        assert result.defender_gain_estimate(4) == pytest.approx(
            4 * result.value_estimate
        )

    def test_repr(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        assert "value≈" in repr(fictitious_play(game, rounds=20))

    def test_small_game_never_runs_the_dfs(self):
        # auto sends every best-response query to the branch and bound.
        exhaustive_runs = metrics.counter("perf.kernel.query.exhaustive.count")
        before = exhaustive_runs.value
        fictitious_play(TupleGame(petersen_graph(), 2, nu=1), rounds=30)
        assert exhaustive_runs.value == before


class TestDegenerateParameters:
    """Regression: rounds=0 used to surface as a bare ValueError from
    ``max()`` over the empty history (and a zero division building the
    empirical strategies) instead of a GameError — and the invalid call
    still minted a cache key."""

    def test_zero_rounds_raises_game_error(self):
        from repro.core.game import GameError

        game = TupleGame(path_graph(4), 1, nu=1)
        with pytest.raises(GameError, match="rounds >= 1"):
            fictitious_play(game, rounds=0)

    def test_negative_rounds_raises_game_error(self):
        from repro.core.game import GameError

        game = TupleGame(path_graph(4), 1, nu=1)
        with pytest.raises(GameError, match="rounds >= 1"):
            fictitious_play(game, rounds=-3)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, -5.0])
    def test_non_positive_tolerance_raises_game_error(self, tolerance):
        from repro.core.game import GameError

        game = TupleGame(path_graph(4), 1, nu=1)
        with pytest.raises(GameError, match="positive tolerance"):
            fictitious_play(game, rounds=10, tolerance=tolerance)

    def test_invalid_params_never_mint_a_cache_key(self, tmp_path):
        import repro.cache as result_cache
        from repro.core.game import GameError

        game = TupleGame(path_graph(4), 1, nu=1)
        result_cache.enable_cache(tmp_path)
        try:
            with pytest.raises(GameError):
                fictitious_play(game, rounds=0)
            assert result_cache.open_store(tmp_path).stats()["entries"] == 0
        finally:
            result_cache.disable_cache()

    def test_single_round_is_valid(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        result = fictitious_play(game, rounds=1)
        assert result.rounds == 1
        assert len(result.history) == 1
