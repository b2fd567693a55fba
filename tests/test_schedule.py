"""Tests for deterministic scan rosters (repro.analysis.schedule)."""

import pytest

import random

from repro.analysis.schedule import (
    best_response_schedule,
    compile_roster,
    roster_discrepancy,
    roster_frequencies,
)
from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.equilibria.solve import solve_game
from repro.graphs.generators import complete_bipartite_graph, grid_graph, path_graph
from repro.solvers.best_response import best_tuple


@pytest.fixture
def equilibrium():
    game = TupleGame(complete_bipartite_graph(2, 5), 2, nu=1)
    return game, solve_game(game).mixed


class TestCompileRoster:
    def test_exact_frequencies_when_divisible(self, equilibrium):
        game, config = equilibrium
        support = len(config.tp_support())
        roster = compile_roster(config, length=support * 12)
        frequencies = roster_frequencies(roster)
        for t, p in config.tp_distribution().items():
            assert frequencies[t] == pytest.approx(p)

    def test_non_divisible_length_within_one_slot(self, equilibrium):
        game, config = equilibrium
        length = len(config.tp_support()) * 7 + 3
        roster = compile_roster(config, length=length)
        frequencies = roster_frequencies(roster)
        for t, p in config.tp_distribution().items():
            assert abs(frequencies[t] - p) <= 1.0 / length + 1e-12

    def test_every_support_tuple_appears(self, equilibrium):
        game, config = equilibrium
        roster = compile_roster(config, length=len(config.tp_support()))
        assert set(roster) == config.tp_support()

    def test_rejects_too_short_roster(self, equilibrium):
        game, config = equilibrium
        with pytest.raises(GameError, match="cannot represent"):
            compile_roster(config, length=len(config.tp_support()) - 1)

    def test_non_uniform_distribution(self):
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(
            game, [{0: 1.0}], {((0, 1),): 0.75, ((2, 3),): 0.25}
        )
        roster = compile_roster(config, length=8)
        frequencies = roster_frequencies(roster)
        assert frequencies[((0, 1),)] == pytest.approx(0.75)
        assert frequencies[((2, 3),)] == pytest.approx(0.25)

    def test_deterministic(self, equilibrium):
        game, config = equilibrium
        assert compile_roster(config, 20) == compile_roster(config, 20)


class TestBestResponseSchedule:
    def test_equals_one_best_tuple_call_per_profile(self):
        graph = grid_graph(3, 3)
        rng = random.Random(11)
        profiles = [
            {v: rng.randrange(1, 30) / 10 for v in graph.vertices()}
            for _ in range(5)
        ]
        for method in ("auto", "exhaustive", "greedy"):
            schedule = best_response_schedule(graph, 2, profiles, method=method)
            assert schedule == [
                best_tuple(graph, profile, 2, method=method)
                for profile in profiles
            ]

    def test_empty_sweep_raises(self):
        with pytest.raises(GameError, match="at least one profile"):
            best_response_schedule(grid_graph(3, 3), 2, [])


class TestDiscrepancy:
    def test_compiled_roster_is_even_in_time(self, equilibrium):
        game, config = equilibrium
        roster = compile_roster(config, length=40)
        assert roster_discrepancy(roster, config) <= 1.0 + 1e-9

    def test_blocked_roster_is_uneven(self):
        """Playing each tuple in one solid block has discrepancy ~L/2."""
        game = TupleGame(path_graph(4), 1, nu=1)
        config = MixedConfiguration(
            game, [{0: 1.0}], {((0, 1),): 0.5, ((2, 3),): 0.5}
        )
        blocked = [((0, 1),)] * 10 + [((2, 3),)] * 10
        assert roster_discrepancy(blocked, config) >= 4.9
        interleaved = compile_roster(config, 20)
        assert roster_discrepancy(interleaved, config) <= 1.0 + 1e-9

    def test_rejects_off_support_play(self, equilibrium):
        game, config = equilibrium
        foreign = tuple(sorted(game.graph.sorted_edges()[:2]))
        roster = [foreign]
        if foreign in config.tp_support():
            pytest.skip("chosen tuple happens to be on-support")
        with pytest.raises(GameError, match="off-support"):
            roster_discrepancy(roster, config)

    def test_empty_roster_frequencies_raises(self):
        with pytest.raises(GameError):
            roster_frequencies([])


class TestOperationalPipeline:
    def test_grid_schedule_end_to_end(self):
        """Solve, compile a month of nightly scans, check evenness."""
        game = TupleGame(grid_graph(3, 3), 2, nu=4)
        config = solve_game(game).mixed
        roster = compile_roster(config, length=30)
        assert len(roster) == 30
        assert roster_discrepancy(roster, config) <= 1.0 + 1e-9
        for t in roster:
            assert t in config.tp_support()
