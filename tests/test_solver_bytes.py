"""Golden bytes: solver results must not move by a single bit.

Each case solves a seeded game and compares the canonical JSON of the
result with the file committed under ``tests/fixtures/solver_bytes/``.
Cache keys and ledger fingerprints are derived from these bytes, so a
refactor of the LP, double-oracle, fictitious-play or coverage-kernel code
must reproduce them exactly.

Regenerate the fixtures (only when a change of result is intended) with::

    PYTHONPATH=src python tests/test_solver_bytes.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Dict

import pytest

from repro.core.game import TupleGame
from repro.core.serialize import configuration_to_json, game_from_json
from repro.equilibria.solve import solve_game, solve_result_to_json
from repro.graphs.generators import (
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    petersen_graph,
    random_bipartite_graph,
    random_tree,
)
from repro.solvers.double_oracle import (
    double_oracle,
    double_oracle_result_to_json,
)
from repro.solvers.fictitious_play import (
    fictitious_play,
    fictitious_play_result_to_json,
)
from repro.solvers.lp import lp_equilibrium
from repro.weighted.game import (
    weighted_lp_equilibrium,
    weighted_lp_result_to_json,
)

ROOT = pathlib.Path(__file__).parent / "fixtures"
FIXTURES = ROOT / "solver_bytes"

#: Small games every solver can handle.
SMALL_GAMES: Dict[str, Callable[[], TupleGame]] = {
    "bipartite": lambda: TupleGame(random_bipartite_graph(4, 5, 0.5, seed=3), 2),
    "tree": lambda: TupleGame(random_tree(9, seed=4), 2),
    "grid": lambda: TupleGame(grid_graph(3, 3), 2),
    "petersen": lambda: TupleGame(petersen_graph(), 2),
    "gnp": lambda: TupleGame(gnp_random_graph(8, 0.4, seed=5), 2, nu=2),
    "cycle": lambda: TupleGame(cycle_graph(7), 3),
}

#: A game shaped like the benchmark's double-oracle inputs: C(m, k) is
#: far too large for the full LP, so only the double-oracle and
#: fictitious-play paths solve it.
LARGE_GAMES: Dict[str, Callable[[], TupleGame]] = {
    "do-bipartite": lambda: TupleGame(
        random_bipartite_graph(16, 19, 0.13, seed=7), 4
    ),
}

DO_VARIANTS = {
    "do-auto": {},
    "do-greedy": {"method": "greedy"},
    "do-lazy": {"lazy_attacker": True},
}

WEIGHTED_FIXTURES = ("weighted_game_a", "weighted_game_b")


def _lp_json(game: TupleGame) -> str:
    config, solution = lp_equilibrium(game)
    return json.dumps(
        {
            "configuration": json.loads(configuration_to_json(config)),
            "value": solution.value,
        },
        sort_keys=True, separators=(",", ":"),
    )


def _solve_json(game: TupleGame) -> str:
    return solve_result_to_json(solve_game(game))


def _cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    for name, make in {**SMALL_GAMES, **LARGE_GAMES}.items():
        for variant, kwargs in DO_VARIANTS.items():
            cases[f"{variant}.{name}"] = (
                lambda make=make, kwargs=kwargs:
                double_oracle_result_to_json(double_oracle(make(), **kwargs))
            )
        cases[f"fp.{name}"] = lambda make=make: (
            fictitious_play_result_to_json(fictitious_play(make(), rounds=30))
        )
    for name, make in SMALL_GAMES.items():
        cases[f"lp.{name}"] = lambda make=make: _lp_json(make())
        cases[f"solve.{name}"] = lambda make=make: _solve_json(make())
    for name in WEIGHTED_FIXTURES:
        cases[f"weighted-lp.{name}"] = lambda name=name: (
            weighted_lp_result_to_json(*weighted_lp_equilibrium(
                game_from_json((ROOT / "cache" / f"{name}.json").read_text())
            ))
        )
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_solver_bytes(case):
    expected = (FIXTURES / f"{case}.json").read_text()
    assert CASES[case]() == expected


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for case, produce in sorted(CASES.items()):
        (FIXTURES / f"{case}.json").write_text(produce())
        print(case)
