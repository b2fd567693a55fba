"""Seeded inputs for the three workloads.

Everything here is a pure function of ``(workload, seed)``: the same seed
gives the same games, schedules, request bodies and trace ids.
"""

from __future__ import annotations

import json
import random
from math import comb
from typing import Any, Dict, List, Optional, Tuple

from repro.core.game import TupleGame
from repro.core.serialize import game_to_json
from repro.graphs.core import Graph
from repro.graphs.generators import random_tree
from repro.matching.covers import minimum_edge_cover_size
from repro.weighted.game import WeightedTupleGame

#: ``CoverageOracle.best(method="auto")`` runs the exhaustive DFS up to
#: this many tuples and branch and bound beyond
#: (``repro.kernels.coverage._AUTO_DFS_LIMIT``, restated so the
#: benchmark does not read a private name).
DFS_LIMIT = 20_000

#: fp-exhaustive shapes ``(left, right, m, k)``; every C(m, k) is at most
#: DFS_LIMIT, so each best response is the exhaustive DFS.
FP_SHAPES = [(9, 11, 26, 3), (10, 12, 30, 3), (7, 9, 20, 4)]
FP_ROUNDS = 30

#: do-lp shapes; every C(m, k) exceeds DFS_LIMIT, so the kernel runs
#: branch and bound and never the DFS.
DO_SHAPES = [(16, 19, 44, 4), (20, 23, 54, 3)]
#: Every WEIGHTED_EVERY-th do-lp game is a WeightedTupleGame.
WEIGHTED_EVERY = 5


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def bipartite_graph(rng: random.Random, left: int, right: int,
                    m: int) -> Graph:
    """A random bipartite graph with exactly ``m`` edges, no isolated
    vertex (so every game is valid)."""
    lhs = list(range(left))
    rhs = list(range(left, left + right))
    edges = set()
    for u in lhs:
        edges.add((u, rng.choice(rhs)))
    touched = {v for _, v in edges}
    for v in rhs:
        if v not in touched:
            edges.add((rng.choice(lhs), v))
    if len(edges) > m:
        raise ValueError(f"m={m} is below the {len(edges)} covering edges")
    while len(edges) < m:
        edges.add((rng.choice(lhs), rng.choice(rhs)))
    return Graph(sorted(edges))


def solver_games(workload: str, seed: int, count: int) -> List[Any]:
    """The closed-loop game stream of fp-exhaustive or do-lp.

    Shapes cycle so any prefix mixes them evenly; the graph structure
    (and, for weighted games, the weights) come from the seed.
    """
    rng = rng_for(workload, seed)
    shapes = FP_SHAPES if workload == "fp-exhaustive" else DO_SHAPES
    games: List[Any] = []
    for i in range(count):
        left, right, m, k = shapes[i % len(shapes)]
        graph = bipartite_graph(rng, left, right, m)
        if workload == "do-lp" and i % WEIGHTED_EVERY == WEIGHTED_EVERY - 1:
            weights = {v: round(rng.uniform(1.0, 4.0), 3)
                       for v in graph.sorted_vertices()}
            games.append(WeightedTupleGame(graph, k, weights))
        else:
            games.append(TupleGame(graph, k, 1))
    return games


def cascade_kind(game: Any) -> str:
    """The solve-cascade branch a bipartite game takes: Theorem 3.1 gives
    a pure NE iff ``k >= rho(G)``, Theorem 5.1 a k-matching one otherwise."""
    return "pure" if game.k >= minimum_edge_cover_size(game.graph) \
        else "k-matching"


def input_shares(games: List[Any]) -> Dict[str, float]:
    """Input-property shares over a fixed prefix of the stream."""
    n = len(games)
    return {
        "inputs.dfs_regime_frac": sum(
            comb(g.graph.m, g.k) <= DFS_LIMIT for g in games) / n,
        "inputs.weighted_frac": sum(
            isinstance(g, WeightedTupleGame) for g in games) / n,
        "inputs.kind.pure.count": float(
            sum(cascade_kind(g) == "pure" for g in games)),
        "inputs.kind.k-matching.count": float(
            sum(cascade_kind(g) == "k-matching" for g in games)),
    }


# --------------------------------------------------------------------------
# serve-mixed

#: Request mix per block of ten: 5 first-sight solves, 4 repeats of an
#: earlier game, 1 invalid body.  Blocks make the shares exact.
BLOCK = ["first"] * 5 + ["repeat"] * 4 + ["invalid"]
#: A repeat names a game first sent at least this many requests earlier,
#: so its first answer is normally already in the cache.
REPEAT_GAP = 6


def serve_game(rng: random.Random) -> TupleGame:
    """A bipartite graph or a tree; ``k`` ranges over both cascade
    branches.  No non-bipartite graphs: their exact partition search
    takes seconds and would swamp every other layer."""
    if rng.random() < 0.5:
        left = rng.randint(5, 8)
        right = rng.randint(left, left + 3)
        graph = bipartite_graph(rng, left, right,
                                rng.randint(left + right, 2 * (left + right)))
    else:
        graph = random_tree(rng.randint(10, 18), seed=rng.randrange(2**31))
    rho = minimum_edge_cover_size(graph)
    return TupleGame(graph, rng.randint(1, min(graph.m, rho + 1)), 1)


def invalid_body(rng: random.Random) -> bytes:
    """A well-formed request whose game fails validation (400
    ``invalid-game``)."""
    edges = [[0, 1], [1, 2], [2, 3]]
    game: Dict[str, Any] = {"vertices": [0, 1, 2, 3], "edges": edges,
                            "k": 1, "nu": 1}
    flaw = rng.randrange(3)
    if flaw == 0:
        game["k"] = 0
    elif flaw == 1:
        game["k"] = len(edges) + 1
    else:
        game["nu"] = 0
    return json.dumps({"game": game}).encode()


def solve_body(game: TupleGame) -> bytes:
    return json.dumps({"game": json.loads(game_to_json(game))}).encode()


class Request:
    """One scheduled request: when it is due, its body, and what a
    correct answer is (the game index, or None for an invalid body)."""

    __slots__ = ("due", "kind", "body", "game", "trace_id")

    def __init__(self, due: float, kind: str, body: bytes,
                 game: Optional[int], trace_id: str) -> None:
        self.due = due
        self.kind = kind
        self.body = body
        self.game = game
        self.trace_id = trace_id


class ServeStream:
    """The serve-mixed request stream: games and seeded trace ids.

    ``phase`` draws ``count`` requests; first-sight requests mint new
    games, repeats pick among games first sent at least REPEAT_GAP
    requests earlier in the stream.
    """

    def __init__(self, seed: int) -> None:
        self.rng = rng_for("serve-mixed", seed)
        self.games: List[TupleGame] = []
        self._first_at: List[int] = []
        self.sent = 0

    def _next(self, kind: str) -> Tuple[str, bytes, Optional[int]]:
        eligible = sum(1 for at in self._first_at
                       if at <= self.sent - REPEAT_GAP)
        if kind == "repeat" and eligible == 0:
            kind = "first"
        if kind == "invalid":
            return kind, invalid_body(self.rng), None
        if kind == "repeat":
            index = self.rng.randrange(eligible)
            return kind, solve_body(self.games[index]), index
        self.games.append(serve_game(self.rng))
        self._first_at.append(self.sent)
        return kind, solve_body(self.games[-1]), len(self.games) - 1

    def phase(self, count: int, duration: float,
              mix: bool = True) -> List[Request]:
        """``count`` requests due over ``duration`` seconds.

        Arrival offsets are ``count`` sorted uniform draws: a Poisson
        process conditioned on its count, so every seed sends exactly
        the same number of requests.  ``mix=False`` sends first-sight
        solves only (the warm-up that fills the repeat pool).
        """
        offsets = sorted(self.rng.uniform(0.0, duration)
                         for _ in range(count))
        kinds: List[str] = []
        while len(kinds) < count:
            block = list(BLOCK) if mix else ["first"] * len(BLOCK)
            self.rng.shuffle(block)
            kinds.extend(block)
        out = []
        for offset, drawn in zip(offsets, kinds):
            kind, body, game = self._next(drawn)
            trace_id = "%032x" % (self.rng.getrandbits(128) | 1)
            out.append(Request(offset, kind, body, game, trace_id))
            self.sent += 1
        return out
