"""Random game generation for the differential fuzzer.

Every case is a :class:`GameSpec` — a *concrete* graph (edges, not a
generator call) plus ``(k, ν)`` and provenance metadata.  Storing the
materialized edges rather than the recipe keeps three consumers honest:

* the corpus (:mod:`repro.fuzz.corpus`) replays a byte-identical game no
  matter how the generator registry evolves;
* the shrinker (:mod:`repro.fuzz.shrink`) can delete edges one by one
  without needing an inverse of the generator;
* a failure report shows the exact instance, not a seed to decode.

Generation is fully deterministic: all randomness flows through the
``random.Random`` instance handed in by the caller, so a master seed
reproduces the whole batch.  Alongside the stock families from
:mod:`repro.graphs.generators` the sampler injects the adversarial shapes
that historically break solvers: multi-component graphs (disjoint unions),
string and mixed int/str vertex labels, and the exact ``n = 2k + 1``
boundary of Corollary 3.3 (odd cycles where the defender is one edge short
of a cover).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.game import GameError, TupleGame
from repro.core.serialize import check_document
from repro.core.tuples import count_tuples
from repro.graphs.core import (
    Graph,
    Vertex,
    canonical_edge,
    edge_sort_key,
    vertex_sort_key,
)
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_star_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_bipartite_graph,
    random_connected_graph,
    random_tree,
    star_graph,
    wheel_graph,
)
from repro.graphs.transform import disjoint_union

__all__ = [
    "GameSpec",
    "FAMILIES",
    "LABEL_MODES",
    "SPEC_FORMAT",
    "random_spec",
]

SPEC_FORMAT = "repro.fuzz.case.v1"

#: Keep every sampled instance inside the budget of the *exact* solver
#: paths: the full LP enumerates ``C(m, k)`` tuples and the smoke gate
#: runs dozens of games in seconds.
_TUPLE_BUDGET = 500
_MAX_K = 3
_MAX_NU = 3

LABEL_MODES: Tuple[str, ...] = ("int", "str", "mixed")
"""Vertex relabeling modes: consecutive ints, ``"v{i}"`` strings, or an
alternating int/string mix (unsortable by bare ``sorted``)."""


class GameSpec:
    """A concrete, replayable fuzz case.

    Attributes
    ----------
    edges:
        The materialized edge list (canonically sorted).  The vertex set
        is implied — fuzz instances never have isolated vertices.
    k / nu:
        Game parameters for :class:`~repro.core.game.TupleGame`.
    family:
        Provenance: generator-family name (``"cycle"``, ``"union"``,
        ``"odd-boundary"``, ``"shrunk"``, ...).
    label_mode:
        Which relabeling was applied (one of :data:`LABEL_MODES`).
    seed:
        The per-case derived seed, for log forensics only — replay uses
        the edges, never the seed.
    """

    __slots__ = ("edges", "k", "nu", "family", "label_mode", "seed")

    def __init__(
        self,
        edges: Sequence[Tuple[Vertex, Vertex]],
        k: int,
        nu: int,
        family: str = "unknown",
        label_mode: str = "int",
        seed: int = 0,
    ) -> None:
        self.edges = tuple(
            sorted((canonical_edge(*e) for e in edges), key=edge_sort_key)
        )
        self.k = int(k)
        self.nu = int(nu)
        self.family = str(family)
        self.label_mode = str(label_mode)
        self.seed = int(seed)

    def to_game(self) -> TupleGame:
        """Materialize the :class:`TupleGame` (re-validating everything)."""
        return TupleGame(Graph(self.edges), self.k, self.nu)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict; inverse of :meth:`from_payload`."""
        return {
            "format": SPEC_FORMAT,
            "edges": [list(e) for e in self.edges],
            "k": self.k,
            "nu": self.nu,
            "family": self.family,
            "label_mode": self.label_mode,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GameSpec":
        """Rebuild a spec from :meth:`to_payload` output (strict)."""
        def decode(payload: Dict[str, Any]) -> "GameSpec":
            edges = [tuple(e) for e in payload["edges"]]
            for e in edges:
                if len(e) != 2:
                    raise GameError(f"edge {e!r} is not a pair")
            return cls(
                edges,
                int(payload["k"]),
                int(payload["nu"]),
                family=payload.get("family", "unknown"),
                label_mode=payload.get("label_mode", "int"),
                seed=int(payload.get("seed", 0)),
            )
        return check_document(payload, SPEC_FORMAT, "fuzz-case", decode)

    def describe(self) -> str:
        g = Graph(self.edges)
        return (
            f"{self.family}[{self.label_mode}] n={g.n} m={g.m} "
            f"k={self.k} nu={self.nu}"
        )

    def __repr__(self) -> str:
        return f"GameSpec({self.describe()}, seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameSpec):
            return NotImplemented
        return (self.edges, self.k, self.nu) == (other.edges, other.k, other.nu)

    def __hash__(self) -> int:
        return hash((self.edges, self.k, self.nu))


# --------------------------------------------------------------------------
# family registry


def _derived(rng: random.Random) -> int:
    """A fresh 32-bit sub-seed for the seeded stock generators."""
    return rng.randrange(2**32)


FAMILIES: Dict[str, Callable[[random.Random], Graph]] = {
    "path": lambda rng: path_graph(rng.randint(2, 8)),
    "cycle": lambda rng: cycle_graph(rng.randint(3, 8)),
    "complete": lambda rng: complete_graph(rng.randint(3, 5)),
    "complete-bipartite": lambda rng: complete_bipartite_graph(
        rng.randint(1, 3), rng.randint(2, 3)
    ),
    "star": lambda rng: star_graph(rng.randint(2, 6)),
    "double-star": lambda rng: double_star_graph(
        rng.randint(1, 3), rng.randint(1, 3)
    ),
    "grid": lambda rng: grid_graph(2, rng.randint(2, 4)),
    "wheel": lambda rng: wheel_graph(rng.randint(3, 5)),
    "random-tree": lambda rng: random_tree(rng.randint(3, 8), seed=_derived(rng)),
    "random-connected": lambda rng: random_connected_graph(
        rng.randint(4, 7), rng.randint(1, 3), seed=_derived(rng)
    ),
    "random-bipartite": lambda rng: random_bipartite_graph(
        rng.randint(2, 3), rng.randint(2, 4), 0.5, seed=_derived(rng)
    ),
    "gnp": lambda rng: gnp_random_graph(
        rng.randint(4, 7), 0.4, seed=_derived(rng)
    ),
}
"""Base shape registry — every entry yields a small valid game graph."""


def _relabel_graph(graph: Graph, mode: str) -> Graph:
    """Map the vertex set onto the requested label domain.

    Canonical-order indices keep the relabeling deterministic for a given
    input graph, whatever labels the family or union step produced.
    """
    ordered = sorted(graph.vertices(), key=vertex_sort_key)
    if mode == "int":
        mapping: Dict[Vertex, Vertex] = {v: i for i, v in enumerate(ordered)}
    elif mode == "str":
        mapping = {v: f"v{i}" for i, v in enumerate(ordered)}
    elif mode == "mixed":
        mapping = {
            v: (i if i % 2 == 0 else f"s{i}") for i, v in enumerate(ordered)
        }
    else:
        raise GameError(f"unknown label mode {mode!r}")
    return Graph((mapping[u], mapping[v]) for u, v in graph.edges())


def _fit_k(graph: Graph, k: int) -> int:
    """Largest ``k' ≤ k`` whose tuple count fits the exact-path budget."""
    k = max(1, min(k, graph.m))
    while k > 1 and count_tuples(graph, k) > _TUPLE_BUDGET:
        k -= 1
    return k


def random_spec(rng: random.Random, seed: int = 0) -> GameSpec:
    """Sample one fuzz case.

    ``rng`` drives every choice; ``seed`` is recorded as provenance.
    Mix: ~60% single stock family, ~20% two-component disjoint union,
    ~20% the ``n = 2k + 1`` odd-cycle boundary of Corollary 3.3.
    """
    label_mode = rng.choice(LABEL_MODES)
    shape = rng.random()
    if shape < 0.2:
        # C3.3 boundary: an odd cycle C_{2k+1} has ρ(G) = k + 1, so the
        # defender is exactly one edge short of a pure equilibrium.
        k = rng.randint(1, _MAX_K)
        graph = cycle_graph(2 * k + 1)
        family = "odd-boundary"
    elif shape < 0.4:
        names = rng.sample(sorted(FAMILIES), 2)
        graph = disjoint_union(FAMILIES[names[0]](rng), FAMILIES[names[1]](rng))
        family = f"union:{names[0]}+{names[1]}"
        k = rng.randint(1, _MAX_K)
    else:
        name = rng.choice(sorted(FAMILIES))
        graph = FAMILIES[name](rng)
        family = name
        k = rng.randint(1, _MAX_K)
    graph = _relabel_graph(graph, label_mode)
    k = _fit_k(graph, k)
    nu = rng.randint(1, _MAX_NU)
    return GameSpec(
        graph.sorted_edges(), k, nu,
        family=family, label_mode=label_mode, seed=seed,
    )
