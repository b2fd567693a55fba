"""The weighted Tuple model: hosts with unequal values.

The paper treats all hosts alike: an attacker scores 1 for escaping
anywhere.  Real networks have crown jewels.  This extension attaches a
positive weight ``w(v)`` to every vertex: an attacker on ``v`` earns
``w(v)`` if it escapes and 0 if caught, and the defender earns the total
weight of the attackers it catches.

The game stays *strategically* zero-sum, as the **escape game**
``E[t, v] = w(v)·(1 − [v ∈ V(t)])``.  The attacker's payoff is exactly
``E``; the defender's catch ``w(v)·Hit(v)`` is ``w(v) − E``, which
differs from ``−E`` by ``w(v)``, a constant in the *defender's* action.
So both sides' best responses, and hence the Nash equilibria, are those
of the zero-sum game over ``E`` (see DESIGN.md §6).  The catch matrix
``w(v)·[v ∈ V(t)]`` is *not* equivalent: catch and escape sum to
``w(v)``, which depends on the *attacker's* action, so under it the
attacker would hunt light vertices.  The escape game gives the weighted
model the same machinery:

* **pure NE** exist iff an edge cover of size ``k`` exists — Theorem 3.1's
  proof never uses the weights (an all-covering defender caps every
  attacker at its maximum-possible profit of 0);
* **mixed NE** come from the exact LP over the escape matrix — the
  duel engine of :mod:`repro.solvers.lp`, fed the negated escape payoff
  ``w(v)·[v ∈ V(t)] − w(v)`` — or from the shared double-oracle loop of
  :mod:`repro.solvers.double_oracle` beyond enumeration;
* the defender's best response is weighted k-edge coverage, which
  :mod:`repro.solvers.best_response` already solves.

What genuinely changes is the *structure*: uniform k-matching profiles
stop being equilibria (the attacker drifts to heavy vertices), and the
equilibrium hit probability on vertex ``v`` becomes ``1 − value/w(v)``
wherever the attacker is willing to stand — heavier hosts get scanned
proportionally harder.  Experiment E12 measures exactly that.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Mapping, Tuple

import repro.cache as result_cache
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import all_hit_probabilities, all_vertex_masses
from repro.core.serialize import (
    configuration_from_payload,
    configuration_payload,
    read_document,
    write_document,
)
from repro.core.tuples import all_tuples
from repro.graphs.core import Graph, Vertex
from repro.obs import ledger as obs_ledger
from repro.solvers.best_response import best_tuple
from repro.solvers.double_oracle import _check_loop_params, _double_oracle_loop
from repro.solvers.lp import (
    LPSolution,
    _scaled_coverage,
    _solution_from_payload,
    _solution_payload,
    minimax_over_strategies,
)

__all__ = [
    "WeightedTupleGame",
    "weighted_minimax",
    "weighted_lp_equilibrium",
    "weighted_double_oracle",
    "weighted_lp_result_to_json",
    "weighted_lp_result_from_json",
    "weighted_do_result_to_json",
    "weighted_do_result_from_json",
]

_DEFAULT_TUPLE_LIMIT = 200_000


class WeightedTupleGame:
    """``Π_k(G)`` with vertex weights.

    Parameters
    ----------
    graph, k, nu:
        As in :class:`~repro.core.game.TupleGame`.
    weights:
        Strictly positive value per vertex; every vertex must be covered.
    """

    def __init__(
        self, graph: Graph, k: int, weights: Mapping[Vertex, float], nu: int = 1
    ) -> None:
        self.base = TupleGame(graph, k, nu)
        w: Dict[Vertex, float] = {}
        for v in graph.vertices():
            if v not in weights:
                raise GameError(f"vertex {v!r} has no weight")
            value = float(weights[v])
            if not (value > 0.0 and math.isfinite(value)):
                raise GameError(
                    f"vertex weights must be positive and finite; "
                    f"{v!r} has {value!r}"
                )
            w[v] = value
        extra = set(weights) - graph.vertices()
        if extra:
            raise GameError(f"weights given for non-vertices: {sorted(extra, key=repr)!r}")
        self.weights = w

    @property
    def graph(self) -> Graph:
        return self.base.graph

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def nu(self) -> int:
        return self.base.nu

    def total_weight(self) -> float:
        return sum(self.weights.values())

    # ------------------------------------------------------------------
    # Profits
    # ------------------------------------------------------------------
    def pure_profit_attacker(self, config: PureConfiguration, i: int) -> float:
        """``w(s_i)`` if attacker ``i`` escapes, else 0."""
        v = config.vertex_choices[i]
        return 0.0 if v in config.covered_vertices() else self.weights[v]

    def pure_profit_defender(self, config: PureConfiguration) -> float:
        """Total weight of the caught attackers."""
        covered = config.covered_vertices()
        return sum(
            self.weights[v] for v in config.vertex_choices if v in covered
        )

    def expected_profit_attacker(self, config: MixedConfiguration, i: int) -> float:
        hits = all_hit_probabilities(config)
        return sum(
            p * self.weights[v] * (1.0 - hits[v])
            for v, p in config.vp_distribution(i).items()
        )

    def expected_profit_defender(self, config: MixedConfiguration) -> float:
        hits = all_hit_probabilities(config)
        masses = all_vertex_masses(config)
        return sum(
            masses[v] * self.weights[v] * hits[v] for v in self.graph.vertices()
        )

    # ------------------------------------------------------------------
    # Equilibrium checks
    # ------------------------------------------------------------------
    def verify_best_responses(
        self, config: MixedConfiguration, tol: float = 1e-9
    ) -> Tuple[bool, Dict[str, float]]:
        """First-principles NE check for the weighted game."""
        hits = all_hit_probabilities(config)
        best_attack = max(
            self.weights[v] * (1.0 - hits[v]) for v in self.graph.vertices()
        )
        gaps: Dict[str, float] = {}
        ok = True
        for i in range(self.nu):
            regret = best_attack - self.expected_profit_attacker(config, i)
            gaps[f"vp_{i}"] = regret
            if regret > tol:
                ok = False
        masses = all_vertex_masses(config)
        weighted_mass = {v: masses[v] * self.weights[v] for v in masses}
        _, best_defense = best_tuple(self.graph, weighted_mass, self.k)
        regret = best_defense - self.expected_profit_defender(config)
        gaps["tp"] = regret
        if regret > tol * max(1.0, self.total_weight()):
            ok = False
        return ok, gaps

    def __repr__(self) -> str:
        return (
            f"WeightedTupleGame(n={self.graph.n}, m={self.graph.m}, "
            f"k={self.k}, nu={self.nu})"
        )


def weighted_minimax(
    game: WeightedTupleGame, tuple_limit: int = _DEFAULT_TUPLE_LIMIT
) -> LPSolution:
    """Exact equilibrium of the weighted duel by LP.

    The escape game ``E[t, v] = w(v)·(1 − [v ∈ V(t)])`` solved by the
    generic duel engine over its negation ``w(v)·[v ∈ V(t)] − w(v)``
    (the defender maximizes the least negated escape), with the engine's
    two-LP duality-gap check.  The reported ``value`` is the equilibrium
    *escape* profit per attacker; the defender's per-attacker catch value
    follows from the attacker mixture.
    """
    base = game.base
    if base.tuple_strategy_count() > tuple_limit:
        raise GameError(
            f"C(m={base.m}, k={base.k}) exceeds the LP limit {tuple_limit}"
        )
    negated = minimax_over_strategies(
        game.graph.sorted_vertices(),
        all_tuples(game.graph, game.k),
        _scaled_coverage(game.weights, game.weights),
    )
    return LPSolution(-negated.value, negated.defender, negated.attacker)


_LP_RESULT_FORMAT = "repro.weighted.lp-result.v1"
_DO_RESULT_FORMAT = "repro.weighted.double-oracle-result.v1"


def _result_to_json(fmt: str, config: MixedConfiguration, field: str,
                    value: Any) -> str:
    """The one weighted-result codec: the equilibrium as a nested
    mixed-configuration document plus one solver field."""
    return write_document(
        fmt, {"configuration": configuration_payload(config), field: value}
    )


def _result_from_json(text: str, fmt: str, label: str, field: str,
                      decode: Callable[[Any], Any]) -> Tuple[Any, Any]:
    """Inverse of :func:`_result_to_json` (re-validated)."""
    return read_document(text, fmt, label, lambda payload: (
        configuration_from_payload(payload["configuration"]),
        decode(payload[field]),
    ))


def weighted_lp_result_to_json(
    config: MixedConfiguration, solution: LPSolution
) -> str:
    """Canonical JSON dump of a :func:`weighted_lp_equilibrium` outcome."""
    return _result_to_json(_LP_RESULT_FORMAT, config, "solution",
                           _solution_payload(solution))


def weighted_lp_result_from_json(
    text: str,
) -> Tuple[MixedConfiguration, LPSolution]:
    """Parse a :func:`weighted_lp_result_to_json` document (re-validated)."""
    return _result_from_json(text, _LP_RESULT_FORMAT, "weighted-LP",
                             "solution", _solution_from_payload)


def weighted_do_result_to_json(
    config: MixedConfiguration, value: float
) -> str:
    """Canonical JSON dump of a :func:`weighted_double_oracle` outcome."""
    return _result_to_json(_DO_RESULT_FORMAT, config, "value", float(value))


def weighted_do_result_from_json(
    text: str,
) -> Tuple[MixedConfiguration, float]:
    """Parse a :func:`weighted_do_result_to_json` document (re-validated)."""
    return _result_from_json(text, _DO_RESULT_FORMAT,
                             "weighted double-oracle", "value", float)


def weighted_lp_equilibrium(
    game: WeightedTupleGame, tuple_limit: int = _DEFAULT_TUPLE_LIMIT
) -> Tuple[MixedConfiguration, LPSolution]:
    """A mixed NE of the weighted game from the LP optima.

    ``solution.value`` is the per-attacker *escape* profit at equilibrium.
    Cache-aware: with :mod:`repro.cache` enabled, a repeated solve of the
    same weighted game (same weights — the fingerprint carries them) and
    ``tuple_limit`` replays the stored result, and the ledger record is
    stamped with ``cache_hit``.
    """
    probe = result_cache.lookup(
        game, "weighted.lp_equilibrium", {"tuple_limit": tuple_limit}
    )
    with obs_ledger.run("weighted.lp_equilibrium", game=game,
                        tuple_limit=tuple_limit, cache_hit=probe.hit):
        if probe.hit:
            cached = probe.replay(weighted_lp_result_from_json)
            if cached is not None:
                return cached
        solution = weighted_minimax(game, tuple_limit=tuple_limit)
        config = MixedConfiguration(
            game.base, [solution.attacker] * game.nu, solution.defender
        )
        probe.store(weighted_lp_result_to_json(config, solution))
    return config, solution


def weighted_double_oracle(
    game: WeightedTupleGame,
    tolerance: float = 1e-9,
    max_iterations: int = 300,
) -> Tuple[MixedConfiguration, float]:
    """Weighted equilibrium by double oracle over the escape game.

    The weighted analogue of :func:`repro.solvers.double_oracle.double_oracle`
    for instances whose ``C(m, k)`` defeats :func:`weighted_minimax`, run
    by the same loop: the defender oracle maximizes *weighted* coverage
    of the attacker mixture and the attacker oracle maximizes the escape
    profit ``w(v)(1 − hit(v))``.  A run whose certified gap exceeds the
    convergence slack warns and counts like the plain solver does.

    Returns ``(equilibrium configuration, escape value per attacker)``.
    Cache-aware like :func:`weighted_lp_equilibrium`.  Degenerate
    parameters are rejected before the cache probe, as
    :func:`~repro.solvers.double_oracle.double_oracle` rejects them.
    """
    _check_loop_params(tolerance, max_iterations)
    probe = result_cache.lookup(
        game, "weighted.double_oracle",
        {"tolerance": tolerance, "max_iterations": max_iterations},
    )
    with obs_ledger.run("weighted.double_oracle", game=game,
                        tolerance=tolerance, max_iterations=max_iterations,
                        cache_hit=probe.hit):
        if probe.hit:
            cached = probe.replay(weighted_do_result_from_json)
            if cached is not None:
                return cached
        result = _double_oracle_loop(
            game.base, game.weights, game.weights, tolerance,
            max_iterations, method="auto", lazy_attacker=False,
        )
        solution = result.solution
        config = MixedConfiguration(
            game.base, [solution.attacker] * game.nu, solution.defender
        )
        value = -solution.value
        probe.store(weighted_do_result_to_json(config, value))
    return config, value
