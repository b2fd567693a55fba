"""Defender best response: maximum weight coverage by ``k`` edges.

Condition 3(a) of Theorem 3.4 compares the attacker mass ``m_s(t)`` of the
support tuples against ``max_t m_s(t)`` over the *whole* strategy set
``E^k``.  Computing that maximum is the "maximum coverage with k edges"
problem (pick ``k`` edges maximizing the total weight of *distinct* covered
endpoints), which is NP-hard in general — the structural equilibria of the
paper avoid it analytically, but verification and baseline solvers need the
actual optimum.  Three strategies are provided:

* :func:`exhaustive_best_tuple` — exact, enumerates ``C(m, k)`` tuples;
* :func:`branch_and_bound_best_tuple` — exact, prunes with the admissible
  bound "sum of the top remaining static edge weights";
* :func:`greedy_tuple` — the classical ``(1 − 1/e)``-approximation, for
  instances where exact search is hopeless.

:func:`best_tuple` is the dispatching entry point; its ``auto`` method
always runs the branch and bound.

This module is a thin compatibility facade: the actual search runs on the
amortized :class:`~repro.kernels.coverage.CoverageOracle` (one precompute
per ``(graph, k)``, memoized process-wide), so repeated queries against the
same instance — the double-oracle / fictitious-play / verification access
pattern — skip all graph re-derivation.  Both exact methods return the
canonical **lexicographically smallest** optimal tuple, ties included.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.core.tuples import EdgeTuple, tuple_vertices
from repro.graphs.core import Graph, GraphError, Vertex
from repro.kernels.coverage import shared_oracle
from repro.obs import metrics, tracing

__all__ = [
    "coverage_value",
    "exhaustive_best_tuple",
    "branch_and_bound_best_tuple",
    "greedy_tuple",
    "best_tuple",
]


def coverage_value(weights: Mapping[Vertex, float], t: EdgeTuple) -> float:
    """Total weight of the distinct endpoints of ``t``."""
    return sum(weights.get(v, 0.0) for v in tuple_vertices(t))


def _check_k(graph: Graph, k: int) -> None:
    if not 1 <= k <= graph.m:
        raise GraphError(f"k must satisfy 1 <= k <= m={graph.m}; got {k}")


@tracing.traced("best_response.exhaustive")
def exhaustive_best_tuple(
    graph: Graph, weights: Mapping[Vertex, float], k: int
) -> Tuple[EdgeTuple, float]:
    """Exact maximum by full enumeration of ``E^k``.

    Deterministic tie-breaking: the lexicographically smallest optimal
    tuple wins.
    """
    _check_k(graph, k)
    return shared_oracle(graph, k).exhaustive(weights)


@tracing.traced("best_response.branch_and_bound")
def branch_and_bound_best_tuple(
    graph: Graph, weights: Mapping[Vertex, float], k: int
) -> Tuple[EdgeTuple, float]:
    """Exact maximum via depth-first branch and bound.

    Edges are pre-sorted by *static* weight ``w(u) + w(v)`` (an upper bound
    on any edge's marginal contribution), and a prefix-sum bound prunes
    branches that cannot beat the incumbent.  Worst case exponential, but
    fast on the benchmark instances because attacker mass concentrates on
    few vertices.  Returns the same canonical (lexicographically smallest)
    optimal tuple as :func:`exhaustive_best_tuple`, ties included.
    """
    _check_k(graph, k)
    return shared_oracle(graph, k).branch_and_bound(weights)


@tracing.traced("best_response.greedy")
def greedy_tuple(
    graph: Graph, weights: Mapping[Vertex, float], k: int
) -> Tuple[EdgeTuple, float]:
    """Greedy ``(1 − 1/e)``-approximate coverage: repeatedly take the edge
    with the largest marginal weight (first in lexicographic order on
    ties)."""
    _check_k(graph, k)
    return shared_oracle(graph, k).greedy(weights)


@tracing.traced("best_response.best_tuple")
def best_tuple(
    graph: Graph,
    weights: Mapping[Vertex, float],
    k: int,
    method: str = "auto",
) -> Tuple[EdgeTuple, float]:
    """Exact defender best response against attacker masses ``weights``.

    ``method`` is one of ``"auto"`` (branch and bound, the fastest exact
    search at every size), ``"exhaustive"`` (the DFS reference path),
    ``"bnb"`` or ``"greedy"`` (the only inexact choice).  Both exact
    searches return the lexicographically smallest optimal tuple and the
    same value, bit for bit.
    """
    _check_k(graph, k)
    metrics.counter("best_response.calls.count").inc()
    metrics.counter(f"best_response.method.{method}.count").inc()
    return shared_oracle(graph, k).best(weights, method=method)
