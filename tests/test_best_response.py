"""Tests for the coverage best-response solvers (repro.solvers.best_response)."""

import random

import pytest

from repro.graphs.core import GraphError
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.obs import metrics
from repro.solvers.best_response import (
    best_tuple,
    branch_and_bound_best_tuple,
    coverage_value,
    exhaustive_best_tuple,
    greedy_tuple,
)


class TestCoverageValue:
    def test_distinct_endpoints_only(self):
        weights = {0: 1.0, 1: 2.0, 2: 4.0}
        assert coverage_value(weights, ((0, 1), (1, 2))) == pytest.approx(7.0)

    def test_missing_vertices_count_zero(self):
        assert coverage_value({}, ((0, 1),)) == 0.0


class TestExactSolvers:
    def test_known_optimum_path(self):
        g = path_graph(5)
        weights = {0: 5.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 5.0}
        # Two edges cannot cover 0, 2 and 4 simultaneously on P5, so the
        # optimum takes both endpoints and forfeits the middle vertex.
        t, value = exhaustive_best_tuple(g, weights, 2)
        assert value == pytest.approx(10.0)
        assert t == ((0, 1), (3, 4))

    def test_overlap_penalized(self):
        # Star: all edges share the center, so extra edges add only leaves.
        g = star_graph(4)
        weights = {0: 10.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        t, value = exhaustive_best_tuple(g, weights, 2)
        assert value == pytest.approx(10.0 + 4.0 + 3.0)
        assert t == ((0, 3), (0, 4))

    @pytest.mark.parametrize("seed", range(15))
    def test_bnb_matches_exhaustive(self, seed):
        rng = random.Random(seed)
        g = gnp_random_graph(rng.randrange(5, 10), 0.5, seed=seed)
        weights = {v: rng.uniform(0, 3) for v in g.vertices()}
        k = rng.randrange(1, min(4, g.m) + 1)
        _, exhaustive_value = exhaustive_best_tuple(g, weights, k)
        _, bnb_value = branch_and_bound_best_tuple(g, weights, k)
        assert bnb_value == pytest.approx(exhaustive_value)

    def test_bnb_on_uniform_weights(self):
        g = cycle_graph(8)
        weights = {v: 1.0 for v in g.vertices()}
        _, value = branch_and_bound_best_tuple(g, weights, 4)
        assert value == pytest.approx(8.0)  # perfect cover exists

    def test_deterministic_tie_breaking(self):
        g = cycle_graph(6)
        weights = {v: 1.0 for v in g.vertices()}
        first = exhaustive_best_tuple(g, weights, 2)
        second = exhaustive_best_tuple(g, weights, 2)
        assert first == second


class TestCanonicalTieBreak:
    """Regression: the seed bnb explored edges in static-weight order and
    could return an equal-value but lexicographically *larger* tuple than
    exhaustive enumeration on ties.  Both exact methods must now return
    the canonical (lexicographically smallest) optimal tuple."""

    def test_pinned_pre_fix_disagreement(self):
        # On this instance the seed code returned ((0, 4), (3, 5)) from
        # exhaustive but ((3, 5), (4, 5)) from bnb (both value 6.0).
        rng = random.Random(1)
        g = gnp_random_graph(rng.randrange(5, 9), 0.5, seed=1)
        weights = {v: float(rng.choice([0, 1, 1, 2])) for v in g.vertices()}
        t_exh, v_exh = exhaustive_best_tuple(g, weights, 2)
        t_bnb, v_bnb = branch_and_bound_best_tuple(g, weights, 2)
        assert t_exh == t_bnb == ((0, 4), (3, 5))
        assert v_exh == v_bnb == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_methods_agree_on_ties(self, seed):
        # Integer weights with few levels make value ties the common case.
        rng = random.Random(seed)
        g = gnp_random_graph(rng.randrange(5, 9), 0.5, seed=seed)
        weights = {v: float(rng.choice([0, 1, 1, 2])) for v in g.vertices()}
        for k in range(1, min(4, g.m) + 1):
            assert exhaustive_best_tuple(g, weights, k) == \
                branch_and_bound_best_tuple(g, weights, k)


class TestGreedy:
    def test_greedy_is_optimal_on_disjoint_instance(self):
        g = path_graph(6)
        weights = {0: 3.0, 1: 3.0, 2: 0.0, 3: 0.0, 4: 2.0, 5: 2.0}
        _, value = greedy_tuple(g, weights, 2)
        assert value == pytest.approx(10.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_within_optimum(self, seed):
        rng = random.Random(seed)
        g = gnp_random_graph(8, 0.5, seed=seed)
        weights = {v: rng.uniform(0, 2) for v in g.vertices()}
        k = min(3, g.m)
        _, opt = exhaustive_best_tuple(g, weights, k)
        _, approx = greedy_tuple(g, weights, k)
        assert approx <= opt + 1e-9
        # 1 - 1/e guarantee, with slack for exact-arithmetic edge cases.
        assert approx >= (1 - 1 / 2.718281828) * opt - 1e-9

    def test_greedy_returns_k_distinct_edges(self):
        g = complete_bipartite_graph(3, 3)
        t, _ = greedy_tuple(g, {v: 1.0 for v in g.vertices()}, 4)
        assert len(set(t)) == 4


class TestDispatch:
    def test_auto_uses_exhaustive_for_small(self):
        g = path_graph(4)
        result_auto = best_tuple(g, {0: 1.0}, 1, method="auto")
        result_ex = exhaustive_best_tuple(g, {0: 1.0}, 1)
        assert result_auto == result_ex

    def test_auto_switches_to_bnb(self):
        # auto runs the branch and bound even when C(m, k) is tiny.
        g = complete_bipartite_graph(4, 5)
        weights = {v: 1.0 for v in g.vertices()}
        exhaustive_runs = metrics.counter("perf.kernel.query.exhaustive.count")
        before = exhaustive_runs.value
        result = best_tuple(g, weights, 3, method="auto")
        assert exhaustive_runs.value == before
        assert result == branch_and_bound_best_tuple(g, weights, 3)
        assert result == exhaustive_best_tuple(g, weights, 3)

    def test_explicit_methods(self):
        g = path_graph(5)
        weights = {v: 1.0 for v in g.vertices()}
        for method in ("exhaustive", "bnb", "greedy"):
            t, value = best_tuple(g, weights, 2, method=method)
            assert len(t) == 2

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            best_tuple(path_graph(4), {}, 1, method="magic")

    def test_bad_k(self):
        with pytest.raises(GraphError):
            best_tuple(path_graph(4), {}, 0)
        with pytest.raises(GraphError):
            best_tuple(path_graph(4), {}, 9)
