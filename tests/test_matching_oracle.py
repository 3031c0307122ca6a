"""Every matcher against the independent sequential-greedy oracle.

Under the strict (score desc, hashed priority asc) order the
locally-dominant matching is unique and equals the greedy one, so each
matcher must return exactly the oracle's edge set.  The families are the
ones that break fast kernels: the pass-count worst case, a hub, mass
score ties, coalesced multi-edges and isolated vertices.
"""

import numpy as np
import pytest

from repro.core import create_kernel, is_maximal_matching
from repro.core.matching import _streamed_passes
from repro.generators import planted_partition_graph, rmat_graph
from repro.graph import from_edges
from repro.reference import greedy_matching_ref
from repro.reference.greedy_matching import edge_priority_ref


def streamed(legacy_sweep):
    """The pass loop both matchers run on a spilled graph, as a callable
    over eight edge windows (the default shard count)."""

    def match(graph, scores):
        return _streamed_passes(
            graph,
            scores,
            legacy_sweep=legacy_sweep,
            shard_edges=max(1, -(-graph.n_edges // 8)),
        )

    return match


MATCHERS = {
    "worklist": create_kernel("matcher", "worklist"),
    "sweep": create_kernel("matcher", "sweep"),
    "streamed": streamed(legacy_sweep=False),
    "streamed-sweep": streamed(legacy_sweep=True),
}
SCORINGS = ["modularity", "weight", "equal"]


def monotone_path(n=300):
    i = np.arange(n - 1)
    return from_edges(i, i + 1, np.arange(1.0, n))


def hub_star(n=400):
    leaves = np.arange(1, n)
    return from_edges(np.zeros(n - 1, dtype=np.int64), leaves)


def equal_clique(n=40):
    i, j = np.triu_indices(n, k=1)
    return from_edges(i, j)


def multi_edges(n=60, m=200, copies=25, seed=3):
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, m)
    j = rng.integers(0, n, m)
    # Every edge repeated, half of the copies reversed: coalescing must
    # leave one edge per pair carrying the summed weight.
    ii = np.concatenate([i] * copies + [j] * copies)
    jj = np.concatenate([j] * copies + [i] * copies)
    return from_edges(ii, jj, rng.uniform(0.5, 2.0, len(ii)), n_vertices=n)


def isolated_vertices(n=500, seed=5):
    rng = np.random.default_rng(seed)
    active = rng.choice(n, 60, replace=False)
    i = rng.choice(active, 150)
    j = rng.choice(active, 150)
    return from_edges(i, j, n_vertices=n)


FAMILIES = {
    "monotone-path": monotone_path,
    "hub-star": hub_star,
    "equal-clique": equal_clique,
    "multi-edges": multi_edges,
    "isolated-vertices": isolated_vertices,
    "rmat-10": lambda: rmat_graph(10, 8, seed=1),
    "sbm-2000": lambda: planted_partition_graph(2000, seed=1),
}


def scores_for(graph, scoring):
    if scoring == "equal":
        return np.ones(graph.n_edges)
    return create_kernel("scorer", scoring).score(graph)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return request.param, FAMILIES[request.param]()


class TestOraclePriority:
    def test_matches_kernel_multiplier_wraparound(self):
        # The plain-int priority is the wrapped int64 product.
        assert edge_priority_ref(0) == 0
        assert edge_priority_ref(1) == 0x9E3779B97F4A7C15 - (1 << 64)
        assert edge_priority_ref(2) == (2 * 0x9E3779B97F4A7C15) % (1 << 64)


class TestMatchersEqualGreedyOracle:
    @pytest.mark.parametrize("scoring", SCORINGS)
    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_edge_set_equals_oracle(self, family, matcher, scoring):
        name, graph = family
        scores = scores_for(graph, scoring)
        expected = greedy_matching_ref(graph, scores)
        result = MATCHERS[matcher](graph, scores)
        np.testing.assert_array_equal(
            np.sort(result.matched_edges), expected, err_msg=name
        )
        assert is_maximal_matching(graph, scores, result)

    def test_families_are_nontrivial(self, family):
        name, graph = family
        matched = greedy_matching_ref(graph, np.ones(graph.n_edges))
        assert len(matched) > 0, name


class TestAdversarialShapes:
    def test_monotone_path_takes_every_other_edge_from_the_top(self):
        g = monotone_path(9)
        matched = greedy_matching_ref(g, g.edges.w.copy())
        # Heaviest edge first, then every second edge below it.
        ranks = np.argsort(-g.edges.w)
        assert matched.tolist() == sorted(ranks[::2].tolist())

    def test_hub_star_matches_exactly_one_edge(self):
        g = hub_star(50)
        assert len(greedy_matching_ref(g, np.ones(g.n_edges))) == 1

    def test_equal_clique_is_perfect(self):
        g = equal_clique(40)
        assert len(greedy_matching_ref(g, np.ones(g.n_edges))) == 20

    def test_multi_edges_coalesce(self):
        g = multi_edges()
        pairs = set(zip(g.edges.ei.tolist(), g.edges.ej.tolist()))
        assert len(pairs) == g.n_edges
        assert g.n_edges <= 200
